"""Fuzzing of the exit-code contract: every input ends in exit 0, 2 or 3.

Instance text goes to ``decide-span-f`` and ``perp``: arbitrary text, lines
of instance-file fragments (hostile sizes among them), and well-formed
instances over small random expressions, each within a deadline.  Golden JSON reports with one node replaced
or one key removed go to ``verify``.  Arbitrary bytes, undecodable ones
included, go to all three through an ``--input`` file.  ``run_command``
must return one of the documented exit codes and never raise.  Hypothesis
runs derandomized and without an example database, so every run is the
same and stores no examples.
"""

import contextlib
import copy
import io
import json
import sys
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from locspan import (
    PrimeField,
    flat,
    fraction_span_only_example,
    local_only_example,
    perp,
)
from locspan.cli import (
    instance_from_matrix_subspace,
    instance_from_subspace,
    run_command,
)

F5 = PrimeField(5)
FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150)
# instance text must be decided or refused within seconds; verify has no
# deadline (a forged witness-bounds report can take 10 s in its gcds)
TEXT_FUZZ = settings(FUZZ, deadline=timedelta(seconds=5))


def _run(argv, stdin_text):
    """Exit code and standard output of ``run_command`` on ``stdin_text``."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            return run_command(argv), out.getvalue()
    finally:
        sys.stdin = stdin


# -- instance text -----------------------------------------------------------

_HEADERS = ("field Q", "field Fp 5", "field Fp 4", "field Fp", "n 2", "n 3",
            "n 0", "n -1", "n 65", "n x", "kind linear-subspace",
            "kind matrix-subspace", "kind", "end", "# comment", "")
_PIECES = ("q1", "b1", " = ", "=", "[", "]", ",", "(", ")", "+", "-", "*",
           "^", "/", "y1", "y2", "y3", "y0", "y9", "z", "0", "1", "2", "3",
           "1/2", "1/0", "40", " ", "20000", "7" * 5000)

_lines = st.one_of(
    st.sampled_from(_HEADERS),
    st.lists(st.sampled_from(_PIECES), max_size=24).map("".join),
    st.text(max_size=24))

# instances of the declared shape over linear forms or constants, which get
# past the parser into the decisions; in a noisy one any entry may be an
# arbitrary small expression
_FORMS = ("y1", "2*y2", "-y3", "1/2*y1 + y3", "0", "y2 - y2")
_SCALARS = ("0", "1", "2", "-1", "1/2")
_exprs = st.recursive(
    st.sampled_from(_FORMS + _SCALARS + ("1/0", "y1*y2")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(" ".join),
        st.tuples(inner, st.integers(0, 3)).map("({0[0]})^{0[1]}".format)),
    max_leaves=4)


def _bracketed(items):
    return "[" + ", ".join(items) + "]"


@st.composite
def _assembled(draw, matrix):
    n = draw(st.integers(1, 3))
    entry = st.sampled_from(_SCALARS if matrix else _FORMS)
    if draw(st.booleans()):
        entry = entry | _exprs
    lines = [draw(st.sampled_from(["field Q", "field Fp 2", "field Fp 5"])),
             f"n {n}", f"kind {'matrix' if matrix else 'linear'}-subspace"]
    for k in range(1, draw(st.integers(1, n * n if matrix else n)) + 1):
        vectors = st.lists(entry, min_size=n, max_size=n).map(_bracketed)
        body = (st.lists(vectors, min_size=n, max_size=n).map(_bracketed)
                if matrix else vectors)
        lines.append(f"q{k} = {draw(body)}")
    return "\n".join(lines + ["end"])


_COMMANDS = st.sampled_from(["decide-span-f", "perp"])


@TEXT_FUZZ
@given(_COMMANDS, st.text(max_size=200) |
       st.lists(_lines, max_size=10).map("\n".join))
def test_instance_commands_survive_any_text(command, text):
    assert _run([command], text)[0] in (0, 2, 3)


@TEXT_FUZZ
@given(_assembled(matrix=False))
def test_decide_span_f_survives_assembled_instances(text):
    assert _run(["decide-span-f"], text)[0] in (0, 2, 3)


@TEXT_FUZZ
@given(_assembled(matrix=True))
def test_perp_survives_assembled_instances(text):
    assert _run(["perp"], text)[0] in (0, 2, 3)


# -- raw bytes ---------------------------------------------------------------

@FUZZ
@given(st.sampled_from(["decide-span-f", "perp", "verify"]),
       st.binary(max_size=300))
def test_input_files_of_any_bytes_survive(tmp_path_factory, command, data):
    path = tmp_path_factory.mktemp("bytes") / "input"
    path.write_bytes(data)
    assert _run([command, "--input", str(path)], "")[0] in (0, 2, 3)


def test_undecodable_input_exits_2(tmp_path):
    path = tmp_path / "input"
    path.write_bytes(b"field Q\nn 2\n\xff\xfe\n")
    for command in ("decide-span-f", "perp", "verify"):
        assert _run([command, "--input", str(path)], "")[0] == 2


# -- tampered reports --------------------------------------------------------

def _json_report(argv, instance_text):
    code, out = _run(argv + ["--json"], instance_text)
    assert code == 0
    return json.loads(out)


def _golden_reports():
    family = instance_from_subspace(local_only_example(4, 3)).canonical_text()
    counter = instance_from_subspace(
        fraction_span_only_example(3)).canonical_text()
    counter5 = instance_from_subspace(
        fraction_span_only_example(3, F5)).canonical_text()
    complement = instance_from_matrix_subspace(
        perp(flat(fraction_span_only_example(3)))).canonical_text()
    idempotent = ("field Fp 5\nn 2\nkind matrix-subspace\n"
                  "b1 = [[1, 0], [0, 0]]\nend\n")
    span_y = ("field Q\nn 3\nkind linear-subspace\n"
              "q1 = [y1, y2, y3]\nq2 = [0, 0, y1]\nend\n")
    jobs = [(["decide-span-f"], span_y),
            (["decide-span-l"], family),
            (["witness-bounds"], family),
            (["decide-local"], counter),
            (["decide-local", "--method", "points"], counter5),
            (["r1free"], complement),
            (["idempotent-search"], idempotent),
            (["pencil"], family),
            (["perp"], complement),
            # no certificate: verify re-derives these two
            (["decide-local"], family),
            (["tracezero"], complement)]
    return [_json_report(argv, text) for argv, text in jobs]


REPORTS = _golden_reports()


def _paths(node, prefix=()):
    """The path of every node below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 99), st.floats(),
    st.sampled_from(["", "0", "1", "-1", "2", "1/0", "1/5", "y1", "y2",
                     "y1*y2", "y1^2", "y5", "closure_radical",
                     "point_enumeration", "idempotent"]),
    st.text(max_size=12))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=6)


@settings(FUZZ, max_examples=300)
@given(st.data())
def test_verify_survives_tampered_reports(data):
    report = copy.deepcopy(data.draw(st.sampled_from(REPORTS)))
    *parents, last = data.draw(st.sampled_from(list(_paths(report))))
    holder = report
    for key in parents:
        holder = holder[key]
    if isinstance(holder, dict) and data.draw(st.booleans()):
        del holder[last]
    else:
        holder[last] = data.draw(_values)
    assert _run(["verify"], json.dumps(report))[0] in (0, 2, 3)
