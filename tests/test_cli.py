"""Instance parsing, report schema, subcommand behaviour, verify loop."""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from locspan import (
    QQ,
    MinorFailure,
    PrimeField,
    fraction_span_only_example,
    local_membership_closure,
    local_membership_points,
    local_only_example,
)
from locspan.cli import (
    MAX_DIMENSION,
    MAX_PARSE_DEPTH,
    MAX_PARSE_DIGITS,
    MAX_PARSE_TERMS,
    InstanceFile,
    ParseError,
    _build_parser,
    _failure_json,
    _parse_vector,
    instance_from_matrix_subspace,
    instance_from_subspace,
    parse_instance,
    parse_polynomial,
    run_command,
    verify_report,
)
from locspan import groebner
from locspan.groebner import radical_membership
from locspan.localmem import CHECK_PRIME, stratum_ideal
from locspan.matspace import flat, perp

from support import (
    random_subspace,
    record_bases,
    subspace_containing_target,
    vandermonde_y1,
)

GOLDEN_TEXT = """\
# the standard n=4, d=3 instance
field Q
n 4
kind linear-subspace
q1 = [y1, y2, y3 - y1, y4]
q2 = [0, 0, y1, -y2]
q3 = [0, 0, 0, y1]
end
"""

MATRIX_TEXT = """\
field Q
n 2
kind matrix-subspace
b1 = [[0, 1], [1, 0]]
b2 = [[1, 0], [0, -1]]
end
"""


def _run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = run_command(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_instance(tmp_path, text, name="instance.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- parsing -----------------------------------------------------------------

def test_parse_golden_matches_family():
    instance = parse_instance(GOLDEN_TEXT)
    assert instance.field == QQ and instance.nvars == 4
    assert instance.kind == "linear-subspace"
    subspace = instance.to_linear_subspace()
    assert subspace.basis == local_only_example(4, 3).basis


def test_parse_matrix_subspace():
    instance = parse_instance(MATRIX_TEXT)
    subspace = instance.to_matrix_subspace()
    assert subspace.dim == 2 and subspace.n == 2


def test_parse_round_trip_on_corpus():
    family = instance_from_subspace(local_only_example(4, 3))
    counter = instance_from_subspace(fraction_span_only_example(3))
    counter5 = instance_from_subspace(
        fraction_span_only_example(3, PrimeField(5)))
    matrix = instance_from_matrix_subspace(perp(flat(local_only_example(4, 3))))
    for instance in (family, counter, counter5, matrix,
                     parse_instance(MATRIX_TEXT)):
        text = instance.canonical_text()
        reparsed = parse_instance(text)
        assert reparsed == instance
        assert reparsed.canonical_text() == text
        assert reparsed.header()["digest"] == instance.header()["digest"]


def test_parse_errors():
    with pytest.raises(ParseError, match="not a linear form"):
        parse_instance("field Q\nn 3\nkind linear-subspace\n"
                       "q1 = [y1*y2, 0, 0]\nend\n")
    with pytest.raises(ParseError, match="not prime"):
        parse_instance("field Fp 4\nn 2\nkind linear-subspace\n"
                       "q1 = [y1, 0]\nend\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_instance("field Q\nn 2\nkind linear-subspace\n"
                       "q1 = [y3, 0]\nend\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_instance("field Q\nn 2\nkind linear-subspace\n"
                       "q1 = [y1, 0]\nq1 = [0, y2]\nend\n")
    with pytest.raises(ParseError, match="end"):
        parse_instance("field Q\nn 2\nkind linear-subspace\nq1 = [y1, 0]\n")
    with pytest.raises(ParseError, match="kind"):
        parse_instance("field Q\nn 2\nkind banana\nq1 = [y1, 0]\nend\n")
    with pytest.raises(ParseError, match="components"):
        parse_instance("field Q\nn 3\nkind linear-subspace\n"
                       "q1 = [y1, 0]\nend\n")
    with pytest.raises(ParseError, match="precede"):
        parse_instance("q1 = [y1, 0]\nend\n")
    # a header after a basis line would relabel the entries read so far
    with pytest.raises(ParseError, match="kind must precede") as info:
        parse_instance("field Q\nn 2\nkind linear-subspace\nq1 = [y1, y2]\n"
                       "kind matrix-subspace\nb1 = [[1, 0], [0, 1]]\nend\n")
    assert (info.value.line, info.value.col) == (5, 1)
    with pytest.raises(ParseError, match="denominator 0 is zero") as info:
        parse_instance("field Q\nn 3\nkind linear-subspace\n"
                       "q1 = [y1, 1/0*y2, y3]\nend\n")
    assert (info.value.line, info.value.col) == (4, 13)
    with pytest.raises(ParseError, match="denominator 5 is zero in GF"):
        parse_instance("field Fp 5\nn 2\nkind matrix-subspace\n"
                       "b1 = [[1/5, 0], [0, 1]]\nend\n")
    with pytest.raises(ParseError, match="cap"):
        parse_instance("field Fp 3317044064679887385961981\nn 2\n"
                       "kind linear-subspace\nq1 = [y1, 0]\nend\n")
    with pytest.raises(ParseError, match="not prime"):
        parse_instance("field Fp 3825123056546413051\nn 2\n"
                       "kind linear-subspace\nq1 = [y1, 0]\nend\n")
    big = parse_instance("field Fp 1000000000000000003\nn 2\n"
                         "kind linear-subspace\nq1 = [y1, 0]\nend\n")
    assert big.field == PrimeField(10 ** 18 + 3)


_LINEAR = "field Q\nn 2\nkind linear-subspace\n"
_MATRIX = "field Q\nn 2\nkind matrix-subspace\n"

PARSE_REFUSALS = [
    ("unexpected character '$'", _LINEAR + "q1 = [y1, y2 $]\nend\n", 4, 14),
    ("unexpected end of line", _LINEAR + "q1 = [y1, \nend\n", 4, 9),
    ("expected ']', found 'y2'", _LINEAR + "q1 = [y1 y2]\nend\n", 4, 10),
    ("exponent must be an integer literal",
     _LINEAR + "q1 = [y1^y2, y2]\nend\n", 4, 10),
    ("denominator must be an integer literal",
     _LINEAR + "q1 = [1/y1 * y1, y2]\nend\n", 4, 9),
    ("unknown identifier 'x1'", _LINEAR + "q1 = [x1, y2]\nend\n", 4, 7),
    ("unexpected token '*'", _LINEAR + "q1 = [*, y2]\nend\n", 4, 7),
    ("trailing input 'y2'", None, 0, 4),
    ("bad field declaration 'R'",
     "field R\nn 2\nkind linear-subspace\nq1 = [y1, y2]\nend\n", 1, 7),
    ("bad dimension 'two'",
     "field Q\nn two\nkind linear-subspace\nq1 = [y1, y2]\nend\n", 2, 3),
    ("expected a basis line", _LINEAR + "= [y1, y2]\nend\n", 4, 1),
    ("trailing input after basis vector",
     _LINEAR + "q1 = [y1, y2] y1\nend\n", 4, 15),
    ("trailing input after matrix",
     _MATRIX + "b1 = [[1, 0], [0, 1]] 3\nend\n", 4, 23),
    ("matrix must be 2x2", _MATRIX + "b1 = [[1, 0]]\nend\n", 4, 1),
    ("instance declares no basis entries", _LINEAR + "end\n", 1, 1),
]


@pytest.mark.parametrize("message, text, line, col", PARSE_REFUSALS,
                         ids=[case[0] for case in PARSE_REFUSALS])
def test_parse_refusals_pin_their_position(message, text, line, col):
    with pytest.raises(ParseError) as info:
        if text is None:  # a lone polynomial, as a report's minor is read
            parse_polynomial("y1 y2", 2, QQ)
        else:
            parse_instance(text)
    assert message in str(info.value)
    assert (info.value.line, info.value.col) == (line, col)


def test_parse_refusal_exits_2(tmp_path, capsys):
    path = _write_instance(tmp_path, _LINEAR + "q1 = [y1^y2, y2]\nend\n")
    code, out, err = _run(capsys, ["decide-span-f", "--input", path])
    assert code == 2 and out == ""
    assert "line 4, col 10: exponent must be an integer literal" in err


def test_repeated_declarations_are_refused_at_their_line(tmp_path, capsys):
    # the last declaration used to win: this text decided over F5 with n = 3
    text = ("field Q\nn 2\nfield Fp 5\nn 3\nkind linear-subspace\n"
            "kind linear-subspace\nkind linear-subspace\n"
            "q1 = [y1, y2, y3]\nend\n")
    path = _write_instance(tmp_path, text)
    code, out, err = _run(capsys, ["decide-local", "--input", path])
    assert code == 2 and out == ""
    assert err == "error: line 3, col 1: duplicate 'field' declaration\n"
    # each declaration is refused at its second line, even when both agree
    for head, text, line in (
            ("n", "field Q\nn 2\nkind linear-subspace\nn 2\n", 4),
            ("kind", "field Q\nkind linear-subspace\nn 2\n"
                     "kind matrix-subspace\n", 4),
            ("field", "field Fp 5\n# again\nfield Fp 5\n", 3)):
        with pytest.raises(ParseError, match=f"duplicate '{head}' "
                                             "declaration") as info:
            parse_instance(text + "q1 = [y1, y2]\nend\n")
        assert (info.value.line, info.value.col) == (line, 1)


def test_a_closed_stdout_exits_1_without_a_traceback():
    import os
    import subprocess
    import sys

    import locspan
    src = os.path.dirname(os.path.dirname(locspan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for flags in (["--json"], []):
        reader, writer = os.pipe()
        os.close(reader)  # the reader is gone before anything is written
        try:
            done = subprocess.run(
                [sys.executable, "-m", "locspan.cli", "decide-span-f", *flags],
                input=GOLDEN_TEXT, stdout=writer, stderr=subprocess.PIPE,
                text=True, env=env, timeout=60)
        finally:
            os.close(writer)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr, done.stderr
        assert "Exception" not in done.stderr, done.stderr


def test_parse_polynomial_round_trip():
    from locspan.exactalg import format_polynomial
    samples = ["y1^2 - 2*y2*y3 + 1", "-y1 + y3", "0", "3/2*y1", "y1*y2*y3"]
    for text in samples:
        p = parse_polynomial(text, 3, QQ)
        assert format_polynomial(p) == text


def test_parse_polynomial_parentheses_and_signs():
    p = parse_polynomial("(y1 + y2) * (y1 - y2)", 3, QQ)
    q = parse_polynomial("y1^2 - y2^2", 3, QQ)
    assert p == q
    assert parse_polynomial("-(y1 - 2) * 3", 3, QQ) == \
        parse_polynomial("-3*y1 + 6", 3, QQ)


# -- subcommands --------------------------------------------------------------

def test_decide_local_closure_golden(tmp_path, capsys):
    path = _write_instance(tmp_path, GOLDEN_TEXT)
    code, out, _ = _run(capsys, ["decide-local", "--input", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] is True
    assert report["command"] == "decide-local"
    assert set(report) == {"command", "outcome", "witness", "failure_witness",
                           "field", "n", "d", "elapsed_ms", "instance",
                           "digest"}


def test_decide_span_f_golden(tmp_path, capsys):
    path = _write_instance(tmp_path, GOLDEN_TEXT)
    code, out, _ = _run(capsys, ["decide-span-f", "--input", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] is False and report["witness"] is None


def test_decide_span_l_golden_witness(tmp_path, capsys):
    path = _write_instance(tmp_path, GOLDEN_TEXT)
    code, out, _ = _run(capsys, ["decide-span-l", "--input", path, "--json"])
    report = json.loads(out)
    assert code == 0 and report["outcome"] is True
    assert report["witness"]["index_set"] == [1, 3, 4]
    assert report["witness"]["lambdas"] == [
        {"num": "1", "den": "1"}, {"num": "1", "den": "1"},
        {"num": "y2", "den": "y1"}]
    assert report["witness"]["m"] == "y1"


def test_counterexample_reports(tmp_path, capsys):
    text = instance_from_subspace(fraction_span_only_example(3)).canonical_text()
    path = _write_instance(tmp_path, text)
    code, out, _ = _run(capsys, ["decide-local", "--input", path, "--json"])
    report = json.loads(out)
    assert code == 0 and report["outcome"] is False
    assert report["failure_witness"] == {
        "method": "closure_radical", "stratum": 1, "rows": [2], "cols": [3],
        "minor": "y2"}

    text5 = instance_from_subspace(
        fraction_span_only_example(3, PrimeField(5))).canonical_text()
    path5 = _write_instance(tmp_path, text5, "counter5.txt")
    code, out, _ = _run(capsys, ["decide-local", "--input", path5,
                                 "--method", "points", "--json"])
    report = json.loads(out)
    assert code == 0 and report["outcome"] is False
    point = report["failure_witness"]["point"]
    assert point[0] == "0" and point[1] != "0"


def test_pipe_example_into_decide(capsys, monkeypatch):
    code, out, _ = _run(capsys, ["example", "--n", "4", "--d", "3"])
    assert code == 0
    code, out2, _ = _run(capsys, ["decide-local", "--method", "closure"],
                         stdin_text=out, monkeypatch=monkeypatch)
    assert code == 0
    assert "outcome: true" in out2


def test_matrix_subspace_commands(tmp_path, capsys):
    instance = instance_from_matrix_subspace(
        perp(flat(local_only_example(4, 3))))
    path = _write_instance(tmp_path, instance.canonical_text())
    code, out, _ = _run(capsys, ["r1free", "--input", path, "--json"])
    report = json.loads(out)
    assert code == 0 and report["outcome"] is True
    assert report["d"] == 3  # codimension

    code, out, _ = _run(capsys, ["tracezero", "--input", path, "--json"])
    assert json.loads(out)["outcome"] is False

    code, out, _ = _run(capsys, ["perp", "--input", path, "--json"])
    report = json.loads(out)
    assert code == 0 and report["witness"]["dim"] == 3


def test_pencil_command(tmp_path, capsys):
    path = _write_instance(tmp_path, GOLDEN_TEXT)
    code, out, _ = _run(capsys, ["pencil", "--input", path, "--json"])
    report = json.loads(out)
    assert code == 0
    assert report["outcome"] is False
    assert report["witness"]["common_null"] is None
    assert len(report["witness"]["matrices"]) == 4


def test_idempotent_search_command(tmp_path, capsys):
    text = ("field Fp 5\nn 2\nkind matrix-subspace\n"
            "b1 = [[1, 0], [0, 0]]\nend\n")
    path = _write_instance(tmp_path, text)
    code, out, _ = _run(capsys, ["idempotent-search", "--input", path,
                                 "--json"])
    report = json.loads(out)
    assert code == 0 and report["outcome"] is True
    assert report["witness"] == {"u": ["1", "0"], "v": ["1", "0"]}


def test_exit_codes(tmp_path, capsys, monkeypatch):
    bad = _write_instance(tmp_path, "field Q\nnonsense\n", "bad.txt")
    code, _, err = _run(capsys, ["decide-span-f", "--input", bad])
    assert code == 2 and "error" in err

    text = ("field Fp 5\nn 2\nkind matrix-subspace\n"
            "b1 = [[1, 0], [0, 0]]\nend\n")
    path = _write_instance(tmp_path, text)
    code, _, err = _run(capsys, ["idempotent-search", "--input", path,
                                 "--budget", "3"])
    assert code == 3 and "budget" in err

    counter5 = instance_from_subspace(
        fraction_span_only_example(3, PrimeField(5))).canonical_text()
    points_path = _write_instance(tmp_path, counter5, "counter5.txt")
    code, _, err = _run(capsys, ["decide-local", "--input", points_path,
                                 "--method", "points", "--budget", "7"])
    assert code == 3

    code, _, err = _run(capsys, ["example", "--n", "3", "--d", "3"])
    assert code == 2

    zero_den = _write_instance(
        tmp_path, "field Q\nn 3\nkind linear-subspace\n"
                  "q1 = [y1, 1/0*y2, y3]\nend\n", "zero_den.txt")
    code, _, err = _run(capsys, ["decide-span-f", "--input", zero_den])
    assert code == 2 and "line 4, col 13" in err

    huge = _write_instance(
        tmp_path, "field Fp 3317044064679887385961981\nn 2\n"
                  "kind linear-subspace\nq1 = [y1, 0]\nend\n", "huge.txt")
    code, _, err = _run(capsys, ["decide-span-f", "--input", huge])
    assert code == 2 and "cap" in err

    line = "q1 = [" + "(" * 3000 + "y1" + ")" * 3000 + ", y2, y3]"
    deep = _write_instance(
        tmp_path, f"field Q\nn 3\nkind linear-subspace\n{line}\nend\n",
        "deep.txt")
    code, out, err = _run(capsys, ["decide-span-f", "--input", deep])
    col = line.index("(") + MAX_PARSE_DEPTH + 1
    assert code == 2 and not out and f"line 4, col {col}: nesting" in err

    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 100000)
    code, out, err = _run(capsys, ["verify", "--input", str(deep_json)])
    assert code == 2 and not out and err.startswith("error: ")

    # a pencil of vectors dependent over the field has no null vector to scale
    for n, lines in ((3, "q1 = [y1, 0, 0]\nq2 = [2*y1, 0, 0]\n"),
                     (4, "q1 = [y1, 0, 0, 0]\nq2 = [2*y1, 0, 0, 0]\n"
                         "q3 = [y1, y2, y3, y4]\n")):
        dependent = _write_instance(
            tmp_path, f"field Q\nn {n}\nkind linear-subspace\n{lines}end\n",
            f"dependent{n}.txt")
        code, out, err = _run(capsys, ["pencil", "--input", dependent])
        assert code == 2 and not out and "dependent over the field" in err


def _verify_file(capsys, tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return _run(capsys, ["verify", "--input", str(path)])


SPAN_F_TEXT = ("field Q\nn 3\nkind linear-subspace\n"
               "q1 = [y1, y2, y3 - y1]\nq2 = [0, 0, y1]\nend\n")
PERP_TEXT = instance_from_matrix_subspace(
    perp(flat(local_only_example(4, 3)))).canonical_text()


def test_verify_bad_scalars_exit_2(tmp_path, capsys):
    counter5 = instance_from_subspace(
        fraction_span_only_example(3, PrimeField(5))).canonical_text()
    reports = [
        {"command": "decide-span-f", "instance": SPAN_F_TEXT,
         "witness": {"coefficients": ["1/0", "1"]}},
        {"command": "decide-span-f", "instance": SPAN_F_TEXT,
         "witness": {"coefficients": [3, "1"]}},
        {"command": "decide-local", "instance": counter5,
         "failure_witness": {"method": "point_enumeration",
                             "point": ["1/5", "1", "0"]}},
    ]
    for report in reports:
        code, out, err = _verify_file(capsys, tmp_path, report)
        assert code == 2 and err.startswith("error: ") and not out, report
    # the well-formed report passes
    report = {"command": "decide-span-f", "instance": SPAN_F_TEXT,
              "witness": {"coefficients": ["1", "1"]}}
    assert verify_report(report) == {"combination_matches_target": True}


def test_report_scalars_refuse_bad_text_with_value_error():
    # a report scalar is a string holding a constant of the instance grammar,
    # read in the ring of no variables
    F5 = PrimeField(5)

    def read(field, text):
        return _parse_vector({"v": [text]}, "v", field)[0]

    assert read(QQ, " -3/6 ") == Fraction(-1, 2)
    assert read(F5, "1/2") == 3 and read(F5, "-7") == 3
    assert read(QQ, "1+1") == 2  # as inside a report polynomial
    for field, text in ((QQ, "1/0"), (F5, "1/5"), (F5, "2/10"), (QQ, 3),
                        (QQ, None), (F5, [1]), (QQ, "x"), (QQ, "3/"),
                        (QQ, "1/2/3"), (QQ, "y1"), (QQ, "")):
        with pytest.raises(ValueError):
            read(field, text)


def test_verify_malformed_reports_exit_2(tmp_path, capsys):
    matrix = instance_from_matrix_subspace(
        perp(flat(local_only_example(4, 3)))).canonical_text()
    idem = ("field Fp 5\nn 2\nkind matrix-subspace\n"
            "b1 = [[1, 0], [0, 0]]\nend\n")
    span_y = ("field Q\nn 3\nkind linear-subspace\n"
              "q1 = [y1, y2, y3]\nq2 = [0, 0, y1]\nend\n")
    counter_f5 = ("field Fp 5\nn 3\nkind linear-subspace\n"
                  "q1 = [y1, 0, y3]\nq2 = [0, y1, 0]\nend\n")
    counter_q = ("field Q\nn 3\nkind linear-subspace\n"
                 "q1 = [2*y1 + 1/3*y2, 0, -3*y3]\nq2 = [0, 5/2*y1, 0]\nend\n")
    malformed = [
        "x",
        [],
        {"command": "decide-span-f", "witness": {"coefficients": ["1"]}},
        {"command": "decide-span-f", "instance": span_y,
         "witness": {"coefficients": ["1"]}},
        {"command": "decide-span-f", "instance": span_y,
         "witness": {"coefficients": ["1", "0", "7", "9"]}},
        {"command": "tracezero", "outcome": True},
        {"command": "decide-span-f", "instance": SPAN_F_TEXT,
         "witness": {"x": 1}},
        {"command": "decide-span-f", "instance": 7, "witness": {"x": 1}},
        {"command": "decide-span-l", "instance": GOLDEN_TEXT,
         "witness": {"index_set": [1, 3, 4], "m": "y1",
                     "lambdas": [{"num": "1", "den": "0"}] * 3}},
        {"command": "decide-span-l", "instance": GOLDEN_TEXT,
         "witness": {"index_set": [1, 3, 4], "m": "0",
                     "lambdas": [{"num": "1", "den": "1"}] * 3}},
        {"command": "decide-span-l", "instance": GOLDEN_TEXT,
         "witness": {"index_set": [1, 3, 4], "m": "1",
                     "lambdas": [{"num": "1", "den": "1"}] * 4}},
        {"command": "decide-span-l", "instance": GOLDEN_TEXT,
         "witness": {"index_set": ["a"], "m": "1",
                     "lambdas": [{"num": "1", "den": "1"}] * 3}},
        {"command": "decide-local", "instance": GOLDEN_TEXT,
         "failure_witness": ["closure_radical"]},
        {"command": "decide-local", "instance": GOLDEN_TEXT,
         "failure_witness": {"method": "closure_radical", "stratum": "1",
                             "rows": [1], "cols": [4], "minor": "y1"}},
        {"command": "decide-local", "instance": GOLDEN_TEXT,
         "failure_witness": {"method": "closure_radical", "stratum": 1,
                             "rows": [9], "cols": [4], "minor": "y1"}},
        {"command": "decide-local", "instance": GOLDEN_TEXT,
         "failure_witness": {"method": "closure_radical", "stratum": 1,
                             "rows": [0], "cols": [4], "minor": "y1"}},
        {"command": "decide-local", "instance": GOLDEN_TEXT,
         "failure_witness": {"method": "closure_radical", "stratum": 1,
                             "rows": [], "cols": [], "minor": "y1"}},
        {"command": "decide-local", "instance": GOLDEN_TEXT,
         "failure_witness": {"method": "closure_radical", "stratum": 1,
                             "rows": [1], "cols": [4], "minor": 5}},
        # its failure at rows [1, 2], cols [1, 3] with the minor negated and
        # the rows, then the cols, in an order that no writer prints
        {"command": "decide-local", "instance": counter_q,
         "failure_witness": {"method": "closure_radical", "stratum": 2,
                             "rows": [2, 1], "cols": [1, 3],
                             "minor": "-2*y1*y2 - 1/3*y2^2"}},
        {"command": "decide-local", "instance": counter_q,
         "failure_witness": {"method": "closure_radical", "stratum": 2,
                             "rows": [1, 2], "cols": [3, 1],
                             "minor": "-2*y1*y2 - 1/3*y2^2"}},
        {"command": "decide-local", "instance": GOLDEN_TEXT,
         "failure_witness": {"method": "point_enumeration", "point": ["1"]}},
        {"command": "decide-local", "instance": counter_f5,
         "failure_witness": {"method": "point_enumeration",
                             "point": ["0", "1", "0", "0"]}},
        {"command": "r1free", "instance": matrix,
         "failure_witness": "idempotent"},
        {"command": "idempotent-search", "instance": idem,
         "witness": {"u": ["1"], "v": ["1", "0"]}},
        {"command": "pencil", "instance": GOLDEN_TEXT,
         "witness": {"matrices": [1, 2]}},
        {"command": "pencil", "instance": GOLDEN_TEXT,
         "witness": {"matrices": [], "common_null": []}},
        {"command": "perp", "instance": matrix,
         "witness": {"basis": [[["1", "0"], ["0"]]]}},
        {"command": "perp", "instance": matrix,
         "witness": {"basis": [[["1"]]], "dim": 1}},
    ]
    for report in malformed:
        code, out, err = _verify_file(capsys, tmp_path, report)
        assert code == 2 and err.startswith("error: ") and not out, report
    # a value that the instance grammar refuses names its key and column
    lambdas = [{"num": "1", "den": "1"}] * 3
    named = [
        ({"command": "decide-span-f", "instance": SPAN_F_TEXT,
          "witness": {"coefficients": ["1/0", "0"]}},
         "'coefficients' at col 3: denominator 0 is zero in QQ"),
        ({"command": "decide-span-f", "instance": SPAN_F_TEXT,
          "witness": {"coefficients": [1, "0"]}},
         "'coefficients' must hold strings"),
        ({"command": "decide-span-l", "instance": GOLDEN_TEXT,
          "witness": {"index_set": [1, 3, 4], "m": "1",
                      "lambdas": [{"num": "y1 +", "den": "1"}] * 3}},
         "'num' at col 4: unexpected end of line"),
        ({"command": "decide-span-l", "instance": GOLDEN_TEXT,
          "witness": {"index_set": [1, 3, 4], "m": "1",
                      "lambdas": [{"num": "1", "den": "y9"}] * 3}},
         "'den' at col 1: variable y9 out of range for n = 4"),
        ({"command": "witness-bounds", "instance": GOLDEN_TEXT,
          "witness": {"index_set": [1, 3, 4], "m": "2 y1",
                      "lambdas": lambdas}},
         "'m' at col 3: trailing input 'y1'"),
        ({"command": "decide-local", "instance": GOLDEN_TEXT,
          "failure_witness": {"method": "closure_radical", "stratum": 1,
                              "rows": [1], "cols": [4], "minor": "y1 $"}},
         "'minor' at col 4: unexpected character '$'"),
        ({"command": "decide-local", "instance": counter_f5,
          "failure_witness": {"method": "point_enumeration",
                              "point": ["1/5", "1", "0"]}},
         "'point' at col 3: denominator 5 is zero in GF(5)"),
        ({"command": "idempotent-search", "instance": idem,
          "witness": {"u": ["y1", "0"], "v": ["1", "0"]}},
         "'u' at col 1: variable y1 out of range for n = 0"),
        ({"command": "pencil", "instance": GOLDEN_TEXT,
          "witness": {"matrices": [[["1/0"]]]}},
         "'matrices' at col 3: denominator 0 is zero in QQ"),
        ({"command": "pencil", "instance": GOLDEN_TEXT,
          "witness": {"matrices": [], "common_null": ["1", "(", "0", "0"]}},
         "'common_null' at col 1: unexpected end of line"),
        ({"command": "perp", "instance": matrix,
          "witness": {"basis": [[["1", "0"], ["0", "1/0"]]], "dim": 1}},
         "'basis' at col 3: denominator 0 is zero in QQ"),
    ]
    for report, message in named:
        code, out, err = _verify_file(capsys, tmp_path, report)
        assert code == 2 and not out, report
        assert err == f"error: malformed report: {message}\n", report


def test_verify_refuses_wrong_length_vectors_by_name(tmp_path, capsys):
    # u, v and common_null are checked against n as they are parsed, before
    # a trace, a span test or a matrix-vector product could refuse them
    idem = ("field Fp 5\nn 2\nkind matrix-subspace\n"
            "b1 = [[1, 0], [0, 0]]\nend\n")
    uv = "malformed report: 'u' and 'v' must hold n entries"
    null = "malformed report: 'common_null' must hold n entries"
    cases = [
        ({"command": "idempotent-search", "instance": idem,
          "witness": {"u": ["1"], "v": ["1", "0"]}}, uv),
        ({"command": "idempotent-search", "instance": idem,
          "witness": {"u": ["1"], "v": ["1"]}}, uv),
        ({"command": "idempotent-search", "instance": idem,
          "witness": {"u": ["1", "0", "0"], "v": ["1", "0", "0"]}}, uv),
        ({"command": "r1free", "instance": PERP_TEXT, "outcome": False,
          "failure_witness": {"idempotent": {"u": ["1"] * 3,
                                             "v": ["1"] * 3}}}, uv),
        ({"command": "pencil", "instance": GOLDEN_TEXT,
          "witness": {"matrices": [], "common_null": ["1"]}}, null),
        ({"command": "pencil", "instance": GOLDEN_TEXT,
          "witness": {"matrices": [], "common_null": ["1"] * 5}}, null),
    ]
    for report, message in cases:
        code, out, err = _verify_file(capsys, tmp_path, report)
        assert code == 2 and not out and message in err, report
        assert "Traceback" not in err


def test_verify_refutes_a_stratum_d_minor_with_no_basis(capsys, monkeypatch):
    # the first failing minor of this random Q closure is at stratum d and
    # nonzero at the pencil point, so verify proves it outside the radical
    # without a Groebner basis, Rabinowitsch or not
    text = instance_from_subspace(
        random_subspace(random.Random(1), 6, 3)).canonical_text()
    report = _report_for(capsys, monkeypatch,
                         ["decide-local", "--method", "closure"], text)
    assert report["failure_witness"]["stratum"] == 3

    def refuse(*args):
        raise AssertionError("verify computed a Groebner basis")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    assert verify_report(report) == {"minor_matches": True,
                                     "minor_outside_radical": True}


@pytest.mark.parametrize(
    "n, d, s, bases",
    [(6, 3, 2, []), (6, 5, 4, [PrimeField(CHECK_PRIME)])],
    ids=["by-rank", "m-primary"])
def test_verify_refutes_a_forged_low_stratum_failure_with_no_q_basis(
        capsys, monkeypatch, n, d, s, bases):
    # a genuine failing report of a random Q closure, its failure moved to
    # the first target minor of a stratum below d that the closure proves:
    # the (6,3) stratum 2 by rank, the (6,5) stratum 4 by one basis mod p,
    # where the basis over Q took about 300 s
    subspace = random_subspace(random.Random(1), n, d)
    report = _report_for(capsys, monkeypatch,
                         ["decide-local", "--method", "closure"],
                         instance_from_subspace(subspace).canonical_text())
    assert report["failure_witness"]["stratum"] == d
    rows, cols, minor = next(
        m for m in subspace.augmented_matrix().minors(s) if d in m[1] and m[2])
    report["failure_witness"] = _failure_json(MinorFailure(s, rows, cols, minor))
    fields = record_bases(monkeypatch)
    assert verify_report(report) == {"minor_matches": True,
                                     "minor_outside_radical": False}
    assert fields == bases


def test_verify_ties_the_stratum_to_the_minor(tmp_path, capsys):
    # y1 is the 1x1 minor on row 1 and the target column 4 of the family
    # (4, 3), which holds: at its true stratum 1 the checks fail, and no
    # other stratum, nor a minor off the target column, is well formed
    def report(stratum, cols=(4,)):
        return {"command": "decide-local", "instance": GOLDEN_TEXT,
                "outcome": False,
                "failure_witness": {"method": "closure_radical",
                                    "stratum": stratum, "rows": [1],
                                    "cols": list(cols), "minor": "y1"}}

    code, out, _ = _verify_file(capsys, tmp_path, report(1))
    assert code == 0 and "outcome: false" in out
    for forged in (report(4), report(99), report(True), report(1, cols=(1,))):
        code, out, err = _verify_file(capsys, tmp_path, forged)
        assert code == 2 and not out and "malformed report" in err, forged


def test_verify_tests_the_recomputed_minor_not_the_reported_one():
    # the reported polynomial is not the minor on these rows and columns,
    # and lies outside the radical; the true minor lies inside it
    text = instance_from_subspace(local_only_example(5, 4)).canonical_text()
    forged = {"command": "decide-local", "instance": text, "outcome": False,
              "failure_witness": {
                  "method": "closure_radical", "stratum": 4,
                  "rows": [1, 2, 3, 4], "cols": [1, 2, 3, 5],
                  "minor": "(y1 + 2*y2 + 3*y3 + 5*y4 + 7*y5)^8 + y2^8"}}
    assert verify_report(forged) == {"minor_matches": False,
                                     "minor_outside_radical": False}


def test_verify_agrees_with_radical_membership_on_every_minor():
    # every nonzero target minor of every stratum, forged into a failing
    # report: verify's shortcuts must reach the oracle's verdict on each
    instances = []
    for field in (QQ, PrimeField(5)):
        instances.append(local_only_example(4, 3, field))
        for make, (n, d), seed in itertools.product(
                (random_subspace, subspace_containing_target),
                ((4, 2), (4, 3)), (1, 2)):
            instances.append(make(random.Random(seed), n, d, field))
    checked = outside = 0
    for subspace in instances:
        text = instance_from_subspace(subspace).canonical_text()
        d = subspace.dim
        for s in range(1, d + 2):
            ideal = stratum_ideal(subspace, s)
            for rows, cols, minor in subspace.augmented_matrix().minors(s):
                if d not in cols or not minor:
                    continue
                expected = not radical_membership(minor, ideal)
                report = {"command": "decide-local", "instance": text,
                          "outcome": False, "failure_witness": _failure_json(
                              MinorFailure(s, rows, cols, minor))}
                assert verify_report(report) == {
                    "minor_matches": True,
                    "minor_outside_radical": expected}, (subspace, s, rows, cols)
                checked += 1
                outside += expected
    assert len(instances) == 18 and 0 < outside < checked


def test_verify_of_a_cramer_witness_skips_the_bounds_it_does_not_report(
        capsys, monkeypatch):
    # a forged third lambda of degree 8 whose coprimality gcd alone takes
    # minutes; a decide-span-l report carries no fractions flag, so verify
    # checks only the identity and the lcm
    import time
    from locspan import localmem
    report = _report_for(capsys, monkeypatch, ["decide-span-l"], GOLDEN_TEXT)
    den = "(y1 + y2 + 7*y3 + 11*y4)^8 + y1^8"
    report["witness"]["lambdas"][2] = {"num": "(y1 + 2*y2 + 3*y3 + 5*y4)^8",
                                       "den": den}
    report["witness"]["m"] = den
    gcds = []
    monkeypatch.setattr(localmem, "poly_gcd", lambda a, b: gcds.append(1))
    started = time.monotonic()
    assert verify_report(report) == {"identity_holds": False,
                                     "m_is_denominator_lcm": False}
    assert time.monotonic() - started < 5.0
    assert gcds == []


def _dense_single_variable(n, d, dependent=False):
    # every entry a nonzero multiple of y1, so all minors of every size are
    # nonzero and the rank work cannot lean on sparsity
    rng = random.Random(24)
    columns = [[rng.randint(1, 97) for _ in range(n)] for _ in range(d)]
    if dependent:
        columns[-1] = [a + b for a, b in zip(columns[0], columns[1])]
    lines = [f"q{j + 1} = [" + ", ".join(f"{c}*y1" for c in column) + "]"
             for j, column in enumerate(columns)]
    return "\n".join(["field Q", f"n {n}", "kind linear-subspace", *lines, "end\n"])


def test_dense_rank_and_minor_checks_stay_polynomial(tmp_path, capsys):
    import time
    from locspan import has_free_rank
    started = time.monotonic()
    assert has_free_rank(
        parse_instance(_dense_single_variable(24, 24)).to_linear_subspace())
    assert time.monotonic() - started < 1.0

    path = _write_instance(tmp_path, _dense_single_variable(24, 24, dependent=True))
    started = time.monotonic()
    code, out, err = _run(capsys, ["decide-span-l", "--input", path])
    assert time.monotonic() - started < 1.0
    assert code == 2 and not out and "dependent over the fraction field" in err

    # full rank: the Cramer witness comes from one kernel of a 25 x 24
    # matrix, one elimination of [T | I] (0.4 s on a 2-core VM; 25
    # separate 24 x 24 determinants took 2.1-2.6 s)
    path = _write_instance(tmp_path, _dense_single_variable(24, 24))
    started = time.monotonic()
    code, out, _ = _run(capsys, ["decide-span-l", "--input", path, "--json"])
    assert time.monotonic() - started < 10.0
    assert code == 0 and json.loads(out)["outcome"] is True
    report = tmp_path / "report.json"
    report.write_text(out)
    code, out, _ = _run(capsys, ["verify", "--input", str(report), "--json"])
    assert code == 0 and json.loads(out)["outcome"] is True

    forged = {"command": "decide-local", "outcome": False,
              "instance": _dense_single_variable(24, 23),
              "failure_witness": {
                  "method": "closure_radical", "stratum": 24,
                  "rows": list(range(1, 25)), "cols": list(range(1, 25)),
                  "minor": "y1"}}
    started = time.monotonic()
    assert verify_report(forged) == {"minor_matches": False,
                                     "minor_outside_radical": True}
    assert time.monotonic() - started < 1.0


def test_witness_bounds_proves_divisibility_without_the_minors(tmp_path,
                                                               capsys):
    # y = q1, and each of the C(14, 7) = 3432 maximal minors is a nonzero
    # multiple of y1^6: enumerating them took 3.2 s on a 2-core VM, where
    # Cramer's rule proves m = 1 divides them all
    import time
    text = instance_from_subspace(vandermonde_y1(14, 7)).canonical_text()
    started = time.monotonic()
    code, out, _ = _run(capsys, ["witness-bounds", "--input",
                                 _write_instance(tmp_path, text), "--json"])
    assert time.monotonic() - started < 1.0
    assert code == 0 and json.loads(out)["outcome"] is True
    report = tmp_path / "report.json"
    report.write_text(out)
    started = time.monotonic()
    code, out, _ = _run(capsys, ["verify", "--input", str(report), "--json"])
    assert time.monotonic() - started < 1.0
    assert code == 0 and json.loads(out)["outcome"] is True


def test_dimension_cap_exits_2_before_allocating(tmp_path, capsys):
    import time
    linear = "field Q\nn 1000000000\nkind linear-subspace\nq1 = [y1]\nend\n"
    matrix = "field Q\nn 1000000000\nkind matrix-subspace\nb1 = [[1]]\nend\n"
    runs = [["decide-span-f", "--input", _write_instance(tmp_path, linear)],
            ["perp", "--input", _write_instance(tmp_path, matrix, "m.txt")],
            ["example", "--n", "1000000000", "--d", "3"]]
    for argv in runs:
        started = time.monotonic()
        code, out, err = _run(capsys, argv)
        assert time.monotonic() - started < 1.0
        assert code == 2 and not out and f"cap of {MAX_DIMENSION}" in err
    with pytest.raises(ParseError, match="cap") as info:
        parse_instance(linear)
    assert (info.value.line, info.value.col) == (2, 3)
    vector = ", ".join(["y1"] + ["0"] * (MAX_DIMENSION - 1))
    at_cap = parse_instance(f"field Q\nn {MAX_DIMENSION}\n"
                            f"kind linear-subspace\nq1 = [{vector}]\nend\n")
    assert at_cap.nvars == MAX_DIMENSION


def test_parser_budget_refuses_expansions_before_they_run(tmp_path, capsys):
    import time
    forms = "(y1+y2+y3+y4+y5+y6)"
    hostile = f"{forms}^16 - {forms}^16 + y1"
    started = time.monotonic()
    with pytest.raises(ParseError, match="budget") as info:
        parse_polynomial(hostile, 6, QQ, line=3)
    assert time.monotonic() - started < 1.0
    assert (info.value.line, info.value.col) == (3, len(forms) + 1)
    # a huge exponent is refused by degree before its term bound is counted
    for text, n in (("(y1+y2)^1000", 2), ("y1^33", 1),
                    ("((((2^64)^64)^64)^64)^64", 1),
                    (f"{forms}^8 * {forms}^8", 6),
                    (f"({forms}^6)^{'9' * 4000}", 6)):
        started = time.monotonic()
        with pytest.raises(ParseError, match="budget"):
            parse_polynomial(text, n, QQ)
        assert time.monotonic() - started < 1.0
    # parentheses and the signs of factors nest up to MAX_PARSE_DEPTH; the
    # sign that opens an expression does not recurse and is not counted
    half = MAX_PARSE_DEPTH // 2
    nested = "(" * half + "-" * (half + 1) + "y1" + ")" * half
    assert parse_polynomial(nested, 1, QQ) == parse_polynomial("-y1", 1, QQ)
    with pytest.raises(ParseError, match="nesting") as info:
        parse_polynomial("(" + nested + ")", 1, QQ)
    assert info.value.col == 2 * half + 2
    # within the budget everything still expands
    assert parse_polynomial("(y1 - y1)^1000000 + (y1+y2)^2 - y1^2 - y2^2",
                            2, QQ) == parse_polynomial("2*y1*y2", 2, QQ)
    assert parse_polynomial("(y1 + 1)^32", 1, QQ).total_degree() == 32
    line = f"q1 = [{hostile}, y2, y3, y4, y5, y6]"
    path = _write_instance(
        tmp_path, f"field Q\nn 6\nkind linear-subspace\n{line}\nend\n")
    code, out, err = _run(capsys, ["decide-span-f", "--input", path])
    assert code == 2 and not out
    assert f"line 4, col {line.index('^') + 1}" in err


def test_parser_budget_refuses_long_sums(tmp_path, capsys):
    # all 58905 monomials of degree at most 32 in 4 variables, which took
    # 2.1 s to parse into one polynomial before sums had a budget: the sum
    # is refused at the + of term MAX_PARSE_TERMS + 1, the map it adds
    # into never past MAX_PARSE_TERMS + 1 terms
    terms = [_monomial((a, b, c, e)) for a in range(33)
             for b in range(33 - a) for c in range(33 - a - b)
             for e in range(33 - a - b - c)]
    assert len(terms) == 58905
    line = f"q1 = [{' + '.join(terms)}, y2, y3, y4]"
    col = len("q1 = [" + " + ".join(terms[:MAX_PARSE_TERMS])) + 2
    assert line[col - 1] == "+"
    path = _write_instance(
        tmp_path, f"field Q\nn 4\nkind linear-subspace\n{line}\nend\n")
    code, out, err = _run(capsys, ["decide-span-f", "--input", path])
    assert code == 2 and not out
    assert err == f"error: line 4, col {col}: sum exceeds the parser budget\n"
    # a sum of MAX_PARSE_TERMS terms is accepted, also after one that cancels
    at_budget = " + ".join(terms[:MAX_PARSE_TERMS])
    assert len(parse_polynomial(at_budget, 4, QQ).terms) == MAX_PARSE_TERMS
    assert parse_polynomial(f"{at_budget} - ({at_budget}) + y1", 4, QQ) \
        == parse_polynomial("y1", 4, QQ)
    with pytest.raises(ParseError, match="sum exceeds") as info:
        parse_polynomial(f"{at_budget} + y1^32", 4, QQ, line=3)
    assert (info.value.line, info.value.col) == (3, len(at_budget) + 2)


def _monomial(exponents):
    return "*".join(f"y{i + 1}^{e}" for i, e in enumerate(exponents)
                    if e) or "1"


def test_coefficients_are_bounded_where_they_are_made(tmp_path, capsys):
    import time
    # each power here is inside the bits budget, but its value has more
    # digits than a report can print: the first one is refused, before the
    # product of the chain grows (the whole product took minutes)
    line = "q1 = [" + "3^20000*" * 1000 + "y1, y2]"
    path = _write_instance(tmp_path, f"{_LINEAR}{line}\nend\n")
    started = time.monotonic()
    code, out, err = _run(capsys, ["decide-span-f", "--input", path])
    assert time.monotonic() - started < 1.0
    assert code == 2 and not out and "Traceback" not in err
    assert err == ("error: line 4, col 8: coefficient exceeds the parser "
                   "budget\n")
    # a chain of printable factors is refused at the first product that is
    # not, and a coefficient is bounded where it is made even if it cancels
    for text, col in (("2*" + "3^8000*" * 100 + "y1", 9),
                      ("2^20000*y1 - 2^20000*y1 + y1", 2)):
        with pytest.raises(ParseError, match="coefficient exceeds") as info:
            parse_polynomial(text, 1, QQ, line=3)
        assert (info.value.line, info.value.col) == (3, col)
    # a variable index too long for int is an unknown identifier
    name = "y" + "0" * (MAX_PARSE_DIGITS + 1)
    with pytest.raises(ParseError, match="unknown identifier") as info:
        parse_polynomial(f"y1 + {name}", 1, QQ, line=3)
    assert info.value.col == 6


def test_example_range_and_json(capsys):
    code, out, _ = _run(capsys, ["example", "--n", "5", "--d", "4", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "example"
    assert "q4" in report["witness"]["instance"]


def test_the_parser_is_built_once_and_survives_its_exits(capsys, tmp_path):
    # the requests lean on parser defaults (--method, both --budget
    # defaults, --input) and the text and JSON renderings
    counter5 = instance_from_subspace(
        fraction_span_only_example(3, PrimeField(5))).canonical_text()
    points = _write_instance(tmp_path, counter5, "counter5.txt")
    matrices = _write_instance(tmp_path, "field Fp 5\nn 2\nkind matrix-subspace"
                               "\nb1 = [[1, 0], [0, 0]]\nend\n", "m.txt")
    golden = _write_instance(tmp_path, GOLDEN_TEXT)
    requests = [["decide-local", "--input", points, "--method", "points",
                 "--json"],
                ["decide-local", "--input", golden],
                ["idempotent-search", "--input", matrices, "--json"],
                ["example", "--n", "4", "--d", "3", "--json"]]

    def reports():
        out = []
        for argv in requests:
            code, text, err = _run(capsys, argv)
            assert code == 0 and not err, argv
            out.append(re.sub(r"elapsed_ms\"?: \d+", "elapsed_ms", text))
        return out

    _build_parser.cache_clear()
    first = reports()
    assert _build_parser() is _build_parser()
    for argv, code in ((["no-such-command"], 2),
                       (["example", "--n", "x", "--d", "3"], 2),
                       (["decide-local", "--method", "guess"], 2),
                       (["--help"], 0), (["idempotent-search", "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            run_command(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == code and (out if code == 0 else err)
        assert reports() == first, argv
    # a budget exit returns 3 without leaving its --budget behind
    assert _run(capsys, ["decide-local", "--input", points, "--method",
                         "points", "--budget", "7"])[0] == 3
    assert reports() == first


# -- verify loop -----------------------------------------------------------------

def _report_for(capsys, monkeypatch, argv, stdin_text):
    code, out, _ = _run(capsys, argv + ["--json"], stdin_text=stdin_text,
                        monkeypatch=monkeypatch)
    assert code == 0
    return json.loads(out)


def test_every_witness_report_passes_verify(capsys, monkeypatch, tmp_path):
    golden = GOLDEN_TEXT
    counter = instance_from_subspace(
        fraction_span_only_example(3)).canonical_text()
    counter5 = instance_from_subspace(
        fraction_span_only_example(3, PrimeField(5))).canonical_text()
    matrix = instance_from_matrix_subspace(
        perp(flat(local_only_example(4, 3)))).canonical_text()
    idem = ("field Fp 5\nn 2\nkind matrix-subspace\n"
            "b1 = [[1, 0], [0, 0]]\nend\n")

    runs = [
        (["decide-span-l"], golden),
        (["witness-bounds"], golden),
        (["decide-span-f"], golden),
        (["decide-local"], golden),
        (["decide-local"], counter),
        (["decide-local", "--method", "points"], counter5),
        (["pencil"], golden),
        (["r1free"], matrix),
        (["perp"], matrix),
        (["tracezero"], matrix),
        (["idempotent-search"], idem),
    ]
    for argv, text in runs:
        report = _report_for(capsys, monkeypatch, argv, text)
        checks = verify_report(report)
        assert all(checks.values()), (argv, checks)
        # and through the subcommand itself
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code, out, _ = _run(capsys, ["verify", "--input", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["outcome"] is True, (argv, out)
        # the certificate decides the outcome, so a flipped one is refused;
        # a report without one is re-derived, and a flipped one reads false
        flipped = dict(report, outcome=not report["outcome"])
        if "outcome_matches" in checks:
            assert verify_report(flipped) == {"outcome_matches": False}
        else:
            with pytest.raises(ValueError, match="'outcome' contradicts"):
                verify_report(flipped)


def test_witness_bounds_without_a_fraction_witness(capsys, monkeypatch,
                                                   tmp_path):
    # y1 and y3 have no multiple in the span of (y2, 0, 0)
    text = "field Q\nn 3\nkind linear-subspace\nq1 = [y2, 0, 0]\nend\n"
    report = _report_for(capsys, monkeypatch, ["witness-bounds"], text)
    assert report["outcome"] is False and report["witness"] is None
    assert verify_report(report) == {"outcome_matches": True}
    code, out, _ = _verify_file(capsys, tmp_path, report)
    assert code == 0 and "outcome: true" in out


def test_verify_checks_the_cramer_index_set(capsys, monkeypatch, tmp_path):
    text = instance_from_subspace(local_only_example(5, 4)).canonical_text()
    report = _report_for(capsys, monkeypatch, ["decide-span-l"], text)
    assert report["witness"]["index_set"] == [1, 2, 4, 5]
    assert all(verify_report(report).values())
    # rows 1..4 have a zero basis minor: Cramer's rule does not apply there
    report["witness"]["index_set"] = [1, 2, 3, 4]
    assert verify_report(report)["identity_holds"] is False
    for index_set in ([1, 1, 1, 1], [2, 1, 4, 5], [1, 2, 4]):
        report["witness"]["index_set"] = index_set
        code, out, err = _verify_file(capsys, tmp_path, report)
        assert code == 2 and not out and "index_set" in err, index_set


def test_verify_ties_the_header_to_the_instance(capsys, monkeypatch, tmp_path):
    report = _report_for(capsys, monkeypatch, ["example", "--n", "4",
                                               "--d", "3"], "")
    report = _report_for(capsys, monkeypatch, ["decide-span-l"],
                         report["witness"]["instance"])
    assert all(verify_report(report).values())
    for key, value in (("n", 99), ("d", 42), ("field", "Fp 7"), ("n", "4"),
                       ("d", None)):
        code, out, err = _verify_file(capsys, tmp_path, dict(report,
                                                             **{key: value}))
        assert code == 2 and not out and "Traceback" not in err
        assert err == f"error: malformed report: {key!r} does not match " \
                      "the instance\n", (key, value)
    # a report without the keys is checked on its instance alone
    bare = {k: v for k, v in report.items() if k not in ("field", "n", "d")}
    assert all(verify_report(bare).values())


def test_verify_ties_the_digest_to_the_instance(capsys, monkeypatch, tmp_path):
    text = instance_from_subspace(local_only_example(5, 4)).canonical_text()
    report = _report_for(capsys, monkeypatch, ["decide-span-l"], text)
    report["digest"] = "0" * 64
    code, out, err = _verify_file(capsys, tmp_path, report)
    assert code == 2 and not out and "malformed report: 'digest'" in err


def test_verify_refuses_an_outcome_its_certificate_contradicts(
        capsys, monkeypatch, tmp_path):
    text = instance_from_subspace(local_only_example(5, 4)).canonical_text()
    local = _report_for(capsys, monkeypatch, ["decide-local"], text)
    span_l = _report_for(capsys, monkeypatch, ["decide-span-l"], text)
    bounds = _report_for(capsys, monkeypatch, ["witness-bounds"], text)
    assert local["outcome"] and span_l["outcome"] and bounds["outcome"]
    bounds["witness"]["fractions_ok"] = False  # the outcome is their conjunction
    forged = [dict(local, outcome=False, digest="0" * 64),
              dict(span_l, outcome=False), bounds]
    for report in forged:
        code, out, err = _verify_file(capsys, tmp_path, report)
        assert code == 2 and not out and "malformed report" in err, report
    # a holding closure carries no certificate: verify re-derives it
    code, out, _ = _verify_file(capsys, tmp_path, dict(local, outcome=False))
    assert code == 0 and "outcome: false" in out


def _with(report, part="witness", **changes):
    """A copy of ``report`` whose ``part`` has ``changes`` made to it."""
    return dict(report, **{part: dict(report[part], **changes)})


#: Forged reports that each keep their outcome consistent with their
#: certificate, and the verify check that must read false on each:
#: (subcommand, instance, forgery, check).
FORGERIES = {
    "bounds-identity-flag": (
        ["witness-bounds"], GOLDEN_TEXT,
        lambda r: _with(dict(r, outcome=False), identity_ok=False),
        "identity_holds"),
    "bounds-lambda-degrees": (
        ["witness-bounds"], GOLDEN_TEXT,
        lambda r: _with(r, lambda_degrees=[[0, 0], [0, 0], [2, 2]]),
        "fractions_flag_matches"),
    "bounds-lcm-below-dim": (
        ["witness-bounds"], GOLDEN_TEXT,
        lambda r: _with(r, lcm_degree_below_dim=False), "lcm_degree_matches"),
    "pencil-coefficients": (
        ["pencil"], SPAN_F_TEXT, lambda r: _with(r, coefficients=["2", "0"]),
        "last_coordinate_nonzero"),
    "points-ranks": (
        ["decide-local", "--method", "points"],
        instance_from_subspace(
            fraction_span_only_example(3, PrimeField(5))).canonical_text(),
        lambda r: _with(r, "failure_witness", rank_basis=0, rank_augmented=3),
        "rank_jump"),
    "perp-dim": (
        ["perp"], PERP_TEXT, lambda r: _with(r, dim=r["witness"]["dim"] + 1),
        "dimension_complement"),
    "perp-repeated-matrix": (
        ["perp"], PERP_TEXT,
        lambda r: _with(r, basis=[r["witness"]["basis"][0]] * r["witness"]["dim"]),
        "independent"),
    # reported fields are compared as JSON text: 1 is not true, 3.0 not 3
    "bounds-lcm-below-dim-as-int": (
        ["witness-bounds"], GOLDEN_TEXT,
        lambda r: _with(r, lcm_degree_below_dim=1), "lcm_degree_matches"),
    "perp-dim-as-float": (
        ["perp"], PERP_TEXT, lambda r: _with(r, dim=float(r["witness"]["dim"])),
        "dimension_complement"),
    "pencil-coefficients-without-common-null": (
        ["pencil"], GOLDEN_TEXT,
        lambda r: _with(r, coefficients=["1", "0", "0"]), "no_common_null"),
    "pencil-without-common-null": (
        ["pencil"], SPAN_F_TEXT,
        lambda r: _with(dict(r, outcome=False), common_null=None,
                        coefficients=None),
        "no_common_null"),
}


@pytest.mark.parametrize("argv, text, forge, check", FORGERIES.values(),
                         ids=FORGERIES.keys())
def test_verify_compares_every_reported_field(argv, text, forge, check,
                                              capsys, monkeypatch, tmp_path):
    genuine = _report_for(capsys, monkeypatch, argv, text)
    assert all(verify_report(genuine).values())
    forged = forge(genuine)
    assert json.dumps(forged) != json.dumps(genuine)
    assert verify_report(forged)[check] is False
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(forged))
    code, out, _ = _run(capsys, ["verify", "--input", str(path), "--json"])
    verified = json.loads(out)
    assert code == 0 and verified["outcome"] is False
    assert verified["witness"]["checks"][check] is False


COUNTER_Q = instance_from_subspace(fraction_span_only_example(3)).canonical_text()
COUNTER_F5 = instance_from_subspace(
    fraction_span_only_example(3, PrimeField(5))).canonical_text()


def _without(report, *keys):
    return {key: value for key, value in report.items() if key not in keys}


#: Edited reports that each passed verify with outcome true while verify
#: re-checked only certificates: (subcommand, instance, edit, result), where
#: the result is the verify outcome, or 2 for a report refused as malformed.
UNCERTIFIED_EDITS = {
    "span-f-no-witness": (
        ["decide-span-f"], SPAN_F_TEXT,
        lambda r: dict(r, witness=None, outcome=False), False),
    "span-l-no-witness": (
        ["decide-span-l"], GOLDEN_TEXT,
        lambda r: dict(r, witness=None, outcome=False), False),
    "bounds-no-witness": (
        ["witness-bounds"], GOLDEN_TEXT,
        lambda r: dict(r, witness=None, outcome=False), False),
    "closure-no-failure": (
        ["decide-local"], COUNTER_Q,
        lambda r: dict(r, failure_witness=None, outcome=True), False),
    "points-no-failure": (
        ["decide-local", "--method", "points"], COUNTER_F5,
        lambda r: dict(r, failure_witness=None, outcome=True), False),
    "r1free-no-failure": (
        ["r1free"], instance_from_matrix_subspace(perp(flat(
            fraction_span_only_example(3, PrimeField(5))))).canonical_text(),
        lambda r: dict(r, failure_witness=None, outcome=True), False),
    "search-no-witness": (
        ["idempotent-search"],
        "field Fp 5\nn 2\nkind matrix-subspace\nb1 = [[1, 0], [0, 0]]\nend\n",
        lambda r: dict(r, witness=None, outcome=False), False),
    "pencil-no-common-null": FORGERIES["pencil-without-common-null"][:3] + (False,),
    "bounds-lcm-below-dim-as-int":
        FORGERIES["bounds-lcm-below-dim-as-int"][:3] + (False,),
    "unknown-command": (
        ["decide-span-f"], SPAN_F_TEXT, lambda r: dict(r, command="banana"), 2),
    "closure-no-instance": (
        ["decide-local"], COUNTER_Q,
        lambda r: _without(dict(r, failure_witness=None, outcome=True),
                           "instance", "digest"), 2),
}


@pytest.mark.parametrize("argv, text, edit, result", UNCERTIFIED_EDITS.values(),
                         ids=UNCERTIFIED_EDITS.keys())
def test_verify_rederives_what_no_certificate_settles(
        argv, text, edit, result, capsys, monkeypatch, tmp_path):
    edited = edit(_report_for(capsys, monkeypatch, argv, text))
    code, out, err = _verify_file(capsys, tmp_path, edited)
    if result == 2:
        with pytest.raises(ValueError, match="malformed report"):
            verify_report(edited)
        assert code == 2 and not out and "malformed report" in err
    else:
        assert all(verify_report(edited).values()) is result
        assert code == 0 and f"outcome: {json.dumps(result)}" in out


def test_verify_rederives_by_default_methods_and_budgets(capsys, monkeypatch,
                                                         tmp_path):
    # a holding report over F_p is re-derived by points, which every holding
    # closure implies; past a default budget verify exits 3, as the
    # subcommand does
    from locspan import cli
    f5 = PrimeField(5)
    text = instance_from_subspace(local_only_example(4, 3, f5)).canonical_text()
    report = _report_for(capsys, monkeypatch, ["decide-local"], text)
    monkeypatch.setattr(cli, "local_membership_closure", None)
    assert verify_report(report) == {"outcome_matches": True}
    identity = ", ".join(f"[{', '.join('1' if i == j else '0' for j in range(6))}]"
                         for i in range(6))
    over_budget = [  # 5^9 points, 5^12 candidates
        {"command": "decide-local", "outcome": True,
         "instance": instance_from_subspace(
             local_only_example(9, 8, f5)).canonical_text()},
        {"command": "idempotent-search", "outcome": False,
         "instance": f"field Fp 5\nn 6\nkind matrix-subspace\n"
                     f"b1 = [{identity}]\nend\n"}]
    for report in over_budget:
        code, out, err = _verify_file(capsys, tmp_path, report)
        assert code == 3 and not out and "exceed the budget" in err, report


def test_verify_of_an_example_needs_the_family_instance(capsys, monkeypatch):
    report = _report_for(capsys, monkeypatch,
                         ["example", "--n", "5", "--d", "4"], "")
    assert verify_report(report) == {"outcome_matches": True}
    assert verify_report(dict(report, outcome=False)) == {
        "outcome_matches": False}
    family_f5 = instance_from_subspace(
        local_only_example(4, 3, PrimeField(5))).canonical_text()
    for text in (GOLDEN_TEXT, COUNTER_Q, PERP_TEXT, family_f5):
        forged = dict(report, instance=text, digest=None)
        with pytest.raises(ValueError, match="does not match the instance"):
            verify_report(forged)  # the header is still that of (5, 4)
        forged.update(parse_instance(text).header())
        assert verify_report(forged) == {
            "outcome_matches": text == GOLDEN_TEXT}, text


def test_verify_confirms_a_holding_prime_field_report_at_rational_points():
    # over F_2 the closure and the points disagree: the closure's failing
    # minor is not in the radical, yet vanishes at every F_2 point.  A
    # holding report names no method, so verify re-derives it by points, and
    # the closure report edited to hold with no failure passes
    text = ("field Fp 2\nn 4\nkind linear-subspace\n"
            "q1 = [y1 + y4, y3 + y4, y2 + y4, y1 + y3]\n"
            "q2 = [y3, y2, y3, y1 + y3 + y4]\n"
            "q3 = [y4, y1, y2 + y3 + y4, y2]\nend\n")
    subspace = parse_instance(text).to_linear_subspace()
    closure = local_membership_closure(subspace)
    assert not closure.holds and local_membership_points(subspace).holds
    failure = closure.failure_witness
    assert (failure.stratum, failure.rows, failure.cols) == (3, (0, 1, 2),
                                                             (0, 1, 3))
    report = verify_report({"command": "decide-local", "instance": text,
                            "failure_witness": _failure_json(failure)})
    assert report == {"minor_matches": True, "minor_outside_radical": True}
    assert verify_report({"command": "decide-local", "instance": text,
                          "outcome": True}) == {"outcome_matches": True}


def test_verify_rejects_tampered_witness(capsys, monkeypatch):
    report = _report_for(capsys, monkeypatch, ["decide-span-l"], GOLDEN_TEXT)
    report["witness"]["m"] = "y2"
    checks = verify_report(report)
    assert not all(checks.values())


def test_verify_folds_the_denominator_lcm_from_one(capsys, monkeypatch):
    # a non-monic denominator in a report still reduces to the monic lcm
    text = instance_from_subspace(fraction_span_only_example(3)).canonical_text()
    report = _report_for(capsys, monkeypatch, ["decide-span-l"], text)
    assert report["witness"]["lambdas"][1] == {"num": "y2", "den": "y1"}
    assert report["witness"]["m"] == "y1"
    report["witness"]["lambdas"][1] = {"num": "2*y2", "den": "2*y1"}
    checks = verify_report(report)
    assert checks["identity_holds"] and checks["m_is_denominator_lcm"]
    # with one lambda, only a fold that starts from 1 makes the lcm monic
    single = "field Q\nn 2\nkind linear-subspace\nq1 = [y1, y2]\nend\n"
    report = _report_for(capsys, monkeypatch, ["decide-span-l"], single)
    assert report["witness"]["m"] == "1"
    report["witness"]["lambdas"] = [{"num": "2", "den": "2"}]
    assert verify_report(report) == {"identity_holds": True,
                                     "m_is_denominator_lcm": True}


def test_reports_are_deterministic(capsys, monkeypatch):
    # identical runs may differ only in measured timing
    def normalized(report_text):
        report = json.loads(report_text)
        report["elapsed_ms"] = 0
        return json.dumps(report, indent=2)

    first = _report_for(capsys, monkeypatch, ["decide-span-l"], GOLDEN_TEXT)
    second = _report_for(capsys, monkeypatch, ["decide-span-l"], GOLDEN_TEXT)
    assert normalized(json.dumps(first)) == normalized(json.dumps(second))


def test_instance_digest_is_stable(capsys, monkeypatch):
    report = _report_for(capsys, monkeypatch, ["decide-span-f"], GOLDEN_TEXT)
    reparsed = parse_instance(report["instance"])
    assert reparsed.header()["digest"] == report["digest"]
