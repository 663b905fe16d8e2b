"""Byte-identity guard: every subcommand's output over a fixed corpus.

Each job runs ``run_command`` in-process on an instance fed through stdin
and hashes what it printed (stdout, then stderr) with ``elapsed_ms``
masked.  The recorded hashes pin the exact bytes of every report, its key
order, text rendering and error messages, together with the exit code.
The jobs are every instance subcommand in text and ``--json`` form over
the instances below, ``example``, and ``verify`` of each JSON report.
"""

import contextlib
import hashlib
import io
import re
import sys

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


def _linear(subspace):
    return instance_from_subspace(subspace).canonical_text()


def _complement(subspace):
    return instance_from_matrix_subspace(perp(flat(subspace))).canonical_text()


INSTANCES = {
    "family-4-3": _linear(local_only_example(4, 3)),
    "family-5-4": _linear(local_only_example(5, 4)),
    "counter-q": _linear(fraction_span_only_example(3)),
    "counter-f5": _linear(fraction_span_only_example(3, F5)),
    "perp-family-4-3": _complement(local_only_example(4, 3)),
    "perp-counter-f5": _complement(fraction_span_only_example(3, F5)),
    "span-f-positive": ("field Q\nn 3\nkind linear-subspace\n"
                        "q1 = [y1, y2, y3 - y1]\nq2 = [0, 0, y1]\nend\n"),
    "full-algebra-f5": ("field Fp 5\nn 2\nkind matrix-subspace\n"
                        "b1 = [[1, 0], [0, 0]]\nb2 = [[0, 1], [0, 0]]\n"
                        "b3 = [[0, 0], [1, 0]]\nb4 = [[0, 0], [0, 1]]\nend\n"),
    "non-linear": ("field Q\nn 3\nkind linear-subspace\n"
                   "q1 = [y1*y2, 0, 0]\nend\n"),
}

COMMANDS = (
    ("decide-local",),
    ("decide-local", "--method", "points"),
    ("decide-span-f",),
    ("decide-span-l",),
    ("witness-bounds",),
    ("pencil",),
    ("r1free",),
    ("idempotent-search",),
    ("perp",),
    ("tracezero",),
)

EXAMPLES = (
    ("example", "--n", "4", "--d", "3"),
    ("example", "--n", "5", "--d", "4"),
    ("example", "--n", "3", "--d", "3"),
)

_ELAPSED = re.compile(r'("?elapsed_ms"?: )\d+')


def _run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _fingerprint(code, out, err):
    masked = _ELAPSED.sub(r"\g<1>0", out + "\0" + err)
    return f"{code} {hashlib.sha256(masked.encode()).hexdigest()[:16]}"


def sweep() -> dict:
    """Fingerprint of every job, keyed by a readable job name."""
    results = {}
    jobs = [(f"{name}/{' '.join(cmd)}", cmd, text)
            for name, text in INSTANCES.items() for cmd in COMMANDS]
    jobs += [(" ".join(cmd), cmd, "") for cmd in EXAMPLES]
    for job, cmd, text in jobs:
        for fmt in ((), ("--json",)):
            code, out, err = _run(cmd + fmt, text)
            results[" ".join((job,) + fmt)] = _fingerprint(code, out, err)
            if not fmt or code != 0:
                continue
            for verify_fmt in ((), ("--json",)):
                key = " ".join((f"verify[{job}]",) + verify_fmt)
                results[key] = _fingerprint(
                    *_run(("verify",) + verify_fmt, out))
    return results


def test_reports_are_byte_identical():
    actual = sweep()
    assert set(actual) == set(EXPECTED)
    changed = {job: (EXPECTED[job], fp) for job, fp in actual.items()
               if EXPECTED[job] != fp}
    assert not changed, changed


#: Fingerprints (exit code, sha256 prefix) recorded before the CLI was
#: rewritten as a command table; regenerate with
#: ``PYTHONPATH=src python tests/test_report_bytes.py``.
EXPECTED = {
    'family-4-3/decide-local': '0 c155740f5fd9baa0',
    'family-4-3/decide-local --json': '0 cf950e68ef4cf366',
    'verify[family-4-3/decide-local]': '0 56c03af51d759ad5',
    'verify[family-4-3/decide-local] --json': '0 64f74e2d08dc2c1e',
    'family-4-3/decide-local --method points': '2 9c237764641eaca7',
    'family-4-3/decide-local --method points --json': '2 9c237764641eaca7',
    'family-4-3/decide-span-f': '0 a9eb48805b0c571f',
    'family-4-3/decide-span-f --json': '0 2a1f79519ea9257f',
    'verify[family-4-3/decide-span-f]': '0 56c03af51d759ad5',
    'verify[family-4-3/decide-span-f] --json': '0 64f74e2d08dc2c1e',
    'family-4-3/decide-span-l': '0 1aabfddb81d270a6',
    'family-4-3/decide-span-l --json': '0 5f66557a543b6d36',
    'verify[family-4-3/decide-span-l]': '0 f655a97e8a8ae63c',
    'verify[family-4-3/decide-span-l] --json': '0 2f8775c04184d4b6',
    'family-4-3/witness-bounds': '0 85aef617169d42f1',
    'family-4-3/witness-bounds --json': '0 5e857330b1dbe692',
    'verify[family-4-3/witness-bounds]': '0 af7c47a485a00040',
    'verify[family-4-3/witness-bounds] --json': '0 56771d771a59623a',
    'family-4-3/pencil': '0 77ec4e87f96c1fbb',
    'family-4-3/pencil --json': '0 f428f1c4ac39a668',
    'verify[family-4-3/pencil]': '0 7ac0b910650fa81d',
    'verify[family-4-3/pencil] --json': '0 2ba44c6f52e28bbd',
    'family-4-3/r1free': '2 86227e68169fdf73',
    'family-4-3/r1free --json': '2 86227e68169fdf73',
    'family-4-3/idempotent-search': '2 86227e68169fdf73',
    'family-4-3/idempotent-search --json': '2 86227e68169fdf73',
    'family-4-3/perp': '2 86227e68169fdf73',
    'family-4-3/perp --json': '2 86227e68169fdf73',
    'family-4-3/tracezero': '2 86227e68169fdf73',
    'family-4-3/tracezero --json': '2 86227e68169fdf73',
    'family-5-4/decide-local': '0 7b47c38b50a10245',
    'family-5-4/decide-local --json': '0 e2c5d4838f011310',
    'verify[family-5-4/decide-local]': '0 3b353d5b6b92d37b',
    'verify[family-5-4/decide-local] --json': '0 6c5b81432fba9be8',
    'family-5-4/decide-local --method points': '2 9c237764641eaca7',
    'family-5-4/decide-local --method points --json': '2 9c237764641eaca7',
    'family-5-4/decide-span-f': '0 372fafd8b4e63a9f',
    'family-5-4/decide-span-f --json': '0 31f4a1c825cbd35f',
    'verify[family-5-4/decide-span-f]': '0 3b353d5b6b92d37b',
    'verify[family-5-4/decide-span-f] --json': '0 6c5b81432fba9be8',
    'family-5-4/decide-span-l': '0 773796a0cdc09b1f',
    'family-5-4/decide-span-l --json': '0 ca9aa152a0ac7d14',
    'verify[family-5-4/decide-span-l]': '0 9e9d45fb7f42a33e',
    'verify[family-5-4/decide-span-l] --json': '0 c9ab187449c5ed62',
    'family-5-4/witness-bounds': '0 940ace5d4e3690ee',
    'family-5-4/witness-bounds --json': '0 3d129e1952585552',
    'verify[family-5-4/witness-bounds]': '0 64ec5a0d5ff16d96',
    'verify[family-5-4/witness-bounds] --json': '0 1a9bdddaaef2bb60',
    'family-5-4/pencil': '0 555dcc4d072367dd',
    'family-5-4/pencil --json': '0 d5ee748aabd55731',
    'verify[family-5-4/pencil]': '0 b85445023c6385c1',
    'verify[family-5-4/pencil] --json': '0 acf51431006474e4',
    'family-5-4/r1free': '2 86227e68169fdf73',
    'family-5-4/r1free --json': '2 86227e68169fdf73',
    'family-5-4/idempotent-search': '2 86227e68169fdf73',
    'family-5-4/idempotent-search --json': '2 86227e68169fdf73',
    'family-5-4/perp': '2 86227e68169fdf73',
    'family-5-4/perp --json': '2 86227e68169fdf73',
    'family-5-4/tracezero': '2 86227e68169fdf73',
    'family-5-4/tracezero --json': '2 86227e68169fdf73',
    'counter-q/decide-local': '0 9f47f3137e479315',
    'counter-q/decide-local --json': '0 c99f739148ef88ed',
    'verify[counter-q/decide-local]': '0 50cabf5e312e12a0',
    'verify[counter-q/decide-local] --json': '0 bb7217cd486c8dc9',
    'counter-q/decide-local --method points': '2 9c237764641eaca7',
    'counter-q/decide-local --method points --json': '2 9c237764641eaca7',
    'counter-q/decide-span-f': '0 0d94a9813a58b3b5',
    'counter-q/decide-span-f --json': '0 78f222ab6ec011dd',
    'verify[counter-q/decide-span-f]': '0 cb8e26d71d2b2680',
    'verify[counter-q/decide-span-f] --json': '0 713734e7602f9c63',
    'counter-q/decide-span-l': '0 fb6263b0fb445628',
    'counter-q/decide-span-l --json': '0 7f70453b69e607bb',
    'verify[counter-q/decide-span-l]': '0 b55b5ebfa08cfe9e',
    'verify[counter-q/decide-span-l] --json': '0 55df0f362be8dfbb',
    'counter-q/witness-bounds': '0 78eca54227b332c8',
    'counter-q/witness-bounds --json': '0 aef37628adbf31c0',
    'verify[counter-q/witness-bounds]': '0 43c16476deb8c177',
    'verify[counter-q/witness-bounds] --json': '0 95ddac0a2c0088db',
    'counter-q/pencil': '0 9367f8b0296c9185',
    'counter-q/pencil --json': '0 ae63ca13a5e109a1',
    'verify[counter-q/pencil]': '0 7d75dd8e2b87802a',
    'verify[counter-q/pencil] --json': '0 ad2a16c2725a2a06',
    'counter-q/r1free': '2 86227e68169fdf73',
    'counter-q/r1free --json': '2 86227e68169fdf73',
    'counter-q/idempotent-search': '2 86227e68169fdf73',
    'counter-q/idempotent-search --json': '2 86227e68169fdf73',
    'counter-q/perp': '2 86227e68169fdf73',
    'counter-q/perp --json': '2 86227e68169fdf73',
    'counter-q/tracezero': '2 86227e68169fdf73',
    'counter-q/tracezero --json': '2 86227e68169fdf73',
    'counter-f5/decide-local': '0 11597433fb185b41',
    'counter-f5/decide-local --json': '0 d0aed4be52413b34',
    'verify[counter-f5/decide-local]': '0 76f4e8fd01872046',
    'verify[counter-f5/decide-local] --json': '0 518e59caa20ec51d',
    'counter-f5/decide-local --method points': '0 54bff8f0f9f3af68',
    'counter-f5/decide-local --method points --json': '0 be115e3e1dbf5e33',
    'verify[counter-f5/decide-local --method points]': '0 d8c20b953ead9cdb',
    'verify[counter-f5/decide-local --method points] --json': '0 9aa3b3b5b5cac711',
    'counter-f5/decide-span-f': '0 8626491062d0b8ce',
    'counter-f5/decide-span-f --json': '0 57f6140880c02607',
    'verify[counter-f5/decide-span-f]': '0 38f5e42ea6fb1797',
    'verify[counter-f5/decide-span-f] --json': '0 b6b8ae87fe4403d0',
    'counter-f5/decide-span-l': '0 85d973522017ed30',
    'counter-f5/decide-span-l --json': '0 049050da8a19508b',
    'verify[counter-f5/decide-span-l]': '0 de74545abe66d985',
    'verify[counter-f5/decide-span-l] --json': '0 b34022b0ef4a1fd9',
    'counter-f5/witness-bounds': '0 3ae8306e7c2b1be8',
    'counter-f5/witness-bounds --json': '0 216933868df6882a',
    'verify[counter-f5/witness-bounds]': '0 a6f1209dd283930e',
    'verify[counter-f5/witness-bounds] --json': '0 c22994859bc1f789',
    'counter-f5/pencil': '0 807e29f6882e03c7',
    'counter-f5/pencil --json': '0 128e7bbe357705b6',
    'verify[counter-f5/pencil]': '0 ed8fb4fe33691e3d',
    'verify[counter-f5/pencil] --json': '0 09e2b1453c40004c',
    'counter-f5/r1free': '2 86227e68169fdf73',
    'counter-f5/r1free --json': '2 86227e68169fdf73',
    'counter-f5/idempotent-search': '2 86227e68169fdf73',
    'counter-f5/idempotent-search --json': '2 86227e68169fdf73',
    'counter-f5/perp': '2 86227e68169fdf73',
    'counter-f5/perp --json': '2 86227e68169fdf73',
    'counter-f5/tracezero': '2 86227e68169fdf73',
    'counter-f5/tracezero --json': '2 86227e68169fdf73',
    'perp-family-4-3/decide-local': '2 e7301b695f38487f',
    'perp-family-4-3/decide-local --json': '2 e7301b695f38487f',
    'perp-family-4-3/decide-local --method points': '2 e7301b695f38487f',
    'perp-family-4-3/decide-local --method points --json': '2 e7301b695f38487f',
    'perp-family-4-3/decide-span-f': '2 e7301b695f38487f',
    'perp-family-4-3/decide-span-f --json': '2 e7301b695f38487f',
    'perp-family-4-3/decide-span-l': '2 e7301b695f38487f',
    'perp-family-4-3/decide-span-l --json': '2 e7301b695f38487f',
    'perp-family-4-3/witness-bounds': '2 e7301b695f38487f',
    'perp-family-4-3/witness-bounds --json': '2 e7301b695f38487f',
    'perp-family-4-3/pencil': '2 e7301b695f38487f',
    'perp-family-4-3/pencil --json': '2 e7301b695f38487f',
    'perp-family-4-3/r1free': '0 655a5645043700fd',
    'perp-family-4-3/r1free --json': '0 4347234589bc88fe',
    'verify[perp-family-4-3/r1free]': '0 a90049cae0fd86a8',
    'verify[perp-family-4-3/r1free] --json': '0 3c925de7add775c2',
    'perp-family-4-3/idempotent-search': '2 92925d293208902e',
    'perp-family-4-3/idempotent-search --json': '2 92925d293208902e',
    'perp-family-4-3/perp': '0 2cecd4ed6105b4ce',
    'perp-family-4-3/perp --json': '0 b9c6adcfaf3d9789',
    'verify[perp-family-4-3/perp]': '0 a0fcd14321020e4c',
    'verify[perp-family-4-3/perp] --json': '0 8f008cf0aff71da3',
    'perp-family-4-3/tracezero': '0 9e4d1e1140d0178c',
    'perp-family-4-3/tracezero --json': '0 319d42e9afa14541',
    'verify[perp-family-4-3/tracezero]': '0 a90049cae0fd86a8',
    'verify[perp-family-4-3/tracezero] --json': '0 3c925de7add775c2',
    'perp-counter-f5/decide-local': '2 e7301b695f38487f',
    'perp-counter-f5/decide-local --json': '2 e7301b695f38487f',
    'perp-counter-f5/decide-local --method points': '2 e7301b695f38487f',
    'perp-counter-f5/decide-local --method points --json': '2 e7301b695f38487f',
    'perp-counter-f5/decide-span-f': '2 e7301b695f38487f',
    'perp-counter-f5/decide-span-f --json': '2 e7301b695f38487f',
    'perp-counter-f5/decide-span-l': '2 e7301b695f38487f',
    'perp-counter-f5/decide-span-l --json': '2 e7301b695f38487f',
    'perp-counter-f5/witness-bounds': '2 e7301b695f38487f',
    'perp-counter-f5/witness-bounds --json': '2 e7301b695f38487f',
    'perp-counter-f5/pencil': '2 e7301b695f38487f',
    'perp-counter-f5/pencil --json': '2 e7301b695f38487f',
    'perp-counter-f5/r1free': '0 86b34c36dd5f9e3e',
    'perp-counter-f5/r1free --json': '0 62c82a59c271bcab',
    'verify[perp-counter-f5/r1free]': '0 c1f98f6d3167b9d2',
    'verify[perp-counter-f5/r1free] --json': '0 a43fc2d9575bbd50',
    'perp-counter-f5/idempotent-search': '0 2f144054ec60077b',
    'perp-counter-f5/idempotent-search --json': '0 d49373235c46718d',
    'verify[perp-counter-f5/idempotent-search]': '0 84e6917ed5852c7e',
    'verify[perp-counter-f5/idempotent-search] --json': '0 532f46b333e531d0',
    'perp-counter-f5/perp': '0 c75721c4a65ca65b',
    'perp-counter-f5/perp --json': '0 1760df1a9ebe820d',
    'verify[perp-counter-f5/perp]': '0 3d9174fcefd9e178',
    'verify[perp-counter-f5/perp] --json': '0 79ba913fe6e253f5',
    'perp-counter-f5/tracezero': '0 5f8efdb4f65d0458',
    'perp-counter-f5/tracezero --json': '0 ab41c67bdfaedea3',
    'verify[perp-counter-f5/tracezero]': '0 e2258ee2c53286cb',
    'verify[perp-counter-f5/tracezero] --json': '0 5beea102bd994973',
    'span-f-positive/decide-local': '0 8a790b54f1c7110a',
    'span-f-positive/decide-local --json': '0 f91e05365e871fb8',
    'verify[span-f-positive/decide-local]': '0 1f762574608971bc',
    'verify[span-f-positive/decide-local] --json': '0 40657212ad645dbb',
    'span-f-positive/decide-local --method points': '2 9c237764641eaca7',
    'span-f-positive/decide-local --method points --json': '2 9c237764641eaca7',
    'span-f-positive/decide-span-f': '0 d4c5a4fbffc405b8',
    'span-f-positive/decide-span-f --json': '0 a664eb55bcb08ccf',
    'verify[span-f-positive/decide-span-f]': '0 ea8453c5cb74735b',
    'verify[span-f-positive/decide-span-f] --json': '0 bf4b18c4f7ec0ad9',
    'span-f-positive/decide-span-l': '0 cbcacde859d6b9d0',
    'span-f-positive/decide-span-l --json': '0 773bc927d960fcab',
    'verify[span-f-positive/decide-span-l]': '0 6370571d3492bbe7',
    'verify[span-f-positive/decide-span-l] --json': '0 85c7822604b3411d',
    'span-f-positive/witness-bounds': '0 ca55dd7044aefd06',
    'span-f-positive/witness-bounds --json': '0 f2d415d6dc8ba1c0',
    'verify[span-f-positive/witness-bounds]': '0 5b456cc48ef86afc',
    'verify[span-f-positive/witness-bounds] --json': '0 1745862453ca6e22',
    'span-f-positive/pencil': '0 0c0ffbc4bd2a5e31',
    'span-f-positive/pencil --json': '0 7a7301ed219968dc',
    'verify[span-f-positive/pencil]': '0 b99b715ee07a9da4',
    'verify[span-f-positive/pencil] --json': '0 f42882e8a0fb18f3',
    'span-f-positive/r1free': '2 86227e68169fdf73',
    'span-f-positive/r1free --json': '2 86227e68169fdf73',
    'span-f-positive/idempotent-search': '2 86227e68169fdf73',
    'span-f-positive/idempotent-search --json': '2 86227e68169fdf73',
    'span-f-positive/perp': '2 86227e68169fdf73',
    'span-f-positive/perp --json': '2 86227e68169fdf73',
    'span-f-positive/tracezero': '2 86227e68169fdf73',
    'span-f-positive/tracezero --json': '2 86227e68169fdf73',
    'full-algebra-f5/decide-local': '2 e7301b695f38487f',
    'full-algebra-f5/decide-local --json': '2 e7301b695f38487f',
    'full-algebra-f5/decide-local --method points': '2 e7301b695f38487f',
    'full-algebra-f5/decide-local --method points --json': '2 e7301b695f38487f',
    'full-algebra-f5/decide-span-f': '2 e7301b695f38487f',
    'full-algebra-f5/decide-span-f --json': '2 e7301b695f38487f',
    'full-algebra-f5/decide-span-l': '2 e7301b695f38487f',
    'full-algebra-f5/decide-span-l --json': '2 e7301b695f38487f',
    'full-algebra-f5/witness-bounds': '2 e7301b695f38487f',
    'full-algebra-f5/witness-bounds --json': '2 e7301b695f38487f',
    'full-algebra-f5/pencil': '2 e7301b695f38487f',
    'full-algebra-f5/pencil --json': '2 e7301b695f38487f',
    'full-algebra-f5/r1free': '0 cfe70db1d752ffcf',
    'full-algebra-f5/r1free --json': '0 deba1d2d17cddf7d',
    'verify[full-algebra-f5/r1free]': '0 746de1d90051c5f4',
    'verify[full-algebra-f5/r1free] --json': '0 8067c7dfb203afe4',
    'full-algebra-f5/idempotent-search': '0 a8bfc2bda192a70f',
    'full-algebra-f5/idempotent-search --json': '0 3d306aa7e0957493',
    'verify[full-algebra-f5/idempotent-search]': '0 746de1d90051c5f4',
    'verify[full-algebra-f5/idempotent-search] --json': '0 8067c7dfb203afe4',
    'full-algebra-f5/perp': '0 a835fb76a0b5b230',
    'full-algebra-f5/perp --json': '0 a44db295b989b4ea',
    'verify[full-algebra-f5/perp]': '0 a99546af4d844fa1',
    'verify[full-algebra-f5/perp] --json': '0 11ba80a088d40f0e',
    'full-algebra-f5/tracezero': '0 11801ab08ca51330',
    'full-algebra-f5/tracezero --json': '0 5cea37e5ff3eeaee',
    'verify[full-algebra-f5/tracezero]': '0 28ca8f754cf85740',
    'verify[full-algebra-f5/tracezero] --json': '0 1916a5c37f377408',
    'non-linear/decide-local': '2 e8ce91545aaca119',
    'non-linear/decide-local --json': '2 e8ce91545aaca119',
    'non-linear/decide-local --method points': '2 e8ce91545aaca119',
    'non-linear/decide-local --method points --json': '2 e8ce91545aaca119',
    'non-linear/decide-span-f': '2 e8ce91545aaca119',
    'non-linear/decide-span-f --json': '2 e8ce91545aaca119',
    'non-linear/decide-span-l': '2 e8ce91545aaca119',
    'non-linear/decide-span-l --json': '2 e8ce91545aaca119',
    'non-linear/witness-bounds': '2 e8ce91545aaca119',
    'non-linear/witness-bounds --json': '2 e8ce91545aaca119',
    'non-linear/pencil': '2 e8ce91545aaca119',
    'non-linear/pencil --json': '2 e8ce91545aaca119',
    'non-linear/r1free': '2 e8ce91545aaca119',
    'non-linear/r1free --json': '2 e8ce91545aaca119',
    'non-linear/idempotent-search': '2 e8ce91545aaca119',
    'non-linear/idempotent-search --json': '2 e8ce91545aaca119',
    'non-linear/perp': '2 e8ce91545aaca119',
    'non-linear/perp --json': '2 e8ce91545aaca119',
    'non-linear/tracezero': '2 e8ce91545aaca119',
    'non-linear/tracezero --json': '2 e8ce91545aaca119',
    'example --n 4 --d 3': '0 fa10762c10240e31',
    'example --n 4 --d 3 --json': '0 7964178e693fbfdd',
    'verify[example --n 4 --d 3]': '0 56c03af51d759ad5',
    'verify[example --n 4 --d 3] --json': '0 64f74e2d08dc2c1e',
    'example --n 5 --d 4': '0 2d721cac7e2556f9',
    'example --n 5 --d 4 --json': '0 77010773eaafaa26',
    'verify[example --n 5 --d 4]': '0 3b353d5b6b92d37b',
    'verify[example --n 5 --d 4] --json': '0 6c5b81432fba9be8',
    'example --n 3 --d 3': '2 41389a154de3d8b4',
    'example --n 3 --d 3 --json': '2 41389a154de3d8b4',
}


if __name__ == "__main__":
    for job, fp in sweep().items():
        print(f"    {job!r}: {fp!r},")
