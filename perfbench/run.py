"""Closed-loop benchmark of the locspan CLI.

One client in one process sends one request at a time through
``locspan.cli.run_command(argv)`` with stdin and stdout redirected in
memory, so every timed request covers instance parsing, the decision and
the JSON report.  Inputs come from the seed and are built before timing
starts; every report is checked by the oracles in ``workloads.py``.

    python3 perfbench/run.py --workload family-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The run repeats whole cycles over the workload's corpus until ``--seconds``
is reached (at least one).  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs each unit untraced and then traced,
and prints the per-layer metrics per cycle (see ``tracer.py``).  The last
line of stdout is the result object; the line before it holds provenance
and the run summary.  Exit code 0 means every check passed, 1 that some
request or check failed; without the library next to it the benchmark
exits 1 with a message and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters started per run to measure set-up time.
SETUP_REPS = 9

_ELAPSED = re.compile(r'^  "elapsed_ms": \d+,\n', re.M)

# Runs in a fresh interpreter: times the import of the CLI and the parsing
# of every instance text, and the machine's speed just before and after.
_SETUP_CODE = """\
import json, sys
from time import perf_counter
sys.path.insert(0, sys.argv[2])
from probe import slowdown_now
texts = json.load(sys.stdin)
before = slowdown_now()
start = perf_counter()
sys.path.insert(0, sys.argv[1])
import locspan.cli as cli
for text in texts:
    cli.parse_instance(text)
took = perf_counter() - start
print(json.dumps([took, (before + slowdown_now()) / 2]))
"""

Reply = namedtuple("Reply", "index text report")
Timing = namedtuple("Timing", "latency start end tag")


def _import_library():
    """Import locspan from this checkout's src/ and nowhere else."""
    if not (SRC / "locspan" / "cli.py").is_file():
        sys.exit(f"error: no locspan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import locspan.cli
    if Path(locspan.cli.__file__).resolve().parent != SRC / "locspan":
        sys.exit(f"error: locspan imported from {locspan.cli.__file__}")
    return locspan.cli


cli = _import_library()
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402  (needs locspan on sys.path)
from workloads import WORKLOADS  # noqa: E402


class Client:
    """Closed-loop client: sends a request, waits, checks, sends the next."""

    def __init__(self, probe=None):
        self.probe = probe
        self.timings = []
        self.failed = set()
        self.failures = []
        self.uncovered = 0
        self._hash = None

    @property
    def attempted(self) -> int:
        return len(self.timings)

    def call(self, argv, stdin, tag=None):
        """Run one CLI request; None if it did not exit 0 with a JSON report."""
        out, err = io.StringIO(), io.StringIO()
        probed = self.probe.spent if self.probe else 0.0
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                try:
                    code = cli.run_command(argv)
                except Exception:  # a traceback is a failed request
                    code = traceback.format_exc(limit=-3)
                end = perf_counter()
        finally:
            sys.stdin = saved
        latency = end - start - (self.probe.spent - probed if self.probe else 0.0)
        index = self.attempted
        self.timings.append(Timing(latency, start, end, tag))
        text = out.getvalue()
        self._hash.update(" ".join(argv).encode() + b"\n")
        self._hash.update(_ELAPSED.sub("", text).encode())
        if code != 0:
            self._fail(index, f"{argv[0]}: exit {code!r} {err.getvalue()[-200:]}")
            return None
        try:
            return Reply(index, text, json.loads(text))
        except json.JSONDecodeError:
            self._fail(index, f"{argv[0]}: output is not one JSON report")
            return None

    def expect(self, reply, predicate, label):
        """Count the reply's request as failed unless the oracle holds."""
        if reply is None:
            return
        try:
            ok = predicate(reply.report)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            self._fail(reply.index, label)

    def verify(self, reply):
        """`verify` the report; it must pass and check something real."""
        if reply is None:
            return None
        checked = self.call(["verify", "--json"], reply.text)
        if checked is None:
            return None
        checks = checked.report["witness"]["checks"]
        self.expect(checked, lambda r: r["outcome"] is True
                    and "nothing_to_verify" not in checks
                    and all(checks.values()),
                    f"verify of {reply.report['command']}: {checks}")
        return checks

    def note_uncovered(self):
        """A d = 3 closure outcome no oracle can confirm."""
        self.uncovered += 1

    def _fail(self, index, label):
        self.failed.add(index)
        if len(self.failures) < 10:
            self.failures.append(label)

    def begin_cycle(self):
        self._hash = hashlib.sha256()

    def end_cycle(self) -> str:
        return self._hash.hexdigest()

    def requests_per_s(self) -> float:
        return self.attempted / sum(t.latency for t in self.timings)


def nearest_rank(values, q):
    """The smallest sample with at least a share q of the samples at or below
    it; unlike interpolation it never mixes two groups of requests."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_metrics(timings) -> dict:
    """The end-to-end metrics computed from request latencies."""
    latencies = [t.latency for t in timings]
    return {
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (nearest_rank(latencies, 0.9), "s"),
        "decide_s.mid": (statistics.fmean(
            t.latency for t in timings if t.tag == "mid"), "s"),
        "decide_s.top": (statistics.fmean(
            t.latency for t in timings if t.tag == "top"), "s"),
    }


def run_cycles(corpus, client, seconds):
    """Whole cycles until the next one would end past `seconds` (>= 1).

    Returns the report hash of each cycle.
    """
    hashes = []
    start = perf_counter()
    while True:
        client.begin_cycle()
        for unit in corpus.units:
            unit(client)
        hashes.append(client.end_cycle())
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(hashes) / 2 > seconds:
            return hashes


def measure_setup(texts, reps):
    """Fresh interpreters import the CLI and parse every instance text.

    Returns the medians over `reps` interpreters of that time at the probe's
    reference speed and as measured.
    """
    payload = json.dumps(list(dict.fromkeys(texts)))
    scaled, raw = [], []
    for _ in range(reps):
        child = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(HERE)],
            input=payload, text=True, capture_output=True, timeout=120,
            check=True)
        took, slowdown = json.loads(child.stdout)
        scaled.append(took / slowdown)
        raw.append(took)
    return statistics.median(scaled), statistics.median(raw)


def provenance(seed, workload):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                capture_output=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "locspan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "nproc": nproc,
        "loadavg_before": [round(x, 2) for x in load],
        "high_load_at_start": load[0] > nproc,
    }


def measure_untraced(corpus, seconds, setup_reps):
    """End-to-end metrics; times are scaled to the probe's reference speed."""
    setup_s, raw_setup_s = measure_setup(corpus.texts, setup_reps)
    start = perf_counter()
    with SpeedProbe() as probe:
        client = Client(probe)
        hashes = run_cycles(corpus, client, seconds)
    timed = perf_counter() - start
    scaled = [t._replace(latency=t.latency / probe.slowdown(t.start, t.end))
              for t in client.timings]
    metrics = {"setup_s": (setup_s, "s"), **latency_metrics(scaled),
               "peak_rss_mb": (resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    summary = {
        "timed_s": timed,
        "probe_samples": len(probe.samples),
        "slowdown": probe.slowdown(),
        "raw": {"setup_s": raw_setup_s,
                **{name: value for name, (value, _) in
                   latency_metrics(client.timings).items()}},
    }
    return metrics, [client], hashes, summary, []


def measure_traced(corpus, seconds, workload, smoke):
    """Per-layer metrics from traced units, each right after the same unit
    untraced, so drift of the machine's speed hits both sides alike."""
    plain, traced, tracer = Client(), Client(), Tracer()
    hashes, traced_hashes = [], []
    start = perf_counter()
    while True:
        plain.begin_cycle()
        traced.begin_cycle()
        for unit in corpus.units:
            unit(plain)
            tracer.install()
            tracer.start()
            try:
                unit(traced)
            finally:
                tracer.stop()
                tracer.uninstall()
        hashes.append(plain.end_cycle())
        traced_hashes.append(traced.end_cycle())
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(hashes) / 2 > seconds:
            break
    metrics = tracer.metrics(len(traced_hashes))
    metrics["trace.untraced_requests_per_s"] = (plain.requests_per_s(), "1/s")
    metrics["trace.traced_requests_per_s"] = (traced.requests_per_s(), "1/s")
    gap = tracer.self_time_gap()
    summary = {
        "traced_cycles": len(traced_hashes),
        "traced_wall_s": tracer.wall,
        "self_time_gap_s": gap,
        "det_identity_mismatches": tracer.det_mismatches,
        "tracing_overhead": plain.requests_per_s() / traced.requests_per_s(),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    problems = list(tracer.det_mismatches)
    if abs(gap) > 1e-6 + 1e-9 * tracer.wall:
        problems.append(f"self times miss the traced wall time by {gap} s")
    if not smoke:
        summary["trace_file"] = write_spans(tracer, workload)
    return metrics, [plain, traced], hashes + traced_hashes, summary, problems


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One run; returns (result object, provenance and summary)."""
    info = provenance(seed, workload)
    corpus = WORKLOADS[workload](seed, smoke)
    gc.collect()
    if trace:
        measured = measure_traced(corpus, seconds, workload, smoke)
    else:
        measured = measure_untraced(corpus, seconds, 1 if smoke else SETUP_REPS)
    metrics, clients, hashes, summary, problems = measured
    if len(set(hashes)) != 1:
        problems.append("reports differ between repeated cycles")
    attempted = sum(c.attempted for c in clients)
    failed = sum(len(c.failed) for c in clients) + len(problems)
    summary.update({
        "seconds": seconds,
        "trace": trace,
        "cycles": len(hashes),
        "requests": attempted,
        "report_sha256": hashes[0],
        "reports_identical_across_cycles": len(set(hashes)) == 1,
        "failed_ratio": failed / attempted,
        "uncovered_d3_true": sum(c.uncovered for c in clients),
        "failures": (problems + [f for c in clients for f in c.failures])[:10],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
    })
    info["summary"] = summary
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, info


def write_spans(tracer, workload) -> str:
    """Dump the kept spans as JSON lines; returns the path written."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}.jsonl"
    keys = ("id", "name", "start", "end", "parent", "request")
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")
    return str(path.relative_to(ROOT))


def smoke() -> int:
    """Every workload at its smallest size, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, info = run_workload(workload, 1, 0, trace, smoke=True)
            ok = ok and result["correct"]
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if result['correct'] else 'FAIL'} "
                  f"{result['attempted']} requests, "
                  f"{len(result['metrics'])} metrics, "
                  f"failures={info['summary']['failures']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at its smallest size")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
