"""Spans and counts around the library's layer boundaries, for traced runs.

`Tracer.install` wraps the public functions and methods listed in
`TARGETS` and patches each wrapper in wherever callers look the name up:
every ``locspan`` module that bound the function by import, and the class
for methods.  Nothing in the library changes; `Tracer.uninstall` puts the
originals back.

A span is (id, name, start, end, parent id, request id).  A span's self
time is its duration minus the durations of its child spans; time the
tracer spends on its own counts (basis sizes, coefficient bits) is a span of
its own, ``trace.bookkeeping``, so the self times of all spans sum to the
traced wall time.  Inclusive time (``.s``) and ``.calls`` count only the
outermost span of a name, so recursion (``poly_gcd``) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

from workloads import det_calls_of_closure

#: (module the function lives in, attribute, span name).  The four scalar
#: eliminations share one span name so ``polymat.scalar_elim`` is one layer.
TARGETS = (
    ("locspan.cli", "run_command", "cli.run_command"),
    ("locspan.cli", "parse_instance", "cli.parse_instance"),
    ("locspan.cli", "verify_report", "cli.verify_report"),
    ("locspan.localmem", "local_membership_closure",
     "localmem.local_membership_closure"),
    ("locspan.localmem", "local_membership_points",
     "localmem.local_membership_points"),
    ("locspan.localmem", "span_over_fractions", "localmem.span_over_fractions"),
    ("locspan.localmem", "verify_witness_bounds",
     "localmem.verify_witness_bounds"),
    ("locspan.matspace", "find_rank1_idempotent",
     "matspace.find_rank1_idempotent"),
    ("locspan.matspace", "perp", "matspace.perp"),
    ("locspan.matspace", "is_rank1_idempotent_free",
     "matspace.is_rank1_idempotent_free"),
    ("locspan.groebner", "radical_membership", "groebner.radical_membership"),
    ("locspan.groebner", "Ideal.groebner", "groebner.Ideal.groebner"),
    ("locspan.groebner", "buchberger", "groebner.buchberger"),
    ("locspan.groebner", "normal_form", "groebner.normal_form"),
    ("locspan.polymat", "PolyMatrix.minors", "polymat.minors"),
    ("locspan.polymat", "PolyMatrix.det", "polymat.det"),
    ("locspan.polymat", "rank", "polymat.scalar_elim"),
    ("locspan.polymat", "rref", "polymat.scalar_elim"),
    ("locspan.polymat", "solve_over_field", "polymat.scalar_elim"),
    ("locspan.polymat", "nullspace_over_field", "polymat.scalar_elim"),
    ("locspan.exactalg", "poly_gcd", "exactalg.poly_gcd"),
    ("locspan.exactalg", "try_exact_div", "exactalg.try_exact_div"),
)

#: Spans kept for the dump; later ones are only aggregated.
MAX_SPANS = 20_000

_BOOKKEEPING = "trace.bookkeeping"


class _Frame:
    __slots__ = ("span_id", "name", "start", "child", "parent", "extra")

    def __init__(self, span_id, name, start, parent):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.extra = None


def _coeff_bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return int(value).bit_length()


class Tracer:
    """Collects spans and per-layer counts while installed and started."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.self_s = Counter()
        self.incl_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.max_basis = 0
        self.max_coeff_bits = 0
        self.det_mismatches = []
        self.request_id = 0
        self.wall = 0.0
        self._depth = Counter()
        self._top = None
        self._closure = None
        self._next_id = 0
        self._patches = []

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every target wherever the library looks its name up."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "locspan" or key.startswith("locspan.")]
        for module_name, attr, name in TARGETS:
            home = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, None, None)
                raise
            tracer._close(frame, args, result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def start(self):
        """Open the root span; everything until `stop` is traced wall time."""
        self._top = self._new_frame("bench.traced", None)

    def stop(self):
        root = self._top
        end = perf_counter()
        self._account(root, end)
        self._top = None
        self.wall += end - root.start

    def _new_frame(self, name, parent):
        self._next_id += 1
        return _Frame(self._next_id, name, perf_counter(), parent)

    def _open(self, name, args):
        parent = self._top
        if name == "cli.run_command" and self._depth[name] == 0:
            self.request_id += 1
        frame = self._new_frame(name, parent)
        self._depth[name] += 1
        if name == "localmem.local_membership_closure" and self._closure is None:
            subspace = args[0]
            frame.extra = {"n": subspace.nvars, "d": subspace.dim, "det": 0}
            self._closure = frame
        elif name == "polymat.det" and self._closure is not None:
            self._closure.extra["det"] += 1
        self._top = frame
        return frame

    def _account(self, frame, end):
        duration = end - frame.start
        name = frame.name
        self.self_s[name] += duration - frame.child
        if frame.parent is not None:
            frame.parent.child += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame.span_id, name, frame.start, end,
                               frame.parent.span_id if frame.parent else None,
                               self.request_id))
        else:
            self.dropped += 1
        return duration

    def _close(self, frame, args, result):
        end = perf_counter()
        duration = self._account(frame, end)
        name = frame.name
        self._top = frame.parent
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.incl_s[name] += duration
            self.calls[name] += 1
        if frame is self._closure:
            self._closure = None
        if args is None:
            return
        if name in _HOOKS:
            book = self._new_frame(_BOOKKEEPING, frame.parent)
            _HOOKS[name](self, frame, args, result)
            self._account(book, perf_counter())

    # -- hooks (run inside a bookkeeping span) ----------------------------

    def _on_buchberger(self, frame, args, result):
        parent = frame.parent.name if frame.parent else ""
        if parent == "groebner.Ideal.groebner":
            self.counts["buchberger.strata"] += 1
        elif parent == "groebner.radical_membership":
            self.counts["buchberger.rabinowitsch"] += 1
            frame.parent.extra = True
        self.max_basis = max(self.max_basis, len(result.polys))
        for g in result.polys:
            for c in g.terms.values():
                self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(c))

    def _on_radical(self, frame, args, result):
        if frame.extra is None:
            self.counts["radical.fast_path"] += 1

    def _on_minors(self, frame, args, result):
        self.counts["minors"] += len(result)
        closure = self._closure
        matrix = args[0]
        if closure is not None and matrix.cols == closure.extra["d"] + 1:
            last = matrix.cols - 1
            self.counts["minors.target"] += sum(
                1 for _, cols, _ in result if cols[-1] == last)

    def _on_closure(self, frame, args, result):
        if frame.extra is None or not result.holds:
            return
        n, d, got = frame.extra["n"], frame.extra["d"], frame.extra["det"]
        want = det_calls_of_closure(n, d)
        self.counts["det_identity.checked"] += 1
        if got != want:
            self.det_mismatches.append(f"({n},{d}): {got} det calls, "
                                       f"expected {want}")

    # -- results ----------------------------------------------------------

    def self_time_gap(self) -> float:
        """Traced wall time minus the sum of all self times (0 if sound)."""
        return self.wall - sum(self.self_s.values())

    def metrics(self, cycles: int) -> dict:
        """Per-layer metrics per cycle: `{name: (value, unit)}`."""
        def per(value):
            return value / cycles

        def ratio(part, whole):
            return part / whole if whole else 0.0

        c, s, i, n = self.counts, self.self_s, self.incl_s, self.calls
        radical_calls = n["groebner.radical_membership"]
        return {
            "groebner.buchberger.self_s": (per(s["groebner.buchberger"]), "s"),
            "groebner.buchberger.calls.strata":
                (per(c["buchberger.strata"]), "count"),
            "groebner.buchberger.calls.rabinowitsch":
                (per(c["buchberger.rabinowitsch"]), "count"),
            "groebner.buchberger.max_basis": (self.max_basis, "count"),
            "groebner.buchberger.max_coeff_bits": (self.max_coeff_bits, "bits"),
            "groebner.normal_form.s": (per(i["groebner.normal_form"]), "s"),
            "groebner.normal_form.calls": (per(n["groebner.normal_form"]), "count"),
            "groebner.radical_membership.self_s":
                (per(s["groebner.radical_membership"]), "s"),
            "groebner.radical_membership.calls": (per(radical_calls), "count"),
            "groebner.radical_membership.fast_path_ratio":
                (ratio(c["radical.fast_path"], radical_calls), "ratio"),
            "polymat.minors.s": (per(i["polymat.minors"]), "s"),
            "polymat.minors.count": (per(c["minors"]), "count"),
            "polymat.minors.target_ratio":
                (ratio(c["minors.target"], c["minors"]), "ratio"),
            "polymat.det.s": (per(i["polymat.det"]), "s"),
            "polymat.det.calls": (per(n["polymat.det"]), "count"),
            "polymat.det.identity_checked":
                (per(c["det_identity.checked"]), "count"),
            "polymat.scalar_elim.s": (per(i["polymat.scalar_elim"]), "s"),
            "polymat.scalar_elim.calls": (per(n["polymat.scalar_elim"]), "count"),
            "exactalg.poly_gcd.s": (per(i["exactalg.poly_gcd"]), "s"),
            "exactalg.poly_gcd.calls": (per(n["exactalg.poly_gcd"]), "count"),
            "exactalg.try_exact_div.s": (per(i["exactalg.try_exact_div"]), "s"),
            "exactalg.try_exact_div.calls":
                (per(n["exactalg.try_exact_div"]), "count"),
            "localmem.local_membership_closure.self_s":
                (per(s["localmem.local_membership_closure"]), "s"),
            "localmem.local_membership_points.s":
                (per(i["localmem.local_membership_points"]), "s"),
            "localmem.span_over_fractions.self_s":
                (per(s["localmem.span_over_fractions"]), "s"),
            "localmem.verify_witness_bounds.self_s":
                (per(s["localmem.verify_witness_bounds"]), "s"),
            "matspace.find_rank1_idempotent.s":
                (per(i["matspace.find_rank1_idempotent"]), "s"),
            "matspace.find_rank1_idempotent.calls":
                (per(n["matspace.find_rank1_idempotent"]), "count"),
            "matspace.perp.s": (per(i["matspace.perp"]), "s"),
            "matspace.is_rank1_idempotent_free.self_s":
                (per(s["matspace.is_rank1_idempotent_free"]), "s"),
            "cli.run_command.self_s": (per(s["cli.run_command"]), "s"),
            "cli.parse_instance.s": (per(i["cli.parse_instance"]), "s"),
            "cli.verify_report.self_s": (per(s["cli.verify_report"]), "s"),
        }


_HOOKS = {
    "groebner.buchberger": Tracer._on_buchberger,
    "groebner.radical_membership": Tracer._on_radical,
    "polymat.minors": Tracer._on_minors,
    "localmem.local_membership_closure": Tracer._on_closure,
}
