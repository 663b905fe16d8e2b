"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance here is exact (zero disagreements allowed), only
wall-clock budgets are inequalities.
"""

import json
import random
import time

from locspan import (
    QQ,
    PrimeField,
    buchberger,
    common_nullvector,
    find_rank1_idempotent,
    flat,
    fraction_span_only_example,
    is_rank1_idempotent_free,
    is_subspace_of_tracezero,
    local_membership_closure,
    local_membership_points,
    local_only_example,
    pencil_coefficients,
    perp,
    poly_gcd,
    poly_lcm,
    span_over_field,
)
from locspan.cli import instance_from_subspace, run_command
from locspan.exactalg import Polynomial, try_exact_div
from locspan.groebner import Ideal, radical_membership
from locspan.polymat import PolyMatrix

from support import (
    cofactor_det,
    random_nonzero_polynomial,
    random_polynomial,
    random_subspace,
    subspace_containing_target,
)


def _report(capsys, monkeypatch, argv, stdin_text):
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = run_command(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def _conclude(num, label, ok):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


GOLDEN = instance_from_subspace(local_only_example(4, 3)).canonical_text()
COUNTER = instance_from_subspace(fraction_span_only_example(3)).canonical_text()
COUNTER5 = instance_from_subspace(
    fraction_span_only_example(3, PrimeField(5))).canonical_text()


def test_criterion_1_golden_family_decisions(capsys, monkeypatch):
    started = time.monotonic()
    local = _report(capsys, monkeypatch, ["decide-local", "--method", "closure"],
                    GOLDEN)
    span_f = _report(capsys, monkeypatch, ["decide-span-f"], GOLDEN)
    elapsed = time.monotonic() - started
    ok = (local["outcome"] is True and span_f["outcome"] is False
          and elapsed < 30.0)
    _conclude(1, f"golden (4,3): local holds, base span fails "
                 f"({elapsed:.1f}s < 30s)", ok)


def test_criterion_2_golden_witness_bit_exact(capsys, monkeypatch):
    span_l = _report(capsys, monkeypatch, ["decide-span-l"], GOLDEN)
    witness = span_l["witness"]
    witness_exact = (
        span_l["outcome"] is True
        and witness["index_set"] == [1, 3, 4]
        and witness["lambdas"] == [{"num": "1", "den": "1"},
                                   {"num": "1", "den": "1"},
                                   {"num": "y2", "den": "y1"}]
        and witness["m"] == "y1")

    bounds = _report(capsys, monkeypatch, ["witness-bounds"], GOLDEN)
    payload = bounds["witness"]
    degrees_ok = all(a is None or (a == b and a <= 3)
                     for a, b in payload["lambda_degrees"])
    bounds_exact = (
        bounds["outcome"] is True
        and payload["identity_ok"] and payload["fractions_ok"]
        and payload["divisibility_ok"]
        and degrees_ok
        and payload["lcm_degree"] == 1
        and payload["lcm_degree_below_dim"] is True
        and bounds["d"] == 3)
    _conclude(2, "golden witness (1, 1, y2/y1), m = y1, bounds checks",
              witness_exact and bounds_exact)


def test_criterion_3_corrected_counterexample(capsys, monkeypatch):
    span_l = _report(capsys, monkeypatch, ["decide-span-l"], COUNTER)
    local = _report(capsys, monkeypatch, ["decide-local"], COUNTER)
    points = _report(capsys, monkeypatch,
                     ["decide-local", "--method", "points"], COUNTER5)
    failure = local["failure_witness"]
    point = points["failure_witness"]["point"]
    ok = (span_l["outcome"] is True
          and local["outcome"] is False
          and failure["stratum"] == 1 and failure["minor"] == "y2"
          and points["outcome"] is False
          and point[0] == "0" and point[1] != "0")
    _conclude(3, "counterexample: fraction witness, closure fails at "
                 "(s=1, y2), point failure (0, *, ...)", ok)


def test_criterion_4_low_dimension_equivalence():
    started = time.monotonic()
    rng = random.Random(1004)
    disagreements = 0
    total = 0
    for n in (3, 4, 5):
        for d in (1, 2):
            for i in range(100):
                if i % 2 == 0:
                    subspace = subspace_containing_target(rng, n, d)
                else:
                    subspace = random_subspace(rng, n, d)
                closure = local_membership_closure(subspace).holds
                spanned = span_over_field(subspace) is not None
                if closure != spanned:
                    disagreements += 1
                total += 1
    elapsed = time.monotonic() - started
    ok = disagreements == 0 and total == 600 and elapsed < 300.0
    _conclude(4, f"local <=> base-field span for d <= 2 on {total} instances "
                 f"({disagreements} disagreements, {elapsed:.0f}s < 300s)", ok)


def test_criterion_5_rational_point_idempotent_equivalence():
    started = time.monotonic()
    rng = random.Random(1005)
    F5 = PrimeField(5)
    disagreements = 0
    for i in range(50):
        d = 1 + (i % 2)
        subspace = random_subspace(rng, 3, d, field=F5)
        complement = perp(flat(subspace))
        search_empty = find_rank1_idempotent(complement) is None
        points_hold = local_membership_points(subspace).holds
        if search_empty != points_hold:
            disagreements += 1
    elapsed = time.monotonic() - started
    ok = disagreements == 0 and elapsed < 120.0
    _conclude(5, f"idempotent search <=> rational-point membership on 50 "
                 f"instances over F5 ({elapsed:.0f}s < 120s)", ok)


def test_criterion_6_pencil_equivalence():
    rng = random.Random(1006)
    disagreements = 0
    for i in range(100):
        n = 3 + (i % 2)
        if i % 2 == 0:
            subspace = subspace_containing_target(rng, n, n - 1)
        else:
            subspace = random_subspace(rng, n, n - 1)
        null = common_nullvector(pencil_coefficients(subspace))
        coefficients = span_over_field(subspace)
        if (null is None) != (coefficients is None):
            disagreements += 1
            continue
        if null is not None:
            field = subspace.field
            inv_last = field.inv(null[-1])
            derived = tuple(field.normalize(-x * inv_last)
                            for x in null[:-1])
            if derived != coefficients:
                disagreements += 1
    _conclude(6, "common null vector <=> base-field span on 100 pencil "
                 f"instances ({disagreements} disagreements)",
              disagreements == 0)


def test_criterion_7_bridge_identity():
    rng = random.Random(1007)
    disagreements = 0
    for i in range(100):
        n = 3 + (i % 2)
        d = 1 + (i % (n - 1))
        if i % 2 == 0:
            subspace = subspace_containing_target(rng, n, d)
        else:
            subspace = random_subspace(rng, n, d)
        contained = is_subspace_of_tracezero(perp(flat(subspace)))
        spanned = span_over_field(subspace) is not None
        if contained != spanned:
            disagreements += 1
    _conclude(7, "trace-zero containment <=> base-field span on 100 "
                 f"instances ({disagreements} disagreements)",
              disagreements == 0)


def test_criterion_8_high_codimension_family():
    ok = True
    details = []
    for n, d in ((4, 3), (5, 3), (5, 4)):
        subspace = perp(flat(local_only_example(n, d)))
        closure_free = is_rank1_idempotent_free(subspace).holds
        reduced = perp(flat(local_only_example(n, d, PrimeField(5))))
        search_empty = find_rank1_idempotent(reduced) is None
        outside_tracezero = not is_subspace_of_tracezero(subspace)
        good = closure_free and search_empty and outside_tracezero
        ok = ok and good
        details.append(f"({n},{d}):{'ok' if good else 'FAIL'}")
    _conclude(8, "r1-free complements outside trace-zero " + " ".join(details),
              ok)


def test_criterion_9_kernel_correctness():
    failures = 0

    # reduced-basis uniqueness under generator shuffling
    rng = random.Random(1009)
    for _ in range(20):
        gens = [random_polynomial(rng, 3, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        reference = buchberger(list(gens)).polys
        shuffled = list(gens)
        rng.shuffle(shuffled)
        if buchberger(shuffled).polys != reference:
            failures += 1

    # radical membership golden cases
    y1 = Polynomial.variable(0, 3, QQ)
    y2 = Polynomial.variable(1, 3, QQ)
    y3 = Polynomial.variable(2, 3, QQ)
    if not radical_membership(y1, Ideal([y1 ** 2])):
        failures += 1
    if radical_membership(y2, Ideal([y1, y3])):
        failures += 1

    # determinant against the cofactor oracle
    for _ in range(200):
        size = rng.randint(1, 4)
        matrix = PolyMatrix(
            [[random_polynomial(rng, 3, max_degree=1, max_terms=2)
              for _ in range(size)] for _ in range(size)])
        if matrix.det() != cofactor_det(matrix):
            failures += 1

    # gcd * lcm = product up to a unit
    for _ in range(200):
        a = random_nonzero_polynomial(rng, 3)
        b = random_nonzero_polynomial(rng, 3)
        g = poly_gcd(a, b)
        if try_exact_div(a, g) is None or try_exact_div(b, g) is None:
            failures += 1
            continue
        product = a * b
        unit = product.leading_coefficient()
        if product != (g * poly_lcm(a, b)).scale(unit):
            failures += 1

    _conclude(9, f"kernel correctness sweeps ({failures} failures)",
              failures == 0)
