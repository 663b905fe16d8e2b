"""Flat correspondence, trace pairing, complements, rank-1 idempotents."""

import itertools
import random

import pytest

from locspan import (
    QQ,
    BudgetExceededError,
    LinearSubspace,
    MatrixSubspace,
    Polynomial,
    PrimeField,
    Rank1Idempotent,
    ScalarMatrix,
    coordinate_vector,
    find_rank1_idempotent,
    flat,
    fraction_span_only_example,
    is_rank1_idempotent_free,
    is_subspace_of_tracezero,
    local_membership_points,
    local_only_example,
    perp,
    span_over_field,
    trace_pairing,
    unflat,
)

from locspan.polymat import outer_product

from support import (
    random_subspace,
    reference_contains,
    subspace_containing_target,
    variables,
)


def _unit_matrix(i, j, n, field=QQ):
    return ScalarMatrix([[field.one if (r, c) == (i, j) else field.zero
                          for c in range(n)] for r in range(n)], field)


def _span_y(n, field=QQ):
    return LinearSubspace([coordinate_vector(n, field)])


def _same_subspace(a, b):
    return a.dim == b.dim and all(a.contains(x) for x in b.basis)


# -- flat / unflat ------------------------------------------------------------

def test_flat_reads_off_coefficients():
    y1, y2, y3 = variables(3)
    subspace = LinearSubspace([(y2, y1, y3)])
    matrix = flat(subspace).basis[0]
    assert matrix == ScalarMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]], QQ)


def test_flat_of_coordinate_vector_is_identity():
    assert flat(_span_y(3)).basis[0] == ScalarMatrix.identity(3, QQ)


def test_flat_preserves_dimension():
    rng = random.Random(51)
    for _ in range(8):
        subspace = random_subspace(rng, 4, rng.randint(1, 3))
        assert flat(subspace).dim == subspace.dim


def test_unflat():
    identity = ScalarMatrix.identity(3, QQ)
    assert unflat(identity) == coordinate_vector(3, QQ)
    zero = ScalarMatrix([[0] * 3] * 3, QQ)
    assert all(p.is_zero() for p in unflat(zero))
    e12 = _unit_matrix(0, 1, 3)
    y2 = Polynomial.variable(1, 3, QQ)
    vec = unflat(e12)
    assert vec[0] == y2 and vec[1].is_zero() and vec[2].is_zero()


def test_flat_unflat_roundtrip():
    rng = random.Random(52)
    for _ in range(8):
        subspace = random_subspace(rng, 3, rng.randint(1, 2))
        rebuilt = LinearSubspace([unflat(b) for b in flat(subspace).basis])
        assert rebuilt.basis == subspace.basis


# -- trace pairing -------------------------------------------------------------

def test_trace_pairing_values():
    identity = ScalarMatrix.identity(3, QQ)
    assert trace_pairing(identity, identity) == 3
    e12 = _unit_matrix(0, 1, 3)
    e21 = _unit_matrix(1, 0, 3)
    assert trace_pairing(e12, e21) == 1
    assert trace_pairing(e12, e12) == 0


def test_trace_pairing_symmetric_bilinear():
    rng = random.Random(53)
    for _ in range(10):
        a = ScalarMatrix([[rng.randint(-3, 3) for _ in range(3)]
                          for _ in range(3)], QQ)
        b = ScalarMatrix([[rng.randint(-3, 3) for _ in range(3)]
                          for _ in range(3)], QQ)
        assert trace_pairing(a, b) == trace_pairing(b, a)
        doubled = ScalarMatrix([[2 * x for x in row] for row in a.entries], QQ)
        assert trace_pairing(doubled, b) == 2 * trace_pairing(a, b)


# -- perp -----------------------------------------------------------------------

def test_perp_of_identity_span_is_tracezero():
    complement = perp(MatrixSubspace([ScalarMatrix.identity(3, QQ)]))
    assert complement.dim == 8
    assert is_subspace_of_tracezero(complement)


def test_perp_of_everything_is_zero():
    n = 2
    basis = [_unit_matrix(i, j, n) for i in range(n) for j in range(n)]
    complement = perp(MatrixSubspace(basis))
    assert complement.dim == 0
    assert perp(complement).dim == n * n


def test_perp_is_involution():
    e12 = _unit_matrix(0, 1, 3)
    span = MatrixSubspace([e12])
    assert _same_subspace(perp(perp(span)), span)


def test_perp_dimension_complement_random():
    rng = random.Random(54)
    for _ in range(8):
        n = rng.randint(2, 3)
        count = rng.randint(1, n * n)
        basis = []
        seen = MatrixSubspace([], n=n, field=QQ)
        for _ in range(count):
            candidate = ScalarMatrix([[rng.randint(-2, 2) for _ in range(n)]
                                      for _ in range(n)], QQ)
            try:
                seen = MatrixSubspace(basis + [candidate], n=n, field=QQ)
                basis.append(candidate)
            except ValueError:
                continue
        subspace = MatrixSubspace(basis, n=n, field=QQ)
        complement = perp(subspace)
        assert subspace.dim + complement.dim == n * n
        assert _same_subspace(perp(complement), subspace)
        for a in subspace.basis:
            for b in complement.basis:
                assert trace_pairing(a, b) == 0


# -- r1-free decision -------------------------------------------------------------

def test_golden_family_complement_is_r1free():
    subspace = perp(flat(local_only_example(4, 3)))
    decision = is_rank1_idempotent_free(subspace)
    assert decision.holds
    assert not is_subspace_of_tracezero(subspace)


def test_tracezero_subspace_is_r1free():
    tracezero = perp(MatrixSubspace([ScalarMatrix.identity(3, QQ)]))
    decision = is_rank1_idempotent_free(tracezero)
    assert decision.holds


def test_full_algebra_contains_idempotent():
    n = 3
    basis = [_unit_matrix(i, j, n) for i in range(n) for j in range(n)]
    decision = is_rank1_idempotent_free(MatrixSubspace(basis))
    assert not decision.holds
    witness = decision.failure_witness
    assert isinstance(witness, Rank1Idempotent)
    # u v^T is idempotent exactly when v^T u = 1
    assert sum(a * b for a, b in zip(witness.v, witness.u)) == 1
    e = witness.matrix(QQ)
    assert trace_pairing(e, ScalarMatrix.identity(n, QQ)) == 1


def test_r1free_rejects_large_codimension():
    with pytest.raises(ValueError):
        is_rank1_idempotent_free(MatrixSubspace([_unit_matrix(0, 0, 2)]))


def test_counterexample_complement_contains_idempotent():
    subspace = perp(flat(fraction_span_only_example(3)))
    decision = is_rank1_idempotent_free(subspace)
    assert not decision.holds


# -- brute-force search ------------------------------------------------------------

def test_bruteforce_finds_e11():
    F5 = PrimeField(5)
    span = MatrixSubspace([_unit_matrix(0, 0, 2, F5)])
    found = find_rank1_idempotent(span)
    assert found == Rank1Idempotent((1, 0), (1, 0))


def test_bruteforce_tracezero_empty():
    F5 = PrimeField(5)
    tracezero = perp(MatrixSubspace([ScalarMatrix.identity(3, F5)]))
    assert find_rank1_idempotent(tracezero) is None


def test_bruteforce_golden_family_empty():
    F5 = PrimeField(5)
    subspace = perp(flat(local_only_example(4, 3, F5)))
    assert find_rank1_idempotent(subspace) is None


def test_bruteforce_budget_and_field_checks():
    F5 = PrimeField(5)
    span = MatrixSubspace([_unit_matrix(0, 0, 2, F5)])
    with pytest.raises(BudgetExceededError):
        find_rank1_idempotent(span, budget=3)
    # the cap is p^(2n), the (u, v) space decided, not the points visited
    assert find_rank1_idempotent(span, budget=5**4) is not None
    with pytest.raises(BudgetExceededError,
                       match=r"^5\^4 candidates exceed the budget of 624$"):
        find_rank1_idempotent(span, budget=5**4 - 1)
    with pytest.raises(ValueError):
        find_rank1_idempotent(MatrixSubspace([_unit_matrix(0, 0, 2)]))


def _scan_for_idempotent(subspace):
    """Reference search: the first (u, v), u projective with first nonzero
    coordinate 1 and v . u = 1, whose outer product the subspace contains."""
    p, n = subspace.field.p, subspace.n
    for u in itertools.product(range(p), repeat=n):
        if next((x for x in u if x), None) != 1:
            continue
        for v in itertools.product(range(p), repeat=n):
            if (sum(a * b for a, b in zip(u, v)) % p == 1
                    and subspace.contains(outer_product(u, v, subspace.field))):
                return Rank1Idempotent(u, v)
    return None


def test_bruteforce_matches_a_plain_scan():
    rng = random.Random(61)
    results = []
    for p, n, count in ((3, 2, 12), (5, 2, 12), (3, 3, 6), (5, 3, 3),
                        (2, 2, 12), (2, 3, 8), (2, 4, 4), (7, 2, 6)):
        field = PrimeField(p)
        cases = [perp(MatrixSubspace([ScalarMatrix.identity(n, field)]))]
        while len(cases) < count:
            dim = rng.randint(1, n * n - 1)
            basis = [ScalarMatrix([[rng.randrange(p) for _ in range(n)]
                                   for _ in range(n)], field)
                     for _ in range(dim)]
            try:
                cases.append(MatrixSubspace(basis))
            except ValueError:
                continue  # dependent draw
        for subspace in cases:
            expected = _scan_for_idempotent(subspace)
            assert find_rank1_idempotent(subspace) == expected
            results.append(expected is not None)
    assert any(results) and not all(results)


def test_bruteforce_solves_instead_of_scanning():
    import time
    subspace = perp(flat(local_only_example(5, 4, PrimeField(5))))
    started = time.monotonic()
    assert find_rank1_idempotent(subspace) is None
    assert time.monotonic() - started < 1.0


def test_bruteforce_witness_is_in_subspace():
    F3 = PrimeField(3)
    basis = [_unit_matrix(0, 0, 2, F3), _unit_matrix(0, 1, 2, F3)]
    subspace = MatrixSubspace(basis)
    found = find_rank1_idempotent(subspace)
    assert found is not None
    u, v = found.u, found.v
    assert sum(a * b for a, b in zip(u, v)) % 3 == 1
    assert subspace.contains(found.matrix(F3))


# -- trace-zero containment -----------------------------------------------------------

def test_tracezero_containment():
    assert not is_subspace_of_tracezero(perp(flat(local_only_example(4, 3))))
    e12 = _unit_matrix(0, 1, 3)
    e21 = _unit_matrix(1, 0, 3)
    assert is_subspace_of_tracezero(MatrixSubspace([e12, e21]))
    assert not is_subspace_of_tracezero(
        MatrixSubspace([ScalarMatrix.identity(3, QQ)]))


# -- bridge identities -----------------------------------------------------------------

def test_bridge_identity_random():
    rng = random.Random(55)
    for _ in range(12):
        n = rng.randint(3, 4)
        d = rng.randint(1, n - 1)
        subspace = (subspace_containing_target(rng, n, d) if rng.random() < 0.5
                    else random_subspace(rng, n, d))
        contained = is_subspace_of_tracezero(perp(flat(subspace)))
        spanned = span_over_field(subspace) is not None
        assert contained == spanned


def test_rational_point_equivalence_random():
    rng = random.Random(56)
    F5 = PrimeField(5)
    for _ in range(12):
        d = rng.randint(1, 2)
        subspace = random_subspace(rng, 3, d, field=F5)
        complement = perp(flat(subspace))
        search = find_rank1_idempotent(complement)
        points = local_membership_points(subspace)
        assert (search is None) == points.holds


def test_low_codimension_r1free_subspaces_sit_in_tracezero():
    rng = random.Random(57)
    found = 0
    for _ in range(20):
        n = rng.randint(3, 4)
        d = rng.randint(1, 2)
        subspace = (subspace_containing_target(rng, n, d) if rng.random() < 0.5
                    else random_subspace(rng, n, d))
        complement = perp(flat(subspace))
        if is_rank1_idempotent_free(complement).holds:
            assert is_subspace_of_tracezero(complement)
            found += 1
    assert found > 0


def test_matrix_subspace_validation():
    with pytest.raises(ValueError):
        MatrixSubspace([ScalarMatrix.identity(2, QQ),
                        ScalarMatrix([[3, 0], [0, 3]], QQ)])
    with pytest.raises(ValueError):
        MatrixSubspace([], n=None, field=None)
    empty = MatrixSubspace([], n=2, field=QQ)
    assert empty.dim == 0 and empty.codim == 4


def test_contains_matches_a_column_solve():
    rng = random.Random(59)
    for field in (QQ, PrimeField(2), PrimeField(5)):
        def random_matrix(n):
            return ScalarMatrix([[rng.randint(-2, 2) for _ in range(n)]
                                 for _ in range(n)], field)

        members = outsiders = 0
        for _ in range(20):
            n = rng.randint(2, 3)
            dim = rng.randint(1, n * n - 1)
            while True:
                try:
                    subspace = MatrixSubspace(
                        [random_matrix(n) for _ in range(dim)])
                    break
                except ValueError:  # a dependent draw
                    continue
            coeffs = [rng.randint(-2, 2) for _ in subspace.basis]
            member = ScalarMatrix(
                [[sum(c * b[i, j] for c, b in zip(coeffs, subspace.basis))
                  for j in range(n)] for i in range(n)], field)
            assert subspace.contains(member)
            for m in (member, random_matrix(n), random_matrix(n)):
                inside = subspace.contains(m)
                assert inside == reference_contains(subspace, m)
                members, outsiders = members + inside, outsiders + (not inside)
        assert members and outsiders
        empty = MatrixSubspace([], n=2, field=field)
        zero = ScalarMatrix([[0, 0], [0, 0]], field)
        assert empty.contains(zero) and reference_contains(empty, zero)
        e21 = _unit_matrix(1, 0, 2, field)
        assert not empty.contains(e21) and not reference_contains(empty, e21)
        full = MatrixSubspace([_unit_matrix(i, j, 3, field)
                               for i in range(3) for j in range(3)])
        for m in (random_matrix(3) for _ in range(5)):
            assert full.contains(m) and reference_contains(full, m)
