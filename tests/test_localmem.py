"""Span decisions, local membership, pencils, and the example families."""

import itertools
import random
from fractions import Fraction

import pytest

from locspan import (
    QQ,
    BudgetExceededError,
    LinearSubspace,
    LocalDecision,
    MinorFailure,
    PointFailure,
    Polynomial,
    PrimeField,
    ScalarMatrix,
    common_nullvector,
    coordinate_vector,
    fraction_span_only_example,
    has_free_rank,
    local_membership_closure,
    local_membership_points,
    local_only_example,
    pencil_coefficients,
    span_over_field,
    span_over_fractions,
    unflat,
    verify_witness_bounds,
)
from locspan import CramerWitness, PolyMatrix, localmem
from locspan.exactalg import try_exact_div
from locspan.localmem import _projective_representatives, ranks_at
from locspan.polymat import rank

from support import (
    random_subspace,
    subspace_containing_target,
    vandermonde_y1,
    variables,
)


def _span_y(n, field=QQ):
    return LinearSubspace([coordinate_vector(n, field)])


# -- construction ------------------------------------------------------------

def test_construction_rejects_bad_input():
    y1, y2, y3 = variables(3)
    zero = Polynomial.zero(3, QQ)
    with pytest.raises(ValueError):
        LinearSubspace([(zero, zero, zero)])
    with pytest.raises(ValueError):
        LinearSubspace([(y1 * y2, zero, zero)])
    with pytest.raises(ValueError):
        LinearSubspace([(y1 + 1, zero, zero)])
    with pytest.raises(ValueError):  # more vectors than ambient dimension
        LinearSubspace([(y1, zero, zero)] * 4)


def test_coefficient_matrices_reproduce_basis():
    rng = random.Random(31)
    for _ in range(10):
        subspace = random_subspace(rng, 4, rng.randint(1, 3))
        rebuilt = LinearSubspace([unflat(b) for b in subspace.coeff_matrices])
        assert rebuilt.basis == subspace.basis


# -- free rank ---------------------------------------------------------------

def test_free_rank():
    assert has_free_rank(local_only_example(4, 3))
    y = coordinate_vector(3, QQ)
    doubled = tuple(c.scale(2) for c in y)
    assert not has_free_rank(LinearSubspace([y, doubled]))
    assert has_free_rank(_span_y(3))


def test_family_has_free_rank():
    # `local_only_example` builds independent vectors and does not re-check
    for field in (QQ, PrimeField(3), PrimeField(5)):
        for n in range(4, 11):
            for d in range(3, n):
                assert has_free_rank(local_only_example(n, d, field)), (n, d)


# -- span over the base field -------------------------------------------------

def test_span_over_field_golden_fails():
    assert span_over_field(local_only_example(4, 3)) is None


def test_span_over_field_trivial_cases():
    assert span_over_field(_span_y(3)) == (1,)
    y1, y2, y3 = variables(3)
    zero = Polynomial.zero(3, QQ)
    split = LinearSubspace([(y1, y2, zero), (zero, zero, y3)])
    assert span_over_field(split) == (1, 1)


# -- span over the fraction field ---------------------------------------------

def test_span_over_fractions_golden():
    witness = span_over_fractions(local_only_example(4, 3))
    assert witness.index_set == (0, 2, 3)
    assert [str(l) for l in witness.lambdas] == ["1", "1", "(y2) / (y1)"]
    assert str(witness.denominator_lcm) == "y1"


def test_span_over_fractions_counterexample():
    witness = span_over_fractions(fraction_span_only_example(3))
    assert witness.index_set == (0, 1)
    assert [str(l) for l in witness.lambdas] == ["1", "(y2) / (y1)"]
    assert str(witness.denominator_lcm) == "y1"


def test_span_over_fractions_over_prime_field():
    witness = span_over_fractions(fraction_span_only_example(3, PrimeField(5)))
    assert [str(l) for l in witness.lambdas] == ["1", "(y2) / (y1)"]
    assert str(witness.denominator_lcm) == "y1"
    report = verify_witness_bounds(
        witness, fraction_span_only_example(3, PrimeField(5)))
    assert report.ok and report.lcm_degree == 1


def test_span_over_fractions_no_witness():
    y2 = Polynomial.variable(1, 3, QQ)
    zero = Polynomial.zero(3, QQ)
    subspace = LinearSubspace([(y2, zero, zero)])
    assert span_over_fractions(subspace) is None


def test_span_over_fractions_requires_independence():
    y = coordinate_vector(3, QQ)
    doubled = tuple(c.scale(2) for c in y)
    with pytest.raises(ValueError):
        span_over_fractions(LinearSubspace([y, doubled]))


# -- witness bounds ------------------------------------------------------------

def test_witness_bounds_golden():
    subspace = local_only_example(4, 3)
    report = verify_witness_bounds(span_over_fractions(subspace), subspace)
    assert report.ok
    assert report.identity_ok and report.fractions_ok and report.divisibility_ok
    assert report.lcm_degree == 1 and report.dimension == 3
    assert report.lcm_degree_below_dim


def test_witness_bounds_constant_coefficients():
    subspace = _span_y(3)
    report = verify_witness_bounds(span_over_fractions(subspace), subspace)
    assert report.ok and report.lcm_degree == 0


def test_witness_bounds_rejects_hand_built_witness():
    from locspan import CramerWitness, RationalFunction
    subspace = _span_y(3)
    y1 = Polynomial.variable(0, 3, QQ)
    one = Polynomial.one(3, QQ)
    # numerator degree 2, denominator degree 1: shape check must fail
    bad = CramerWitness((0,), (RationalFunction(y1 * y1, y1),), y1)
    report = verify_witness_bounds(bad, subspace)
    assert not report.fractions_ok
    assert not report.ok


def _with_lambda(witness, j, num, den):
    """``witness`` with coefficient j replaced by the fraction num / den."""
    from locspan import CramerWitness, RationalFunction
    lambdas = list(witness.lambdas)
    lambdas[j] = RationalFunction(num, den)
    return CramerWitness(witness.index_set, tuple(lambdas),
                         witness.denominator_lcm)


def test_witness_bounds_flags_each_fraction_shape():
    y1, y2, y3 = variables(3)
    zero = Polynomial.zero(3, QQ)
    # y = q1 + (y2 / y1) q2 + 0 q3, and m = y1 divides the one minor y1^3
    subspace = LinearSubspace([(y1, zero, y3), (zero, y1, zero),
                               (zero, zero, y1)])
    witness = span_over_fractions(subspace)
    assert [str(l) for l in witness.lambdas] == ["1", "(y2) / (y1)", "0"]
    assert verify_witness_bounds(witness, subspace).ok
    # a zero coefficient over y1, and y2 / y1 as 2 y2 / (2 y1): the identity
    # and the divisibility still hold, only the fraction shape fails
    for forged in (_with_lambda(witness, 2, zero, y1),
                   _with_lambda(witness, 1, y2.scale(2), y1.scale(2))):
        report = verify_witness_bounds(forged, subspace)
        assert report.identity_ok and report.divisibility_ok
        assert not report.fractions_ok
    # y2 / y1 as y1 y2 / y1^2: monic and of equal degrees 2 <= d, so only
    # the gcd finds that it is not reduced
    report = verify_witness_bounds(
        _with_lambda(witness, 1, y1 * y2, y1 * y1), subspace)
    assert report.lambda_degrees[1] == (2, 2) and not report.fractions_ok
    # coprime and monic, but of degree 4 > d.  The identity fails as well,
    # whatever m: it needs each denominator to divide m, and divisibility
    # needs m to divide the nonzero degree-3 minor
    forged = _with_lambda(witness, 1, y2 ** 4, y1 ** 4)
    report = verify_witness_bounds(forged, subspace)
    assert report.lambda_degrees[1] == (4, 4) and report.divisibility_ok
    assert not (report.fractions_ok or report.identity_ok)


def _divides_every_maximal_minor(m, subspace):
    """The divisibility flag by its definition, minor by minor."""
    q, d = subspace.basis_matrix, subspace.dim
    return all(try_exact_div(q.submatrix(rows, range(d)).det(), m) is not None
               for rows in itertools.combinations(range(subspace.nvars), d))


def test_witness_bounds_divisibility_by_cramer_rule(monkeypatch):
    # a genuine witness settles divisibility by Cramer's rule, with only the
    # index minor its identity needs; any other witness enumerates C(n, d)
    dets = []
    det = PolyMatrix.det
    monkeypatch.setattr(PolyMatrix, "det",
                        lambda self: dets.append(self) or det(self))

    def minors_made(witness, subspace):
        dets.clear()
        report = verify_witness_bounds(witness, subspace)
        made = len(dets)
        assert report.divisibility_ok == _divides_every_maximal_minor(
            witness.denominator_lcm, subspace)
        return made

    genuine = [local_only_example(n, d) for n in (4, 5, 6) for d in range(3, n)]
    genuine += [random_subspace(random.Random(seed), 4, 4) for seed in (1, 2, 3)]
    genuine.append(vandermonde_y1(12, 6))
    for subspace in genuine:
        witness = span_over_fractions(subspace)
        assert minors_made(witness, subspace) == 1

    y1, y2, y3 = variables(3)
    zero = Polynomial.zero(3, QQ)
    shapes = LinearSubspace([(y1, zero, y3), (zero, y1, zero),
                             (zero, zero, y1)])
    witness = span_over_fractions(shapes)
    forged = [(_with_lambda(witness, 2, zero, y1), shapes),
              (_with_lambda(witness, 1, y2.scale(2), y1.scale(2)), shapes),
              (_with_lambda(witness, 1, y1 * y2, y1 * y1), shapes),
              (_with_lambda(witness, 1, y2 ** 4, y1 ** 4), shapes)]
    # m times y1 or y2: the identity holds and the fractions are reduced, but
    # m is not their lcm.  Here m = y1 on both subspaces, whose nonzero
    # maximal minors are y1^3 and y1^2 y2, so y1^2 divides them and y1 y2
    # does not
    for subspace in (shapes, local_only_example(4, 3)):
        w = span_over_fractions(subspace)
        for y in subspace.coordinate_target()[:2]:
            forged.append((CramerWitness(w.index_set, w.lambdas,
                                         w.denominator_lcm * y), subspace))
    for witness, subspace in forged:  # enumerated, up to the first failure
        assert minors_made(witness, subspace) > 1


# -- local membership: closure --------------------------------------------------

def test_closure_golden_family_holds():
    decision = local_membership_closure(local_only_example(4, 3))
    assert decision.holds and decision.method == "closure_radical"
    assert decision.failure_witness is None


def test_closure_counterexample_fails_at_stratum_one():
    decision = local_membership_closure(fraction_span_only_example(3))
    assert not decision.holds
    witness = decision.failure_witness
    assert isinstance(witness, MinorFailure)
    assert witness.stratum == 1
    assert witness.minor == Polynomial.variable(1, 3, QQ)  # y2
    assert witness.rows == (1,) and witness.cols == (2,)


def test_closure_span_y_holds():
    assert local_membership_closure(_span_y(3)).holds


def test_closure_rejects_full_dimension():
    with pytest.raises(ValueError):
        local_membership_closure(_span_y(1))
    y1, y2 = variables(2)
    zero = Polynomial.zero(2, QQ)
    with pytest.raises(ValueError):
        local_membership_closure(LinearSubspace([(y1, zero), (zero, y2)]))


# -- local membership: points ----------------------------------------------------

def test_points_golden_family_holds_over_f5():
    subspace = local_only_example(4, 3, PrimeField(5))
    decision = local_membership_points(subspace)
    assert decision.holds and decision.method == "point_enumeration"


def test_points_counterexample_first_failure():
    subspace = fraction_span_only_example(3, PrimeField(5))
    decision = local_membership_points(subspace)
    assert not decision.holds
    witness = decision.failure_witness
    assert isinstance(witness, PointFailure)
    assert witness.point == (0, 1, 0)
    assert witness.point[0] == 0 and witness.point[1] != 0
    assert witness.rank_augmented > witness.rank_basis


def test_points_span_y_over_f3():
    assert local_membership_points(_span_y(3, PrimeField(3))).holds


def test_points_budget_and_field_checks():
    with pytest.raises(BudgetExceededError):
        local_membership_points(_span_y(3, PrimeField(5)), budget=10)
    with pytest.raises(ValueError):
        local_membership_points(_span_y(3))


def test_points_budget_caps_the_space_not_the_points_visited():
    # 31 representatives are evaluated, but the cap stays at p^n = 125
    subspace = _span_y(3, PrimeField(5))
    assert local_membership_points(subspace, budget=5**3).holds
    with pytest.raises(BudgetExceededError,
                       match=r"^5\^3 points exceed the budget of 124$"):
        local_membership_points(subspace, budget=5**3 - 1)


def _scan_all_points(subspace):
    """Every point of F_p^n in lexicographic order, two rank calls each."""
    field = subspace.field
    for point in itertools.product(range(field.p), repeat=subspace.nvars):
        columns = [b.matvec(point) for b in subspace.coeff_matrices]
        r_basis = rank(ScalarMatrix.from_columns(columns, field))
        r_aug = rank(ScalarMatrix.from_columns(columns + [point], field))
        if r_aug > r_basis:
            return LocalDecision(False, "point_enumeration",
                                 PointFailure(point, r_basis, r_aug))
    return LocalDecision(True, "point_enumeration")


def _tilted_subspace(rng, n, d, field):
    """A subspace that holds on the hyperplane y1 = 0: one component of one
    vector of a subspace containing y gains a multiple of y1."""
    vectors = [list(v) for v in subspace_containing_target(rng, n, d, field).basis]
    y1 = Polynomial.variable(0, n, field)
    j, k = rng.randrange(d), rng.randrange(n)
    vectors[j][k] = vectors[j][k] + y1.scale(rng.randint(1, field.p - 1))
    return LinearSubspace(vectors)


def test_points_match_a_scan_of_every_point():
    rng = random.Random(35)
    outcomes = []
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for n in (2, 3, 4):
            for d in range(1, n):
                for make in (random_subspace, subspace_containing_target,
                             _tilted_subspace):
                    try:
                        subspace = make(rng, n, d, field)
                    except ValueError:  # the tilt cancelled a whole vector
                        continue
                    expected = _scan_all_points(subspace)
                    assert local_membership_points(subspace) == expected, subspace
                    outcomes.append(None if expected.holds
                                    else expected.failure_witness.point[0])
    # first failures off and on the hyperplane y1 = 0, and holding instances
    assert {None, 0, 1} <= set(outcomes)


def test_points_evaluate_one_point_per_projective_class(monkeypatch):
    calls = []

    def counting_ranks_at(subspace, point):
        calls.append(point)
        return ranks_at(subspace, point)

    monkeypatch.setattr(localmem, "ranks_at", counting_ranks_at)
    assert local_membership_points(local_only_example(4, 3, PrimeField(5))).holds
    assert len(calls) == (5**4 - 1) // (5 - 1) == 156


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_representatives_equal_the_filter_of_every_vector(p):
    for n in range(1, 5):
        filtered = [vec for vec in itertools.product(range(p), repeat=n)
                    if next((x for x in vec if x), None) == 1]
        assert list(_projective_representatives(p, n)) == filtered


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                         ids=["Q", "F3", "F5"])
def test_ranks_at_matches_two_rank_calls(field):
    # points in {-1, 0, 1}^n where the basis drops rank and where the
    # target leaves the evaluated span, against two separate eliminations
    rng = random.Random(34)
    subspaces = [fraction_span_only_example(3, field),
                 local_only_example(4, 3, field)]
    subspaces += [random_subspace(rng, n, rng.randint(1, n - 1), field)
                  for n in (3, 3, 4, 4)]
    drops = jumps = 0
    for subspace in subspaces:
        for point in itertools.product((-1, 0, 1), repeat=subspace.nvars):
            columns = [b.matvec(point) for b in subspace.coeff_matrices]
            expected = (rank(ScalarMatrix.from_columns(columns, field)),
                        rank(ScalarMatrix.from_columns(columns + [point], field)))
            assert ranks_at(subspace, point) == expected, (subspace, point)
            drops += expected[0] < subspace.dim
            jumps += expected[1] > expected[0]
    assert drops and jumps


def _two_ranks(subspace, point):
    """Ranks of the evaluated basis and augmented matrices, from two
    separate eliminations of `ScalarMatrix` columns."""
    field = subspace.field
    columns = [b.matvec(point) for b in subspace.coeff_matrices]
    return (rank(ScalarMatrix.from_columns(columns, field)),
            rank(ScalarMatrix.from_columns(columns + [point], field)))


@pytest.mark.parametrize("p, sizes", [(3, (3, 4)), (5, (3, 4)),
                                      (2**61 - 1, (2, 2, 2))],
                         ids=["F3", "F5", "F_(2^61-1)"])
def test_ranks_at_reduces_any_point_mod_p(p, sizes):
    # ints outside [0, p) and Fractions whose denominator is a unit mod p
    # give the ranks of the point they reduce to; at 2^61 - 1 the packed
    # fields of point_table are 124 bits wide
    field = PrimeField(p)
    rng = random.Random(36)
    subspaces = [_span_y(2, field)]
    subspaces += [random_subspace(rng, n, rng.randint(1, n - 1), field)
                  for n in sizes]
    outcomes = set()
    for subspace in subspaces:
        n = subspace.nvars
        points = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(20)]
        points += [(0,) * n, (1,) + (0,) * (n - 1), (p - 1,) * n]
        for point in points:
            expected = _two_ranks(subspace, point)
            assert ranks_at(subspace, point) == expected, (subspace, point)
            shifted = [x + rng.randint(-3, 3) * p for x in point]
            dens = [rng.choice([2, p + 1, 7 * p - 1]) for _ in point]
            fractions = [Fraction(x * den + rng.randint(-2, 2) * p, den)
                         for x, den in zip(point, dens)]
            assert ranks_at(subspace, shifted) == expected, (subspace, point)
            assert ranks_at(subspace, fractions) == expected, (subspace, point)
            outcomes.add(expected[1] - expected[0])
    assert outcomes == {0, 1}


# -- pencils -----------------------------------------------------------------------

def test_pencil_golden_properties():
    subspace = local_only_example(4, 3)
    pencil = pencil_coefficients(subspace)
    assert len(pencil) == 4
    for j, matrix in enumerate(pencil):
        last_column = matrix.column(3)
        expected = tuple(QQ.one if i == j else QQ.zero for i in range(4))
        assert last_column == expected  # A_j e_n = e_j
    # sum y_j A_j reconstructs the augmented matrix
    augmented = subspace.augmented_matrix()
    y = variables(4)
    for r in range(4):
        for c in range(4):
            acc = Polynomial.zero(4, QQ)
            for j in range(4):
                acc = acc + y[j].scale(pencil[j][r, c])
            assert acc == augmented[r, c]


def test_pencil_requires_codimension_one():
    with pytest.raises(ValueError):
        pencil_coefficients(_span_y(3))


def test_common_nullvector_golden_none():
    pencil = pencil_coefficients(local_only_example(4, 3))
    assert common_nullvector(pencil) is None


def test_common_nullvector_for_contained_target():
    rng = random.Random(33)
    for n in (3, 4):
        subspace = subspace_containing_target(rng, n, n - 1)
        pencil = pencil_coefficients(subspace)
        null = common_nullvector(pencil)
        assert null is not None
        assert null[-1] != 0
        coefficients = span_over_field(subspace)
        derived = tuple(-x / null[-1] for x in null[:-1])
        assert derived == coefficients
        zero = tuple(QQ.zero for _ in range(n))
        for matrix in pencil:
            assert matrix.matvec(null) == zero


def test_common_nullvector_degenerate_zero_pencil():
    zeros = [ScalarMatrix([[0, 0], [0, 0]], QQ) for _ in range(2)]
    assert common_nullvector(zeros) == (1, 0)


# -- example families ----------------------------------------------------------------

def test_local_only_example_golden_entries():
    subspace = local_only_example(4, 3)
    y1, y2, y3, y4 = variables(4)
    zero = Polynomial.zero(4, QQ)
    assert subspace.basis[0] == (y1, y2, y3 - y1, y4)
    assert subspace.basis[1] == (zero, zero, y1, -y2)
    assert subspace.basis[2] == (zero, zero, zero, y1)


def test_local_only_example_extension_vector():
    subspace = local_only_example(5, 4)
    y4 = Polynomial.variable(3, 5, QQ)
    zero = Polynomial.zero(5, QQ)
    assert subspace.basis[3] == (y4, zero, zero, zero, zero)
    assert has_free_rank(subspace)


def test_local_only_example_range_checks():
    with pytest.raises(ValueError):
        local_only_example(3, 3)
    with pytest.raises(ValueError):
        local_only_example(4, 2)
    with pytest.raises(ValueError):
        local_only_example(5, 5)


def test_fraction_span_only_example_shape():
    subspace = fraction_span_only_example(3)
    y1, y2, y3 = variables(3)
    zero = Polynomial.zero(3, QQ)
    assert subspace.basis[0] == (y1, zero, y3)
    assert subspace.basis[1] == (zero, y1, zero)


def test_uncorrected_counterexample_variant_lacks_fraction_witness():
    # nearby variant with the second generator supported on the first
    # coordinate: the second component can never be matched
    y1, y3 = Polynomial.variable(0, 3, QQ), Polynomial.variable(2, 3, QQ)
    zero = Polynomial.zero(3, QQ)
    variant = LinearSubspace([(y1, zero, y3), (y1, zero, zero)])
    assert has_free_rank(variant)
    assert span_over_fractions(variant) is None
    assert not local_membership_closure(variant).holds


# -- randomized invariants -------------------------------------------------------------

def test_span_field_success_implies_fraction_success():
    rng = random.Random(34)
    for _ in range(15):
        n = rng.randint(3, 4)
        subspace = subspace_containing_target(rng, n, rng.randint(1, n - 1))
        coefficients = span_over_field(subspace)
        assert coefficients is not None
        witness = span_over_fractions(subspace)
        assert witness is not None
        # constant witness coefficients must match the field solution
        for lam, c in zip(witness.lambdas, coefficients):
            if lam.denominator.is_one() and lam.numerator.is_constant():
                assert lam.numerator.constant_value() == c


def test_fraction_success_kills_maximal_augmented_minors():
    rng = random.Random(35)
    checked = 0
    for _ in range(20):
        n = rng.randint(3, 4)
        d = rng.randint(1, n - 1)
        subspace = (subspace_containing_target(rng, n, d) if rng.random() < 0.5
                    else random_subspace(rng, n, d))
        witness_exists = span_over_fractions(subspace) is not None
        augmented = subspace.augmented_matrix()
        all_vanish = all(det.is_zero()
                         for _, _, det in augmented.minors(d + 1))
        # membership over fractions <=> augmented matrix keeps rank d
        assert witness_exists == all_vanish
        checked += 1
    assert checked == 20


def test_closure_implies_fraction_membership():
    rng = random.Random(36)
    for _ in range(12):
        n = rng.randint(3, 4)
        d = rng.randint(1, n - 1)
        subspace = (subspace_containing_target(rng, n, d) if rng.random() < 0.5
                    else random_subspace(rng, n, d))
        if local_membership_closure(subspace).holds:
            assert span_over_fractions(subspace) is not None


def test_closure_over_prime_field_implies_points():
    rng = random.Random(37)
    F5 = PrimeField(5)
    for _ in range(10):
        subspace = random_subspace(rng, 3, rng.randint(1, 2), field=F5)
        if local_membership_closure(subspace).holds:
            assert local_membership_points(subspace).holds


def test_witness_identity_and_divisibility_random():
    rng = random.Random(38)
    for _ in range(12):
        n = rng.randint(3, 4)
        subspace = subspace_containing_target(rng, n, rng.randint(1, n - 1))
        witness = span_over_fractions(subspace)
        report = verify_witness_bounds(witness, subspace)
        assert report.identity_ok
        assert report.divisibility_ok
        assert _divides_every_maximal_minor(witness.denominator_lcm, subspace)


def test_degree_bound_when_local_membership_holds():
    rng = random.Random(39)
    for _ in range(10):
        n = rng.randint(3, 4)
        subspace = subspace_containing_target(rng, n, rng.randint(1, n - 1))
        if not local_membership_closure(subspace).holds:
            continue
        witness = span_over_fractions(subspace)
        report = verify_witness_bounds(witness, subspace)
        assert report.lcm_degree_below_dim
    # and on the golden family, which is not spanned over the base field
    subspace = local_only_example(4, 3)
    witness = span_over_fractions(subspace)
    report = verify_witness_bounds(witness, subspace)
    assert report.lcm_degree_below_dim


def test_low_dimension_equivalence_sample():
    rng = random.Random(40)
    for _ in range(16):
        n = rng.randint(3, 5)
        d = rng.randint(1, 2)
        subspace = (subspace_containing_target(rng, n, d) if rng.random() < 0.5
                    else random_subspace(rng, n, d))
        closure = local_membership_closure(subspace).holds
        spanned = span_over_field(subspace) is not None
        assert closure == spanned


def test_pencil_equivalence_sample():
    rng = random.Random(41)
    for _ in range(16):
        n = rng.randint(3, 4)
        subspace = (subspace_containing_target(rng, n, n - 1)
                    if rng.random() < 0.5 else random_subspace(rng, n, n - 1))
        null = common_nullvector(pencil_coefficients(subspace))
        spanned = span_over_field(subspace)
        assert (null is not None) == (spanned is not None)


def test_family_is_local_only_across_sizes():
    for n in (4, 5):
        for d in range(3, n):
            subspace = local_only_example(n, d)
            assert local_membership_closure(subspace).holds
            assert span_over_field(subspace) is None
