"""The closure's shortcuts: the pencil point refutes stratum-d minors,
before the stratum's basis for the first of them, and a stratum below d
holds with no basis over Q when its basis minors span every monomial of
its degree or when it is m-primary mod p.  None may change a verdict, so
the first failing minor stays the one that the plain closure (every
stratum by its basis and `radical_membership`) reports."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from locspan import (
    QQ,
    Ideal,
    LinearSubspace,
    PrimeField,
    ScalarMatrix,
    local_membership_closure,
    local_only_example,
    unflat,
)
from locspan.exactalg import Polynomial, upoly_mul, upoly_sub
from locspan.groebner import radical_membership
from locspan.localmem import (
    CHECK_PRIME,
    PencilPoint,
    _det_and_adjugate_sum,
    is_m_primary,
    spans_all_monomials,
    stratum_ideal,
)

from support import (
    random_subspace,
    record_bases,
    subspace_containing_target,
    variables,
)

F5 = PrimeField(5)
FP = PrimeField(CHECK_PRIME)
FIELDS = pytest.mark.parametrize("field", [QQ, F5, FP],
                                 ids=["Q", "F5", "F2^31-1"])


def plain_closure(subspace):
    """``(stratum, rows, cols, minor)`` of the first failing minor, or None:
    every stratum by its basis, every minor by `radical_membership` alone."""
    d = subspace.dim
    augmented = subspace.augmented_matrix()
    for s in range(1, d + 2):
        ideal = stratum_ideal(subspace, s)
        for rows, cols, minor in augmented.minors(s):
            if d in cols and not radical_membership(minor, ideal):
                return s, rows, cols, minor
    return None


def closure_failure(subspace):
    decision = local_membership_closure(subspace)
    w = decision.failure_witness
    assert decision.holds == (w is None)
    return None if w is None else (w.stratum, w.rows, w.cols, w.minor)


def target_minors(subspace, s):
    return [minor for _, cols, minor in subspace.augmented_matrix().minors(s)
            if subspace.dim in cols]


def from_matrices(matrices, field):
    return LinearSubspace([unflat(ScalarMatrix(m, field)) for m in matrices])


def _instances(field, sizes=((3, 2), (4, 2), (4, 3), (5, 2), (5, 3))):
    rng = random.Random(41)
    return [(subspace_containing_target if i % 3 == 0 else random_subspace)(
        rng, n, d, field) for n, d in sizes for i in range(3)]


# -- the pencil point ------------------------------------------------------------

@FIELDS
def test_closure_matches_the_plain_closure(field):
    refuted = 0
    for subspace in _instances(field):
        expected = plain_closure(subspace)
        assert closure_failure(subspace) == expected, subspace
        refuted += expected is not None and expected[0] == subspace.dim \
            and subspace.refutes_at_point(expected[3])
    assert refuted >= 3  # the point, not Rabinowitsch, refuted these


@FIELDS
def test_point_refutes_only_minors_outside_the_radical(field):
    refuted = 0
    for subspace in _instances(field, ((3, 2), (4, 2), (4, 3))):
        ideal = stratum_ideal(subspace, subspace.dim)
        for minor in target_minors(subspace, subspace.dim):
            if subspace.refutes_at_point(minor):
                refuted += 1
                assert not radical_membership(minor, ideal), (subspace, minor)
    assert refuted >= 10


def _pencil_cases(n=4):
    """(name, matrices, degree of h or None): ``[S A, S B]`` for the pencil
    x A + B and S = I plus the superdiagonal, so that g = det(x A + B) and
    y is not in the span of q_1 = S A y and q_2 = S B y."""
    eye = [[int(i == k) for k in range(n)] for i in range(n)]
    shift = [[int(k == i + 1) for k in range(n)] for i in range(n)]

    def times_s(a):
        return [[a[i][k] + (a[i + 1][k] if i + 1 < n else 0)
                 for k in range(n)] for i in range(n)]

    def diag(*values):
        return [[values[i] if i == k else 0 for k in range(n)]
                for i in range(n)]

    jordan = diag(1, 1, 2, 3)
    jordan[0][1] = 1  # (x + 1)^2 (x + 2)(x + 3), M(-1) of rank n - 1
    shared = [[i + k + 1 if k < n - 1 else 0 for k in range(n)]
              for i in range(n)]
    cases = [
        ("reducible", [eye, diag(1, 2, 3, 4)], 4),
        ("repeated", [eye, jordan], 3),
        # adj M vanishes at both double roots, so v = 0 mod h
        ("repeated-no-kernel", [eye, diag(1, 1, 2, 2)], None),
        ("constant", [shift, eye], None),
        ("zero", [shared, [row[::-1][1:] + [0] for row in shared]], None),
    ]
    return [(name, [times_s(a) for a in pair], degree)
            for name, pair, degree in cases]


@FIELDS
@pytest.mark.parametrize("name, matrices, degree",
                         _pencil_cases(), ids=[c[0] for c in _pencil_cases()])
def test_pencil_point_on_special_pencils(field, name, matrices, degree):
    subspace = from_matrices(matrices, field)
    point = subspace.pencil_point
    if degree is None:
        assert point is None
    else:
        assert len(point.h) - 1 == degree and point.h[-1] == 1
        assert any(point.v)
    ideal = stratum_ideal(subspace, 2)
    refuted = [minor for minor in target_minors(subspace, 2)
               if subspace.refutes_at_point(minor)]
    assert bool(refuted) == (point is not None)
    for minor in refuted:
        assert not radical_membership(minor, ideal), minor
    assert closure_failure(subspace) == plain_closure(subspace)


@FIELDS
def test_no_point_for_one_vector(field):
    y = variables(3, field)
    subspace = LinearSubspace([(y[0] + y[1], y[1], 2 * y[2])])
    assert subspace.pencil_point is None
    assert not subspace.refutes_at_point(y[0])
    assert closure_failure(subspace) == plain_closure(subspace)


def test_point_claims_nothing_for_a_denominator_of_the_check_prime():
    subspace = random_subspace(random.Random(1), 4, 2)
    minor = next(m for m in target_minors(subspace, 2)
                 if subspace.refutes_at_point(m))
    assert not subspace.refutes_at_point(minor.scale(Fraction(1, CHECK_PRIME)))


def _add(a, b, p):
    return upoly_sub(a, upoly_sub([], b, p), p)


def _laplace(rows, p):
    """det of a square matrix of `upoly_mul` lists, along the first row."""
    if not rows:
        return [1]
    total = []
    for k, entry in enumerate(rows[0]):
        term = upoly_mul(entry, _laplace([row[:k] + row[k + 1:]
                                          for row in rows[1:]], p), p)
        total = upoly_sub(total, term, p) if k % 2 else _add(total, term, p)
    return total


@pytest.mark.parametrize("p", [0, 5, CHECK_PRIME], ids=["Z", "F5", "F2^31-1"])
def test_det_and_adjugate_sum_solves_m_v_equals_g_times_ones(p):
    rng = random.Random(43)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 5)

        def entry():
            # zeros on purpose, so that pivots must be searched for
            c = [rng.choice([0, 0, 1, -2, 3]), rng.choice([0, 0, 0, 1, -1])]
            c = [x % p for x in c] if p else c
            while c and not c[-1]:
                c.pop()
            return c

        rows = [[entry() for _ in range(n)] for _ in range(n)]
        det = _laplace(rows, p)
        result = _det_and_adjugate_sum([list(row) for row in rows], p)
        if not det:
            assert result is None
            singular += 1
            continue
        g, v = result  # v = g M^-1 u for u = (1, ..., 1), so M v = g u
        assert g in (det, upoly_sub([], det, p))
        for i, row in enumerate(rows):
            product = []
            for a, b in zip(row, v):
                product = _add(product, upoly_mul(a, b, p), p)
            assert product == g
    assert 0 < singular < 50


# -- strata by rank --------------------------------------------------------------

def _monomials(n, s):
    for combo in itertools.combinations_with_replacement(range(n), s):
        yield tuple(combo.count(i) for i in range(n))


def _basis_holds_every_monomial(ideal, s):
    gb = ideal.groebner()
    one = ideal.field.one
    return all(gb.contains(Polynomial(ideal.nvars, ideal.field, {m: one}))
               for m in _monomials(ideal.nvars, s))


@pytest.mark.parametrize("n", range(4, 9))
def test_rank_shortcut_matches_the_basis_on_the_family(n):
    subspace = local_only_example(n, n - 1)
    ideals = [stratum_ideal(subspace, s) for s in range(1, n - 1)]
    passes = [spans_all_monomials(ideal, s) for s, ideal in enumerate(ideals, 1)]
    assert passes == [True] + [False] * (n - 3)
    assert passes == [_basis_holds_every_monomial(ideal, s)
                      for s, ideal in enumerate(ideals, 1)]


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_rank_shortcut_matches_the_basis_on_random_strata(field):
    rng = random.Random(47)
    outcomes = set()
    for n, d in [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4)]:
        # dense random strata span every monomial; strata whose vectors
        # leave out y_n span none that holds y_n; and strata whose entries
        # are forms in y1 - y2, ..., y_{n-1} - y_n hold every monomial in
        # some generator but span too few of them, so their rank decides
        sparse = [[[rng.randint(-2, 2) if k < n - 1 else 0 for k in range(n)]
                   for _ in range(n)] for _ in range(d)]
        chained = [[[(row[k - 1] if k else 0) - row[k] for k in range(n)]
                    for row in matrix] for matrix in sparse]
        for subspace in (random_subspace(rng, n, d, field),
                         random_subspace(rng, n, d, field),
                         from_matrices(sparse, field),
                         from_matrices(chained, field)):
            for s in range(1, d):
                ideal = stratum_ideal(subspace, s)
                passes = spans_all_monomials(ideal, s)
                assert passes == _basis_holds_every_monomial(ideal, s)
                outcomes.add(passes)
    assert outcomes == {True, False}


def test_rank_shortcut_counts_and_denominators():
    y1, y2, y3 = variables(3)
    assert spans_all_monomials(Ideal([y1, y2, y3]), 1)
    assert not spans_all_monomials(Ideal([y1, y2, y1 + y2]), 1)  # y3 unused
    assert not spans_all_monomials(Ideal([y1 + y2, y2 + y3, y1 - y3]), 1)
    assert not spans_all_monomials(Ideal([y1, y2]), 1)  # too few
    assert not spans_all_monomials(
        Ideal([y1.scale(Fraction(1, CHECK_PRIME)), y2, y3]), 1)
    assert not spans_all_monomials(Ideal([y1 * y1, y1 * y2, y2 * y2,
                                          y1 * y3, y2 * y3, y3 * y1]), 2)


# -- strata m-primary mod p ----------------------------------------------------

def _in_radical(ideal):
    """The oracle: whether every variable lies in the radical of the ideal."""
    return all(radical_membership(y, ideal)
               for y in variables(ideal.nvars, ideal.field))


def _hand_made(field):
    """(generators, m-primary): forms in 3 and 4 variables, most of them too
    few for the rank test to decide."""
    y1, y2, y3 = variables(3, field)
    z1, z2, z3, z4 = variables(4, field)
    return [
        ([y1 * y1, y2 * y2, y3 * y3], True),
        ([(y1 * y1).scale(Fraction(1, CHECK_PRIME)), y2 * y2, y3 * y3], True),
        ([y1 * y1, y1 * y2 + y3 * y3, y2 * y2 * y2], True),
        ([y1 * y1, y2 * y2], False),  # the y3 axis
        ([y1 * y2, y2 * y3, y1 * y3], False),  # the three axes
        ([y1 * y1 - y2 * y3, y2 * y2 - y1 * y3, y3 * y3 - y1 * y2],
         False),  # the point (1, 1, 1)
        ([z1 * z1, z2 * z2, z3 * z3, z4 * z4 + z1 * z2], True),
        ([z1 * z2, z3 * z4, z1 * z1 + z3 * z3, z2 * z2 + z4 * z4],
         False),  # the point (0, 2, 0, 1) in F5, (0, i, 0, 1) over Q
    ]


def _random_form(rng, n, degree, field):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * n
        for _ in range(degree):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = rng.randint(-3, 3)
    return Polynomial(n, field, terms)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_m_primary_test_agrees_with_radical_membership(field):
    for generators, expected in _hand_made(field):
        ideal = Ideal(generators)
        assert is_m_primary(ideal) == expected == _in_radical(ideal), ideal
    rng = random.Random(53)
    outcomes = []
    for _ in range(40):
        n = rng.choice([3, 4])
        ideal = Ideal([_random_form(rng, n, rng.randint(1, 2), field)
                       for _ in range(rng.randint(n, n + 2))], n, field)
        outcomes.append(is_m_primary(ideal))
        if outcomes[-1]:
            assert _in_radical(ideal), ideal
    assert outcomes.count(True) >= 5 and outcomes.count(False) >= 5


def test_family_closures_run_no_basis_mod_p(monkeypatch):
    # the family's least unit rank is 1, so no stratum below d reaches the
    # basis mod p
    fields = record_bases(monkeypatch)
    for n in range(5, 8):
        subspace = local_only_example(n, n - 1)
        assert subspace.least_unit_rank == 1
        assert local_membership_closure(subspace).holds
    assert set(fields) == {QQ}


def test_holding_closures_evaluate_the_point_at_most_once(monkeypatch):
    calls = []
    original = PencilPoint.refutes

    def counting(point, f):
        calls.append(f)
        return original(point, f)

    monkeypatch.setattr(PencilPoint, "refutes", counting)
    for subspace in (local_only_example(5, 4),
                     subspace_containing_target(random.Random(1), 5, 3)):
        calls.clear()
        assert local_membership_closure(subspace).holds
        assert len(calls) <= 1 < len(target_minors(subspace, subspace.dim))


# -- pinned failures of random Q closures ------------------------------------------

#: (n, d, seed) of ``random_subspace(random.Random(seed), n, d)`` and its
#: first failing minor before any shortcut existed: stratum, rows, cols and
#: the first 16 hex digits of the SHA-256 of the minor's text.
PINNED_FAILURES = [
    ((6, 3, 1), (3, (0, 1, 2), (0, 1, 3), "3984866ccd61738e")),
    ((6, 3, 2), (3, (0, 1, 2), (0, 1, 3), "056af500f848e355")),
    ((6, 3, 3), (3, (0, 1, 2), (0, 1, 3), "31d63b3cf3a20fed")),
    ((6, 4, 1), (4, (0, 1, 2, 3), (0, 1, 2, 4), "7eb644e5e2958fec")),
    ((7, 3, 1), (3, (0, 1, 2), (0, 1, 3), "d5b4a53484084c04")),
    ((6, 5, 1), (5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 5), "b7be53fe79c90b6b")),
]


@pytest.mark.parametrize("case, expected", PINNED_FAILURES,
                         ids=[f"{n}-{d}-seed{s}" for (n, d, s), _ in
                              PINNED_FAILURES])
def test_random_q_failure_is_pinned_and_needs_no_rabinowitsch(
        monkeypatch, case, expected):
    """No Rabinowitsch basis runs, nor any other basis over Q: the point
    refutes the first failing minor before the stratum-d basis, and each
    stratum below d holds by rank or by one basis mod p (at (6,5), whose
    stratum-4 basis over Q took about 300 s)."""
    n, d, seed = case
    subspace = random_subspace(random.Random(seed), n, d)
    fields = record_bases(monkeypatch)
    evaluations = []
    original = PencilPoint.refutes
    monkeypatch.setattr(PencilPoint, "refutes", lambda point, f: (
        evaluations.append(f) or original(point, f)))
    s, rows, cols, minor = closure_failure(subspace)
    digest = hashlib.sha256(str(minor).encode()).hexdigest()[:16]
    assert (s, rows, cols, digest) == expected
    assert QQ not in fields
    assert evaluations == [minor]  # the point is tried once, and first
