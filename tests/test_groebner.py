"""Buchberger, reduced bases, ideal and radical membership."""

import itertools
import random

import pytest

from locspan import (
    QQ,
    Ideal,
    Polynomial,
    PrimeField,
    buchberger,
    normal_form,
    radical_membership,
)
from locspan.polymat import ScalarMatrix, solve_over_field

from support import evaluate, random_polynomial, variables


def test_normal_form_basic():
    y1, y2, y3 = variables(3)
    assert normal_form(y1 ** 2, [y1]).is_zero()
    assert normal_form(y1 * y2 + y3, [y1]) == y3
    assert normal_form(y1, [y2]) == y1


def test_buchberger_already_reduced():
    y1, y2, _ = variables(3)
    gb = buchberger([y1, y2])
    assert set(gb.polys) == {y1, y2}


def test_buchberger_collapses_to_unit():
    y1, y2, _ = variables(3)
    gb = buchberger([y1 * y2 - 1, y1 ** 2])
    assert [str(g) for g in gb.polys] == ["1"]
    assert gb.contains_one()


def test_buchberger_zero_ideal():
    gb = buchberger([])
    assert gb.polys == ()


def test_ideal_membership_golden():
    y1, y2, y3 = variables(3)
    assert Ideal([y1]).groebner().contains(y1 ** 3)
    assert not Ideal([y1, y3]).groebner().contains(y2)
    assert Ideal([y1, y3]).groebner().contains(Polynomial.zero(3, QQ))
    assert Ideal([], nvars=3, field=QQ).groebner().contains(
        Polynomial.zero(3, QQ))


def test_radical_membership_golden():
    y1, y2, y3 = variables(3)
    assert radical_membership(y1, Ideal([y1 ** 2]))
    assert not radical_membership(y2, Ideal([y1, y3]))
    # point oracle for the negative case: (0, 1, 0) kills the ideal, not y2
    point = (0, 1, 0)
    assert evaluate(y1, point) == 0 and evaluate(y3, point) == 0
    assert evaluate(y2, point) != 0
    # the zero ideal is radical in a domain
    assert not radical_membership(y1, Ideal([], nvars=3, field=QQ))
    assert radical_membership(Polynomial.zero(3, QQ),
                              Ideal([], nvars=3, field=QQ))


def test_radical_membership_needs_high_power():
    y1, y2, _ = variables(3)
    cube = Ideal([y1 ** 3])
    assert radical_membership(y1, cube)
    assert not radical_membership(y1 + y2, cube)
    assert not radical_membership(y2, cube)


def test_ideal_drops_zero_generators():
    y1, _, _ = variables(3)
    ideal = Ideal([Polynomial.zero(3, QQ), y1])
    assert ideal.generators == (y1,)
    with pytest.raises(ValueError):
        Ideal([Polynomial.zero(3, QQ)])


def test_reduced_basis_unique_under_shuffling():
    rng = random.Random(21)
    for _ in range(20):
        gens = [random_polynomial(rng, 3, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        reference = buchberger(list(gens))
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert buchberger(shuffled).polys == reference.polys


def test_generators_reduce_to_zero():
    rng = random.Random(22)
    for _ in range(15):
        gens = [random_polynomial(rng, 3, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(list(gens))
        for g in gens:
            assert normal_form(g, gb.polys).is_zero()


def _monomials_up_to(n, bound):
    for exps in itertools.product(range(bound + 1), repeat=n):
        if sum(exps) <= bound:
            yield exps


def _macaulay_membership(f, generators, bound):
    """Degree-bounded linear-algebra membership oracle.

    Is f a combination sum c_i m_i g_i with deg(m_i g_i) <= bound?
    Sufficient for membership; complete once bound is large enough for the
    instance at hand.
    """
    n, field = f.nvars, f.field
    columns = []
    for g in generators:
        dg = int(g.total_degree())
        for mono in _monomials_up_to(n, bound - dg):
            shift = Polynomial(n, field, {mono: field.one})
            columns.append(shift * g)
    basis = sorted({m for c in columns for m in c.terms}
                   | set(f.terms))
    if not columns:
        return f.is_zero()
    system = ScalarMatrix(
        [[c.terms.get(mono, field.zero) for c in columns] for mono in basis],
        field, cols=len(columns))
    rhs = [f.terms.get(mono, field.zero) for mono in basis]
    return solve_over_field(system, rhs) is not None


def test_membership_agrees_with_macaulay_oracle():
    rng = random.Random(23)
    for _ in range(25):
        gens = [random_polynomial(rng, 3, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(list(gens))
        # (a) an explicit combination is seen by both routes
        combo = Polynomial.zero(3, QQ)
        for g in gens:
            combo = combo + random_polynomial(rng, 3, max_degree=1,
                                              max_terms=2) * g
        bound = max((int(c.total_degree()) for c in [combo] if c), default=0)
        bound = max(bound, 3)
        if not combo.is_zero():
            assert ideal.groebner().contains(combo)
            assert _macaulay_membership(combo, gens, bound)
        # (b) for arbitrary f, the bounded oracle can only confirm membership
        f = random_polynomial(rng, 3, max_degree=2, max_terms=3)
        if _macaulay_membership(f, gens, 4):
            assert ideal.groebner().contains(f)


def test_ideal_membership_implies_radical_membership():
    rng = random.Random(24)
    for _ in range(20):
        gens = [random_polynomial(rng, 3, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(list(gens))
        combo = Polynomial.zero(3, QQ)
        for g in gens:
            combo = combo + random_polynomial(rng, 3, max_degree=1,
                                              max_terms=2) * g
        if ideal.groebner().contains(combo):
            assert radical_membership(combo, ideal)


def test_radical_membership_matches_point_enumeration_on_grids():
    # grid ideals <prod (y_i - a) : a in A_i> are radical with rational
    # vanishing locus A_1 x ... x A_n, so radical membership must agree
    # with exhaustive evaluation
    rng = random.Random(25)
    F3 = PrimeField(3)
    n = 2
    y = variables(n, F3)
    for _ in range(12):
        subsets = [sorted(rng.sample(range(3), rng.randint(1, 2)))
                   for _ in range(n)]
        gens = []
        for i, subset in enumerate(subsets):
            g = Polynomial.one(n, F3)
            for a in subset:
                g = g * (y[i] - Polynomial.constant(a, n, F3))
            gens.append(g)
        ideal = Ideal(gens)
        grid = list(itertools.product(*subsets))
        for _ in range(6):
            f = random_polynomial(rng, n, field=F3, max_degree=3,
                                  max_terms=4, coeff_range=(0, 2))
            vanishes = all(evaluate(f, pt) == 0 for pt in grid)
            assert radical_membership(f, ideal) == vanishes
