"""Heap-ordered division and pair selection against the plain linear scans.

The references below pick the leading term with ``max`` over the whole
working polynomial and the next S-pair with ``min`` over all open pairs.
The library keeps the same order through heaps, so every result, and every
S-pair reduced on the way, must be identical.
"""

import random

import pytest

import locspan.groebner as groebner
from locspan import (
    QQ,
    MonomialOrder,
    PrimeField,
    buchberger,
    local_membership_closure,
    local_only_example,
    monic,
    normal_form,
)
from locspan.exactalg import (
    Polynomial,
    TermQueue,
    grevlex_desc_key,
    grevlex_key,
    lex_desc_key,
    lex_key,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    try_exact_div,
)
from locspan.groebner import s_polynomial

from support import random_nonzero_polynomial, random_polynomial, variables

F5 = PrimeField(5)
ORDERS = ["grevlex", "lex"]


# -- references: the linear scans ---------------------------------------------

def reference_normal_form(f, divisors, order):
    key = order.key
    field = f.field
    table = [(g, *g.leading_term(key)) for g in divisors if not g.is_zero()]
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for g, glm, glc in table:
            if monomial_divides(glm, lm):
                shift = monomial_div(lm, glm)
                factor = field.div(lc, glc)
                for gm, gc in g.terms.items():
                    m = monomial_mul(gm, shift)
                    c = field.sub(work.get(m, field.zero), field.mul(factor, gc))
                    if c == field.zero:
                        work.pop(m, None)
                    else:
                        work[m] = c
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return Polynomial._raw(f.nvars, field, remainder)


def reference_try_exact_div(a, b):
    if a.is_zero():
        return a
    field = a.field
    blm, blc = b.leading_term()
    work = dict(a.terms)
    quotient = {}
    while work:
        lm = max(work, key=grevlex_key)
        if not monomial_divides(blm, lm):
            return None
        shift = monomial_div(lm, blm)
        factor = field.div(work[lm], blc)
        quotient[shift] = factor
        for gm, gc in b.terms.items():
            m = monomial_mul(gm, shift)
            c = field.sub(work.get(m, field.zero), field.mul(factor, gc))
            if c == field.zero:
                work.pop(m, None)
            else:
                work[m] = c
    return Polynomial._raw(a.nvars, field, quotient)


def reference_reduced_pairs(generators, order):
    """The S-pairs the S-pair loop reduces, chosen by ``min`` over all pairs."""
    key = order.key
    basis, lms = [], []
    for g in (monic(g) for g in generators if not g.is_zero()):
        if g not in basis:
            basis.append(g)
            lms.append(g.leading_monomial(key))
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def pair_rank(pair):
        i, j = pair
        return (monomial_degree(monomial_lcm(lms[i], lms[j])), i, j)

    reduced = []
    while pairs:
        i, j = min(pairs, key=pair_rank)
        pairs.discard((i, j))
        lcm = monomial_lcm(lms[i], lms[j])
        if lcm == monomial_mul(lms[i], lms[j]):
            continue
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_divides(lms[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    skip = True
                    break
        if skip:
            continue
        reduced.append((basis[i], basis[j]))
        remainder = reference_normal_form(
            s_polynomial(basis[i], basis[j], order), basis, order)
        if remainder.is_zero():
            continue
        remainder = monic(remainder, key)
        basis.append(remainder)
        lms.append(remainder.leading_monomial(key))
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))
    return reduced


def _same(p, q):
    """Equal term maps in the same insertion order."""
    return list(p.terms.items()) == list(q.terms.items())


def _coeff_range(field):
    return (-3, 3) if field == QQ else (0, 4)


# -- descending keys ------------------------------------------------------------

@pytest.mark.parametrize("key, desc_key", [(grevlex_key, grevlex_desc_key),
                                           (lex_key, lex_desc_key)])
def test_desc_key_reverses_the_order(key, desc_key):
    rng = random.Random(70)
    monos = {tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(200)}
    assert sorted(monos, key=key, reverse=True) == sorted(monos, key=desc_key)


def test_monomial_order_desc_key_per_kind():
    assert MonomialOrder(3).desc_key is grevlex_desc_key
    assert MonomialOrder(3, "lex").desc_key is lex_desc_key


# -- the term queue ---------------------------------------------------------------

def test_term_queue_skips_a_cancelled_then_requeued_monomial():
    a, b, c = (2, 0, 0), (1, 1, 0), (0, 0, 1)
    work = TermQueue({c: 1, b: 1, a: 1}, QQ, grevlex_desc_key)
    assert work.pop_leading() == (a, 1)
    # subtract a + b, whose leading a was popped: b cancels, stays queued
    work.subtract(QQ.one, (0, 0, 0), {a: 1, b: 1}, a)
    assert b not in work.terms
    # subtract a - b: b reappears and is queued again
    work.subtract(QQ.one, (0, 0, 0), {a: 1, b: -1}, a)
    assert work.pop_leading() == (b, 1)
    assert work.pop_leading() == (c, 1)           # second b entry skipped
    assert not work


# -- normal_form --------------------------------------------------------------

@pytest.mark.parametrize("kind", ORDERS)
def test_normal_form_term_cancels_then_reappears(kind):
    y1, y2, _ = variables(3)
    order = MonomialOrder(3, kind)
    f = y1 ** 2 + y1 * y2 + y2 ** 2
    divisors = [y1 ** 2 + y2 ** 2, y1 * y2 + y2 ** 2]
    # reducing y1^2 cancels y2^2; reducing y1*y2 brings it back
    expected = reference_normal_form(f, divisors, order)
    assert expected == -(y2 ** 2)
    assert _same(normal_form(f, divisors, order), expected)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("kind", ORDERS)
def test_normal_form_matches_linear_scan(field, kind):
    rng = random.Random(71)
    order = MonomialOrder(4, kind)
    coeffs = _coeff_range(field)
    for _ in range(150):
        f = random_polynomial(rng, 4, field, max_degree=4, max_terms=8,
                              coeff_range=coeffs)
        divisors = [random_polynomial(rng, 4, field, max_degree=3,
                                      max_terms=4, coeff_range=coeffs)
                    for _ in range(rng.randint(1, 4))]
        assert _same(normal_form(f, divisors, order),
                     reference_normal_form(f, divisors, order))


# -- try_exact_div ------------------------------------------------------------

def test_try_exact_div_term_cancels_then_reappears():
    y1, y2, y3, _ = variables(4)
    b = -2 * y1 * y2 + y1 * y3 + 1
    q = -2 * y1 * y2 * y3 + 2 * y2 + y3 + 2
    # found by search: one step cancels a term of the working polynomial
    # that a later step brings back
    assert _same(try_exact_div(b * q, b), reference_try_exact_div(b * q, b))
    assert try_exact_div(b * q, b) == q


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_try_exact_div_matches_linear_scan(field):
    rng = random.Random(72)
    coeffs = _coeff_range(field)
    exact = inexact = 0
    for _ in range(150):
        b = random_nonzero_polynomial(rng, 3, field, max_degree=2,
                                      max_terms=4, coeff_range=coeffs)
        q = random_polynomial(rng, 3, field, max_degree=3, max_terms=5,
                              coeff_range=coeffs)
        r = random_polynomial(rng, 3, field, max_degree=3, max_terms=2,
                              coeff_range=coeffs) if rng.random() < 0.5 else None
        a = b * q if r is None else b * q + r
        got = try_exact_div(a, b)
        expected = reference_try_exact_div(a, b)
        if expected is None:
            assert got is None
            inexact += 1
        else:
            assert _same(got, expected)
            exact += 1
    assert exact > 30 and inexact > 30


# -- pair selection in buchberger -------------------------------------------------

def _recorded_pairs(monkeypatch, generators, order):
    seen = []
    original = groebner.s_polynomial

    def recording(f, g, order=None):
        seen.append((f, g))
        return original(f, g, order)

    monkeypatch.setattr(groebner, "s_polynomial", recording)
    buchberger(generators, order)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("kind", ORDERS)
def test_buchberger_reduces_the_same_pairs(monkeypatch, field, kind):
    rng = random.Random(73)
    order = MonomialOrder(3, kind)
    coeffs = _coeff_range(field)
    total = 0
    for _ in range(30):
        gens = [random_nonzero_polynomial(rng, 3, field, max_degree=2,
                                          max_terms=3, coeff_range=coeffs)
                for _ in range(rng.randint(2, 4))]
        expected = reference_reduced_pairs(gens, order)
        assert _recorded_pairs(monkeypatch, gens, order) == expected
        total += len(expected)
    assert total >= 30


def test_closure_normal_form_call_count_is_pinned(monkeypatch):
    """The (7,6) closure decision reduces exactly as many polynomials as
    the linear-scan selection did; a change to which pairs get reduced
    moves this count."""
    calls = []
    original = groebner.normal_form

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "normal_form", counting)
    assert local_membership_closure(local_only_example(7, 6)).holds
    assert len(calls) == 896
