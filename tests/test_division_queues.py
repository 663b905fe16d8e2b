"""Heap-ordered division and pair selection against the plain linear scans.

The references below pick the leading term with ``max`` over the whole
working polynomial and the next S-pair with ``min`` over all open pairs.
The library keeps the same order through heaps, so every result, and every
S-pair reduced on the way, must be identical.  A further reference
inter-reduces the final basis to a fixpoint; the library makes one pass,
which must give the same reduced basis.
"""

import random
from fractions import Fraction

import pytest

import locspan.exactalg as exactalg
import locspan.groebner as groebner
from locspan import (
    QQ,
    PrimeField,
    buchberger,
    local_membership_closure,
    local_only_example,
    monic,
    normal_form,
)
from locspan.exactalg import (
    Polynomial,
    grevlex_key,
    packed_masks,
    packed_width,
    try_exact_div,
)

from support import (
    FractionArithmetic,
    random_nonzero_polynomial,
    random_polynomial,
    variables,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F_BIG = PrimeField(2 ** 31 - 1)

#: Seeded cases run over Q and F5; the ids name the one monomial order.
over_fields = pytest.mark.parametrize("field", [QQ, F5],
                                      ids=["grevlex-Q", "grevlex-F5"])


# -- references: the linear scans ---------------------------------------------

def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_degree(m):
    return sum(m)


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    quo = tuple(x - y for x, y in zip(a, b))
    assert min(quo, default=0) >= 0, f"monomial {b} does not divide {a}"
    return quo


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def s_polynomial(f, g):
    """The S-polynomial ``(L/lt f)*f - (L/lt g)*g``, by field operations
    on exponent tuples."""
    field = f.field
    lcm = monomial_lcm(f.leading_monomial(), g.leading_monomial())
    terms = {}
    for h, sign in ((f, field.one), (g, field.normalize(-field.one))):
        lm, lc = h.leading_term()
        factor = field.normalize(sign * field.inv(lc))
        shift = monomial_div(lcm, lm)
        for m, c in h.terms.items():
            m = monomial_mul(m, shift)
            terms[m] = field.normalize(terms.get(m, field.zero) + factor * c)
    return Polynomial._raw(f.nvars, field,
                           {m: c for m, c in terms.items() if c != field.zero})


def reference_normal_form(f, divisors):
    field = f.field
    table = [(g, *g.leading_term()) for g in divisors if not g.is_zero()]
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=grevlex_key)
        lc = work[lm]
        for g, glm, glc in table:
            if monomial_divides(glm, lm):
                shift = monomial_div(lm, glm)
                factor = field.normalize(lc * field.inv(glc))
                for gm, gc in g.terms.items():
                    m = monomial_mul(gm, shift)
                    c = field.normalize(work.get(m, field.zero) - factor * gc)
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
        factor = field.normalize(work[lm] * field.inv(blc))
        quotient[shift] = factor
        for gm, gc in b.terms.items():
            m = monomial_mul(gm, shift)
            c = field.normalize(work.get(m, field.zero) - factor * gc)
            if c == field.zero:
                work.pop(m, None)
            else:
                work[m] = c
    return Polynomial._raw(a.nvars, field, quotient)


def reference_pair_loop(generators):
    """The S-pair loop with pairs chosen by ``min`` over all open pairs.

    Returns the index pairs ``(i, j)`` it reduced and the basis it built.
    """
    basis, lms = [], []
    for g in (monic(g) for g in generators if not g.is_zero()):
        if g not in basis:
            basis.append(g)
            lms.append(g.leading_monomial())
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
        reduced.append((i, j))
        remainder = reference_normal_form(
            s_polynomial(basis[i], basis[j]), basis)
        if remainder.is_zero():
            continue
        remainder = monic(remainder)
        basis.append(remainder)
        lms.append(remainder.leading_monomial())
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))
    return reduced, basis


def reference_buchberger(generators):
    """Reduced basis with inter-reduction iterated to a fixpoint.

    Returns the basis and whether inter-reduction changed any element.
    """
    _, basis = reference_pair_loop(generators)
    kept = []
    for g in sorted(basis, key=lambda g: grevlex_key(g.leading_monomial())):
        if not any(monomial_divides(k.leading_monomial(), g.leading_monomial())
                   for k in kept):
            kept.append(g)
    reduced = list(kept)
    changed = True
    while changed:
        changed = False
        for i in range(len(reduced)):
            others = reduced[:i] + reduced[i + 1:]
            r = monic(reference_normal_form(reduced[i], others))
            if r != reduced[i]:
                reduced[i] = r
                changed = True
    rewritten = reduced != kept
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()), reverse=True)
    return tuple(reduced), rewritten


def _same(p, q):
    """Equal term maps in the same insertion order."""
    return list(p.terms.items()) == list(q.terms.items())


def _coeff_range(field):
    return (-3, 3) if field == QQ else (0, field.p - 1)


# -- normal_form --------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ], ids=["grevlex"])
def test_normal_form_term_cancels_then_reappears(field):
    y1, y2, _ = variables(3, field)
    f = y1 ** 2 + y1 * y2 + y2 ** 2
    divisors = [y1 ** 2 + y2 ** 2, y1 * y2 + y2 ** 2]
    # reducing y1^2 cancels y2^2; reducing y1*y2 brings it back
    expected = reference_normal_form(f, divisors)
    assert expected == -(y2 ** 2)
    assert _same(normal_form(f, divisors), expected)


@over_fields
def test_normal_form_matches_linear_scan(field):
    rng = random.Random(71)
    coeffs = _coeff_range(field)
    for _ in range(150):
        f = random_polynomial(rng, 4, field, max_degree=4, max_terms=8,
                              coeff_range=coeffs)
        divisors = [random_polynomial(rng, 4, field, max_degree=3,
                                      max_terms=4, coeff_range=coeffs)
                    for _ in range(rng.randint(1, 4))]
        assert _same(normal_form(f, divisors),
                     reference_normal_form(f, divisors))


# -- try_exact_div ------------------------------------------------------------

def test_try_exact_div_term_cancels_then_reappears():
    y1, y2, y3, _ = variables(4)
    b = -2 * y1 * y2 + y1 * y3 + 1
    q = -2 * y1 * y2 * y3 + 2 * y2 + y3 + 2
    # found by search: one step cancels a term of the working polynomial
    # that a later step brings back
    assert _same(try_exact_div(b * q, b), reference_try_exact_div(b * q, b))
    assert try_exact_div(b * q, b) == q


class _Kinds:
    """Tally of the division cases a test has run."""

    def __init__(self):
        self.seen = dict.fromkeys(
            ["exact", "inexact", "single", "constant", "one", "multi"], 0)

    def check(self, a, b):
        got = try_exact_div(a, b)
        expected = reference_try_exact_div(a, b)
        if expected is None:
            assert got is None
            self.seen["inexact"] += 1
        else:
            assert _same(got, expected)
            self.seen["exact"] += 1
        self.seen["single" if len(b.terms) == 1 else "multi"] += 1
        self.seen["constant"] += b.is_constant()
        self.seen["one"] += b.is_one()
        return got


@pytest.mark.parametrize("field", [QQ, F5, F_BIG], ids=["Q", "F5", "F2^31-1"])
def test_try_exact_div_matches_linear_scan(field):
    rng = random.Random(72)
    coeffs = _coeff_range(field)
    kinds = _Kinds()
    non_monic = 0
    for _ in range(150):
        b = random_nonzero_polynomial(rng, 3, field, max_degree=2,
                                      max_terms=4, coeff_range=coeffs)
        q = random_polynomial(rng, 3, field, max_degree=3, max_terms=5,
                              coeff_range=coeffs)
        r = random_polynomial(rng, 3, field, max_degree=3, max_terms=2,
                              coeff_range=coeffs) if rng.random() < 0.5 else None
        a = b * q if r is None else b * q + r
        kinds.check(a, b)
        non_monic += b.leading_coefficient() != 1
    one = Polynomial.one(3, field)
    for b in (one, one.scale(2), one.scale(-1)):
        a = random_nonzero_polynomial(rng, 3, field, max_degree=3,
                                      max_terms=5, coeff_range=coeffs)
        assert kinds.check(a, b) * b == a
    assert all(count > 0 for count in kinds.seen.values()), kinds.seen
    assert kinds.seen["exact"] > 30 and kinds.seen["inexact"] > 30
    assert kinds.seen["multi"] > 30 and non_monic > 30


# -- pair selection in buchberger -------------------------------------------------

def _recorded_pairs(monkeypatch, generators, limit=1000):
    """The index pairs whose S-polynomial `buchberger` forms, in order; a
    run past ``limit`` pairs fails instead of running on."""
    seen = []
    original = groebner.s_pair

    def recording(forms, i, j, *args):
        seen.append((i, j))
        assert len(seen) <= limit, "the pair loop runs away"
        return original(forms, i, j, *args)

    monkeypatch.setattr(groebner, "s_pair", recording)
    buchberger(generators)
    monkeypatch.undo()
    return seen


@over_fields
def test_buchberger_reduces_the_same_pairs(monkeypatch, field):
    rng = random.Random(73)
    coeffs = _coeff_range(field)
    total = 0
    for _ in range(30):
        gens = [random_nonzero_polynomial(rng, 3, field, max_degree=2,
                                          max_terms=3, coeff_range=coeffs)
                for _ in range(rng.randint(2, 4))]
        expected, _ = reference_pair_loop(gens)
        assert _recorded_pairs(monkeypatch, gens) == expected
        total += len(expected)
    assert total >= 30


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_single_pass_inter_reduction_matches_fixpoint(field):
    rng = random.Random(74)
    coeffs = _coeff_range(field)
    changed = 0
    for _ in range(150):
        gens = [random_nonzero_polynomial(rng, 3, field, max_degree=3,
                                          max_terms=4, coeff_range=coeffs)
                for _ in range(rng.randint(2, 4))]
        expected, inter_reduced = reference_buchberger(gens)
        assert buchberger(gens).polys == expected
        changed += inter_reduced
    assert changed >= 10  # cases where inter-reduction rewrites an element


def test_closure_normal_form_call_count_is_pinned(monkeypatch):
    """The (7,6) closure decision makes exactly this many reductions: one
    per S-pair the linear-scan selection reduced, per element in one
    inter-reduction pass, and per membership test.  A change to which pairs
    get reduced moves this count.  Each is one call of the shared kernel
    `reduce_packed`, by `normal_form` or inside `buchberger`.  Stratum 1
    holds by `spans_all_monomials`, so its basis (8 reductions) and its 7
    membership tests are not run: 783 - 15."""
    calls = []
    original = exactalg.reduce_packed

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module in (exactalg, groebner):
        monkeypatch.setattr(module, "reduce_packed", counting)
    assert local_membership_closure(local_only_example(7, 6)).holds
    assert len(calls) == 768


# -- fraction-free division over Q ----------------------------------------------

def _non_integer(rng):
    """A nonzero rational with denominator 2 to 7 in lowest terms."""
    while True:
        den = rng.randint(2, 7)
        num = rng.choice([-1, 1]) * rng.randint(1, 3 * den)
        if num % den:
            return Fraction(num, den)


def _fraction_polynomial(rng, n, max_degree, max_terms):
    """Non-integer coefficients throughout, and a leading coefficient that
    is negative in about half the draws."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = _non_integer(rng)
    lead = max(terms, key=grevlex_key)
    terms[lead] = abs(terms[lead]) * rng.choice([-1, 1])
    return Polynomial(n, QQ, terms)


def test_normal_form_matches_linear_scan_on_fractions():
    rng = random.Random(75)
    negative_f = negative_divisor = nonzero = 0
    for _ in range(150):
        f = _fraction_polynomial(rng, 4, max_degree=4, max_terms=8)
        divisors = [_fraction_polynomial(rng, 4, max_degree=3, max_terms=4)
                    for _ in range(rng.randint(1, 4))]
        got = normal_form(f, divisors)
        assert _same(got, reference_normal_form(f, divisors))
        negative_f += f.leading_coefficient() < 0
        negative_divisor += any(g.leading_coefficient() < 0 for g in divisors)
        nonzero += any(c.denominator > 1 for c in got.terms.values())
    assert negative_f > 50 and negative_divisor > 50 and nonzero > 100


def test_buchberger_matches_reference_on_fractions():
    rng = random.Random(76)
    for _ in range(40):
        gens = [_fraction_polynomial(rng, 3, max_degree=3, max_terms=4)
                for _ in range(rng.randint(2, 4))]
        expected, _ = reference_buchberger(gens)
        assert buchberger(gens).polys == expected


def test_normal_form_over_q_does_no_fraction_arithmetic():
    """Division over Q runs on integers: no `Fraction` is added, subtracted
    or multiplied, though the reference division does all that."""
    rng = random.Random(77)
    with FractionArithmetic() as ops:
        f = _fraction_polynomial(rng, 4, max_degree=4, max_terms=8)
        divisors = [_fraction_polynomial(rng, 4, max_degree=2, max_terms=4)
                    for _ in range(3)]
        ops.reset()
        got = normal_form(f, divisors)
        assert ops.count == 0
        assert _same(got, reference_normal_form(f, divisors))
        assert ops.count > 0


# -- packed monomials -------------------------------------------------------------

def test_packed_width_holds_the_degree_and_a_guard_bit():
    widths = [packed_width(d) for d in (0, 1, 127, 128, 255, 32767, 32768)]
    assert widths == [8, 8, 8, 16, 16, 16, 24]


@over_fields
def test_normal_form_across_a_width_step(field):
    """Degrees 127 and 128 fall on both sides of the step from 8-bit to
    16-bit fields (a field holds the degree below its guard bit), and f or
    a divisor alone can set the width."""
    y1, y2, y3 = variables(3, field)
    rng = random.Random(80)
    cases = [
        (y1 ** 127 * y2, [y1 ** 128]),
        (y1 ** 128, [y1 ** 127 * y2]),
        (y1 ** 128 + y1 ** 127 * y2, [y1 ** 127]),
        (y1 ** 127 + y2 ** 127, [y1 ** 126 - y2 ** 126]),
        (y1 ** 127 * y2 + y3 ** 128, [y1 ** 128 + y2, y1 ** 127 - y3 ** 127]),
        (y2 ** 126 * y3, [y1 ** 128 + y2 ** 5, y2 ** 126 - y1 * y3]),
        (y1 ** 3 + y2, [y1 ** 256, y1 - y2]),
    ]
    for top in (126, 127, 128, 129, 255, 256):
        def near(degree):
            # a few terms of degree up to ``degree``, one of them y1^a*y2^b
            a = rng.randint(degree - 2, degree)
            terms = {(a, degree - a, 0): rng.randint(1, 4)}
            for _ in range(rng.randint(1, 3)):
                e = [rng.randint(0, degree // 3) for _ in range(3)]
                terms[tuple(e)] = rng.randint(-4, 4)
            return Polynomial(3, field, terms)
        cases.append((near(top), [near(top - 1), near(top)]))
    # the same divisors, so their cached packed forms, at widths 8, 16, 8
    shared = [y1 ** 3 - y2 * y3, y2 ** 2 + y3]
    for f in (y1 ** 7 * y2, y1 ** 200 * y3 + y2 ** 130, y1 ** 5 + y3 ** 4):
        cases.append((f, shared))
    reduced = nonzero = 0
    for f, divisors in cases:
        expected = reference_normal_form(f, divisors)
        assert _same(normal_form(f, divisors), expected)
        reduced += expected != f
        nonzero += not expected.is_zero()
    assert reduced >= 10 and nonzero >= 10


def _random_form(rng, n, field, degree, max_terms):
    """A nonzero homogeneous polynomial: generators of a proper ideal."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = [0] * n
            for _ in range(degree):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = rng.randint(-3, 3)
        p = Polynomial(n, field, terms)
        if p:
            return p


@over_fields
def test_normal_form_in_a_rabinowitsch_ring(field):
    """The radical test's n+1 variables: a basis of a proper ideal extended
    by t and ``1 - t*f``, with f, f^2 and t^2*f divided by it."""
    rng = random.Random(81)
    n, ext = 3, 4
    t = Polynomial.variable(n, ext, field)
    one = Polynomial.one(ext, field)
    units = remainders = 0
    for _ in range(12):
        gens = [_random_form(rng, n, field, 2, 3)
                for _ in range(rng.randint(1, 2))]
        f = _random_form(rng, n, field, rng.randint(1, 2), 3)
        lifted = [g.extend(ext) for g in buchberger(gens).polys]
        lifted.append(one - t * f.extend(ext))
        expected, _ = reference_buchberger(lifted)
        assert buchberger(lifted).polys == expected
        units += any(g.is_one() for g in expected)
        for h in (f.extend(ext), (f * f).extend(ext), t * t * f.extend(ext)):
            got = normal_form(h, lifted)
            assert _same(got, reference_normal_form(h, lifted))
            remainders += not got.is_zero()
    assert 0 < units < 12 and remainders >= 12


# -- exact division on packed ints ------------------------------------------------

@pytest.mark.parametrize("width", [8, 16, 24])
def test_packed_masks_guard_is_the_sum_of_field_guard_bits(width):
    for nvars in range(1, 9):
        guard, low = packed_masks(nvars, width)
        assert guard == sum(1 << (width * i - 1) for i in range(1, nvars + 2))
        assert low == (1 << (width * nvars)) - 1


def test_try_exact_div_matches_linear_scan_on_fractions():
    rng = random.Random(82)
    kinds = _Kinds()
    negative = 0
    n = 3
    for _ in range(200):
        b = _fraction_polynomial(rng, n, max_degree=2, max_terms=4)
        q = _fraction_polynomial(rng, n, max_degree=3, max_terms=5)
        a = b * q
        if rng.random() < 0.4:
            a = a + _fraction_polynomial(rng, n, max_degree=3, max_terms=2)
        kinds.check(a, b)
        negative += b.leading_coefficient() < 0
    one = Polynomial.one(n, QQ)
    for b in (one, one.scale(Fraction(-2, 3)), one.scale(5)):
        a = _fraction_polynomial(rng, n, max_degree=3, max_terms=5)
        assert kinds.check(a, b) * b == a
    assert negative > 50
    assert all(count > 0 for count in kinds.seen.values()), kinds.seen
    assert kinds.seen["inexact"] > 30 and kinds.seen["multi"] > 30


def test_try_exact_div_inexact_on_a_coefficient_or_a_remainder():
    y1, y2, y3 = variables(3)
    b = 2 * y1 + 1
    # every term of a is divisible by y1, but 1 is not divisible by 2
    a = y1 ** 2 + y1
    assert try_exact_div(a, b) is None
    assert reference_try_exact_div(a, b) is None
    # the same with fractions: cleared, a is y1^2 + y1 and b is 3*y1 + 1
    assert try_exact_div(a.scale(Fraction(1, 3)),
                         Fraction(3, 2) * y1 + Fraction(1, 2)) is None
    # an exact product plus a term that b's leading monomial does not divide
    q = y1 * y2 - 3 * y3
    assert try_exact_div(b * q, b) == q
    assert try_exact_div(b * q + y3 ** 2, b) is None
    assert reference_try_exact_div(b * q + y3 ** 2, b) is None
    # b's leading monomial has a higher degree than a
    assert try_exact_div(y1 + y2, y1 ** 2 + y3) is None


@pytest.mark.parametrize("field", [QQ, F5, F_BIG], ids=["Q", "F5", "F2^31-1"])
def test_try_exact_div_across_width_steps(field):
    """Dividends of degree 127/128 and 255/256 fall on both sides of the
    steps from 8- to 16-bit and within 16-bit fields."""
    y1, y2, y3 = variables(3, field)
    rng = random.Random(84)
    kinds = _Kinds()
    for top in (127, 128, 255, 256):
        for _ in range(6):
            bd = rng.randint(1, top - 1)
            b = (y1 ** bd + 3 * y2 ** (bd - 1) * y3
                 - 2 * y3 ** rng.randint(0, bd - 1))
            q = (2 * y2 ** (top - bd) + y1 * y3 ** (top - bd - 1)
                 - 5 * y2 ** rng.randint(0, top - bd - 1))
            a = b * q
            assert a.total_degree() == top
            assert kinds.check(a, b) == q
            kinds.check(a + y3 ** top, b)
            kinds.check(a, y1 ** bd * 2)
    assert kinds.seen["exact"] >= 24 and kinds.seen["inexact"] >= 24


def test_try_exact_div_over_q_does_no_fraction_arithmetic():
    """A multi-term exact division over Q runs on ints: no `Fraction` is
    added, subtracted or multiplied, though the reference division does all
    that."""
    rng = random.Random(85)
    with FractionArithmetic() as ops:
        b = _fraction_polynomial(rng, 4, max_degree=3, max_terms=4)
        while len(b.terms) < 3:
            b = _fraction_polynomial(rng, 4, max_degree=3, max_terms=4)
        q = _fraction_polynomial(rng, 4, max_degree=3, max_terms=6)
        a = b * q
        ops.reset()
        got = try_exact_div(a, b)
        assert ops.count == 0
        assert got == q
        assert _same(got, reference_try_exact_div(a, b))
        assert ops.count > 0


# -- the packed pair loop against the reference --------------------------------

@pytest.mark.parametrize("field", [QQ, F3, F5, F_BIG],
                         ids=["Q", "F3", "F5", "F2^31-1"])
def test_packed_buchberger_matches_reference(field):
    """Random generators with a duplicate or a proportional copy mixed in
    (fractional ones with negative leading coefficients over Q), bases
    extended to the radical test's ring, a constant and no generator."""
    rng = random.Random(86)
    factor = Fraction(-3, 2) if field == QQ else field.p - 1
    proportional = nontrivial = 0
    for _ in range(40):
        if field == QQ:
            gens = [_fraction_polynomial(rng, 3, max_degree=3, max_terms=4)
                    for _ in range(rng.randint(2, 4))]
        else:
            gens = [random_nonzero_polynomial(rng, 3, field, max_degree=3,
                                              max_terms=4,
                                              coeff_range=_coeff_range(field))
                    for _ in range(rng.randint(2, 4))]
        scale = rng.choice([1, factor])
        gens.insert(rng.randint(0, len(gens)), rng.choice(gens).scale(scale))
        expected, _ = reference_buchberger(gens)
        assert buchberger(gens).polys == expected
        proportional += scale != 1
        nontrivial += len(expected) > 1
    assert proportional >= 10 and nontrivial >= 10
    n, ext = 3, 4
    t = Polynomial.variable(n, ext, field)
    one = Polynomial.one(ext, field)
    units = 0
    for _ in range(16):
        gens = [_random_form(rng, n, field, 2, 3)
                for _ in range(rng.randint(1, 2))]
        f = _random_form(rng, n, field, rng.randint(1, 2), 3).scale(factor)
        lifted = [g.extend(ext) for g in buchberger(gens).polys]
        lifted.append(one - t * f.extend(ext))
        expected, _ = reference_buchberger(lifted)
        assert buchberger(lifted).polys == expected
        units += expected == (one,)
    assert 0 < units < 16
    y1, y2, y3 = variables(3, field)
    constant = Polynomial.constant(factor, 3, field)
    assert buchberger([y1 * y2 - y3, constant, y3]).polys == (
        Polynomial.one(3, field),)
    assert buchberger([]).polys == ()


@over_fields
def test_buchberger_across_a_width_step(monkeypatch, field):
    """The generators fit 8-bit fields, but the lcm of their leading
    monomials y1^100*y2^100 has degree 200 > 127: the basis is repacked at
    16 bits mid-run, and an element of degree 200 survives."""
    y1, y2, y3 = variables(3, field)
    gens = [y1 ** 100 * y2 - y3, y1 * y2 ** 100 - 2 * y3]
    expected_pairs, _ = reference_pair_loop(gens)
    assert _recorded_pairs(monkeypatch, gens, limit=20) == expected_pairs
    expected, _ = reference_buchberger(gens)
    got = buchberger(gens).polys
    assert got == expected
    assert max(g.total_degree() for g in got) > 127
    # a generator already past the 8-bit capacity starts at 16 bits
    gens.append(y3 ** 130 - y1)
    expected, _ = reference_buchberger(gens)
    assert buchberger(gens).polys == expected


def test_buchberger_over_q_does_no_fraction_arithmetic(monkeypatch):
    """Over Q the pair loop runs on ints: no `Fraction` is added, subtracted
    or multiplied, and none is built but the final basis's coefficients."""
    calls = {"built": 0}
    # arithmetic on Fractions builds its results through one of these two
    new = Fraction.__new__

    def building(cls, *args, **kwargs):
        calls["built"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(building))
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints

        def coprime_ints(cls, *args):
            calls["built"] += 1
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(coprime_ints))
    rng = random.Random(87)
    gens = [_fraction_polynomial(rng, 3, max_degree=3, max_terms=4)
            for _ in range(4)]
    calls["built"] = 0
    with FractionArithmetic() as ops:
        basis = buchberger(gens).polys
        built = calls["built"]
        assert ops.count == 0
        assert 0 < built <= sum(len(g.terms) for g in basis)
        assert basis == reference_buchberger(gens)[0]
        assert ops.count > 0
