"""Polynomial ring arithmetic, gcd/lcm, fraction reduction."""

import random
from fractions import Fraction

import pytest

from locspan import (
    MINUS_INFINITY,
    QQ,
    Polynomial,
    PrimeField,
    monic,
    poly_gcd,
    poly_lcm,
    reduce_fraction,
)
from locspan.exactalg import (
    MAX_MODULUS,
    _is_prime,
    exact_div,
    format_polynomial,
    try_exact_div,
)

from support import (
    FractionArithmetic,
    const,
    evaluate,
    random_nonzero_polynomial,
    random_polynomial,
    reference_mul,
    variables,
)


def test_addition_cancels():
    y1, y2, _ = variables(3)
    assert (y1 + y2) + (-y2) == y1


def test_multiplication_by_zero():
    y1, _, _ = variables(3)
    assert y1 * const(0, 3) == const(0, 3)
    assert (y1 * const(0, 3)).is_zero()


def test_binomial_identity():
    y1, y2, _ = variables(3)
    assert (y1 - y2) * (y1 + y2) == y1 * y1 - y2 * y2


def test_arith_rejects_mismatched_ambient():
    y1 = Polynomial.variable(0, 3, QQ)
    z1 = Polynomial.variable(0, 4, QQ)
    with pytest.raises(ValueError):
        y1 + z1
    with pytest.raises(ValueError):
        y1 * Polynomial.variable(0, 3, PrimeField(5))


def test_total_degree():
    y1, y2, y3 = variables(3)
    assert (y1 * y2 + y3).total_degree() == 2
    assert Polynomial.zero(3, QQ).total_degree() == MINUS_INFINITY
    assert (y1 ** 3).total_degree() == 3


def test_homogeneity():
    y1, y2, y3 = variables(3)
    p = y1 ** 2 + y2 * y3
    assert p.homogeneous_degree() == 2
    assert (y1 + const(1, 3)).homogeneous_degree() is None
    zero = Polynomial.zero(3, QQ)
    assert zero.homogeneous_degree() is not None


def test_evaluate():
    y1, y2, _ = variables(3)
    assert evaluate(y1 * y2, (2, 3, 0)) == 6
    assert evaluate(y1 - y1, (17, -4, 9)) == 0
    F2 = PrimeField(2)
    p = Polynomial.variable(0, 3, F2) ** 2 + Polynomial.variable(1, 3, F2)
    assert evaluate(p, (1, 1, 1)) == 0


def test_evaluate_rejects_bad_point():
    y1, _, _ = variables(3)
    with pytest.raises(ValueError):
        evaluate(y1, (1, 2))


def test_gcd_difference_of_squares():
    y1, y2, _ = variables(3)
    g = poly_gcd(y1 * y1 - y2 * y2, y1 - y2)
    assert g == y1 - y2
    assert try_exact_div(y1 * y1 - y2 * y2, g) is not None
    assert try_exact_div(y1 - y2, g) is not None


def test_gcd_with_zero_normalizes():
    y1, _, _ = variables(3)
    assert poly_gcd(Polynomial.zero(3, QQ), y1.scale(3)) == y1


def test_gcd_across_a_degree_gap_in_the_remainder_sequence():
    # remainder degrees in y2: 6, 5, 1 and 5, 4, 1, 0; both drop by more
    # than one, which takes the subresultant update for a degree gap
    y1, y2 = variables(2)
    assert poly_gcd((y2 ** 5 + y1 * y2 + 1) * (y1 - y2),
                    (y2 ** 4 + y1) * (y1 - y2)) == y1 - y2
    assert poly_gcd(y2 ** 5 + y1 * y2 + y1 ** 5, y2 ** 4 + y1 ** 2).is_one()


def test_gcd_coprime_variables():
    y1, y2, _ = variables(3)
    assert poly_gcd(y1, y2).is_one()


def test_lcm():
    y1, y2, _ = variables(3)
    assert poly_lcm(y1, y1) == y1
    assert poly_lcm(y1, y2) == y1 * y2
    lcm = poly_lcm(y1 * (y1 + y2), y1)
    assert lcm == y1 * (y1 + y2)
    assert try_exact_div(lcm, y1 * (y1 + y2)) is not None
    assert try_exact_div(lcm, y1) is not None


def test_lcm_rejects_zero():
    y1, _, _ = variables(3)
    with pytest.raises(ValueError):
        poly_lcm(y1, Polynomial.zero(3, QQ))


def test_reduce_fraction():
    y1, y2, _ = variables(3)
    rf = reduce_fraction(y1 * y2, y1)
    assert rf.numerator == y2 and rf.denominator.is_one()

    rf = reduce_fraction(Polynomial.zero(3, QQ), y1 + y2)
    assert rf.numerator.is_zero() and rf.denominator.is_one()

    num = y2 * (y1 - y2)
    den = y1 * (y1 - y2)
    rf = reduce_fraction(num, den)
    assert rf.numerator == y2 and rf.denominator == y1
    # cross-multiplication: reduced value equals the original quotient
    assert rf.numerator * den == rf.denominator * num


def test_reduce_fraction_zero_denominator():
    y1, _, _ = variables(3)
    with pytest.raises(ZeroDivisionError):
        reduce_fraction(y1, Polynomial.zero(3, QQ))


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(60):
        a = random_polynomial(rng, 3)
        b = random_polynomial(rng, 3)
        c = random_polynomial(rng, 3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# -- the int product against field arithmetic ---------------------------------

PRODUCT_FIELDS = pytest.mark.parametrize(
    "field", [QQ, PrimeField(3), PrimeField(5), PrimeField(2 ** 31 - 1)],
    ids=["Q", "F3", "F5", "F2^31-1"])


def _random_operand(rng, field):
    """Up to five terms in three variables with coefficients of either sign;
    over Q each operand draws its own denominator, over F_p coefficients
    range over several multiples of p."""
    den = rng.choice((1, 2, 3, 4, 6, 7, 10))
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.randint(0, 2) for _ in range(3))
        if field == QQ:
            terms[mono] = Fraction(rng.randint(-9, 9), den)
        else:
            terms[mono] = rng.randint(-3 * field.p, 3 * field.p)
    return Polynomial(3, field, terms)


def _assert_same_product(a, b, field):
    """``a * b`` has the term map and coefficient types of `reference_mul`;
    returns whether some term of the product cancelled."""
    got, expected = a * b, reference_mul(a, b)
    assert got.terms == expected.terms
    for c in got.terms.values():
        if field == QQ:
            assert type(c) is Fraction
        else:
            assert type(c) is int and 0 < c < field.p
    sums = {tuple(x + y for x, y in zip(m1, m2))
            for m1 in a.terms for m2 in b.terms}
    return len(sums) > len(got.terms)


@PRODUCT_FIELDS
def test_int_product_matches_field_arithmetic(field):
    rng = random.Random(31)
    n = 3
    y1, y2, y3 = (Polynomial.variable(i, n, field) for i in range(n))
    zero = Polynomial.zero(n, field)
    minus_one = field.normalize(-1)
    special = [
        zero,
        Polynomial.constant(Fraction(-2, 7), n, field),
        Polynomial.constant(field.one, n, field),
        y2,
        y1.scale(Fraction(3, 7)),
        y1 + y2,
        y1 - y2,
        # its int form holds p - 1, and with y1 + y2 a pair sums to p
        y1 + y2.scale(minus_one),
        y1 * y3 - y2.scale(Fraction(5, 2)) + 1,
    ]
    operands = special + [_random_operand(rng, field) for _ in range(25)]
    cancelled = 0
    for a in operands:
        for b in operands:
            cancelled += _assert_same_product(a, b, field)
    assert cancelled >= 4
    # (a+b)(a-b), a difference of cubes, and over F_p the pair whose int
    # coefficients 1 and p - 1 sum to p
    for a, b in [(y1 + y2, y1 - y2),
                 (y1 - y3.scale(Fraction(1, 2)),
                  y1 * y1 + (y1 * y3).scale(Fraction(1, 2))
                  + (y3 * y3).scale(Fraction(1, 4))),
                 (y1 + y2, y1 + y2.scale(minus_one))]:
        assert _assert_same_product(a, b, field)
    assert (y1 + y2) * (y1 + y2.scale(minus_one)) == y1 * y1 - y2 * y2
    for a in operands[:12]:
        for scalar in (0, 1, -3, Fraction(-2, 7), Fraction(4, 11)):
            expected = reference_mul(a, Polynomial.constant(scalar, n, field))
            assert (a * scalar).terms == expected.terms
            assert (scalar * a).terms == expected.terms


def test_product_over_q_makes_no_fraction_arithmetic():
    """Over Q a product of multi-term polynomials with fractional
    coefficients multiplies and sums ints: no `Fraction` is added,
    subtracted or multiplied, though the reference product does all that."""
    rng = random.Random(32)
    pairs = [(_random_operand(rng, QQ), _random_operand(rng, QQ))
             for _ in range(20)]
    pairs = [(a, b) for a, b in pairs if len(a.terms) > 1 and len(b.terms) > 1
             and any(c.denominator > 1 for c in (*a.terms.values(),
                                                  *b.terms.values()))]
    assert len(pairs) >= 5
    with FractionArithmetic() as ops:
        products = [a * b for a, b in pairs]
        assert ops.count == 0
        expected = [reference_mul(a, b) for a, b in pairs]
        assert ops.count > 0
    for product, reference in zip(products, expected):
        assert product.terms == reference.terms


def test_gcd_lcm_product_random():
    rng = random.Random(202)
    for _ in range(40):
        a = random_nonzero_polynomial(rng, 3)
        b = random_nonzero_polynomial(rng, 3)
        g = poly_gcd(a, b)
        assert try_exact_div(a, g) is not None
        assert try_exact_div(b, g) is not None
        lcm = poly_lcm(a, b)
        product = a * b
        # a*b agrees with gcd*lcm up to the unit lc(a)*lc(b)
        unit = product.leading_coefficient()
        assert product == (g * lcm).scale(unit)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(303)
    for _ in range(40):
        a = random_polynomial(rng, 3)
        b = random_polynomial(rng, 3)
        point = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        at_a, at_b = evaluate(a, point), evaluate(b, point)
        assert evaluate(a * b, point) == at_a * at_b
        assert evaluate(a + b, point) == at_a + at_b


def test_reduce_fraction_idempotent():
    rng = random.Random(404)
    for _ in range(30):
        h = random_polynomial(rng, 3)
        k = random_nonzero_polynomial(rng, 3)
        rf = reduce_fraction(h, k)
        again = reduce_fraction(rf.numerator, rf.denominator)
        assert again == rf


def test_homogeneous_product_degrees_add():
    rng = random.Random(505)
    y = variables(3)
    for _ in range(30):
        a = sum((yi.scale(rng.randint(-2, 2)) for yi in y),
                Polynomial.zero(3, QQ))
        b = sum((y[i] * y[j] for i in range(3) for j in range(3)
                 if rng.random() < 0.4), Polynomial.zero(3, QQ))
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        assert prod.homogeneous_degree() is not None
        assert prod.homogeneous_degree() == (
            a.homogeneous_degree() + b.homogeneous_degree())


def test_prime_field_canonical_representatives():
    F5 = PrimeField(5)
    assert F5.normalize(-3) == 2
    assert F5.normalize(Fraction(2, 3)) == (2 * pow(3, -1, 5)) % 5
    assert F5.normalize(1 - 4) == 2
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_rational_inverse_is_a_fraction():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert type(QQ.inv(Fraction(-3, 4))) is Fraction
    with pytest.raises(TypeError):
        QQ.inv(0.5)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_prime_modulus_check_is_exact_and_capped():
    assert PrimeField(10 ** 18 + 3).p == 10 ** 18 + 3
    # Carmichael number and strong pseudoprimes to the first few bases
    for composite in (561, 2047, 3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(composite)
    with pytest.raises(ValueError, match="cap"):
        PrimeField(MAX_MODULUS)
    sieve = [True] * 5000
    sieve[0] = sieve[1] = False
    for i in range(2, 5000):
        if sieve[i]:
            for j in range(i * i, 5000, i):
                sieve[j] = False
    assert [p for p in range(5000) if _is_prime(p)] == \
        [p for p in range(5000) if sieve[p]]


def test_gcd_lcm_over_prime_field():
    rng = random.Random(606)
    F5 = PrimeField(5)
    for _ in range(30):
        a = random_nonzero_polynomial(rng, 3, field=F5, coeff_range=(0, 4))
        b = random_nonzero_polynomial(rng, 3, field=F5, coeff_range=(0, 4))
        g = poly_gcd(a, b)
        assert try_exact_div(a, g) is not None
        assert try_exact_div(b, g) is not None
        product = a * b
        unit = product.leading_coefficient()
        assert product == (g * poly_lcm(a, b)).scale(unit)
    y1 = Polynomial.variable(0, 3, F5)
    y2 = Polynomial.variable(1, 3, F5)
    assert poly_gcd(y1 * y1 - y2 * y2, y1 - y2) == y1 - y2


def test_monic_and_exact_division():
    y1, y2, _ = variables(3)
    p = (y1 + y2).scale(Fraction(3, 2))
    assert monic(p) == y1 + y2
    assert exact_div(y1 * y1 - y2 * y2, y1 + y2) == y1 - y2
    assert try_exact_div(y1 * y1 + y2, y1 + y2) is None
    with pytest.raises(ValueError):
        exact_div(y1 * y1 + y2, y1 + y2)


def test_extend_appends_variables():
    y1, y2, _ = variables(3)
    p = y1 * y2 + 1
    q = p.extend(5)
    assert q.nvars == 5
    assert q.total_degree() == 2
    assert format_polynomial(q) == format_polynomial(p)


def test_format_uses_grevlex_descending():
    y1, y2, y3 = variables(3)
    assert str(y3 - y1) == "-y1 + y3"
    assert str(y1 ** 2 - 2 * y2 * y3 + 1) == "y1^2 - 2*y2*y3 + 1"
    assert str(Polynomial.zero(3, QQ)) == "0"
