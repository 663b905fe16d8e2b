"""The instance parser against the parser it replaced, on seeded texts.

`support.reference_parse_instance` is the parser that lifted every constant
to a `Polynomial` and added sums with `Polynomial.__add__`; `locspan.cli`
parses into term maps.  On every text both must accept with the same
canonical instance, or refuse with the same error, position included: that
holds the budgets and the `ParseError`s in place.  The one exception is a
text on which the reference fails converting an int past Python's 4300-digit
limit to or from text: the parser refuses it with a `ParseError`.
"""

import random
from itertools import product

import pytest

from locspan import QQ, Polynomial, PrimeField, format_polynomial
from locspan.cli import (
    MAX_PARSE_DEGREE,
    MAX_PARSE_DEPTH,
    MAX_PARSE_DIGITS,
    MAX_PARSE_TERMS,
    parse_instance,
    parse_polynomial,
)
from support import reference_parse_instance, reference_parse_polynomial

FIELDS = (("Q", QQ), ("Fp 5", PrimeField(5)), ("Fp 7", PrimeField(7)),
          ("Fp 2", PrimeField(2)))


def _outcome(parse, text):
    """``("ok", canonical text)`` or ``(error type, message)``."""
    try:
        return "ok", parse(text).canonical_text()
    except Exception as exc:  # not only ParseError: all must match
        return type(exc).__name__, str(exc)


def _poly_outcome(parse, text, nvars, field):
    try:
        return "ok", format_polynomial(parse(text, nvars, field, line=7))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _agrees(outcome, expected):
    """Whether the parser's ``outcome`` agrees with the reference's
    ``expected``: equal, or a `ParseError` where the reference failed on
    Python's int-to-text conversion limit."""
    if (expected[0] == "ValueError"
            and "integer string conversion" in expected[1]):
        return outcome[0] == "ParseError"
    return outcome == expected


# -- seeded texts ---------------------------------------------------------------

def _literal(rng):
    r = rng.random()
    if r < 0.55:
        return str(rng.randint(0, 12))
    if r < 0.85:  # zero denominators, and multiples of p over F_p
        return f"{rng.randint(0, 12)}/{rng.randint(0, 10)}"
    return rng.choice(("123456789012345678901234567890", "10/4", "5/5", "0/7"))


def _exponent(rng):
    return rng.choice((0, 1, 1, 2, 3, 4, 7, 33, 20000, 40000))


def _const(rng, depth):
    if depth <= 0 or rng.random() < 0.35:
        return _literal(rng)
    a, b = _const(rng, depth - 1), _const(rng, depth - 1)
    return rng.choice((f"-{a}", f"({a})", f"({a})^{_exponent(rng)}",
                       f"{a}^{rng.randrange(4)}", f"{a}*{b}", f"{a} + {b}",
                       f"{a} - {b}", f"-({a})"))


def _variable(rng, n):
    r = rng.random()
    if r < 0.96:
        return f"y{rng.randint(1, n)}"
    return rng.choice((f"y{n + 1}", "y0", "z", "y01"))


def _linear(rng, n, depth):
    """Mostly a linear form written with constants, signs, parentheses and
    powers; now and then a text that is not one."""
    if depth <= 0 or rng.random() < 0.25:
        return _variable(rng, n)
    a, b = _linear(rng, n, depth - 1), _linear(rng, n, depth - 1)
    c = _const(rng, depth - 1)
    return rng.choice((
        f"({c})*({a})", f"({a})*({c})", f"{c}*{_variable(rng, n)}",
        f"{_variable(rng, n)}*{c}", f"{a} + {b}", f"{a} - {b}", f"-({a})",
        f"-{_variable(rng, n)}", f"({a})^1", f"{a} + ({c} - {c})",
        f"({c} - {c})*({a})^{_exponent(rng)}", f"{a} + {c}",
        f"({a})*({b})", f"0*({a})*({b})"))


def _any(rng, n, depth):
    """A polynomial expression: products and powers of linear forms."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice((_variable(rng, n), _literal(rng)))
    a, b = _any(rng, n, depth - 1), _any(rng, n, depth - 1)
    return rng.choice((f"{a}*{b}", f"{a} + {b}", f"{a} - {b}", f"-{a}",
                       f"({a})", f"({a})^{rng.randrange(6)}",
                       f"({a})^{_exponent(rng)}", f"{_const(rng, 2)}*({a})"))


def _corrupt(rng, text):
    """The text with one character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    c = rng.choice("()[],^*/+-= y1z#$\t\u00e9\u00b2\u0661")
    return rng.choice((text[:i] + c + text[i:], text[:i] + text[i + 1:],
                       text[:i] + c + text[i + 1:]))


def _instance_text(rng, field_name):
    n = rng.randint(1, 4)
    if rng.random() < 0.5:
        lines = [f"q{i + 1} = [" + ", ".join(
            "0" if rng.random() < 0.2 else _linear(rng, n, rng.randint(0, 3))
            for _ in range(n)) + "]" for i in range(rng.randint(1, n))]
        kind = "linear-subspace"
    else:
        def entry():
            r = rng.random()
            if r < 0.9:
                return _const(rng, rng.randint(0, 3))
            return rng.choice(("y1 - y1", "0*y1", "(y1 - y1)^3", "y1"))
        width = n if rng.random() < 0.95 else n + 1
        lines = ["b%d = [%s]" % (i + 1, ", ".join(
            "[" + ", ".join(entry() for _ in range(width)) + "]"
            for _ in range(n))) for i in range(rng.randint(1, 3))]
        kind = "matrix-subspace"
    if rng.random() < 0.25:
        j = rng.randrange(len(lines))
        lines[j] = _corrupt(rng, lines[j])
    return "\n".join([f"field {field_name}", f"n {n}", f"kind {kind}",
                      *lines, "end"]) + "\n"


def test_seeded_instances_parse_alike():
    rng = random.Random(20)
    accepted = refused = 0
    for _ in range(600):
        field_name, _ = rng.choice(FIELDS)
        text = _instance_text(rng, field_name)
        expected = _outcome(reference_parse_instance, text)
        assert _agrees(_outcome(parse_instance, text), expected), text
        accepted += expected[0] == "ok"
        refused += expected[0] != "ok"
    # the corpus exercises both sides
    assert accepted > 150 and refused > 150


def test_seeded_expressions_parse_alike():
    rng = random.Random(21)
    for _ in range(1500):
        _, field = rng.choice(FIELDS)
        n = rng.randint(1, 4)
        text = _any(rng, n, rng.randint(0, 4))
        if rng.random() < 0.2:
            text = _corrupt(rng, text)
        assert _agrees(_poly_outcome(parse_polynomial, text, n, field),
                       _poly_outcome(reference_parse_polynomial, text, n,
                                     field)), text


# -- texts at each edge of the budget -------------------------------------------

def _line_instance(field_name, n, line):
    return f"field {field_name}\nn {n}\nkind linear-subspace\n{line}\nend\n"


def _alike(text):
    """The parser's outcome on ``text``, checked against the reference's."""
    outcome = _outcome(parse_instance, text)
    assert _agrees(outcome, _outcome(reference_parse_instance, text))
    return outcome


def _monomial(exponents):
    return "*".join(f"y{i + 1}^{e}" for i, e in enumerate(exponents) if e) or "1"


@pytest.mark.parametrize("field_name", ["Q", "Fp 5"])
def test_a_constant_factor_keeps_the_term_budget(field_name):
    # every monomial of degree at most 13 in 4 variables: 2380 terms.  The
    # first MAX_PARSE_TERMS of them make a sum at the budget, which a
    # constant factor keeps there; the whole sum is refused at the + that
    # passes the budget, before any factor, even one that is zero
    monomials = [m for m in product(range(14), repeat=4) if sum(m) <= 13]
    assert len(monomials) == 2380
    names = list(map(_monomial, monomials))
    at_budget = "(" + " + ".join(names[:MAX_PARSE_TERMS]) + ")"
    for expr in (f"{at_budget}*2", f"2*{at_budget}"):
        line = f"q1 = [{expr}*(2 - 2) + y1, y2, y3, y4]"
        assert _alike(_line_instance(field_name, 4, line))[0] == "ok"
    total = "(" + " + ".join(names) + ")"
    plus = len("q1 = [(") + len(" + ".join(names[:MAX_PARSE_TERMS + 1])) \
        - len(names[MAX_PARSE_TERMS]) - 1
    for expr in (f"{total}*2", f"2*{total}", f"{total}*(2 - 2) + y1"):
        line = f"q1 = [{expr}, y2, y3, y4]"
        col = plus + 2 * expr.startswith("2*")
        assert line[col - 1] == "+"
        outcome = _alike(_line_instance(field_name, 4, line))
        assert outcome == ("ParseError", f"line 4, col {col}: sum exceeds "
                                         "the parser budget")


@pytest.mark.parametrize("field_name", ["Q", "Fp 5"])
def test_hostile_constants_at_each_budget_edge(field_name):
    # the bits budget on a constant power, before the power is computed
    line = "q1 = [7^40000*y1, y2]"
    assert _alike(_line_instance(field_name, 2, line)) == (
        "ParseError", f"line 4, col {line.index('^') + 1}: expansion exceeds "
                      "the parser budget")
    for line in ("q1 = [2^10000*y1, y2]", "q1 = [0^40000*y1, y2]",
                 "q1 = [0^0*y1, y2]", "q1 = [(0 - 0)^0*y1 + 0^3*y2, y2]"):
        assert _alike(_line_instance(field_name, 2, line))[0] == "ok", line
    matrix = (f"field {field_name}\nn 2\nkind matrix-subspace\n"
              "b1 = [[0^0, 1/2], [-(3)^2, 0]]\nend\n")
    assert _alike(matrix)[0] == "ok"
    # nesting at the depth budget and one past it
    for depth in (MAX_PARSE_DEPTH, MAX_PARSE_DEPTH + 1):
        for atom in ("y1", "3*y1", "(y1)"):
            expr = "(" * depth + atom + ")" * depth
            outcome = _alike(_line_instance(field_name, 2,
                                            f"q1 = [{expr}, y2]"))
            assert (outcome[0] == "ok") == (depth + atom.count("(")
                                            <= MAX_PARSE_DEPTH), expr
        signs = "-" * depth + "2*y1"
        outcome = _alike(_line_instance(field_name, 2, f"q1 = [{signs}, y2]"))
        # the sign that opens an expression is not counted
        assert outcome[0] == "ok"


def test_a_denominator_divisible_by_p_is_refused():
    text = _line_instance("Fp 5", 2, "q1 = [1/5*y1, y2]")
    assert _alike(text) == (
        "ParseError", "line 4, col 9: denominator 5 is zero in GF(5)")
    # 5/5 is 1 before it meets the field
    assert _alike(_line_instance("Fp 5", 2, "q1 = [5/5*y1, y2]"))[0] == "ok"
    matrix = "field Fp 5\nn 1\nkind matrix-subspace\nb1 = [[1/5]]\nend\n"
    assert _alike(matrix) == (
        "ParseError", "line 4, col 10: denominator 5 is zero in GF(5)")


# -- long sums ------------------------------------------------------------------

def _long_sum(rng, n):
    """A sum of a few hundred terms over the monomials with exponents at
    most 4 in n variables, most of them distinct."""
    terms = []
    for _ in range(rng.randint(200, 400)):
        exponents = [rng.randint(0, 4) for _ in range(n)]
        terms.append(f"{rng.choice(('', '-'))}{rng.randint(1, 9)}*"
                     f"{_monomial(exponents)}")
    return " + ".join(terms).replace("+ -", "- ")


def _long_sum_texts(rng):
    """Instances whose components are long sums that cancel to a linear form
    (``s - (s) + y1``), or do not, or feed a product over the budget."""
    texts = []
    for _ in range(12):
        field_name, _ = rng.choice(FIELDS)
        s = _long_sum(rng, 4)
        component = rng.choice((
            f"{s} - ({s}) + y1", f"-({s}) + 2*y1 + {s}", f"{s} + y1",
            f"({s})*(y1 - y1) + y1", f"({s})*({s})", f"y2 + ({s}) - ({s})"))
        texts.append(_line_instance(field_name, 4,
                                    f"q1 = [{component}, y2, y3, y4]"))
    return texts


def test_long_sums_parse_alike():
    rng = random.Random(22)
    outcomes = [_alike(text)[0] for text in _long_sum_texts(rng)]
    assert "ok" in outcomes and "ParseError" in outcomes
    for _ in range(8):
        _, field = rng.choice(FIELDS)
        text = _long_sum(rng, 4)
        outcome = _poly_outcome(parse_polynomial, text, 4, field)
        assert outcome[0] == "ok"
        assert outcome == _poly_outcome(reference_parse_polynomial, text, 4,
                                        field)


def test_sums_are_added_in_place(monkeypatch):
    """Parsing makes no `Polynomial.__add__` call: a sum adds each term into
    one map, where ``+`` used to copy the whole sum so far."""
    texts = _long_sum_texts(random.Random(23))

    def refuse(self, other):
        raise AssertionError("Polynomial.__add__ while parsing")

    monkeypatch.setattr(Polynomial, "__add__", refuse)
    monkeypatch.setattr(Polynomial, "__radd__", refuse)
    outcomes = [_outcome(parse_instance, text) for text in texts]
    monkeypatch.undo()
    assert sum(outcome[0] == "ok" for outcome in outcomes) >= 3
    for text, outcome in zip(texts, outcomes):
        assert outcome == _outcome(reference_parse_instance, text)


# -- coefficients no report could print -------------------------------------------

def _primes(count):
    primes, k = [], 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _refusal(col, message):
    return "ParseError", f"line 4, col {col}: {message}"


def test_unprintable_coefficients_are_refused_where_made():
    # the reference parsed these and failed rendering, or converting the
    # literal, with Python's message and no position
    coefficient = "coefficient exceeds the parser budget"
    literal = "literal exceeds the parser budget"
    digits = "7" * (MAX_PARSE_DIGITS + 1)
    for line, col, message in (
            ("q1 = [2^20000*y1, y2]", 8, coefficient),
            ("q1 = [(2^14000)*(2^14000)*y1, y2]", 16, coefficient),
            (f"q1 = [{digits}*y1, y2]", 7, literal),
            (f"q1 = [y1 + {'7' * 5000}*y2, y2]", 12, literal),
            (f"q1 = [1/{digits}*y1, y2]", 9, literal),
            (f"q1 = [y1^{digits}, y2]", 10, literal)):
        text = _line_instance("Q", 2, line)
        assert _alike(text) == _refusal(col, message), line
    # over F_p the coefficients are reduced, but a literal is still read
    assert _alike(_line_instance("Fp 5", 2, "q1 = [2^20000*y1, y2]")) == (
        "ok", "field Fp 5\nn 2\nkind linear-subspace\nq1 = [y1, y2]\nend\n")
    line = f"q1 = [{digits}*y1, y2]"
    assert _alike(_line_instance("Fp 5", 2, line)) == _refusal(7, literal)
    # a sum is refused at the + whose denominator, the product of the primes
    # so far, first has more digits than a report prints
    primes = _primes(2000)
    product, count = 1, 0
    while product < 10 ** MAX_PARSE_DIGITS:
        product *= primes[count]
        count += 1
    line = "q1 = [(" + " + ".join(f"1/{p}" for p in primes) + ")*y1, y2]"
    col = line.index(f" + 1/{primes[count - 1]} ") + 2
    outcome = _outcome(parse_instance, _line_instance("Q", 2, line))
    assert outcome == _refusal(col, coefficient)
    # the coefficient a text prints at the edge stays accepted
    for line in ("q1 = [2^10000*y1, y2]", f"q1 = [{digits[1:]}*y1, y2]",
                 "q1 = [(2^7000)*(2^7000)*y1, y2]"):
        assert _alike(_line_instance("Q", 2, line))[0] == "ok", line


# -- powers of one term -----------------------------------------------------------

POWER_FIELDS = (QQ, PrimeField(5), PrimeField(2 ** 31 - 1))
POWER_IDS = ("Q", "F5", "F2^31-1")


@pytest.mark.parametrize("field", POWER_FIELDS, ids=POWER_IDS)
def test_a_one_term_power_is_the_polynomial_power(field, monkeypatch):
    """A one-term base to the k is its exponents times k with its coefficient
    to the k, which is what `Polynomial.__pow__` gives; parsing it makes no
    `__pow__` call."""
    rng = random.Random(25)
    cases = [("-3/2*y1", 0), ("-3/2", 0), ("1/7", 3), ("-2/9*y1*y3^2", 1)]
    for _ in range(200):
        exponents = [rng.randint(0, 3) for _ in range(3)]
        # numerators and denominators prime to 5, so no base is zero in F5
        coefficient = (f"{rng.choice(('', '-'))}"
                       f"{rng.choice((1, 2, 3, 4, 6, 7, 8, 9, 11, 12))}"
                       f"/{rng.choice((1, 2, 3, 4, 7, 9))}")
        k = rng.randint(0, MAX_PARSE_DEGREE // max(1, sum(exponents)))
        cases.append((f"{coefficient}*{_monomial(exponents)}", k))
    bases = [parse_polynomial(base, 3, field) for base, _ in cases]

    def refuse(self, k):
        raise AssertionError("Polynomial.__pow__ on a one-term base")

    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    powers = [parse_polynomial(f"({base})^{k}", 3, field) for base, k in cases]
    monkeypatch.undo()
    for (text, k), base, power in zip(cases, bases, powers):
        want = base ** k
        assert power == want, (text, k)
        assert list(map(type, power.terms.values())) == list(
            map(type, want.terms.values())), (text, k)


@pytest.mark.parametrize("field", POWER_FIELDS, ids=POWER_IDS)
def test_one_term_powers_are_refused_where_they_were(field):
    # with y1 the degree budget refuses 3/2*y1 to the 33 first; a constant
    # base, or y1^0, reaches the digit bound over Q and the bits budget over
    # F_(2^31-1), where its coefficient has 31 bits
    budget = "expansion exceeds the parser budget"
    coefficient = "coefficient exceeds the parser budget"
    refused = {QQ: coefficient, PrimeField(5): None,
               PrimeField(2 ** 31 - 1): budget}
    for text, col, message in (
            ("(3/2*y1)^33", 9, budget),
            ("y1^33", 3, budget),
            ("y1 + (-1/2*3^300*y1)^32", 21, coefficient if field == QQ else None),
            ("(-3/2)^9100*y2", 7, refused[field]),
            ("(3/2*y1^0)^9100", 11, refused[field])):
        outcome = _poly_outcome(parse_polynomial, text, 2, field)
        if message is None:
            assert outcome[0] == "ok", text
        else:
            assert outcome == ("ParseError", f"line 7, col {col}: {message}")
        assert _agrees(outcome, _poly_outcome(reference_parse_polynomial,
                                              text, 2, field)), text
