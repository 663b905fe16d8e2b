"""Exact coefficient fields and sparse multivariate polynomial arithmetic.

Coefficients live in an exact field: arbitrary-precision rationals
(`fractions.Fraction`) or a prime field whose elements are canonical
integers in ``[0, p)``.  A polynomial is an immutable sparse map from
exponent tuples to nonzero coefficients over a fixed ambient variable
count ``y1 .. yn``, so equal polynomials always have identical term maps.

The canonical monomial order throughout is graded reverse lexicographic;
gcds, lcms and reduced-fraction denominators are normalized to leading
coefficient 1 under that order.  The gcd works by content/primitive-part
recursion down to a subresultant remainder sequence in the last active
variable.

Every product, `Polynomial.__mul__` and the expansion by minors in
`polymat`, runs one loop on int term maps (`add_product`), and
`Polynomial.from_cleared` brings the result back into the field once.

Division, both `normal_form` and exact division, runs in this module on
monomials packed into single ints (`pack_monomial`, `packed_masks`) and
on int coefficients: a product is an addition, a divisibility test a mask
test and a heap key one int, and only the result is unpacked.  The layout is
read here and in `groebner.buchberger`, which reduces by `reduce_packed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add
from typing import Optional, Sequence

#: Degree of the zero polynomial.
MINUS_INFINITY = float("-inf")

Monomial = tuple


#: Moduli are refused from this bound on: below it, Miller-Rabin with the
#: thirteen primes 2 .. 41 as bases decides primality exactly.
MAX_MODULUS = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test, exact for ``p < MAX_MODULUS``."""
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} is not below the cap {MAX_MODULUS}")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Exact arithmetic on raw coefficient values.

    Values are plain Python numbers, so callers add and multiply them with
    ``+ - *``, bring the result into the field once with ``normalize`` and
    print it with ``str``.  A subclass defines only what makes fields
    differ: ``zero``, ``one``, ``characteristic``, ``normalize(value)`` and
    ``inv(a)``.  ``normalize`` has a fast path for the values arithmetic
    makes: over Q a `Fraction` comes back unchanged, over F_p an int is
    reduced mod p.
    """


class RationalField(Field):
    """The rationals; values are `fractions.Fraction` in lowest terms."""

    zero = Fraction(0)
    one = Fraction(1)
    characteristic = 0

    def normalize(self, value):
        if type(value) is Fraction:  # the common case, before the ABC checks
            return value
        if isinstance(value, float):
            raise TypeError("floating-point coefficients are not supported")
        return Fraction(value)

    def inv(self, a):
        a = self.normalize(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


#: Shared rational-field descriptor.
QQ = RationalField()


class PrimeField(Field):
    """Integers modulo a prime ``p``; values are ints in ``[0, p)``."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        self.p = self.characteristic = p
        self.zero = 0
        self.one = 1

    def normalize(self, value):
        if type(value) is int:  # the common case, before the ABC checks
            return value % self.p
        if isinstance(value, Fraction):
            return value.numerator * self.inv(value.denominator) % self.p
        if isinstance(value, int):
            return value % self.p
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


# ---------------------------------------------------------------------------
# Monomials: plain exponent tuples, one entry per variable.

def grevlex_key(m: Monomial):
    """Sort key: larger key = larger monomial in grevlex order."""
    return (sum(m), tuple(-e for e in reversed(m)))


# Packed monomials: one int per monomial.  Fields of ``width`` bits hold,
# from the top, the total degree, then e_n down to e_1; the top bit of each
# field is a guard bit that a packed monomial keeps clear.  While no field
# overflows into its guard bit, the product of two monomials is the sum of
# their packs, so the width must exceed every degree that can arise.

def packed_width(degree: int) -> int:
    """Field width for monomials of total degree at most ``degree``: its
    bits and a guard bit, rounded up to whole bytes."""
    return 8 * (degree.bit_length() // 8 + 1)


def pack_monomial(m: Monomial, width: int) -> int:
    packed = sum(m)
    for e in reversed(m):
        packed = packed << width | e
    return packed


def unpack_monomial(packed: int, nvars: int, width: int) -> Monomial:
    field = (1 << width) - 1
    return tuple(packed >> (i * width) & field for i in range(nvars))


def packed_masks(nvars: int, width: int) -> tuple:
    """``(guard, low)``: the guard bits of all nvars + 1 fields, and the
    exponent fields below the degree.  ``a`` divides ``b`` exactly when
    ``((b | guard) - a) & guard == guard`` (a field of b less the same field
    of a borrows its guard bit only when it is the smaller), and the key
    ``2*(m & low) - m``, the exponents less the degree, orders monomials
    grevlex-largest first."""
    ones = ((1 << width * (nvars + 1)) - 1) // ((1 << width) - 1)
    return ones << (width - 1), (1 << (width * nvars)) - 1


def packed_lcm(a: int, b: int, width: int, guard: int, low: int) -> tuple:
    """``(degree, lcm)`` of packed monomials: the lcm takes from a the fields
    where ``(a | guard) - b`` keeps the guard bit, the rest from b; times
    ``low // field``, its exponents sum into the top field.  The degree may
    pass the capacity (the lcm is then no monomial) but not twice it."""
    a, b = a & low, b & low
    larger = ((a | guard) - b) & guard
    pick = larger - (larger >> (width - 1))
    exponents = a & pick | b & ~pick
    field, top = (1 << width) - 1, low.bit_length()
    degree = exponents * (low // field) >> (top - width) & field
    return degree, exponents | degree << top


def add_product(acc: dict, a: dict, b: dict, factor: int = 1) -> dict:
    """Add ``factor * a * b`` to ``acc`` and return it; all three are term
    maps with int coefficients, and a sum that cancels stays as a 0."""
    b = b.items()
    for m1, c1 in a.items():
        c1 *= factor
        for m2, c2 in b:
            m = tuple(map(add, m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return acc


class Polynomial:
    """Sparse multivariate polynomial with exact coefficients.

    Instances are immutable after construction; all arithmetic returns new
    canonical polynomials (no zero coefficients stored, the zero polynomial
    has an empty term map).
    """

    __slots__ = ("nvars", "field", "terms", "_lead", "_cleared", "_integer")

    def __init__(self, nvars: int, field: Field, terms=None):
        cleaned = {}
        if terms:
            for mono, coeff in dict(terms).items():
                mono = tuple(int(e) for e in mono)
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ValueError(
                        f"exponent tuple {mono} invalid for {nvars} variables")
                coeff = field.normalize(coeff)
                if coeff != field.zero:
                    cleaned[mono] = coeff
        self.nvars = nvars
        self.field = field
        self.terms = cleaned
        self._lead = self._cleared = self._integer = None

    @classmethod
    def _raw(cls, nvars: int, field: Field, terms: dict):
        # internal fast path: terms must already be canonical, and no caller
        # may change the dict afterwards (the leading term is cached)
        p = object.__new__(cls)
        p.nvars = nvars
        p.field = field
        p.terms = terms
        p._lead = p._cleared = p._integer = None
        return p

    @classmethod
    def from_cleared(cls, nvars: int, field: Field, den: int, ints: dict):
        """``ints / den`` for an int term map, the inverse of `cleared`:
        each term divided by ``den`` over Q, reduced mod p over F_p."""
        p = field.characteristic
        if p:
            terms = {m: c % p for m, c in ints.items() if c % p}
        else:
            terms = {m: Fraction(c, den) for m, c in ints.items() if c}
        return cls._raw(nvars, field, terms)

    @classmethod
    def zero(cls, nvars: int, field: Field) -> "Polynomial":
        return cls._raw(nvars, field, {})

    @classmethod
    def one(cls, nvars: int, field: Field) -> "Polynomial":
        return cls.constant(field.one, nvars, field)

    @classmethod
    def constant(cls, value, nvars: int, field: Field) -> "Polynomial":
        v = field.normalize(value)
        return cls._raw(nvars, field, {(0,) * nvars: v} if v else {})

    @classmethod
    def variable(cls, index: int, nvars: int, field: Field) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for n={nvars}")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._raw(nvars, field, {mono: field.one})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        return len(self.terms) == 1 and not any(next(iter(self.terms)))

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, self.field.zero)

    def is_one(self) -> bool:
        return self.is_constant() and self.constant_value() == self.field.one

    def total_degree(self):
        """Max total degree of the stored terms; MINUS_INFINITY for zero."""
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(m) for m in self.terms)

    def homogeneous_degree(self):
        """Common term degree; MINUS_INFINITY for zero, None if inhomogeneous."""
        degrees = {sum(m) for m in self.terms}
        if not degrees:
            return MINUS_INFINITY
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def active_variables(self) -> set:
        used = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used.add(i)
        return used

    def leading_term(self):
        """The grevlex-largest ``(monomial, coefficient)``, found once."""
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            mono = max(self.terms, key=grevlex_key)
            self._lead = mono, self.terms[mono]
        return self._lead

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def cleared(self):
        """``(den, ints)``, found once: ``den`` is the least common
        denominator of the coefficients over Q and ``ints`` the term map of
        ``den`` times the polynomial, with int coefficients.  Over F_p the
        coefficients are ints already: ``(1, terms)``.  Callers must not
        change ``ints``.
        """
        if self._cleared is None:
            if self.field.characteristic:
                self._cleared = 1, self.terms
            else:
                den = lcm(*(c.denominator for c in self.terms.values()))
                self._cleared = den, {m: c.numerator * (den // c.denominator)
                                      for m, c in self.terms.items()}
        return self._cleared

    def integer_form(self, width: int):
        """``(lead monomial, lead coefficient, other terms)`` of the integer
        multiple that division subtracts, monomials packed at ``width``;
        found once per width.

        Over Q it is primitive: denominators cleared, content removed, and a
        positive leading coefficient.  Over F_p it is monic.
        """
        if self._integer is None or self._integer[0] != width:
            lm, lead, tail = primitive_form(
                self.cleared()[1], self.leading_monomial(),
                self.field.characteristic)
            self._integer = width, (
                pack_monomial(lm, width), lead,
                tuple((pack_monomial(m, width), c) for m, c in tail))
        return self._integer[1]

    def leading_coefficient(self):
        return self.leading_term()[1]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"ambient mismatch: {self.nvars} vs {other.nvars} variables")
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

    def _coerce(self, value) -> Optional["Polynomial"]:
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(value, self.nvars, self.field)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        norm = self.field.normalize
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                s = norm(acc + coeff)
                if not s:
                    del out[mono]
                else:
                    out[mono] = s
        return Polynomial._raw(self.nvars, self.field, out)

    __radd__ = __add__

    def __neg__(self):
        norm = self.field.normalize
        return Polynomial._raw(
            self.nvars, self.field,
            {m: norm(-c) for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        den1, ints1 = self.cleared()
        den2, ints2 = other.cleared()
        return Polynomial.from_cleared(self.nvars, self.field, den1 * den2,
                                       add_product({}, ints1, ints2))

    __rmul__ = __mul__

    def scale(self, value) -> "Polynomial":
        norm = self.field.normalize
        v = norm(value)
        if not v:
            return Polynomial._raw(self.nvars, self.field, {})
        return Polynomial._raw(
            self.nvars, self.field,
            {m: norm(c * v) for m, c in self.terms.items()})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.one(self.nvars, self.field)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            coerced = self._coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        return (self.nvars == other.nvars and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.field, frozenset(self.terms.items())))

    # -- variable reindexing ------------------------------------------------

    def extend(self, nvars: int) -> "Polynomial":
        """Same polynomial viewed in a larger ambient ring (new vars appended)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the ambient variable count")
        if nvars == self.nvars:
            return self
        pad = (0,) * (nvars - self.nvars)
        return Polynomial._raw(
            nvars, self.field, {m + pad: c for m, c in self.terms.items()})

    # -- printing -----------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


def format_polynomial(p: Polynomial) -> str:
    """Canonical string form: terms in descending grevlex order."""
    if p.is_zero():
        return "0"
    field = p.field
    pieces = []
    for mono in sorted(p.terms, key=grevlex_key, reverse=True):
        coeff = p.terms[mono]
        negative = not field.characteristic and coeff < 0
        magnitude = -coeff if negative else coeff
        factors = [f"y{i + 1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(mono) if e]
        if not factors:
            body = str(magnitude)
        elif magnitude == field.one:
            body = "*".join(factors)
        else:
            body = str(magnitude) + "*" + "*".join(factors)
        pieces.append((negative, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def coordinate_vector(nvars: int, field: Field) -> tuple:
    """The vector whose i-th component is the variable ``y_{i+1}``."""
    return tuple(Polynomial.variable(i, nvars, field) for i in range(nvars))


# ---------------------------------------------------------------------------
# Division on packed monomials and int coefficients, then gcd and lcm.

def packed_heap(work: dict, low: int) -> list:
    """A min-heap of the keys ``2*(m & low) - m`` of the packed monomials of
    ``work``; it pops the grevlex-largest monomial first."""
    heap = [2 * (m & low) - m for m in work]
    heapify(heap)
    return heap


def primitive_form(ints: dict, lm, p: int) -> tuple:
    """``(lm, lc, tail)`` of the int term map ``ints`` with leading monomial
    ``lm``, made primitive with a positive leading coefficient over Q
    (``p == 0``) and monic over F_p; ``tail`` keeps the order of ``ints``."""
    lc = ints[lm]
    if p:
        inv = pow(lc, -1, p)
        ints = {m: c * inv % p for m, c in ints.items()}
    else:
        content = gcd(*ints.values())
        if lc < 0:
            content = -content
        ints = {m: c // content for m, c in ints.items()}
    lc = ints.pop(lm)
    return lm, lc, tuple(ints.items())


def subtract_shifted(work: dict, heap: list, low: int, tail: tuple,
                     shift: int, factor: int, p: int) -> None:
    """Subtract ``factor`` times the packed divisor ``tail``, its monomials
    shifted by ``shift``, from the packed working map; coefficients are
    taken mod ``p`` when it is nonzero.  A new monomial joins the heap.  One
    cancelled after it was queued stays there, and the caller skips it when
    popped: every monomial added lies below the leading one just removed,
    so a popped monomial never returns."""
    for gm, gc in tail:
        m = gm + shift
        old = work.get(m)
        c = -factor * gc if old is None else old - factor * gc
        if p:
            c %= p
        if c:
            work[m] = c
            if old is None:
                heappush(heap, 2 * (m & low) - m)
        elif old is not None:
            del work[m]


def reduce_packed(work: dict, heap: list, table: Sequence, guard: int,
                  low: int, p: int) -> tuple:
    """``(factor, remainder)``: fraction-free division of the packed int
    map ``work`` (consumed; its keys queued in ``heap``) by the divisor
    forms ``(glm, glc, tail)`` of ``table``, tried in list order.  A leading
    term ``lc*m`` that ``glm`` divides goes by multiplying the working map
    and the remainder by ``a = glc/g`` and subtracting ``b*(m/glm)*tail``,
    where ``g = gcd(lc, glc)`` and ``b = lc/g``.  The remainder (terms
    grevlex-descending) is ``factor``, the product of the a's, times that
    of ``work``.  Over F_p forms are monic, so a = 1; coefficients are
    taken mod p."""
    factor, remainder = 1, {}
    while work:
        key = heappop(heap)
        lm = 2 * (key & low) - key
        lc = work.pop(lm, None)
        if lc is None:
            continue  # cancelled after it was queued
        guarded = lm | guard
        for glm, glc, tail in table:
            if (guarded - glm) & guard == guard:
                break
        else:
            remainder[lm] = lc
            continue
        g = gcd(lc, glc)
        a, b = glc // g, lc // g
        if a != 1:
            factor *= a
            for m in work:
                work[m] *= a
            for m in remainder:
                remainder[m] *= a
        subtract_shifted(work, heap, low, tail, lm - glm, b, p)
    return factor, remainder


def normal_form(f: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of ``f`` by the listed divisors.

    Divisors are tried in list order, so the result is deterministic; no
    term of the result is divisible by any divisor's leading term.

    `reduce_packed` divides ``f`` cleared of denominators by the divisors'
    `integer_form` at the width that the largest degree of ``f`` or of a
    leading monomial sets (grevlex is graded, so no term passes it).
    """
    if not f:
        return f
    field, n = f.field, f.nvars
    divisors = [g for g in divisors if g]
    width = packed_width(max([f.total_degree(),
                              *(sum(g.leading_monomial()) for g in divisors)]))
    guard, low = packed_masks(n, width)
    table = [g.integer_form(width) for g in divisors]
    scale, ints = f.cleared()
    work = {pack_monomial(m, width): c for m, c in ints.items()}
    factor, remainder = reduce_packed(work, packed_heap(work, low), table,
                                      guard, low, field.characteristic)
    return Polynomial.from_cleared(n, field, scale * factor, {
        unpack_monomial(m, n, width): c for m, c in remainder.items()})


def try_exact_div(a: Polynomial, b: Polynomial) -> Optional[Polynomial]:
    """Quotient ``a / b`` when ``b`` divides ``a`` exactly, else None.

    Quotient terms are found largest first.  A one-term divisor shifts the
    exponents of each term of ``a``.  Any other divisor runs the packed,
    fraction-free loop of `normal_form` on ``a`` cleared of denominators,
    ``scale*a``, and on ``B``, the `integer_form` of ``b``: primitive over
    Q, monic over F_p.  By Gauss's lemma an exact quotient by a primitive
    ``B`` has int coefficients, so each step divides the leading
    coefficient by ``lc(B)`` with `divmod`, and the division is not exact
    at the first nonzero remainder.  The int quotient times
    ``lc(B) / (scale*lc(b))`` is the quotient.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    a._check(b)
    if a.is_zero():
        return a
    field, n = a.field, a.nvars
    blm, blc = b.leading_term()
    degree = a.total_degree()
    if sum(blm) > degree:
        return None  # and otherwise every term of b fits a's packed width
    if len(b.terms) == 1:
        inv, norm = field.inv(blc), field.normalize
        quotient = {}
        for m in sorted(a.terms, key=grevlex_key, reverse=True):
            shift = tuple(x - y for x, y in zip(m, blm))
            if min(shift, default=0) < 0:
                return None
            quotient[shift] = norm(a.terms[m] * inv)
        return Polynomial._raw(n, field, quotient)
    p = field.characteristic
    width = packed_width(degree)
    guard, low = packed_masks(n, width)
    glm, glc, tail = b.integer_form(width)
    scale, ints = a.cleared()
    work = {pack_monomial(m, width): c for m, c in ints.items()}
    heap = packed_heap(work, low)
    quotient = {}
    while work:
        key = heappop(heap)
        lm = 2 * (key & low) - key
        lc = work.pop(lm, None)
        if lc is None:
            continue  # cancelled after it was queued
        if ((lm | guard) - glm) & guard != guard:
            return None
        q, r = divmod(lc, glc)
        if r:
            return None
        shift = lm - glm
        quotient[shift] = q
        subtract_shifted(work, heap, low, tail, shift, q, p)
    num, den = ((pow(blc, -1, p), 1) if p else
                (glc * blc.denominator, scale * blc.numerator))
    return Polynomial.from_cleared(n, field, den, {
        unpack_monomial(m, n, width): q * num for m, q in quotient.items()})


def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    quo = try_exact_div(a, b)
    if quo is None:
        raise ValueError("division is not exact")
    return quo


def monic(p: Polynomial) -> Polynomial:
    """Normalize leading coefficient to 1; the zero polynomial stays zero."""
    if p.is_zero():
        return p
    lc = p.leading_coefficient()
    if lc == p.field.one:
        return p
    return p.scale(p.field.inv(lc))


# Dense univariate layer used by the subresultant PRS.  A polynomial in one
# chosen variable is a coefficient list in *descending* degree (index 0 is
# the leading coefficient); coefficients are polynomials free of that
# variable.

def _coeffs_in(p: Polynomial, var: int) -> list:
    deg = max(m[var] for m in p.terms) if p.terms else 0
    buckets: list = [dict() for _ in range(deg + 1)]
    for mono, coeff in p.terms.items():
        reduced = mono[:var] + (0,) + mono[var + 1:]
        buckets[deg - mono[var]][reduced] = coeff
    return [Polynomial._raw(p.nvars, p.field, b) for b in buckets]


def _from_coeffs(coeffs: list, var: int, nvars: int, field: Field) -> Polynomial:
    deg = len(coeffs) - 1
    terms: dict = {}
    for i, c in enumerate(coeffs):
        e = deg - i
        for mono, coeff in c.terms.items():
            terms[mono[:var] + (e,) + mono[var + 1:]] = coeff
    return Polynomial._raw(nvars, field, terms)


def _uni_strip(f: list) -> list:
    i = 0
    while i < len(f) and f[i].is_zero():
        i += 1
    return f[i:]


def _uni_prem(f: list, g: list) -> list:
    """Pseudo-remainder of dense descending lists; deg f >= deg g, g nonzero."""
    dg = len(g) - 1
    r = list(f)
    n = len(f) - dg
    lc_g = g[0]
    while len(r) > dg:
        lc_r = r[0]
        n -= 1
        scaled = [c * lc_g for c in r]
        for i, c in enumerate(g):
            scaled[i] = scaled[i] - c * lc_r
        r = _uni_strip(scaled)
    mult = lc_g ** n
    if mult.is_one():
        return r
    return [c * mult for c in r]


def _last_subresultant(f: list, g: list) -> list:
    """Last nonzero remainder of the subresultant PRS of dense descending
    lists; deg f >= deg g >= 0."""
    m = len(g) - 1
    d = len(f) - 1 - m
    h = _uni_prem(f, g)
    if d % 2 == 0:
        h = [-x for x in h]
    lc = g[0]
    c = -(lc ** d)
    while h:
        k = len(h) - 1
        f, g, m, d = g, h, k, m - k
        b = -lc * (c ** d)
        h = _uni_prem(f, g)
        h = [exact_div(x, b) for x in h]
        lc = g[0]
        if d > 1:
            c = exact_div((-lc) ** d, c ** (d - 1))
        else:
            c = -lc
    return g


def _fold_gcd(polys) -> Polynomial:
    acc = None
    for p in polys:
        acc = p if acc is None else poly_gcd(acc, p)
        if acc.is_one():
            return acc
    return monic(acc)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, normalized to leading coefficient 1."""
    a._check(b)
    if a.is_zero():
        return monic(b)
    if b.is_zero():
        return monic(a)
    if a.is_constant() or b.is_constant():
        return Polynomial.one(a.nvars, a.field)
    if a.terms == b.terms or monic(a) == monic(b):
        return monic(a)
    var = max(a.active_variables() | b.active_variables())
    fa = _coeffs_in(a, var)
    fb = _coeffs_in(b, var)
    ca = _fold_gcd(fa)
    cb = _fold_gcd(fb)
    pa = [exact_div(c, ca) for c in fa]
    pb = [exact_div(c, cb) for c in fb]
    cont = poly_gcd(ca, cb)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    last = _last_subresultant(pa, pb)
    if len(last) == 1:
        return monic(cont)
    content_last = _fold_gcd(last)
    primitive = _from_coeffs([exact_div(c, content_last) for c in last],
                             var, a.nvars, a.field)
    return monic(cont * primitive)


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Least common multiple (both inputs nonzero), leading coefficient 1."""
    if a.is_zero() or b.is_zero():
        raise ValueError("lcm of the zero polynomial is undefined")
    return monic(exact_div(a * b, poly_gcd(a, b)))


# Dense univariate polynomials with int coefficients, as used by the point of
# `localmem`: a list in *ascending* degree with no trailing zero, so the zero
# polynomial is ``[]``.  With ``p`` nonzero coefficients are taken mod p;
# with ``p == 0`` they are integers, and `upoly_divmod` serves only exact
# division.

def upoly_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def upoly_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return upoly_trim([c % p for c in out] if p else out)


def upoly_sub(a: list, b: list, p: int) -> list:
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    return upoly_trim([c % p for c in out] if p else out)


def upoly_divmod(a: list, b: list, p: int) -> tuple:
    """``(q, r)`` with ``a = q*b + r`` and deg r < deg b, for nonzero b;
    over Z (``p == 0``) only when b divides every leading coefficient on
    the way, as in an exact division."""
    db, lead = len(b) - 1, b[-1]
    inv = pow(lead, -1, p) if p else None
    r, q = list(a), [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % p if p else r[k + db] // lead
        if c:
            q[k] = c
            for j, y in enumerate(b, k):
                r[j] = (r[j] - c * y) % p if p else r[j] - c * y
    return upoly_trim(q), upoly_trim(r[:db])


def upoly_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd over F_p."""
    while b:
        a, b = b, upoly_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p) if a else 0
    return [c * inv % p for c in a]


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of polynomials; build reduced values via `reduce_fraction`."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        if self.denominator.is_zero():
            raise ZeroDivisionError("zero denominator")

    def __str__(self):
        if self.denominator.is_one():
            return format_polynomial(self.numerator)
        return (f"({format_polynomial(self.numerator)}) / "
                f"({format_polynomial(self.denominator)})")


def reduce_fraction(h: Polynomial, k: Polynomial) -> RationalFunction:
    """Reduced form of ``h / k``: coprime parts, monic denominator.

    A zero numerator yields denominator 1.
    """
    if k.is_zero():
        raise ZeroDivisionError("zero denominator")
    h._check(k)
    if h.is_zero():
        return RationalFunction(h, Polynomial.one(h.nvars, h.field))
    g = poly_gcd(h, k)
    num = exact_div(h, g)
    den = exact_div(k, g)
    lc = den.leading_coefficient()
    if lc != h.field.one:
        inv = h.field.inv(lc)
        num = num.scale(inv)
        den = den.scale(inv)
    return RationalFunction(num, den)
