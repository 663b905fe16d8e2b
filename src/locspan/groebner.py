"""Buchberger's algorithm, reduced Groebner bases, and ideal/radical membership.

The monomial order is fixed: graded reverse lexicographic, the order of
`exactalg`.  The S-pair loop uses the product and chain criteria with the
normal selection strategy (smallest lcm degree first, ties by index pair),
and the final basis is inter-reduced and monic, hence canonical for the
ideal.  That selection order is kept by a heap of pairs, each keyed once on
insertion, so every S-pair is the one a scan over all pairs would pick.
`buchberger` reduces packed int forms with `exactalg.reduce_packed`, so a
wrapper set on ``groebner.normal_form`` (re-exported and looked up here)
sees the membership tests only.  Radical membership adjoins a fresh last
variable ``t`` and tests whether 1 lies in ``I + <1 - t*f>``, unless a
caller's refuter has proved f outside the radical first.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd
from typing import Callable, Iterable, Optional

from .exactalg import (
    Field,
    Polynomial,
    normal_form,
    pack_monomial,
    packed_heap,
    packed_lcm,
    packed_masks,
    packed_width,
    primitive_form,
    reduce_packed,
    subtract_shifted,
    unpack_monomial,
)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis; canonical for its ideal."""

    polys: tuple

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.polys).is_zero()

    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.polys)


def s_pair(forms: list, i: int, j: int, lcm: int, low: int, p: int):
    """``(work, heap)`` for `reduce_packed`: the S-polynomial of ``f, g =
    forms[i], forms[j]``, ``a*x^(L-lm f)*tail(f) - b*x^(L-lm g)*tail(g)`` for
    ``L = lcm``, ``c = gcd(lc f, lc g)``, ``a = lc g/c`` and ``b = lc f/c``."""
    (flm, flc, ftail), (glm, glc, gtail) = forms[i], forms[j]
    c = gcd(flc, glc)
    work, heap = {}, []
    subtract_shifted(work, heap, low, ftail, lcm - flm, -(glc // c), p)
    subtract_shifted(work, heap, low, gtail, lcm - glm, flc // c, p)
    return work, heap


def buchberger(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by the generators, found
    on packed int forms (`integer_form`) at one width, repacked wider when
    a pair's lcm degree passes its capacity."""
    gens = [g for g in generators if g]
    if not gens:
        return GroebnerBasis(())
    n, field, p = gens[0].nvars, gens[0].field, gens[0].field.characteristic
    width = packed_width(max(g.total_degree() for g in gens))
    guard, low = packed_masks(n, width)
    forms = [g.integer_form(width) for g in gens]
    forms = list({(lm, lc, frozenset(tail)): (lm, lc, tail)  # drop repeats
                  for lm, lc, tail in forms}.values())
    lms = [form[0] for form in forms]
    # Pairs wait in a heap ordered by (lcm degree, i, j); ``pairs`` holds
    # the ones still queued, which the chain criterion asks about.
    queue = []
    pairs = set()

    def add_pair(i, j):
        degree, lcm = packed_lcm(lms[i], lms[j], width, guard, low)
        heappush(queue, (degree, i, j, lcm))
        pairs.add((i, j))

    for j in range(len(forms)):
        for i in range(j):
            add_pair(i, j)

    while queue:
        degree, i, j, lcm = heappop(queue)
        pairs.discard((i, j))
        if lcm == lms[i] + lms[j]:
            continue  # product criterion: coprime leading monomials
        if degree >> (width - 1):  # past the capacity: repack wider
            old, width = width, packed_width(degree)
            guard, low = packed_masks(n, width)
            def repack(m):
                return pack_monomial(unpack_monomial(m, n, old), width)
            forms[:] = [(repack(lm), lc, tuple((repack(m), c) for m, c in tail))
                        for lm, lc, tail in forms]
            lms[:] = [form[0] for form in forms]
            queue[:] = [(d, a, b, repack(m)) for d, a, b, m in queue]
            lcm = repack(lcm)
        guarded = lcm | guard
        if any((guarded - lm) & guard == guard and k != i and k != j
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, lm in enumerate(lms)):
            continue  # chain criterion: both side pairs handled
        work, heap = s_pair(forms, i, j, lcm, low, p)
        remainder = reduce_packed(work, heap, forms, guard, low, p)[1]
        if not remainder:
            continue
        forms.append(primitive_form(remainder, next(iter(remainder)), p))
        lms.append(forms[-1][0])
        new = len(forms) - 1
        for k in range(new):
            add_pair(k, new)

    # minimalize: drop elements whose leading monomial another one divides;
    # ``m - 2*(m & low)`` orders packed monomials grevlex-ascending
    kept = []
    for i in sorted(range(len(forms)), key=lambda i: lms[i] - 2 * (lms[i] & low)):
        guarded = lms[i] | guard
        if not any((guarded - lms[k]) & guard == guard for k in kept):
            kept.append(i)
    reduced = [forms[i] for i in kept]

    # inter-reduce to the unique reduced basis: reduction keeps every leading
    # monomial of a minimal basis, so one pass leaves no reducible term
    for i, (lm, lc, tail) in enumerate(reduced):
        work = {lm: lc, **dict(tail)}
        remainder = reduce_packed(work, packed_heap(work, low),
                                  reduced[:i] + reduced[i + 1:], guard, low, p)[1]
        reduced[i] = primitive_form(remainder, lm, p)

    reduced.sort(key=lambda form: 2 * (form[0] & low) - form[0])
    return GroebnerBasis(tuple(
        Polynomial.from_cleared(n, field, lc, {
            unpack_monomial(m, n, width): c for m, c in ((lm, lc), *tail)})
        for lm, lc, tail in reduced))


class Ideal:
    """An ideal given by generators; zero generators are dropped."""

    def __init__(self, generators: Iterable[Polynomial],
                 nvars: Optional[int] = None, field: Optional[Field] = None):
        gens = tuple(g for g in generators if not g.is_zero())
        if gens:
            nvars = gens[0].nvars if nvars is None else nvars
            field = gens[0].field if field is None else field
            for g in gens:
                if g.nvars != nvars or g.field != field:
                    raise ValueError("generators live in different rings")
        elif nvars is None or field is None:
            raise ValueError("the zero ideal needs explicit nvars and field")
        self.generators = gens
        self.nvars = nvars
        self.field = field
        self._groebner: Optional[GroebnerBasis] = None

    def is_zero(self) -> bool:
        return not self.generators

    def groebner(self) -> GroebnerBasis:
        """Reduced Groebner basis, computed once and cached."""
        if self._groebner is None:
            self._groebner = buchberger(self.generators)
        return self._groebner

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal<{inside}>"


def radical_membership(f: Polynomial, ideal: Ideal,
                       refuter: Optional[Callable] = None) -> bool:
    """Whether some power of ``f`` lies in the ideal.

    Membership of ``f`` or ``f^2`` is checked first as a fast path.  Then
    ``refuter(f)``, when given, may prove f outside the radical by returning
    True (as at a point of the ideal's zero set where f is nonzero, see
    `localmem.LinearSubspace.pencil_point`).  Otherwise a fresh last
    variable ``t`` is adjoined, and f lies in the radical exactly when 1
    lies in ``I + <1 - t*f>``.
    """
    if f.is_zero():
        return True
    if ideal.is_zero():
        return False
    gb = ideal.groebner()
    if gb.contains(f):
        return True
    if gb.contains(f * f):
        return True
    if refuter is not None and refuter(f):
        return False
    ext = f.nvars + 1
    t = Polynomial.variable(f.nvars, ext, f.field)
    one = Polynomial.one(ext, f.field)
    lifted = [g.extend(ext) for g in gb.polys]
    lifted.append(one - t * f.extend(ext))
    result = buchberger(lifted)
    return result.contains_one()
