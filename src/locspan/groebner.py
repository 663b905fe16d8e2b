"""Buchberger's algorithm, reduced Groebner bases, and ideal/radical membership.

The monomial order is fixed: graded reverse lexicographic, the order of
`exactalg`.  The S-pair loop uses the product and chain criteria with the
normal selection strategy (smallest lcm degree first, ties by index pair),
and the final basis is inter-reduced and monic, hence canonical for the
ideal.  That selection order is kept by a heap of pairs, each keyed once on
insertion, so every S-pair is the one a scan over all pairs would pick.
Reduction is `exactalg.normal_form`, which this module re-exports under
its own name and looks up here, so a wrapper set on
``groebner.normal_form`` sees every reduction this module makes.  Radical
membership adjoins a fresh last variable ``t`` and tests whether 1 lies in
``I + <1 - t*f>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Optional

from .exactalg import (
    Field,
    Polynomial,
    grevlex_key,
    monic,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    normal_form,
)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial, with both leading terms scaled to cancel."""
    flm, flc = f.leading_term()
    glm, glc = g.leading_term()
    lcm = monomial_lcm(flm, glm)
    field = f.field
    mf = Polynomial._raw(f.nvars, field,
                         {monomial_div(lcm, flm): field.inv(flc)})
    mg = Polynomial._raw(g.nvars, field,
                         {monomial_div(lcm, glm): field.inv(glc)})
    return mf * f - mg * g


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis; canonical for its ideal."""

    polys: tuple

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.polys).is_zero()

    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.polys)


def buchberger(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by the generators."""
    gens = [monic(g) for g in generators if not g.is_zero()]
    basis = []
    lms = []
    for g in gens:
        if g not in basis:
            basis.append(g)
            lms.append(g.leading_monomial())
    # Pairs wait in a heap ordered by (lcm degree, i, j); ``pairs`` holds
    # the ones still queued, which the chain criterion asks about.
    queue = []
    pairs = set()

    def add_pair(i, j):
        lcm = monomial_lcm(lms[i], lms[j])
        heappush(queue, (sum(lcm), i, j, lcm))
        pairs.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            add_pair(i, j)

    while queue:
        degree, i, j, lcm = heappop(queue)
        pairs.discard((i, j))
        if degree == sum(lms[i]) + sum(lms[j]):
            continue  # product criterion: coprime leading monomials
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_divides(lms[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    skip = True  # chain criterion: both side pairs handled
                    break
        if skip:
            continue
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder.is_zero():
            continue
        remainder = monic(remainder)
        basis.append(remainder)
        lms.append(remainder.leading_monomial())
        new = len(basis) - 1
        for k in range(new):
            add_pair(k, new)

    # minimalize: drop elements whose leading monomial another one divides
    order_by_lm = sorted(range(len(basis)), key=lambda i: grevlex_key(lms[i]))
    kept = []
    for i in order_by_lm:
        if not any(monomial_divides(lms[k], lms[i]) for k in kept):
            kept.append(i)
    reduced = [basis[i] for i in kept]

    # inter-reduce to the unique reduced basis: reduction keeps every leading
    # monomial of a minimal basis, so one pass leaves no reducible term
    for i in range(len(reduced)):
        reduced[i] = monic(normal_form(reduced[i], reduced[:i] + reduced[i + 1:]))

    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()), reverse=True)
    return GroebnerBasis(tuple(reduced))


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


def radical_membership(f: Polynomial, ideal: Ideal) -> bool:
    """Whether some power of ``f`` lies in the ideal.

    Decided by adjoining a fresh last variable ``t`` and testing whether 1
    lies in ``I + <1 - t*f>``; membership of ``f`` or ``f^2`` is checked
    first as a fast path.
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
    ext = f.nvars + 1
    t = Polynomial.variable(f.nvars, ext, f.field)
    one = Polynomial.one(ext, f.field)
    lifted = [g.extend(ext) for g in gb.polys]
    lifted.append(one - t * f.extend(ext))
    result = buchberger(lifted)
    return result.contains_one()
