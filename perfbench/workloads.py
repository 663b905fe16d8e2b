"""Workload corpora and the oracles that check every report.

A corpus is built from the seed before any timing starts.  It is a list of
units; a unit sends its requests through a `Client` (see ``run.py``) and
checks the reports against oracles that do not call the library: the
paper's theorems as relations between reports, and exact arithmetic on the
coefficients the benchmark generated itself.

Instances are generated the way ``tests/support.py`` does it (same random
draws), with the library's constructors only used to build and render the
generated subspaces, never to check an answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from locspan import (
    QQ,
    LinearSubspace,
    Polynomial,
    coordinate_vector,
    flat,
    has_free_rank,
    local_only_example,
    PrimeField,
    perp,
    span_over_field,
)
from locspan.cli import instance_from_matrix_subspace, instance_from_subspace

F5 = PrimeField(5)


@dataclass
class Corpus:
    """The units of one cycle and every instance text they send."""

    units: list
    texts: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Instance generation (the random draws of tests/support.py).

def _random_linear_form(rng, n, fld):
    terms = {}
    for j in range(n):
        c = rng.randint(-3, 3)
        if c:
            terms[tuple(1 if i == j else 0 for i in range(n))] = c
    return Polynomial(n, fld, terms)


def _random_vector_of_forms(rng, n, fld):
    while True:
        vec = tuple(_random_linear_form(rng, n, fld) for _ in range(n))
        if not all(c.is_zero() for c in vec):
            return vec


def random_subspace(rng, n, d, fld):
    while True:
        try:
            subspace = LinearSubspace(
                [_random_vector_of_forms(rng, n, fld) for _ in range(d)])
        except ValueError:
            continue
        if has_free_rank(subspace):
            return subspace


def subspace_containing_target(rng, n, d, fld):
    while True:
        vectors = [coordinate_vector(n, fld)]
        for _ in range(d - 1):
            vectors.append(_random_vector_of_forms(rng, n, fld))
        mix = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        zero = Polynomial.zero(n, fld)
        mixed = []
        for i in range(d):
            acc = [zero] * n
            for j in range(d):
                acc = [a + vectors[j][k].scale(mix[i][j])
                       for k, a in enumerate(acc)]
            mixed.append(tuple(acc))
        try:
            subspace = LinearSubspace(mixed)
        except ValueError:
            continue
        if has_free_rank(subspace) and span_over_field(subspace) is not None:
            return subspace


@dataclass(frozen=True)
class Instance:
    """A generated subspace as texts plus plain coefficient matrices.

    ``matrices[k][i][j]`` is the coefficient of ``y_{j+1}`` in component i
    of spanning vector k, as a `Fraction` (Q) or an int (``p`` set).
    """

    n: int
    d: int
    p: object
    contains: bool
    text: str
    complement_text: str
    matrices: tuple


def make_instance(subspace, contains, with_complement=False):
    p = subspace.field.p if isinstance(subspace.field, PrimeField) else None
    matrices = tuple(tuple(tuple(b[i, j] for j in range(b.cols))
                           for i in range(b.rows))
                     for b in subspace.coeff_matrices)
    complement = ""
    if with_complement:
        complement = instance_from_matrix_subspace(
            perp(flat(subspace))).canonical_text()
    return Instance(subspace.nvars, subspace.dim, p, contains,
                    instance_from_subspace(subspace).canonical_text(),
                    complement, matrices)


# ---------------------------------------------------------------------------
# Oracles on plain numbers.

def combines_to_target(inst: Instance, coefficients) -> bool:
    """Whether sum_k c_k * B_k is the identity matrix, i.e. sum c_k q_k = y."""
    n = inst.n
    if len(coefficients) != inst.d:
        return False
    for i in range(n):
        for j in range(n):
            total = sum(c * m[i][j] for c, m in zip(coefficients, inst.matrices))
            want = 1 if i == j else 0
            if inst.p is None:
                if total != want:
                    return False
            elif total % inst.p != want:
                return False
    return True


def parse_scalar(text: str, p):
    value = Fraction(text)
    if p is None:
        return value
    return value.numerator * pow(value.denominator, -1, p) % p


def det_calls_of_closure(n: int, d: int) -> int:
    """Determinants one holding closure decision computes at (n, d).

    Stratum s takes every s-minor of the n x d basis matrix and of the
    n x (d+1) augmented matrix; the last stratum only the augmented ones.
    """
    return sum(comb(n, s) * (comb(d, s) + comb(d + 1, s))
               for s in range(1, d + 1)) + comb(n, d + 1)


# ---------------------------------------------------------------------------
# family-ladder: the paper's local-only family over Q.

FAMILY_RUNGS = ((5, 4), (6, 5), (7, 6))
FAMILY_SMOKE_RUNGS = ((4, 3), (5, 4))


def family_ladder(seed: int, smoke: bool) -> Corpus:
    """The ladder is fixed by the paper, so every seed gives the same inputs."""
    rungs = FAMILY_SMOKE_RUNGS if smoke else FAMILY_RUNGS
    tags = {rungs[-2]: "mid", rungs[-1]: "top"}
    corpus = Corpus([])
    for n, d in rungs:
        inst = make_instance(local_only_example(n, d), False,
                             with_complement=True)
        corpus.texts += [inst.text, inst.complement_text]
        corpus.units.append(_ladder_unit(inst, tags.get((n, d))))
    return corpus


def _ladder_unit(inst: Instance, tag):
    n, d = str(inst.n), str(inst.d)

    def unit(client):
        example = client.call(["example", "--n", n, "--d", d, "--json"], "")
        client.expect(example, lambda r: r["outcome"] is True
                      and r["witness"]["instance"] == inst.text,
                      "example prints the ladder instance")
        local = client.call(["decide-local", "--method", "closure", "--json"],
                            inst.text, tag=tag)
        client.expect(local, lambda r: r["outcome"] is True, "closure holds")
        span_f = client.call(["decide-span-f", "--json"], inst.text)
        client.expect(span_f, lambda r: r["outcome"] is False,
                      "no base-field witness")
        span_l = client.call(["decide-span-l", "--json"], inst.text)
        client.expect(span_l, lambda r: r["outcome"] is True,
                      "fraction witness exists")
        client.verify(span_l)
        bounds = client.call(["witness-bounds", "--json"], inst.text)
        client.expect(bounds, lambda r: r["outcome"] is True,
                      "witness bounds ok")
        client.verify(bounds)
        r1free = client.call(["r1free", "--json"], inst.complement_text)
        client.expect(r1free, lambda r: r["outcome"] is True,
                      "complement is rank-1-idempotent free")

    return unit


# ---------------------------------------------------------------------------
# random-q-mix: seeded random instances over Q.

#: Instances of each (n, d) class in one cycle; half contain the target.
Q_CLASSES = (((4, 2), 48), ((5, 2), 24), ((5, 3), 6))
Q_SMOKE_CLASSES = (((3, 1), 2), ((4, 2), 2))


def random_q_mix(seed: int, smoke: bool) -> Corpus:
    rng = random.Random(seed)
    classes = Q_SMOKE_CLASSES if smoke else Q_CLASSES
    tags = {classes[-2][0]: "mid", classes[-1][0]: "top"}
    corpus = Corpus([])
    for (n, d), count in classes:
        for i in range(count):
            contains = i % 2 == 0
            subspace = (subspace_containing_target(rng, n, d, QQ) if contains
                        else random_subspace(rng, n, d, QQ))
            inst = make_instance(subspace, contains)
            corpus.texts.append(inst.text)
            corpus.units.append(_q_unit(inst, tags.get((n, d))))
    return corpus


def _q_unit(inst: Instance, tag):
    def unit(client):
        local = client.call(["decide-local", "--method", "closure", "--json"],
                            inst.text, tag=tag)
        span_f = client.call(["decide-span-f", "--json"], inst.text)
        span_l = client.call(["decide-span-l", "--json"], inst.text)
        bounds = client.call(["witness-bounds", "--json"], inst.text)
        if None in (local, span_f, span_l, bounds):
            return
        holds = local.report["outcome"]
        spanned = span_f.report["outcome"]
        if inst.contains:
            for reply, label in ((local, "closure"), (span_f, "span-f"),
                                 (span_l, "span-l"), (bounds, "witness-bounds")):
                client.expect(reply, lambda r: r["outcome"] is True,
                              f"target in span: {label} holds")
        if spanned:
            client.expect(span_f, lambda r: combines_to_target(
                inst, [parse_scalar(c, inst.p)
                       for c in r["witness"]["coefficients"]]),
                "span-f coefficients combine to y")
            client.expect(local, lambda r: r["outcome"] is True,
                          "base-field span implies local membership")
            client.expect(span_l, lambda r: r["outcome"] is True,
                          "base-field span implies fraction span")
        if inst.d <= 2:
            client.expect(local, lambda r: r["outcome"] == spanned,
                          "closure agrees with span-f for d <= 2")
        if not holds:
            checks = client.verify(local)
            client.expect(local, lambda r: checks is not None
                          and checks.get("minor_matches") is True
                          and checks.get("minor_outside_radical") is True,
                          "failing minor re-checked by verify")
        elif not spanned and inst.d > 2:
            client.note_uncovered()

    return unit


# ---------------------------------------------------------------------------
# prime-field: F5 instances and the F5 ladder; no Groebner bases.

F5_CLASSES = ((3, 24), (4, 24))
F5_SMOKE_CLASSES = ((3, 4),)
F5_RUNGS = ((4, 3), (5, 4), (6, 5))
F5_SMOKE_RUNGS = ((4, 3),)
#: The largest rung the exhaustive search runs on: 5^12 candidates at n = 6
#: exceed the default search budget (exit 3).
F5_SEARCH_MAX_N = 5


def prime_field(seed: int, smoke: bool) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus([])
    rungs = F5_SMOKE_RUNGS if smoke else F5_RUNGS
    for n, count in (F5_SMOKE_CLASSES if smoke else F5_CLASSES):
        for i in range(count):
            d = 1 + (i // 2) % (n - 1)
            contains = i % 2 == 0
            subspace = (subspace_containing_target(rng, n, d, F5) if contains
                        else random_subspace(rng, n, d, F5))
            inst = make_instance(subspace, contains, with_complement=True)
            corpus.texts += [inst.text, inst.complement_text]
            corpus.units.append(_f5_unit(inst, None, None))
    points_tag = rungs[-1]
    search_tag = max(r for r in rungs if r[0] <= F5_SEARCH_MAX_N)
    for n, d in rungs:
        inst = make_instance(local_only_example(n, d, F5), False,
                             with_complement=True)
        corpus.texts += [inst.text, inst.complement_text]
        corpus.units.append(_f5_unit(
            inst, "mid" if (n, d) == points_tag else None,
            "top" if (n, d) == search_tag else None, ladder=True))
    return corpus


def _f5_unit(inst: Instance, points_tag, search_tag, ladder=False):
    def unit(client):
        points = client.call(["decide-local", "--method", "points", "--json"],
                             inst.text, tag=points_tag)
        span_f = client.call(["decide-span-f", "--json"], inst.text)
        search = None
        if inst.n <= F5_SEARCH_MAX_N:
            search = client.call(["idempotent-search", "--json"],
                                 inst.complement_text, tag=search_tag)
        complement = client.call(["perp", "--json"], inst.complement_text)
        tracezero = client.call(["tracezero", "--json"], inst.complement_text)
        if None in (points, span_f, complement, tracezero):
            return
        holds = points.report["outcome"]
        spanned = span_f.report["outcome"]
        if ladder:
            client.expect(points, lambda r: r["outcome"] is True,
                          "ladder holds at every F5 point")
            client.expect(span_f, lambda r: r["outcome"] is False,
                          "ladder has no base-field witness")
        if inst.contains:
            client.expect(span_f, lambda r: r["outcome"] is True,
                          "target in span: span-f holds")
        if spanned:
            client.expect(span_f, lambda r: combines_to_target(
                inst, [parse_scalar(c, inst.p)
                       for c in r["witness"]["coefficients"]]),
                "span-f coefficients combine to y")
        if search is not None:
            client.expect(search, lambda r: (r["outcome"] is False) == holds,
                          "points hold iff the search finds nothing")
        client.expect(tracezero, lambda r: r["outcome"] == spanned,
                      "complement in trace-zero iff span-f")
        client.expect(complement, lambda r: r["witness"]["dim"] == inst.d,
                      "perp of the complement has dimension d")

    return unit


WORKLOADS = {
    "family-ladder": family_ladder,
    "random-q-mix": random_q_mix,
    "prime-field": prime_field,
}
