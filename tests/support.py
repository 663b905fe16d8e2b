"""Shared helpers: random instance generators and independent oracles."""

from fractions import Fraction

from locspan import (
    QQ,
    LinearSubspace,
    PolyMatrix,
    Polynomial,
    coordinate_vector,
    has_free_rank,
    span_over_field,
)


def variables(n, field=QQ):
    return [Polynomial.variable(i, n, field) for i in range(n)]


def const(value, n, field=QQ):
    return Polynomial.constant(value, n, field)


def random_polynomial(rng, n, field=QQ, max_degree=2, max_terms=4,
                      coeff_range=(-3, 3)):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = rng.randint(*coeff_range)
    return Polynomial(n, field, terms)


def random_nonzero_polynomial(rng, n, field=QQ, **kwargs):
    while True:
        p = random_polynomial(rng, n, field, **kwargs)
        if not p.is_zero():
            return p


def random_linear_form(rng, n, field=QQ, coeff_range=(-3, 3)):
    terms = {}
    for j in range(n):
        c = rng.randint(*coeff_range)
        if c:
            mono = tuple(1 if i == j else 0 for i in range(n))
            terms[mono] = c
    return Polynomial(n, field, terms)


def random_vector_of_forms(rng, n, field=QQ):
    while True:
        vec = tuple(random_linear_form(rng, n, field) for _ in range(n))
        if not all(c.is_zero() for c in vec):
            return vec


def random_subspace(rng, n, d, field=QQ):
    """A random spanning set of d vectors that is fraction-field independent."""
    while True:
        try:
            subspace = LinearSubspace(
                [random_vector_of_forms(rng, n, field) for _ in range(d)])
        except ValueError:
            continue
        if has_free_rank(subspace):
            return subspace


def subspace_containing_target(rng, n, d, field=QQ):
    """A random independent spanning set whose base-field span contains y."""
    while True:
        vectors = [coordinate_vector(n, field)]
        for _ in range(d - 1):
            vectors.append(random_vector_of_forms(rng, n, field))
        mix = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        zero = Polynomial.zero(n, field)
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


def reference_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Independent product oracle: the field's own ``mul`` and ``add`` on
    every pair of terms, where `Polynomial.__mul__` multiplies cleared int
    term maps."""
    a._check(b)
    field = a.field
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            c = field.mul(c1, c2)
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                s = field.add(acc, c)
                if s == field.zero:
                    del out[m]
                else:
                    out[m] = s
    return Polynomial._raw(a.nvars, field, out)


def cofactor_det(matrix: PolyMatrix) -> Polynomial:
    """Independent determinant oracle: recursive cofactor expansion."""
    n = matrix.rows
    assert n == matrix.cols
    if n == 1:
        return matrix[0, 0]
    total = Polynomial.zero(matrix.nvars, matrix.field)
    rest_rows = range(1, n)
    for j in range(n):
        entry = matrix[0, j]
        if entry.is_zero():
            continue
        cols = [c for c in range(n) if c != j]
        minor = cofactor_det(matrix.submatrix(rest_rows, cols))
        term = reference_mul(entry, minor)
        total = total + (term if j % 2 == 0 else -term)
    return total
