"""Decision procedures for subspaces of vectors of linear forms.

A subspace is spanned by vectors whose components are homogeneous linear
polynomials.  The procedures here decide whether the coordinate vector
(y1, ..., yn) lies in the span with base-field coefficients, with
rational-function coefficients (producing a Cramer witness with reduced
fractions), and "locally": whether at every point of affine space over the
algebraic closure the evaluated coordinate vector lies in the evaluated
span.  The local decision is exact, via radical membership of augmented
minors in the determinantal ideals of the basis matrix, with a rank test
that settles low strata and a point that refutes failing minors of the top
stratum; a finite-field point-enumeration variant serves as an independent
check at rational points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, lcm
from operator import mul
from typing import Optional, Sequence

from .exactalg import (
    QQ,
    Field,
    Polynomial,
    PrimeField,
    RationalFunction,
    coordinate_vector,
    poly_gcd,
    poly_lcm,
    reduce_fraction,
    try_exact_div,
    upoly_divmod,
    upoly_gcd,
    upoly_mul,
    upoly_sub,
    upoly_trim,
)
from .groebner import Ideal, radical_membership
from .polymat import (
    PolyMatrix,
    ScalarMatrix,
    _rref,
    independent,
    nullspace_over_field,
    solve_over_field,
)


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


#: Default cap on the number of points a finite-field enumeration may visit.
DEFAULT_POINT_BUDGET = 1_000_000

#: The prime modulo which the closure's shortcuts check a Q instance: the
#: rank of a stratum's minors and the value of a minor at the pencil point.
#: A rank can only drop mod p and a value only vanish, so a full rank or a
#: nonzero value mod p proves the same over Q.
CHECK_PRIME = 2 ** 31 - 1
_CHECK_FIELD = PrimeField(CHECK_PRIME)


def _is_linear_form(p: Polynomial) -> bool:
    return p.is_zero() or p.homogeneous_degree() == 1


def _linear_coefficients(p: Polynomial) -> list:
    """Coefficient row of a linear form: entry i is the coefficient of y_{i+1}."""
    field = p.field
    row = [field.zero] * p.nvars
    for mono, coeff in p.terms.items():
        row[mono.index(1)] = coeff
    return row


def unflat(matrix: ScalarMatrix) -> tuple:
    """The vector of linear forms ``b . y`` of a square matrix ``b``."""
    if matrix.rows != matrix.cols:
        raise ValueError("unflat needs a square matrix")
    y = coordinate_vector(matrix.rows, matrix.field)
    zero = Polynomial.zero(matrix.rows, matrix.field)
    return tuple(sum((y[j].scale(c) for j, c in enumerate(row)), zero)
                 for row in matrix.entries)


class LinearSubspace:
    """A spanning list of vectors of linear forms, with coefficient matrices.

    Each spanning vector ``q`` satisfies ``q = b . y`` for a unique scalar
    matrix ``b``; the matrices are derived on construction.  The list is not
    required to be linearly independent (see `has_free_rank`), but zero
    vectors and non-linear components are rejected.
    """

    def __init__(self, vectors: Sequence[Sequence[Polynomial]]):
        vectors = tuple(tuple(v) for v in vectors)
        if not vectors:
            raise ValueError("a subspace needs at least one spanning vector")
        first = vectors[0][0]
        nvars, field = first.nvars, first.field
        for vec in vectors:
            if len(vec) != nvars:
                raise ValueError(
                    f"vector has {len(vec)} components, expected {nvars}")
            for comp in vec:
                first._check(comp)
                if not _is_linear_form(comp):
                    raise ValueError(f"component {comp} is not a linear form")
            if all(comp.is_zero() for comp in vec):
                raise ValueError("zero vectors are not allowed in a basis")
        if len(vectors) > nvars:
            raise ValueError("more spanning vectors than ambient dimension")
        self.nvars = nvars
        self.field = field
        self.dim = len(vectors)
        self.basis = vectors
        self.coeff_matrices = tuple(
            ScalarMatrix([_linear_coefficients(comp) for comp in vec], field)
            for vec in vectors)

    @cached_property
    def basis_matrix(self) -> PolyMatrix:
        """The n x d matrix whose columns are the spanning vectors."""
        return PolyMatrix.from_columns(self.basis)

    @cached_property
    def pivot_rows(self) -> tuple:
        """The lexicographically first rows of a basis over the fraction field."""
        return self.basis_matrix.pivot_rows()

    def coordinate_target(self) -> tuple:
        """The coordinate vector y = (y1, ..., yn) every decision asks about."""
        return coordinate_vector(self.nvars, self.field)

    def augmented_matrix(self) -> PolyMatrix:
        """The basis matrix with y appended as its last column."""
        return PolyMatrix.from_columns(self.basis + (self.coordinate_target(),))

    @cached_property
    def point_table(self) -> tuple:
        """``(width, table)`` over F_p: entry j of ``table[i]`` packs, in
        fields of ``width`` bits from the bottom, the y_{j+1} coefficients
        of q_1[i] .. q_d[i] and of y[i], so that ``sum_j a_j table[i][j]``
        packs row i of the augmented matrix at the point a.  For a in
        ``[0, p)^n`` a field holds at most ``n (p-1)^2``, which ``width``
        bits hold with one to spare, so no field carries into the next."""
        p, n, d = self.field.characteristic, self.nvars, self.dim
        width = (n * (p - 1) ** 2).bit_length() + 1
        table = tuple(
            tuple(sum(b.entries[i][j] << (k * width)
                      for k, b in enumerate(self.coeff_matrices))
                  + ((i == j) << (d * width)) for j in range(n))
            for i in range(n))
        return width, table

    @cached_property
    def pencil_point(self) -> Optional["PencilPoint"]:
        """A point where the basis matrix drops rank, over F_p[x]/(h).

        Take the pencil M(x) = x Q_1 + sum_{j >= 2} (j - 1) Q_j of the
        coefficient matrices, g = det M and h = g / gcd(g, g'), which is
        squarefree with roots among those of g.  For v = adj M u, u the
        all-ones vector, M v = g u, so at a root a of h the vector v(a) is
        in the kernel of M(a): sum_j c_j q_j(v(a)) = 0 for c = (a, 1, 2,
        ...) != 0, and rank B(v(a)) < d.  A polynomial f with f(v) != 0
        mod h is nonzero at such a point, so it lies outside the radical of
        I_d; no inverse mod h is needed.

        Over F_p everything is computed in F_p.  Over Q, g and v come from
        M cleared of denominators over Z, and h and f(v) mod h are taken
        mod p = `CHECK_PRIME`, which must not divide lc(g): if f(v)
        vanished at every root of g, g would divide f(v)^n with a quotient
        integral at p, so every root of g mod p would be one of f(v) mod p,
        and h, squarefree, would divide f(v) mod p.  None when d = 1
        (c = (a) may be 0), g = 0, p divides lc(g), h is constant or
        v = 0 mod h.
        """
        n, d, p = self.nvars, self.dim, self.field.characteristic
        if d < 2:
            return None
        first, *rest = self.coeff_matrices
        pencil = [[(sum(r * b.entries[i][k] for r, b in enumerate(rest, 1)),
                    first.entries[i][k]) for k in range(n)] for i in range(n)]
        scale = 1 if p else lcm(*(c.denominator for row in pencil
                                   for pair in row for c in pair))
        kernel = _det_and_adjugate_sum(
            [[upoly_trim([int(c * scale) % p if p else int(c * scale)
                          for c in pair]) for pair in row] for row in pencil], p)
        q = p or CHECK_PRIME
        if kernel is None or kernel[0][-1] % q == 0:
            return None
        inv = pow(kernel[0][-1], -1, q)
        g = [c * inv % q for c in kernel[0]]  # monic, and so is h
        derivative = upoly_trim([k * c % q for k, c in enumerate(g)][1:])
        h = upoly_divmod(g, upoly_gcd(g, derivative, q), q)[0]
        if len(h) < 2:
            return None
        v = [upoly_divmod([c % q for c in comp], h, q)[1] for comp in kernel[1]]
        return PencilPoint(q, h, v) if any(v) else None

    def refutes_at_point(self, f: Polynomial) -> bool:
        """Whether ``f`` is nonzero at `pencil_point`, built on first use,
        which proves that f lies outside the radical of I_d."""
        point = self.pencil_point
        return point is not None and point.refutes(f)

    def __repr__(self):
        return (f"LinearSubspace(n={self.nvars}, d={self.dim}, "
                f"field={self.field!r})")


def _residue(c, p: int):
    """A field value mod ``p``: over F_p it is one already; over Q, None
    when p divides its denominator."""
    if type(c) is not Fraction:
        return c
    return None if c.denominator % p == 0 else \
        c.numerator * pow(c.denominator, -1, p) % p


def _det_and_adjugate_sum(rows: list, p: int) -> Optional[tuple]:
    """``(g, v)`` for a square matrix M of `upoly_mul` lists over Z (``p``
    0) or F_p: g = +-det M and v = +-adj(M) u for the all-ones vector u,
    the sum of the adjugate's columns, one sign for both; None when the det
    is 0.  Where M(a) has corank 1, adj M(a) = k w^T for kernel vectors k
    of M(a) and w of its transpose, so v(a) = (w . u) k vanishes only when
    w is orthogonal to u.  One column e_i of adj M would vanish wherever
    w_i = 0, as at all roots but one of a diagonal M.

    Fraction-free Gauss-Jordan elimination on ``[M | u]``: after pivot k
    every entry is a minor of that matrix (Bareiss), so the division by the
    previous pivot is exact, and at the end the left block is g I and the
    last column g M^-1 u for the row-permuted M, whose u is the same.
    """
    n = len(rows)
    a = [row + [[1]] for row in rows]
    prev = [1]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k]
        for i, row in enumerate(a):
            if i == k:
                continue
            for j in range(k + 1, n + 1):
                num = upoly_sub(upoly_mul(top[k], row[j], p),
                                upoly_mul(row[k], top[j], p), p)
                row[j] = upoly_divmod(num, prev, p)[0] if k else num
        prev = top[k]
    return prev, [row[n] for row in a]


class PencilPoint:
    """The point of `LinearSubspace.pencil_point`: ``h`` monic and
    squarefree mod ``p``, and ``v`` its n coordinates, residues mod h."""

    def __init__(self, p: int, h: list, v: list):
        self.p, self.h, self.v = p, h, v
        self._monomials = {(0,) * len(v): [1]}

    def _monomial(self, mono: tuple) -> list:
        """``v^mono`` mod h, each from one of lower degree, found once."""
        value = self._monomials.get(mono)
        if value is None:
            i = next(i for i, e in enumerate(mono) if e)
            lower = self._monomial(mono[:i] + (mono[i] - 1,) + mono[i + 1:])
            value = self._monomials[mono] = upoly_divmod(
                upoly_mul(lower, self.v[i], self.p), self.h, self.p)[1]
        return value

    def refutes(self, f: Polynomial) -> bool:
        """Whether f(v) != 0 mod h; False when p divides a denominator."""
        p, total = self.p, [0] * (len(self.h) - 1)
        for mono, c in f.terms.items():
            c = _residue(c, p)
            if c is None:
                return False
            for k, x in enumerate(self._monomial(mono)):
                total[k] += c * x
        return any(x % p for x in total)


@dataclass(frozen=True)
class CramerWitness:
    """Fraction coefficients expressing y in the span.

    ``index_set`` is the 0-based row set whose basis minor was used as the
    Cramer denominator; ``lambdas`` are the reduced coefficients and
    ``denominator_lcm`` the lcm of their denominators.
    """

    index_set: tuple
    lambdas: tuple
    denominator_lcm: Polynomial


@dataclass(frozen=True)
class MinorFailure:
    """An augmented minor outside the radical of the basis minor ideal."""

    stratum: int
    rows: tuple
    cols: tuple
    minor: Polynomial


@dataclass(frozen=True)
class PointFailure:
    """A rational point where the augmented matrix jumps in rank."""

    point: tuple
    rank_basis: int
    rank_augmented: int


@dataclass(frozen=True)
class LocalDecision:
    """Outcome of a local membership decision, with a failure witness."""

    holds: bool
    method: str
    failure_witness: object = None


@dataclass(frozen=True)
class WitnessBoundsReport:
    """Structural checks on a Cramer witness.

    ``fractions_ok``: every nonzero coefficient has coprime homogeneous
    numerator and denominator of equal degree at most d, monic denominator,
    and zero coefficients have denominator 1.  ``divisibility_ok``: the lcm
    of the denominators divides every maximal basis minor.
    """

    identity_ok: bool
    fractions_ok: bool
    divisibility_ok: bool
    lcm_degree: int
    dimension: int
    lambda_degrees: tuple

    @property
    def lcm_degree_below_dim(self) -> bool:
        return self.lcm_degree < self.dimension

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.fractions_ok and self.divisibility_ok


def has_free_rank(subspace: LinearSubspace) -> bool:
    """Whether the spanning vectors stay independent over the fraction field."""
    return len(subspace.pivot_rows) == subspace.dim


def combination(subspace: LinearSubspace, coefficients: Sequence) -> tuple:
    """The vector ``sum_j c_j q_j`` for scalar or polynomial ``c_j``."""
    zero = Polynomial.zero(subspace.nvars, subspace.field)
    return tuple(sum((q[comp] * c for c, q in zip(coefficients, subspace.basis)),
                     zero)
                 for comp in range(subspace.nvars))


def denominator_lcm(lambdas: Sequence[RationalFunction]) -> Polynomial:
    """The lcm of the denominators, folded from 1 so that it is monic."""
    first = lambdas[0].denominator
    return reduce(poly_lcm, (lam.denominator for lam in lambdas),
                  Polynomial.one(first.nvars, first.field))


def span_over_field(subspace: LinearSubspace) -> Optional[tuple]:
    """Base-field coefficients with ``y = sum c_i q_i``, or None.

    Solved as ``sum c_i B_i = I`` over the coefficient matrices; when a
    solution exists the one with free variables set to 0 is returned.
    """
    field = subspace.field
    system = ScalarMatrix.from_columns(
        [b.vector() for b in subspace.coeff_matrices], field)
    return solve_over_field(
        system, ScalarMatrix.identity(subspace.nvars, field).vector())


def span_over_fractions(subspace: LinearSubspace) -> Optional[CramerWitness]:
    """Cramer witness for membership of y in the fraction-field span.

    Requires an independent spanning set (`has_free_rank`).  On the first
    row set I (lexicographically) with a nonzero maximal minor, one
    `kernel` of q_1, ..., q_d, y restricted to I gives det Q_I and the d
    Cramer numerators; they are verified on all components, so None means
    y genuinely lies outside the span.
    """
    if not has_free_rank(subspace):
        raise ValueError("spanning vectors are dependent over the fraction field")
    y = subspace.coordinate_target()
    index_set = subspace.pivot_rows
    *numerators, det_q = PolyMatrix([[v[i] for i in index_set]
                                     for v in subspace.basis + (y,)]).kernel()
    det_q = -det_q  # the kernel holds (mu, -det) up to sign
    # sum_j mu_j q_j = det * y clears the denominators of the check
    if combination(subspace, numerators) != tuple(det_q * comp for comp in y):
        return None
    lambdas = tuple(reduce_fraction(mu, det_q) for mu in numerators)
    return CramerWitness(index_set, lambdas, denominator_lcm(lambdas))


def cramer_identity_holds(witness: CramerWitness,
                          subspace: LinearSubspace) -> bool:
    """Whether ``sum_j (m / den_j) num_j q_j = m y`` for the lcm ``m``.

    It holds only if the basis minor on ``index_set`` is nonzero, as
    Cramer's rule on those rows needs.
    """
    m = witness.denominator_lcm
    index_minor = subspace.basis_matrix.submatrix(
        witness.index_set, range(subspace.dim)).det()
    cofactors = [try_exact_div(m, lam.denominator) for lam in witness.lambdas]
    return (
        not index_minor.is_zero() and all(c is not None for c in cofactors)
        and combination(subspace, [lam.numerator * c for lam, c
                                   in zip(witness.lambdas, cofactors)])
        == tuple(m * comp for comp in subspace.coordinate_target()))


def verify_witness_bounds(witness: CramerWitness,
                          subspace: LinearSubspace) -> WitnessBoundsReport:
    """Re-check a Cramer witness: identity, degree/coprimality shape, and
    divisibility of every maximal basis minor by the denominator lcm, which
    Cramer's rule proves for an lcm of reduced fractions (others enumerate)."""
    n, d = subspace.nvars, subspace.dim
    field = subspace.field
    m = witness.denominator_lcm
    q = subspace.basis_matrix
    identity_ok = cramer_identity_holds(witness, subspace)

    fractions_ok, degrees = True, []
    for lam in witness.lambdas:
        num, den = lam.numerator, lam.denominator
        if num.is_zero():
            degrees.append((None, 0))
            fractions_ok = fractions_ok and den.is_one()
            continue
        deg_num, deg_den = num.homogeneous_degree(), den.homogeneous_degree()
        degrees.append((deg_num, deg_den))
        # the gcd, the costly test, runs only while the others hold
        fractions_ok = (fractions_ok and deg_num is not None
                        and deg_num == deg_den <= d
                        and den.leading_coefficient() == field.one
                        and poly_gcd(num, den).is_one())

    # Cramer's rule on any row set J with det Q_J != 0 makes each
    # lambda_j det Q_J a polynomial, so a reduced denominator divides
    # det Q_J, and so does the lcm of them all; m divides a zero minor too
    divisibility_ok = (identity_ok and fractions_ok
                       and m == denominator_lcm(witness.lambdas)) or all(
        try_exact_div(q.submatrix(rows, range(d)).det(), m) is not None
        for rows in itertools.combinations(range(n), d))
    return WitnessBoundsReport(
        identity_ok=identity_ok, fractions_ok=fractions_ok,
        divisibility_ok=divisibility_ok,
        lcm_degree=int(m.total_degree()) if m else 0, dimension=d,
        lambda_degrees=tuple(degrees))


def stratum_ideal(subspace: LinearSubspace, s: int) -> Ideal:
    """The ideal of all s x s basis minors; the zero ideal for ``s > d``."""
    minors = subspace.basis_matrix.minors(s) if s <= subspace.dim else []
    return Ideal([m for _, _, m in minors], nvars=subspace.nvars,
                 field=subspace.field)


def spans_all_monomials(ideal: Ideal, s: int) -> bool:
    """Whether the generators, forms of degree ``s``, span all C(n+s-1, s)
    monomials of degree s, so that every form of degree s lies in the ideal.

    False at once when fewer distinct generators than monomials exist.
    Over Q the rank is taken mod `CHECK_PRIME`, where it can only be lower,
    and the test says False when p divides a denominator.
    """
    count = comb(ideal.nvars + s - 1, s)
    generators = set(ideal.generators)
    if len(generators) < count:
        return False
    field = ideal.field if ideal.field.characteristic else _CHECK_FIELD
    p, columns, sparse = field.characteristic, {}, []
    for g in generators:
        row = {}
        for mono, c in g.terms.items():
            row[columns.setdefault(mono, len(columns))] = c = _residue(c, p)
            if c is None:
                return False
        sparse.append(row)
    if len(columns) < count:
        return False
    rows = [[row.get(k, 0) for k in range(count)] for row in sparse]
    return len(_rref(rows, field)) == count


def ranks_at(subspace: LinearSubspace, point: Sequence) -> tuple:
    """Ranks of the basis matrix and of the augmented matrix at ``point``,
    from one elimination: pivots come left to right, so the basis rank is
    the number of pivots left of column d."""
    n, d, field = subspace.nvars, subspace.dim, subspace.field
    if len(point) != n:
        raise ValueError(f"point has {len(point)} coordinates, expected {n}")
    p = field.characteristic
    if p:
        # row i is unpacked field by field from one sum of products with
        # subspace.point_table, the point normalised into [0, p) first
        point = [field.normalize(x) for x in point]
        width, table = subspace.point_table
        mask = (1 << width) - 1
        shifts = range(0, (d + 1) * width, width)
        rows = []
        for packed in table:
            value = sum(map(mul, point, packed))
            rows.append([(value >> s & mask) % p for s in shifts])
    else:
        # row i holds q_1(point)[i] .. q_d(point)[i] and point[i], each a
        # plain dot product normalised once
        rows = [[field.normalize(sum(c * x for c, x in zip(b.entries[i], point)))
                 for b in subspace.coeff_matrices] + [field.normalize(point[i])]
                for i in range(n)]
    pivots = _rref(rows, field)
    return sum(c < d for c in pivots), len(pivots)


def local_membership_closure(subspace: LinearSubspace) -> LocalDecision:
    """Exact local membership decision over the algebraic closure.

    For every point ``a`` the evaluated coordinate vector must lie in the
    evaluated span, i.e. the augmented matrix may never jump in rank.  Per
    stratum ``s`` this is equivalent to: every s x s minor of the augmented
    matrix using the target column lies in the radical of the ideal of all
    s x s basis minors (the stratum ``s = d + 1`` has the zero ideal, so
    those minors must vanish identically).  The first failing minor in the
    fixed enumeration order is reported.

    Two shortcuts leave every verdict as it is.  A stratum s < d whose basis
    minors span all monomials of degree s holds with no basis
    (`spans_all_monomials`): every target minor is a form of degree s.  At
    s = d a minor that misses the fast paths of `radical_membership` is
    refuted at `LinearSubspace.pencil_point` when it is nonzero there,
    before any Rabinowitsch basis.  Every minor is still built, holding
    strata included, one `det()` each.
    """
    n, d = subspace.nvars, subspace.dim
    if d >= n:
        raise ValueError("local membership decision requires dim < n")
    augmented = subspace.augmented_matrix()
    for s in range(1, d + 2):
        minor_ideal = stratum_ideal(subspace, s)
        minors = augmented.minors(s)
        if s < d and spans_all_monomials(minor_ideal, s):
            continue
        refuter = subspace.refutes_at_point if s == d else None
        for rows, cols, minor in minors:
            if d not in cols:
                continue  # only minors that involve the target column
            if not radical_membership(minor, minor_ideal, refuter):
                return LocalDecision(
                    holds=False, method="closure_radical",
                    failure_witness=MinorFailure(s, rows, cols, minor))
    return LocalDecision(holds=True, method="closure_radical")


def _projective_representatives(p: int, n: int):
    """Nonzero vectors of ``F_p^n`` whose first nonzero coordinate is 1, in
    lexicographic order: one class of leading zeros at a time, most first."""
    for k in range(n - 1, -1, -1):
        head = (0,) * k + (1,)
        for tail in itertools.product(range(p), repeat=n - k - 1):
            yield head + tail


def local_membership_points(subspace: LinearSubspace,
                            budget: int = DEFAULT_POINT_BUDGET) -> LocalDecision:
    """Local membership at all rational points of a prime-field instance.

    Compares the rank of the evaluated basis matrix with the rank of the
    augmented one at every point of ``F_p^n``.  Entries are linear forms, so
    both ranks are the same at ``c a`` as at ``a`` for ``c != 0``, and the
    zero point never fails: only the projective representatives (first
    nonzero coordinate 1) are evaluated, in lexicographic order.  The least
    member of a failing class is its representative, so the first failure
    found is the lexicographically first failing point.  ``budget`` caps
    ``p^n``, the size of the space decided.  Necessary for the closure
    property, and equivalent to it in the rational-point statements used
    for matrix subspaces.
    """
    field = subspace.field
    if not isinstance(field, PrimeField):
        raise ValueError("point enumeration needs a prime-field instance")
    n = subspace.nvars
    if field.p ** n > budget:
        raise BudgetExceededError(
            f"{field.p}^{n} points exceed the budget of {budget}")
    for point in _projective_representatives(field.p, n):
        r_basis, r_aug = ranks_at(subspace, point)
        if r_aug > r_basis:
            return LocalDecision(
                holds=False, method="point_enumeration",
                failure_witness=PointFailure(point, r_basis, r_aug))
    return LocalDecision(holds=True, method="point_enumeration")


def pencil_coefficients(subspace: LinearSubspace) -> list:
    """Scalar matrices A_1..A_n with ``[q_1 .. q_{n-1} | y] = sum y_j A_j``.

    Only defined when the subspace has exactly n - 1 spanning vectors that
    are independent over the field.  Column c < d of ``A_j`` holds the
    ``y_j`` coefficients of ``q_c``, and column d is ``e_j``.
    """
    n, d = subspace.nvars, subspace.dim
    if d != n - 1:
        raise ValueError("pencil decomposition needs exactly n - 1 vectors")
    if not independent(subspace.coeff_matrices):
        raise ValueError("spanning vectors are dependent over the field")
    identity = ScalarMatrix.identity(n, subspace.field)
    return [ScalarMatrix.from_columns(
        [b.column(j) for b in subspace.coeff_matrices] + [identity.column(j)],
        subspace.field) for j in range(n)]


def common_nullvector(matrices: Sequence[ScalarMatrix]) -> Optional[tuple]:
    """A nonzero vector annihilated by every matrix, or None.

    Computed from the stacked nullspace; with an independent pencil the
    intersection is at most one-dimensional and the last coordinate of a
    found vector is nonzero, so the caller can renormalize.
    """
    if not matrices:
        raise ValueError("empty pencil")
    n = matrices[0].cols
    field = matrices[0].field
    for m in matrices:
        if m.cols != n or m.field != field:
            raise ValueError("pencil matrices are inconsistent")
    stacked = ScalarMatrix([row for m in matrices for row in m.entries],
                           field, cols=n)
    basis = nullspace_over_field(stacked)
    if not basis:
        return None
    return basis[0]


def local_only_example(n: int, d: int, field: Optional[Field] = None) -> LinearSubspace:
    """A subspace with local membership everywhere but no base-field witness.

    Defined for n >= 4 and 3 <= d < n.  The first three vectors are
    ``y - y1 e_{n-1}``, ``y1 e_{n-1} - y2 e_n`` and ``y1 e_n``; additional
    vectors ``y_j e_{j-3}`` keep the spanning set independent inside the
    span of the first n - 3 coordinates.
    """
    if n < 4 or not 3 <= d < n:
        raise ValueError("family defined for n >= 4 and 3 <= d < n")
    field = QQ if field is None else field
    y = coordinate_vector(n, field)
    zero = Polynomial.zero(n, field)

    def unit(index, value):
        return tuple(value if i == index else zero for i in range(n))

    q1 = list(y)
    q1[n - 2] = y[n - 2] - y[0]
    q2 = [zero] * n
    q2[n - 2] = y[0]
    q2[n - 1] = -y[1]
    q3 = list(unit(n - 1, y[0]))
    vectors = [tuple(q1), tuple(q2), tuple(q3)]
    for j in range(4, d + 1):
        vectors.append(unit(j - 4, y[j - 1]))
    return LinearSubspace(vectors)


def fraction_span_only_example(n: int = 3, field: Optional[Field] = None) -> LinearSubspace:
    """A subspace whose fraction-field witness exists but local membership fails.

    For n >= 3: first vector ``y - y2 e_2``, second vector ``y1 e_2``.  At
    points with first coordinate 0 and second nonzero the coordinate vector
    leaves the evaluated span.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    field = QQ if field is None else field
    y = coordinate_vector(n, field)
    zero = Polynomial.zero(n, field)
    q1 = list(y)
    q1[1] = zero
    q2 = [zero] * n
    q2[1] = y[0]
    return LinearSubspace([tuple(q1), tuple(q2)])
