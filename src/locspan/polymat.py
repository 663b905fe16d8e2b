"""Exact linear algebra over polynomial rings, their fraction fields, and base fields.

Polynomial matrices get determinants and the kernel of a (d+1) x d matrix in
two ways; a zero row or column makes a determinant 0 before either runs.  Up
to `EXPANSION_LIMIT` columns, the expansion by minors column by column
divides nothing: each column is cleared of denominators over Q, and reduced
mod p over F_p, and each minor is brought back into the field once at the
end.  Above the limit, and for the row basis over the fraction field, one
fraction-free elimination runs row by row.  Both multiply int term maps in
`exactalg.add_product`.  Scalar matrices get Gauss-Jordan elimination to the
reduced row echelon form, which is unique, so solutions (free variables 0)
and nullspace bases are reproducible bit-exactly.  One elimination, `_rref`,
serves both fields: it does field arithmetic with operators on `Fraction`s or
ints, and over F_p reduces each row mod p as it is made.
"""

from __future__ import annotations

import itertools
from math import lcm
from operator import itemgetter, mul
from typing import Optional, Sequence

from .exactalg import Field, Polynomial, add_product, exact_div

#: Largest matrix whose determinant is expanded by minors.  After column k
#: the expansion holds one minor per (k+1)-row subset, so it makes at most
#: n * 2^(n-1) products whatever the entries.  The count doubles with every
#: row, so larger matrices take the elimination, which is polynomial in n.
#: Both paths multiply int term maps.  On a 2-core VM, dense single-variable
#: entries a*y1 + b took 5 ms by expansion against 12-21 ms by elimination
#: at 8 rows, 40-50 ms against 30-45 ms at 10 and 0.23-0.26 s against
#: 0.07-0.09 s at 12: on dense entries the break-even is near 10 rows.  On
#: a sparse 10 x 9 matrix of degree-1 entries in 3 variables, `kernel()` by
#: elimination took 0.2-0.3 s against 0.02-0.03 s by expansion.  The limit
#: stays at 8 until a workload in the benchmark can show where to put it.
EXPANSION_LIMIT = 8


class ScalarMatrix:
    """Immutable rectangular matrix over an exact field."""

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, entries: Sequence[Sequence], field: Field, cols: Optional[int] = None):
        rows = len(entries)
        if rows:
            width = len(entries[0])
        else:
            width = cols or 0
        normalized = []
        for row in entries:
            if len(row) != width:
                raise ValueError("matrix rows have inconsistent lengths")
            normalized.append(tuple(field.normalize(x) for x in row))
        self.rows = rows
        self.cols = width
        self.field = field
        self.entries = tuple(normalized)

    @classmethod
    def identity(cls, n: int, field: Field) -> "ScalarMatrix":
        return cls([[field.one if i == j else field.zero for j in range(n)]
                    for i in range(n)], field)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], field: Field) -> "ScalarMatrix":
        rows = len(columns[0])
        return cls([[columns[j][i] for j in range(len(columns))]
                    for i in range(rows)], field)

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def vector(self) -> list:
        """The entries row by row."""
        return [x for row in self.entries for x in row]

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return self.field.normalize(
            sum(self.entries[i][i] for i in range(self.rows)))

    def matvec(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        norm = self.field.normalize
        vec = [norm(v) for v in vec]
        return tuple(norm(sum(map(mul, row, vec))) for row in self.entries)

    def __eq__(self, other):
        return (isinstance(other, ScalarMatrix) and self.field == other.field
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        body = "; ".join(" ".join(map(str, row)) for row in self.entries)
        return f"ScalarMatrix[{body}]"


def outer_product(u: Sequence, v: Sequence, field: Field) -> ScalarMatrix:
    """The rank <= 1 matrix ``u * v^T``."""
    u = [field.normalize(x) for x in u]
    v = [field.normalize(x) for x in v]
    return ScalarMatrix([[a * b for b in v] for a in u], field, cols=len(v))


def _rref(rows: list, field: Field) -> list:
    """In-place reduced row echelon form of rows of normalised field values;
    returns the pivot column list.  One loop serves both fields: entries
    are combined with ``*`` and ``-``, and over F_p reduced mod p."""
    p = field.characteristic
    m = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if m else 0):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p) if p else field.one / rows[r][c]
        row = rows[r] = ([inv * x % p for x in rows[r]] if p
                         else [inv * x for x in rows[r]])
        for i in range(m):
            factor = rows[i][c]
            if factor and i != r:
                rows[i] = ([(x - factor * y) % p for x, y in zip(rows[i], row)]
                           if p else
                           [x - factor * y for x, y in zip(rows[i], row)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def rref(matrix: ScalarMatrix) -> tuple:
    """The pivot columns of the reduced row echelon form."""
    return tuple(_rref([list(row) for row in matrix.entries], matrix.field))


def rank(matrix: ScalarMatrix) -> int:
    return len(rref(matrix))


def independent(matrices: Sequence[ScalarMatrix]) -> bool:
    """Whether the matrices, all of one shape, are linearly independent:
    the rank of their entry vectors is their number."""
    return not matrices or rank(ScalarMatrix(
        [m.vector() for m in matrices], matrices[0].field)) == len(matrices)


def solve_over_field(matrix: ScalarMatrix, rhs: Sequence) -> Optional[tuple]:
    """Some solution of ``A x = b`` (free variables set to 0), or None."""
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    field = matrix.field
    rhs = [field.normalize(v) for v in rhs]
    return _solve_rows(
        [list(row) + [rhs[i]] for i, row in enumerate(matrix.entries)],
        matrix.cols, field)


def _solve_rows(rows: list, cols: int, field: Field) -> Optional[tuple]:
    """`solve_over_field` on the rows of ``[A | b]`` for an A with ``cols``
    columns, entries normalised; the rows are reduced in place."""
    pivots = _rref(rows, field)
    if cols in pivots:
        return None
    solution = [field.zero] * cols
    for r, c in enumerate(pivots):
        solution[c] = rows[r][cols]
    return tuple(solution)


def nullspace_over_field(matrix: ScalarMatrix) -> list:
    """Basis of the right nullspace in the reduced-echelon convention."""
    field = matrix.field
    rows = [list(row) for row in matrix.entries]
    pivots = _rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        vec = [field.zero] * matrix.cols
        vec[free] = field.one
        for r, c in enumerate(pivots):
            vec[c] = field.normalize(-rows[r][free])
        basis.append(tuple(vec))
    return basis


class PolyMatrix:
    """Immutable rectangular matrix of polynomials over one ambient ring."""

    __slots__ = ("rows", "cols", "nvars", "field", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        if not entries or not entries[0]:
            raise ValueError("polynomial matrix must be non-empty")
        width = len(entries[0])
        first = entries[0][0]
        normalized = []
        for row in entries:
            if len(row) != width:
                raise ValueError("matrix rows have inconsistent lengths")
            for p in row:
                first._check(p)
            normalized.append(tuple(row))
        self.rows = len(entries)
        self.cols = width
        self.nvars = first.nvars
        self.field = first.field
        self.entries = tuple(normalized)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        rows = len(columns[0])
        return cls([[columns[j][i] for j in range(len(columns))]
                    for i in range(rows)])

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        """The entries on the given rows and columns; they were checked when
        this matrix was built, so they are not checked again."""
        sub = object.__new__(PolyMatrix)
        sub.rows, sub.cols = len(row_idx), len(col_idx)
        sub.nvars, sub.field = self.nvars, self.field
        pick, rows = itemgetter(*col_idx), map(self.entries.__getitem__, row_idx)
        sub.entries = (tuple(map(pick, rows)) if sub.cols > 1
                       else tuple((pick(row),) for row in rows))  # one index: no tuple
        return sub

    def det(self) -> Polynomial:
        """Exact determinant: 0 at a zero row or column before either method
        runs, else expanded by minors up to `EXPANSION_LIMIT` rows, above it
        the last pivot of the columns' elimination, signed by the order of
        its pivot rows.  The elimination gives 0 at two equal rows before
        any column is reduced, and at the first column that depends on the
        columns before it, where it stops."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if not all(map(any, itertools.chain(self.entries, zip(*self.entries)))):
            return Polynomial.zero(self.nvars, self.field)
        if self.rows <= EXPANSION_LIMIT:
            minors = self._expand()  # its single entry, or none at det 0
            return (minors.popitem()[1] if minors
                    else Polynomial.zero(self.nvars, self.field))
        if len(set(self.entries)) == self.rows:
            pivots, last = [], Polynomial.one(self.nvars, self.field)
            for i, reduced in self._reduce(zip(*self.entries)):
                if i is None:
                    break
                pivots.append(i)
                last = reduced[i]
            else:
                inversions = sum(a > b for a, b
                                 in itertools.combinations(pivots, 2))
                return -last if inversions % 2 else last
        return Polynomial.zero(self.nvars, self.field)

    def _expand(self) -> dict:
        """Division-free expansion by minors along the columns in turn.

        After column k, ``minors`` maps each (k+1)-row subset, as a bit
        mask, to its nonzero minor on those rows and columns 0..k.  The
        minor on S + {i} gains ``a[i][k] * minor(S)``, negated when an odd
        number of rows of S come after row i: the sign of the Laplace
        expansion along the last column, and the table ends holding the
        nonzero maximal minors.

        The table holds int term maps.  Over Q column k enters cleared to
        the common denominator L_k of its entries, which multiplies every
        minor alike by L_k, and `from_cleared` divides each maximal minor
        once by the product of the L_k.  Over F_p the sums are reduced mod p
        once per column.
        """
        p = self.field.characteristic
        minors = {0: {(0,) * self.nvars: 1}}
        scale = 1
        for entries in zip(*self.entries):
            column = [(i, 1 << i, d, ints) for i, (d, ints)
                      in enumerate(map(Polynomial.cleared, entries)) if ints]
            den = lcm(*(d for _, _, d, _ in column))
            scale *= den
            grown = {}
            for rows, minor in minors.items():
                for i, bit, d, ints in column:
                    if rows & bit:
                        continue
                    factor = den // d
                    if (rows >> i).bit_count() % 2:
                        factor = -factor
                    add_product(grown.setdefault(rows | bit, {}), ints, minor,
                                factor)
            minors = {}
            for rows, acc in grown.items():
                if p:
                    acc = {m: c % p for m, c in acc.items() if c % p}
                else:
                    acc = {m: c for m, c in acc.items() if c}
                if acc:
                    minors[rows] = acc
        return {rows: Polynomial.from_cleared(self.nvars, self.field, scale, acc)
                for rows, acc in minors.items()}

    def kernel(self) -> tuple:
        """k with ``sum_i k_i row_i = 0`` for a (d+1) x d matrix T whose
        first d rows are independent (else ValueError): k_i is ``(-1)^i``
        times the minor without row i, up to one common sign.  Up to
        `EXPANSION_LIMIT` columns `_expand` gives the minors; above it the
        rows, extended by I, are reduced up to the first without a pivot
        left of the tail: the last row, whose tail holds maximal minors of
        ``[T | I]``, or a dependent one, whose tail ends in 0.
        """
        d = self.cols
        if self.rows != d + 1:
            raise ValueError("kernel needs one row more than columns")
        zero = Polynomial.zero(self.nvars, self.field)
        if d <= EXPANSION_LIMIT:
            minors = self._expand()
            full = (1 << (d + 1)) - 1
            k = [minors.get(full ^ (1 << i), zero) for i in range(d + 1)]
            k = [-m if i % 2 else m for i, m in enumerate(k)]
        else:
            one = Polynomial.one(self.nvars, self.field)
            for c, k in self._reduce(
                    row + tuple(one if j == i else zero for j in range(d + 1))
                    for i, row in enumerate(self.entries)):
                if c >= d:
                    break
            k = k[d:]
        if not k[d]:
            raise ValueError("the first rows of the matrix are dependent")
        return tuple(k)

    def minors(self, s: int) -> list:
        """All s x s minors with their index sets, lexicographic in (rows, cols)."""
        if not 1 <= s <= min(self.rows, self.cols):
            raise ValueError(
                f"minor size {s} out of range for a {self.rows}x{self.cols} matrix")
        out = []
        for row_idx in itertools.combinations(range(self.rows), s):
            for col_idx in itertools.combinations(range(self.cols), s):
                out.append((row_idx, col_idx,
                            self.submatrix(row_idx, col_idx).det()))
        return out

    def pivot_rows(self) -> tuple:
        """The greedy row basis over the fraction field.

        A row is kept when it is independent of the rows kept before it, so
        the length is the rank over the fraction field, and at full column
        rank the rows are the lexicographically first row set with a
        nonzero maximal minor.
        """
        return tuple(i for i, (c, _) in enumerate(self._reduce(self.entries))
                     if c is not None)

    def _reduce(self, rows):
        """Fraction-free (Bareiss) elimination of each of ``rows`` against
        the rows kept before it, in order.

        After step k, entry j of the reduced row is the minor on the first k
        kept rows plus this row and their pivot columns plus j, so the
        division by the previous pivot is exact (Sylvester's identity).  The
        first step's previous pivot is 1, so it divides nothing.
        Yields each row's pivot column, its first nonzero entry, or None
        when nothing is left, with the reduced row.
        """
        zero = Polynomial.zero(self.nvars, self.field)
        kept = []
        for row in rows:
            reduced = list(row)
            prev = None
            done = set()  # pivot columns so far: their minors repeat a column
            for c, pivot_row in kept:
                done.add(c)
                lead, pivot = reduced[c], pivot_row[c]
                reduced = [zero if j in done
                           else _cross(pivot, x, lead, p, prev)
                           for j, (x, p) in enumerate(zip(reduced, pivot_row))]
                prev = pivot
            c = next((j for j, x in enumerate(reduced) if not x.is_zero()), None)
            if c is not None:
                kept.append((c, reduced))
            yield c, reduced

    def __repr__(self):
        body = "; ".join(" ".join(str(p) for p in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


def _cross(pivot, x, lead, p, prev):
    """One Bareiss entry ``(pivot * x - lead * p) / prev``, with no product
    that has a zero factor and no division by a missing (unit) ``prev``."""
    if lead and p:
        num = pivot * x - lead * p if x else -(lead * p)
    else:
        num = pivot * x if x else x
    return exact_div(num, prev) if prev is not None and num else num
