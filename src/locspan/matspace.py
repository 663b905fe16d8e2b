"""Subspaces of n x n matrices: trace pairing, complements, rank-1 idempotents.

A matrix subspace corresponds to a subspace of vectors of linear forms by
reading each matrix ``b`` as the vector ``b . y`` and vice versa.  The
orthogonal complement under the trace pairing transports local-membership
decisions into decisions about rank-1 idempotents: a subspace of
codimension below n contains no rank-1 idempotent over the algebraic
closure exactly when the corresponding subspace of linear-form vectors has
the local membership property.  A prime-field search, which scans u and
solves a linear system for v, provides an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .exactalg import Field, PrimeField
from .localmem import (
    BudgetExceededError,
    LinearSubspace,
    LocalDecision,
    _projective_representatives,
    local_membership_closure,
    unflat,  # also re-exported: b . y lives with LinearSubspace
)
from .polymat import (
    ScalarMatrix,
    _solve_rows,
    independent,
    nullspace_over_field,
    outer_product,
)

#: Default cap on p**(2n), the size of the (u, v) space the search decides.
DEFAULT_SEARCH_BUDGET = 10_000_000


class MatrixSubspace:
    """A subspace of n x n matrices given by an independent basis."""

    def __init__(self, basis: Sequence[ScalarMatrix], n: Optional[int] = None,
                 field: Optional[Field] = None):
        basis = tuple(basis)
        if basis:
            n = basis[0].rows if n is None else n
            field = basis[0].field if field is None else field
        elif n is None or field is None:
            raise ValueError("an empty basis needs explicit n and field")
        for b in basis:
            if b.rows != n or b.cols != n or b.field != field:
                raise ValueError("basis matrices must all be n x n over one field")
        if not independent(basis):
            raise ValueError("basis matrices are linearly dependent")
        self.n = n
        self.field = field
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.n * self.n - len(self.basis)

    def contains(self, matrix: ScalarMatrix) -> bool:
        """Whether ``matrix`` is in the span.  The basis is independent, so
        a dependency of the basis and ``matrix`` has a nonzero coefficient
        on ``matrix``, which is then a combination of the basis."""
        return not independent(self.basis + (matrix,))

    def __repr__(self):
        return (f"MatrixSubspace(n={self.n}, dim={self.dim}, "
                f"codim={self.codim}, field={self.field!r})")


@dataclass(frozen=True)
class Rank1Idempotent:
    """Vectors u, v with v^T u = 1; the matrix u v^T is a rank-1 idempotent."""

    u: tuple
    v: tuple

    def matrix(self, field: Field) -> ScalarMatrix:
        return outer_product(self.u, self.v, field)


def flat(subspace: LinearSubspace) -> MatrixSubspace:
    """The matrix subspace spanned by the coefficient matrices of the basis."""
    return MatrixSubspace(subspace.coeff_matrices, n=subspace.nvars,
                          field=subspace.field)


def trace_pairing(a: ScalarMatrix, b: ScalarMatrix):
    """The symmetric bilinear form Tr(a b)."""
    if a.rows != b.rows or a.cols != b.cols or a.rows != a.cols:
        raise ValueError("trace pairing needs square matrices of equal size")
    return a.field.normalize(sum(a[i, j] * b[j, i] for i in range(a.rows)
                                 for j in range(a.cols)))


def perp(subspace: MatrixSubspace) -> MatrixSubspace:
    """Orthogonal complement under the trace pairing."""
    n = subspace.n
    field = subspace.field
    # Tr(x b) = sum_{i,j} x[i][j] b[j][i]: one linear constraint per basis b
    constraints = [[b[j, i] for i in range(n) for j in range(n)]
                   for b in subspace.basis]
    system = ScalarMatrix(constraints, field, cols=n * n)
    basis = [ScalarMatrix([v[i * n:(i + 1) * n] for i in range(n)], field)
             for v in nullspace_over_field(system)]
    return MatrixSubspace(basis, n=n, field=field)


def complement_subspace(subspace: MatrixSubspace) -> LinearSubspace:
    """The complement `perp` read as a subspace of vectors of linear forms."""
    return LinearSubspace([unflat(b) for b in perp(subspace).basis])


def is_subspace_of_tracezero(subspace: MatrixSubspace) -> bool:
    """Whether every basis matrix has trace zero."""
    return all(b.trace() == subspace.field.zero for b in subspace.basis)


def is_rank1_idempotent_free(subspace: MatrixSubspace) -> LocalDecision:
    """Exact decision: no rank-1 idempotent over the algebraic closure.

    Requires codimension below n.  The complement under the trace pairing
    is read as a subspace of vectors of linear forms, whose local
    membership decision answers the question.  The full matrix algebra
    (codimension 0) trivially contains rank-1 idempotents and is reported
    directly with one of them as witness.
    """
    if subspace.codim >= subspace.n:
        raise ValueError("decision only applies to codimension below n")
    if subspace.codim == 0:
        n = subspace.n
        e1 = tuple(subspace.field.one if i == 0 else subspace.field.zero
                   for i in range(n))
        return LocalDecision(holds=False, method="closure_radical",
                             failure_witness=Rank1Idempotent(e1, e1))
    return local_membership_closure(complement_subspace(subspace))


def find_rank1_idempotent(subspace: MatrixSubspace,
                          budget: int = DEFAULT_SEARCH_BUDGET
                          ) -> Optional[Rank1Idempotent]:
    """Exhaustive rank-1 idempotent search over a prime field.

    Scans u over projective representatives (first nonzero coordinate 1).
    ``u v^T`` lies in the subspace iff ``v^T x u = 0`` for every ``x`` in its
    `perp`, so the v with v^T u = 1 that work for u solve one linear system.
    Solved with reversed columns, each coordinate of v is fixed by earlier
    ones or free (and set to 0), so v is the lexicographically least one.
    """
    field = subspace.field
    if not isinstance(field, PrimeField):
        raise ValueError("idempotent search needs a prime-field instance")
    p = field.p
    n = subspace.n
    if p ** (2 * n) > budget:
        raise BudgetExceededError(
            f"{p}^{2 * n} candidates exceed the budget of {budget}")
    # the columns are v's coordinates reversed: the first row is u reversed
    # (v^T u = 1), then x u reversed for each x (v^T x u = 0), so each x
    # keeps its rows last first
    complement = [x.entries[::-1] for x in perp(subspace).basis]
    for u in _projective_representatives(p, n):
        rows = [list(u[::-1]) + [1]]
        rows += [[sum(map(mul, row, u)) % p for row in x] + [0]
                 for x in complement]
        v = _solve_rows(rows, n, field)
        if v is not None:
            return Rank1Idempotent(u, v[::-1])
    return None
