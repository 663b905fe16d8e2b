"""Determinants, minors, ranks, solving and nullspaces."""

import itertools
import random
from fractions import Fraction

import pytest

import locspan.groebner as groebner
from locspan import (
    QQ,
    LinearSubspace,
    PolyMatrix,
    Polynomial,
    PrimeField,
    ScalarMatrix,
    has_free_rank,
    local_membership_closure,
    local_only_example,
    nullspace_over_field,
    polymat,
    rank,
    reduce_fraction,
    solve_over_field,
    span_over_fractions,
)
from locspan.exactalg import exact_div

from support import (
    FractionArithmetic,
    cofactor_det,
    evaluate,
    random_linear_form,
    random_nonzero_polynomial,
    random_polynomial,
    reference_mul,
    variables,
)


def test_det_2x2_formula():
    y1, y2, y3, y4 = variables(4)
    m = PolyMatrix([[y1, y2], [y3, y4]])
    assert m.det() == y1 * y4 - y2 * y3


def test_det_identity():
    one = Polynomial.one(3, QQ)
    zero = Polynomial.zero(3, QQ)
    m = PolyMatrix([[one if i == j else zero for j in range(3)]
                    for i in range(3)])
    assert m.det().is_one()


def test_det_golden_lower_triangular_minor():
    # rows {1,3,4} of the n=4 family basis matrix: diagonal y1, y1, y1
    q = local_only_example(4, 3).basis_matrix
    sub = q.submatrix((0, 2, 3), range(3))
    y1 = Polynomial.variable(0, 4, QQ)
    assert sub.det() == y1 ** 3
    assert cofactor_det(sub) == y1 ** 3


def test_minors_1x1():
    y1, y2, _ = variables(3)
    zero = Polynomial.zero(3, QQ)
    m = PolyMatrix([[y1, zero], [zero, y2]])
    got = m.minors(1)
    assert [(r, c) for r, c, _ in got] == [
        ((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
    assert [p for _, _, p in got] == [y1, zero, zero, y2]
    assert m.submatrix((1,), (0,)).entries == ((zero,),)


def test_minors_range_check():
    y1, y2, _ = variables(3)
    column = PolyMatrix([[y1], [y2]])
    with pytest.raises(ValueError):
        column.minors(2)


def test_minors_golden_maximal_of_family_matrix():
    q = local_only_example(4, 3).basis_matrix
    y1 = Polynomial.variable(0, 4, QQ)
    y2 = Polynomial.variable(1, 4, QQ)
    values = {rows: det for rows, _, det in q.minors(3)}
    assert values[(0, 1, 2)].is_zero()
    assert values[(0, 1, 3)].is_zero()
    assert values[(0, 2, 3)] == y1 ** 3
    assert values[(1, 2, 3)] == y1 ** 2 * y2
    for rows, _, det in q.minors(3):
        assert det == cofactor_det(q.submatrix(rows, range(3)))


@pytest.mark.parametrize("n", [9, 10])
def test_det_stops_at_the_first_column_without_pivot(monkeypatch, n):
    # above the expansion limit, so the columns' elimination runs: column 2
    # is 3 * column 1, so nothing is left of it and the determinant is 0
    # after two columns (without the stop, all n are reduced)
    assert n > polymat.EXPANSION_LIMIT
    y = variables(n)
    rows = [[y[i], y[i].scale(3)]
            + [y[0].scale((i + 2) ** k % 11 + 1) for k in range(2, n)]
            for i in range(n)]
    taken = []
    reduce = PolyMatrix._reduce

    def counting_reduce(self, rows):
        for pivot, reduced in reduce(self, rows):
            taken.append(pivot)
            yield pivot, reduced

    monkeypatch.setattr(PolyMatrix, "_reduce", counting_reduce)
    assert PolyMatrix(rows).det().is_zero()
    assert taken == [0, None]


def _sparse_entries(rng, field, size, rows=None):
    """Sparse random entries of degree at most 1: ``rows`` (a square by
    default) rows of ``size``."""
    zero = Polynomial.zero(3, field)
    return [[random_polynomial(rng, 3, field, max_degree=1, max_terms=2)
             if rng.random() < 0.7 else zero for _ in range(size)]
            for _ in range(size if rows is None else rows)]


def _expanded_det(m):
    """The determinant read from the expansion's table at any size."""
    minors = m._expand()
    return minors.popitem()[1] if minors else Polynomial.zero(m.nvars, m.field)


def _matrix_with_degenerate_lines(rng, field, size, kind=None):
    """Sparse random linear entries, then maybe (or, given ``kind``, for
    sure) a zero row (1), a zero column (2) or a repeated row (3)."""
    zero = Polynomial.zero(3, field)
    entries = _sparse_entries(rng, field, size)
    if kind is None:
        kind = rng.randrange(4) if size > 1 else 0
    i = rng.randrange(size)
    if kind == 1:
        entries[i] = [zero] * size
    elif kind == 2:
        for row in entries:
            row[i] = zero
    elif kind == 3:
        entries[i] = list(entries[(i + 1) % size])
    return PolyMatrix(entries), kind


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                         ids=["Q", "F3", "F5"])
def test_expansion_equals_elimination(field, monkeypatch):
    rng = random.Random(16)
    kinds, nonzero = set(), 0
    limit = polymat.EXPANSION_LIMIT
    # with no room for the expansion, det() eliminates at every size unless
    # a row or column is zero
    monkeypatch.setattr(polymat, "EXPANSION_LIMIT", 0)
    for size in range(1, limit + 1):
        for _ in range(6):
            m, kind = _matrix_with_degenerate_lines(rng, field, size)
            det = _expanded_det(m)
            assert det == m.det()
            kinds.add(kind)
            nonzero += not det.is_zero()
    assert kinds == {0, 1, 2, 3} and nonzero >= 10
    # the expansion stays exact at any size, so it checks the elimination's
    # nonzero values and their signs above the limit too.  Q stops at one
    # 9-row matrix: a 10-row one takes seconds to eliminate
    sizes = [limit + 1] if field == QQ else [limit + 1] * 2 + [limit + 2] * 2
    for size in sizes:
        m = PolyMatrix(_sparse_entries(rng, field, size))
        det = m.det()
        assert det == _expanded_det(m) and not det.is_zero()


def _signed_minors(m):
    """((-1)^i M_i), M_i the minor of the tall ``m`` without row i, by
    cofactor expansion."""
    return [cofactor_det(m.submatrix([r for r in range(m.rows) if r != i],
                                     range(m.cols))) * (-1) ** i
            for i in range(m.rows)]


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                         ids=["Q", "F3", "F5"])
def test_kernel_is_the_signed_maximal_minors(field, monkeypatch):
    rng = random.Random(21)
    zero = Polynomial.zero(3, field)
    pivots = []
    reduce = PolyMatrix._reduce

    def recording_reduce(self, rows):
        for pivot, reduced in reduce(self, rows):
            pivots.append(pivot)
            yield pivot, reduced

    monkeypatch.setattr(PolyMatrix, "_reduce", recording_reduce)
    limit = polymat.EXPANSION_LIMIT
    # above the limit the expansion of the whole tall matrix is the oracle;
    # only F3 takes an 11 x 10 matrix: over Q or F5 it takes seconds
    sizes = [*range(1, limit + 1), *range(1, 6), limit + 1]
    if field == PrimeField(3):
        sizes.append(limit + 2)
    outcomes = set()
    for size in sizes:
        entries = _sparse_entries(rng, field, size, rows=size + 1)
        if size > 2:
            # row 0 starts with two zeros and row 1 with a nonzero entry, so
            # the elimination's pivots come out of order
            entries[0][:2] = [zero, zero]
            entries[1][0] = random_nonzero_polynomial(rng, 3, field,
                                                      max_degree=1)
        m = PolyMatrix(entries)
        if size <= limit:
            expected = _signed_minors(m)
        else:
            table = m._expand()
            expected = [table.get(((1 << m.rows) - 1) ^ (1 << i), zero)
                        * (-1) ** i for i in range(m.rows)]
        pivots.clear()
        outcomes.add((size > limit, expected[-1].is_zero()))
        if expected[-1].is_zero():
            with pytest.raises(ValueError):
                m.kernel()
            continue
        k = m.kernel()
        assert k in (tuple(expected), tuple(-x for x in expected))
        for c in range(size):
            assert sum((k[i] * entries[i][c] for i in range(m.rows)),
                       zero).is_zero()
        if size > limit:
            assert pivots[:size] != sorted(pivots[:size])
    # both outcomes below the limit; above it, full rank every time
    assert outcomes == {(False, False), (False, True), (True, False)}


def test_kernel_refuses_dependent_leading_rows_and_other_shapes():
    field = PrimeField(5)
    rng = random.Random(22)
    for size in (3, polymat.EXPANSION_LIMIT + 1):
        entries = _sparse_entries(rng, field, size, rows=size + 1)
        entries[1] = [p.scale(2) for p in entries[0]]
        with pytest.raises(ValueError, match="dependent"):
            PolyMatrix(entries).kernel()
    square = PolyMatrix(_sparse_entries(rng, field, 3))
    with pytest.raises(ValueError, match="one row more"):
        square.kernel()


def _cramer_instance(rng, n, field):
    """n - 1 random vectors whose first two components are ``a_j y1`` and
    ``a_j y2``, like y's: the first two basis rows are dependent, so the
    Cramer rows skip one of them, and y stays in the fraction span (with
    some a_j nonzero, so that y1 is reached)."""
    y = variables(n, field)
    while True:
        vectors = []
        for _ in range(n - 1):
            a = rng.randint(-2, 2)
            vectors.append((y[0].scale(a), y[1].scale(a),
                            *(random_linear_form(rng, n, field)
                              for _ in range(n - 2))))
        try:
            subspace = LinearSubspace(vectors)
        except ValueError:
            continue
        if has_free_rank(subspace) and any(v[0] for v in vectors):
            return subspace


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                         ids=["Q", "F3", "F5"])
def test_span_over_fractions_is_cramer_per_column(field):
    rng = random.Random(23)
    for n in (3, 4, 4):
        subspace = _cramer_instance(rng, n, field)
        d, index_set = subspace.dim, subspace.pivot_rows
        assert index_set != tuple(range(d))
        y = subspace.coordinate_target()
        columns = [[q[i] for i in index_set] for q in subspace.basis]
        target = [y[i] for i in index_set]
        det_q = cofactor_det(PolyMatrix.from_columns(columns))
        expected = tuple(
            reduce_fraction(cofactor_det(PolyMatrix.from_columns(
                columns[:j] + [target] + columns[j + 1:])), det_q)
            for j in range(d))
        witness = span_over_fractions(subspace)
        assert witness.index_set == index_set
        assert witness.lambdas == expected


@pytest.mark.parametrize("size", [polymat.EXPANSION_LIMIT, 12])
def test_dense_det_at_and_above_the_expansion_limit_is_fast(size):
    # every entry a nonzero multiple of y1, so every minor is nonzero: the
    # expansion's worst case at the limit, the elimination above it
    import time
    rng = random.Random(17)
    y1 = Polynomial.variable(0, 1, QQ)
    m = PolyMatrix([[y1.scale(rng.randint(1, 97)) for _ in range(size)]
                    for _ in range(size)])
    started = time.monotonic()
    m.det()
    assert time.monotonic() - started < 0.1


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                         ids=["Q", "F3", "F5"])
def test_zero_or_repeated_row_is_singular_before_elimination(field, monkeypatch):
    # 10 rows take the elimination, which would reduce every column (for
    # seconds over Q) before it met the dependent row
    rng = random.Random(19)
    calls = []

    def counting_div(num, prev):
        calls.append(prev)
        return exact_div(num, prev)

    monkeypatch.setattr(polymat, "exact_div", counting_div)
    for kind in (1, 3):
        for _ in range(3):
            m, _ = _matrix_with_degenerate_lines(rng, field, 10, kind)
            assert m.det().is_zero()
    assert calls == []


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_zero_row_or_column_is_zero_before_either_method(field, monkeypatch):
    # sizes on both sides of the expansion limit: neither the expansion nor
    # the elimination runs on a matrix with a zero row or column
    rng = random.Random(25)

    def refuse(self, *args):
        raise AssertionError("det() expanded or eliminated a zero line")

    monkeypatch.setattr(PolyMatrix, "_expand", refuse)
    monkeypatch.setattr(PolyMatrix, "_reduce", refuse)
    assert polymat.EXPANSION_LIMIT < 10
    for kind in (1, 2):
        for size in range(1, 11):
            m, _ = _matrix_with_degenerate_lines(rng, field, size, kind)
            det = m.det()
            assert det.is_zero() and det == cofactor_det(m)
            assert det.field == field and det.nvars == m.nvars


def test_closure_determinants_divide_nothing(monkeypatch):
    # every minor of the (7, 6) family has at most 7 rows, so each one is
    # expanded by minors without a single exact division
    subspace = local_only_example(7, 6)
    calls = []

    def counting_div(num, prev):
        calls.append(prev)
        return exact_div(num, prev)

    monkeypatch.setattr(polymat, "exact_div", counting_div)
    assert local_membership_closure(subspace).holds
    assert calls == []


# -- the integer expansion against field arithmetic ---------------------------

def reference_expand(m):
    """The expansion by minors of `PolyMatrix._expand`, with products and
    sums on field coefficients (`reference_mul`, `Polynomial` sums): the
    oracle for its int table."""
    minors = {0: Polynomial.one(m.nvars, m.field)}
    for k in range(m.cols):
        column = [(i, 1 << i, row[k]) for i, row in enumerate(m.entries)
                  if row[k]]
        grown = {}
        for rows, minor in minors.items():
            for i, bit, entry in column:
                if rows & bit:
                    continue
                term = reference_mul(entry, minor)
                if (rows >> i).bit_count() % 2:
                    term = -term
                key = rows | bit
                grown[key] = grown[key] + term if key in grown else term
        minors = {rows: p for rows, p in grown.items() if p}
    return minors


def _reference_det(m):
    minors = reference_expand(m)
    return minors.popitem()[1] if minors else Polynomial.zero(m.nvars, m.field)


#: Denominators of the rational matrices' coefficients, one per column.
COLUMN_DENOMINATORS = (2, 3, 5, 7, 4, 9, 11, 6)


def _matrix_for_expansion(rng, field, rows, cols, kind):
    """Sparse entries of degree at most 1, then, by ``kind``: nothing (0),
    a zero row (1), a zero column (2), a repeated row (3) or a column that
    is a multiple of another (4).  Over Q the coefficients of column j are
    ``k / COLUMN_DENOMINATORS[j]``, so the columns clear to different
    denominators."""
    zero = Polynomial.zero(3, field)

    def coefficient(j):
        if field == QQ:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                            COLUMN_DENOMINATORS[j])
        return rng.randrange(1, field.p)

    def entry(j):
        if rng.random() < 0.3:
            return zero
        terms = {}
        for _ in range(rng.randint(1, 2)):
            mono = [0, 0, 0]
            if rng.random() < 0.8:
                mono[rng.randrange(3)] = 1
            terms[tuple(mono)] = coefficient(j)
        return Polynomial(3, field, terms)

    entries = [[entry(j) for j in range(cols)] for _ in range(rows)]
    i, j = rng.randrange(rows), rng.randrange(cols)
    if kind == 1:
        entries[i] = [zero] * cols
    elif kind == 2:
        for row in entries:
            row[j] = zero
    elif kind == 3 and rows > 1:
        entries[i] = list(entries[(i + 1) % rows])
    elif kind == 4 and cols > 1:
        factor = Fraction(2, 3) if field == QQ else 2
        for row in entries:
            row[j] = row[(j + 1) % cols].scale(factor)
    return PolyMatrix(entries)


def _assert_canonical(p, field):
    """Coefficients are what the field's own arithmetic would store."""
    for c in p.terms.values():
        if field == QQ:
            assert type(c) is Fraction
        else:
            assert type(c) is int and 0 < c < field.p


FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                                 ids=["Q", "F3", "F5"])


@FIELDS
def test_integer_expansion_matches_field_arithmetic(field):
    rng = random.Random(24)
    zero_dets = fractional = 0
    for size in range(1, polymat.EXPANSION_LIMIT + 1):
        for kind in range(5):
            m = _matrix_for_expansion(rng, field, size, size, kind)
            expected = _reference_det(m)
            det = m.det()
            assert det.terms == expected.terms
            _assert_canonical(det, field)
            zero_dets += det.is_zero()
            fractional += any(getattr(c, "denominator", 1) > 1
                              for c in det.terms.values())
    assert zero_dets >= 20 and 40 - zero_dets >= 8
    assert fractional >= 10 if field == QQ else fractional == 0


@FIELDS
def test_integer_minors_match_field_arithmetic(field):
    rng = random.Random(25)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        m = _matrix_for_expansion(rng, field, rows, cols, rng.randrange(5))
        for s in range(1, min(rows, cols) + 1):
            got = m.minors(s)
            assert [(r, c) for r, c, _ in got] == [
                (r, c) for r in itertools.combinations(range(rows), s)
                for c in itertools.combinations(range(cols), s)]
            for r, c, minor in got:
                assert minor.terms == _reference_det(m.submatrix(r, c)).terms
                _assert_canonical(minor, field)


@FIELDS
def test_integer_kernel_matches_field_arithmetic(field):
    rng = random.Random(26)
    refused = 0
    for d in range(1, polymat.EXPANSION_LIMIT):
        for kind in range(5):
            m = _matrix_for_expansion(rng, field, d + 1, d, kind)
            table = reference_expand(m)
            zero = Polynomial.zero(3, field)
            expected = [table.get(((1 << (d + 1)) - 1) ^ (1 << i), zero)
                        for i in range(d + 1)]
            expected = [-x if i % 2 else x for i, x in enumerate(expected)]
            if expected[d].is_zero():
                with pytest.raises(ValueError, match="dependent"):
                    m.kernel()
                refused += 1
                continue
            k = m.kernel()
            assert [x.terms for x in k] == [x.terms for x in expected]
            for x in k:
                _assert_canonical(x, field)
    assert 5 <= refused < 30


def test_closure_kernels_do_no_fraction_arithmetic(monkeypatch):
    """Determinants and division run on ints: over Q, no `Fraction` is
    added, subtracted or multiplied in ``det()``, ``normal_form`` or
    anywhere else in building the family and deciding its closure.  The
    counter's sanity check is the reference determinant, which does."""
    entered = {"det": 0, "normal_form": 0}
    ops = FractionArithmetic()

    def kernel(name, original):
        def wrapped(*args, **kwargs):
            entered[name] += 1
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(PolyMatrix, "det", kernel("det", PolyMatrix.det))
    monkeypatch.setattr(groebner, "normal_form",
                        kernel("normal_form", groebner.normal_form))
    rng = random.Random(27)
    m = PolyMatrix(_sparse_entries(rng, QQ, polymat.EXPANSION_LIMIT))
    with ops:
        det = m.det()
        assert local_membership_closure(local_only_example(5, 4)).holds
        assert ops.count == 0
        assert entered["det"] > 100 and entered["normal_form"] > 10
        assert not det.is_zero() and det.terms == _reference_det(m).terms
        assert ops.count > 0


def test_rank_over_fractions():
    q = local_only_example(4, 3).basis_matrix
    assert len(q.pivot_rows()) == 3
    zero = Polynomial.zero(3, QQ)
    assert PolyMatrix([[zero, zero], [zero, zero]]).pivot_rows() == ()
    y1, y2, y3 = variables(3)
    proportional = PolyMatrix.from_columns(
        [(y1, y2, y3), (y1.scale(2), y2.scale(2), y3.scale(2))])
    assert len(proportional.pivot_rows()) == 1


def lexicographic_pivot_rows(m):
    """Reference: the first row set, in combination order, of the largest
    size s with a nonzero s x s minor (cofactor oracle)."""
    for s in range(min(m.rows, m.cols), 0, -1):
        for rows in itertools.combinations(range(m.rows), s):
            if any(not cofactor_det(m.submatrix(rows, cols)).is_zero()
                   for cols in itertools.combinations(range(m.cols), s)):
                return rows
    return ()


def _matrix_with_dependent_rows(rng, field):
    """Random linear entries, then zero rows, repeated rows and rows that
    are multiples of the first one, so the first nonzero minor comes late."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 4)
    zero = Polynomial.zero(3, field)
    entries = [[random_polynomial(rng, 3, field, max_degree=1, max_terms=2)
                for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        kind = rng.randrange(4)
        if kind == 0:
            entries[i] = [zero] * cols
        elif kind == 1:
            entries[i] = list(entries[rng.randrange(i)])
        elif kind == 2:
            c = rng.randint(1, 2)
            entries[i] = [p.scale(c) for p in entries[0]]
    return PolyMatrix(entries)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                         ids=["Q", "F3", "F5"])
def test_pivot_rows_match_lexicographic_scan(field):
    rng = random.Random(15)
    deficient = late = 0
    for _ in range(80):
        m = _matrix_with_dependent_rows(rng, field)
        expected = lexicographic_pivot_rows(m)
        assert m.pivot_rows() == expected
        deficient += len(expected) < min(m.rows, m.cols)
        late += len(expected) == m.cols and expected != tuple(range(m.cols))
    assert deficient and late


def reference_rref(rows, field):
    """In-place reduced row echelon form, each entry brought into the field
    by ``normalize`` as it is made: the oracle for `polymat._rref`; returns
    the pivot column list."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if rows[i][c] != field.zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.normalize(inv * x) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != field.zero:
                factor = rows[i][c]
                rows[i] = [field.normalize(x - factor * y)
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def _matrix_with_repeats(rng, field, rows, cols):
    """Rows of field values, ints in [0, p) or small fractions: random
    ones, zero rows, copies and multiples of earlier rows, and rows that
    are zero in their first columns."""
    p = field.characteristic

    def value(low=0):
        return (rng.randrange(low, p) if p else
                Fraction(rng.randint(-4, 4) or low, rng.randint(1, 3)))

    out = []
    for _ in range(rows):
        kind = rng.randrange(5)
        if kind == 1:
            out.append([field.zero] * cols)
        elif kind == 2 and out:
            c = value(1)
            out.append([field.normalize(c * x) for x in rng.choice(out)])
        elif kind == 3:
            lead = rng.randrange(cols)
            out.append([field.zero] * lead
                       + [value() for _ in range(cols - lead)])
        else:
            out.append([value() for _ in range(cols)])
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, pytest.param(0, id="Q")])
def test_int_rref_matches_field_reference(p, monkeypatch):
    """`_rref` against `reference_rref` over F_p and Q; over F_p it calls
    no field method."""
    field = PrimeField(p) if p else QQ
    rng = random.Random(40 + p)
    matrices = [[]]
    for rows, cols in itertools.product(range(1, 8), repeat=2):
        matrices += [_matrix_with_repeats(rng, field, rows, cols)
                     for _ in range(6)]
    expected = []
    for m in matrices:
        reduced = [list(row) for row in m]
        expected.append((reference_rref(reduced, field), reduced))

    def refuse(*args):
        raise AssertionError("field method called by the int kernel")

    if p:
        for name in ("inv", "normalize"):
            monkeypatch.setattr(PrimeField, name, refuse)
    shapes = set()
    for m, (pivots, reduced) in zip(matrices, expected):
        rows = [list(row) for row in m]
        assert polymat._rref(rows, field) == pivots, m
        assert rows == reduced, m
        if m:
            shapes.add((len(m) < len(m[0]), len(m) > len(m[0]),
                        len(pivots) < min(len(m), len(m[0]))))
    # wide, tall and square, each both at full rank and rank-deficient
    assert len(shapes) == 6


def test_solve_identity_and_inconsistent():
    identity = ScalarMatrix.identity(3, QQ)
    assert solve_over_field(identity, (1, 2, 3)) == (1, 2, 3)
    inconsistent = ScalarMatrix([[1, 0], [1, 0]], QQ)
    assert solve_over_field(inconsistent, (1, 2)) is None


def test_solve_free_variable_convention():
    wide = ScalarMatrix([[1, 1]], QQ)
    assert solve_over_field(wide, (3,)) == (3, 0)


def test_nullspace():
    zero2 = ScalarMatrix([[0, 0], [0, 0]], QQ)
    assert nullspace_over_field(zero2) == [(1, 0), (0, 1)]
    assert nullspace_over_field(ScalarMatrix.identity(2, QQ)) == []
    assert nullspace_over_field(ScalarMatrix([[1, 1]], QQ)) == [(-1, 1)]


def test_det_matches_cofactor_oracle_random():
    rng = random.Random(11)
    for field in (QQ, PrimeField(3), PrimeField(5)):
        for _ in range(60):
            size = rng.randint(1, 5)
            m = PolyMatrix([[random_polynomial(rng, 3, field, max_degree=1,
                                               max_terms=2)
                             for _ in range(size)] for _ in range(size)])
            assert m.det() == cofactor_det(m)


def test_evaluation_commutes_with_det():
    rng = random.Random(12)
    for _ in range(30):
        size = rng.randint(1, 3)
        m = PolyMatrix([[random_polynomial(rng, 3, max_degree=2, max_terms=2)
                         for _ in range(size)] for _ in range(size)])
        point = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        direct = evaluate(m.det(), point)
        scalar_det = PolyMatrix(
            [[Polynomial.constant(evaluate(m[i, j], point), 3, QQ)
              for j in range(size)] for i in range(size)]).det()
        assert scalar_det.constant_value() == direct


def test_rank_equals_largest_nonzero_minor():
    rng = random.Random(13)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 3)
        m = PolyMatrix([[random_polynomial(rng, 3, max_degree=1, max_terms=2)
                         for _ in range(cols)] for _ in range(rows)])
        largest = 0
        for s in range(1, min(rows, cols) + 1):
            if any(not det.is_zero() for _, _, det in m.minors(s)):
                largest = s
        assert len(m.pivot_rows()) == largest


def test_solutions_solve_the_system():
    rng = random.Random(14)
    F5 = PrimeField(5)
    for field in (QQ, F5):
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = ScalarMatrix([[rng.randint(-3, 3) for _ in range(cols)]
                              for _ in range(rows)], field)
            b = [rng.randint(-3, 3) for _ in range(rows)]
            x = solve_over_field(a, b)
            if x is not None:
                assert a.matvec(x) == tuple(field.normalize(v) for v in b)
            for v in nullspace_over_field(a):
                assert a.matvec(v) == tuple(field.zero for _ in range(rows))
            assert len(nullspace_over_field(a)) == cols - rank(a)


def test_vector_reads_entries_row_by_row():
    assert ScalarMatrix([[1, 2, 3], [4, 5, 6]], QQ).vector() == [1, 2, 3, 4, 5, 6]


def test_independent_is_the_rank_of_stacked_entries():
    # the oracle stacks each matrix column by column, a different order from
    # vector(), and ranks the stack
    def stacked_rank_is_full(matrices, field):
        rows = [[m[i, j] for j in range(m.cols) for i in range(m.rows)]
                for m in matrices]
        return rank(ScalarMatrix(rows, field)) == len(matrices)

    rng = random.Random(16)
    for field in (QQ, PrimeField(2), PrimeField(5)):
        def random_matrix(n):
            return ScalarMatrix([[rng.randint(-2, 2) for _ in range(n)]
                                 for _ in range(n)], field)

        one = ScalarMatrix.identity(2, field)
        zero = ScalarMatrix([[0, 0], [0, 0]], field)
        assert polymat.independent([])
        assert polymat.independent([one])
        assert not polymat.independent([zero])
        assert not polymat.independent([one, zero])
        assert not polymat.independent([one, one])
        outcomes = set()
        for _ in range(40):
            n = rng.randint(1, 3)
            count = rng.randint(0, n * n + 1)
            matrices = [random_matrix(n) for _ in range(count)]
            if matrices and rng.random() < 0.3:  # repeat one of them
                matrices.append(rng.choice(matrices))
            expected = stacked_rank_is_full(matrices, field)
            assert polymat.independent(matrices) == expected, matrices
            outcomes.add(expected)
        assert outcomes == {True, False}
