"""Shared helpers: random instance generators and independent oracles."""

import re
from fractions import Fraction
from math import comb
from typing import Optional

from locspan import (
    QQ,
    LinearSubspace,
    MatrixSubspace,
    PolyMatrix,
    Polynomial,
    PrimeField,
    ScalarMatrix,
    coordinate_vector,
    groebner,
    has_free_rank,
    solve_over_field,
    span_over_field,
)
from locspan.cli import (
    MAX_DIMENSION,
    MAX_PARSE_BITS,
    MAX_PARSE_DEGREE,
    MAX_PARSE_DEPTH,
    MAX_PARSE_TERMS,
    InstanceFile,
    ParseError,
)
from locspan.exactalg import Field


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


def vandermonde_y1(n, d, field=QQ):
    """q_1 = y and q_j = (1^(j-1) y1, 2^(j-1) y1, ..., n^(j-1) y1) for
    j = 2..d: y = q_1, so the witness is (1, 0, ..., 0) with m = 1, while
    every one of the C(n, d) maximal minors is a nonzero multiple of
    y1^(d-1)."""
    y = coordinate_vector(n, field)
    return LinearSubspace([y] + [tuple(y[0].scale(i ** (j - 1))
                                       for i in range(1, n + 1))
                                 for j in range(2, d + 1)])


def record_bases(monkeypatch):
    """The list, filled as `groebner.buchberger` runs, of the field of each
    basis computed."""
    fields = []
    original = groebner.buchberger

    def recording(generators):
        generators = list(generators)
        fields.append(generators[0].field)
        return original(generators)

    monkeypatch.setattr(groebner, "buchberger", recording)
    return fields


def reference_contains(subspace: MatrixSubspace, matrix: ScalarMatrix) -> bool:
    """Whether ``matrix`` is in the span, by a solve: its entries as a
    combination of columns that hold the entries of the basis matrices."""
    def entries(m):
        return [x for row in m.entries for x in row]

    if not subspace.basis:
        return not any(entries(matrix))
    system = ScalarMatrix.from_columns(list(map(entries, subspace.basis)),
                                       subspace.field)
    return solve_over_field(system, entries(matrix)) is not None


def reference_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Independent product oracle: field products and sums on every pair of
    terms, each normalised, where `Polynomial.__mul__` multiplies cleared
    int term maps."""
    a._check(b)
    field = a.field
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            c = field.normalize(c1 * c2)
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                s = field.normalize(acc + c)
                if s == field.zero:
                    del out[m]
                else:
                    out[m] = s
    return Polynomial._raw(a.nvars, field, out)


def evaluate(p: Polynomial, point) -> object:
    """Exact value of ``p`` at a point of its coefficient field: each
    coordinate normalised, then field products and sums term by term."""
    if len(point) != p.nvars:
        raise ValueError(
            f"point has {len(point)} coordinates, expected {p.nvars}")
    norm = p.field.normalize
    values = [norm(v) for v in point]
    total = p.field.zero
    for mono, coeff in p.terms.items():
        term = coeff
        for i, e in enumerate(mono):
            for _ in range(e):
                term = norm(term * values[i])
        total = norm(total + term)
    return total


class FractionArithmetic:
    """Counts `Fraction`'s ``+ - *``, reflected forms included, while it is
    entered, so it sees `Fraction` arithmetic by any route, `sum` and mixed
    int operands included.  ``with FractionArithmetic() as ops: ...`` leaves
    the count in ``ops.count``; ``ops.reset()`` sets it back to 0."""

    OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__")

    def __init__(self):
        self.count = 0
        self.originals = {name: getattr(Fraction, name)
                          for name in self.OPERATORS}

    def reset(self):
        self.count = 0

    def _counting(self, original):
        def operator(a, b):
            self.count += 1
            return original(a, b)
        return operator

    def __enter__(self):
        for name, original in self.originals.items():
            setattr(Fraction, name, self._counting(original))
        return self

    def __exit__(self, *exc):
        for name, original in self.originals.items():
            setattr(Fraction, name, original)


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


# ---------------------------------------------------------------------------
# The instance parser as it was before constants became field values: its
# tokenizer, expression parser and `parse_instance`, kept as they were so
# that a differential test can hold the parser in `locspan.cli` to the same
# values, the same budgets and the same `ParseError`s.

_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)"
                                 r"|(?P<sym>[-+*^/()\[\],=])|(?P<bad>\S))")


def _reference_tokenize(text: str, line: int):
    tokens = []
    # each match starts where the last ended
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group('bad')!r}",
                             line, m.start("bad") + 1)
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
    return tokens


class _ReferenceExprParser:
    """Recursive-descent parser producing polynomials in a fixed ring."""

    def __init__(self, tokens, nvars: int, field: Field, line: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.field = field
        self.line = line
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line,
                             self.tokens[-1][2] if self.tokens else 1)
        self.pos += 1
        return tok

    def expect(self, symbol: str):
        tok = self.next()
        if tok[0] != "sym" or tok[1] != symbol:
            raise ParseError(f"expected {symbol!r}, found {tok[1]!r}",
                             self.line, tok[2])
        return tok

    def at_symbol(self, symbol: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "sym" and tok[1] == symbol

    def parse_expression(self) -> Polynomial:
        if self.at_symbol("-"):
            self.next()
            value = -self.parse_term()
        else:
            value = self.parse_term()
        while self.at_symbol("+") or self.at_symbol("-"):
            op = self.next()
            term = self.parse_term()
            value = value + term if op[1] == "+" else value - term
            if len(value.terms) > MAX_PARSE_TERMS:
                raise ParseError("sum exceeds the parser budget", self.line,
                                 op[2])
        return value

    def parse_list(self, parse_item) -> list:
        """``[item, item, ...]``, each item read by ``parse_item``."""
        self.expect("[")
        items = [parse_item()]
        while self.at_symbol(","):
            self.next()
            items.append(parse_item())
        self.expect("]")
        return items

    def check_budget(self, tok, degree, terms, bits=0) -> None:
        """Refuse, before expanding it, a product or power over budget."""
        if (degree > MAX_PARSE_DEGREE or terms > MAX_PARSE_TERMS
                or bits > MAX_PARSE_BITS):
            raise ParseError("expansion exceeds the parser budget",
                             self.line, tok[2])

    def parse_term(self) -> Polynomial:
        value = self.parse_factor()
        while self.at_symbol("*"):
            star = self.next()
            factor = self.parse_factor()
            # the zero polynomial has degree -inf and always passes
            self.check_budget(star, value.total_degree() + factor.total_degree(),
                              len(value.terms) * len(factor.terms))
            value = value * factor
        return value

    def parse_factor(self) -> Polynomial:
        value = self.parse_atom()
        if self.at_symbol("^"):
            caret = self.next()
            tok = self.next()
            if tok[0] != "int":
                raise ParseError("exponent must be an integer literal",
                                 self.line, tok[2])
            k = int(tok[1])
            t = len(value.terms)
            # a t-term polynomial to the k has at most C(t+k-1, k) terms;
            # t > 1 means degree > 0, so once the degree passes k is small
            bits = max((c.numerator.bit_length() + c.denominator.bit_length()
                        for c in value.terms.values()), default=0)
            self.check_budget(caret, value.total_degree() * k, 0, k * bits)
            self.check_budget(caret, 0, comb(t + k - 1, k) if t else 0)
            value = value ** k
        return value

    def parse_atom(self) -> Polynomial:
        tok = self.next()
        if tok[0] == "sym" and tok[1] in ("-", "("):
            self.depth += 1
            if self.depth > MAX_PARSE_DEPTH:
                raise ParseError("nesting exceeds the parser budget",
                                 self.line, tok[2])
            if tok[1] == "-":
                value = -self.parse_atom()
            else:
                value = self.parse_expression()
                self.expect(")")
            self.depth -= 1
            return value
        if tok[0] == "int":
            numerator = int(tok[1])
            if self.at_symbol("/"):
                self.next()
                den_tok = self.next()
                if den_tok[0] != "int":
                    raise ParseError("denominator must be an integer literal",
                                     self.line, den_tok[2])
                try:
                    return Polynomial.constant(
                        Fraction(numerator, int(den_tok[1])), self.nvars,
                        self.field)
                except ZeroDivisionError:
                    raise ParseError(
                        f"denominator {den_tok[1]} is zero in {self.field!r}",
                        self.line, den_tok[2]) from None
            return Polynomial.constant(numerator, self.nvars, self.field)
        if tok[0] == "name":
            m = re.fullmatch(r"y(\d+)", tok[1])
            if not m:
                raise ParseError(f"unknown identifier {tok[1]!r}", self.line, tok[2])
            index = int(m.group(1))
            if not 1 <= index <= self.nvars:
                raise ParseError(
                    f"variable y{index} out of range for n = {self.nvars}",
                    self.line, tok[2])
            return Polynomial.variable(index - 1, self.nvars, self.field)
        raise ParseError(f"unexpected token {tok[1]!r}", self.line, tok[2])


def reference_parse_polynomial(text: str, nvars: int, field: Field,
                     line: int = 0) -> Polynomial:
    """Parse one polynomial expression (used for instance files and reports)."""
    parser = _ReferenceExprParser(_reference_tokenize(text, line), nvars,
                                  field, line)
    value = parser.parse_expression()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"trailing input {tok[1]!r}", line, tok[2])
    return value


def reference_parse_instance(text: str) -> InstanceFile:
    """Parse an instance file; raises `ParseError` with line/column info."""
    field: Optional[Field] = None
    nvars: Optional[int] = None
    kind: Optional[str] = None
    labels: list = []
    vectors: list = []
    matrices: list = []
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line == "end":
            ended = True
            break
        head, rest = (line.split(None, 1) + [""])[:2]
        if head in ("field", "n", "kind") and labels:
            raise ParseError(f"{head} must precede basis lines", lineno, 1)
        if head == "field":
            words = rest.split()
            if words[:1] == ["Q"] and len(words) == 1:
                field = QQ
            elif len(words) == 2 and words[0] == "Fp":
                try:
                    field = PrimeField(int(words[1]))
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, len("field Fp ") + 1)
            else:
                raise ParseError(f"bad field declaration {rest!r}", lineno, 7)
            continue
        if head == "n":
            try:
                nvars = int(rest.strip())
            except ValueError:
                raise ParseError(f"bad dimension {rest!r}", lineno, 3)
            if nvars < 1:
                raise ParseError("n must be positive", lineno, 3)
            if nvars > MAX_DIMENSION:
                raise ParseError(f"n exceeds the cap of {MAX_DIMENSION}", lineno, 3)
            continue
        if head == "kind":
            kind = rest.strip()
            if kind not in ("linear-subspace", "matrix-subspace"):
                raise ParseError(f"unknown kind {kind!r}", lineno, 6)
            continue
        # basis line
        if field is None or nvars is None or kind is None:
            raise ParseError("field, n and kind must precede basis lines",
                             lineno, 1)
        tokens = _reference_tokenize(line, lineno)
        if len(tokens) < 2 or tokens[0][0] != "name":
            raise ParseError("expected a basis line 'label = [...]'", lineno, 1)
        label = tokens[0][1]
        if label in labels:
            raise ParseError(f"duplicate basis label {label!r}", lineno,
                             tokens[0][2])
        parser = _ReferenceExprParser(tokens[1:], nvars, field, lineno)
        parser.expect("=")
        if kind == "linear-subspace":
            components = parser.parse_list(parser.parse_expression)
            if parser.peek() is not None:
                raise ParseError("trailing input after basis vector", lineno,
                                 parser.peek()[2])
            if len(components) != nvars:
                raise ParseError(
                    f"vector has {len(components)} components, expected {nvars}",
                    lineno, 1)
            if not all(c.is_zero() or c.homogeneous_degree() == 1
                       for c in components):
                raise ParseError("component not a linear form", lineno, 1)
            vectors.append(tuple(components))
        else:
            rows = parser.parse_list(
                lambda: parser.parse_list(parser.parse_expression))
            if parser.peek() is not None:
                raise ParseError("trailing input after matrix", lineno,
                                 parser.peek()[2])
            if len(rows) != nvars or any(len(r) != nvars for r in rows):
                raise ParseError(f"matrix must be {nvars}x{nvars}", lineno, 1)
            if not all(p.is_constant() for row in rows for p in row):
                raise ParseError("matrix entries must be constants", lineno, 1)
            matrices.append(ScalarMatrix(
                [[p.constant_value() for p in row] for row in rows], field))
        labels.append(label)

    if field is None or nvars is None or kind is None:
        raise ParseError("missing field, n or kind declaration", 1, 1)
    if not ended:
        raise ParseError("missing 'end' terminator", 1, 1)
    if not labels:
        raise ParseError("instance declares no basis entries", 1, 1)
    return InstanceFile(field=field, nvars=nvars, kind=kind,
                        labels=tuple(labels), vectors=tuple(vectors),
                        matrices=tuple(matrices))
