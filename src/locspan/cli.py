"""Instance files, subcommand dispatch, and machine-readable decision reports.

Instance files are line oriented::

    # comment
    field Q            (or: field Fp 5)
    n 4
    kind linear-subspace
    q1 = [y1, y2, y3 - y1, y4]
    ...
    end

Matrix-subspace instances use ``kind matrix-subspace`` and rows of
constants, e.g. ``b1 = [[0, 1], [1, 0]]``.  Expressions support ``+ - *``,
integer (and ``a/b`` rational) literals, ``^`` powers and parentheses;
components of a linear-subspace basis must expand to linear forms.

Every run emits a report; with ``--json`` it is a single JSON object whose
embedded canonical instance text makes each witness re-checkable by the
``verify`` subcommand.  One table, ``_COMMANDS``, builds the argument
parser and dispatches the instance subcommands.  Exit code 0 means the
computation completed (the decision itself is in the report), 2 means bad
input, 3 means an enumeration budget was exceeded, and 1 that stdout was
closed before the report was written.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .exactalg import (
    QQ,
    Field,
    Polynomial,
    PrimeField,
    RationalFunction,
    format_polynomial,
)
from .localmem import (
    BudgetExceededError,
    CramerWitness,
    DEFAULT_POINT_BUDGET,
    LinearSubspace,
    MinorFailure,
    PointFailure,
    Stratum,
    WitnessBoundsReport,
    _is_linear_form,
    combination,
    common_nullvector,
    cramer_identity_holds,
    denominator_lcm,
    local_membership_closure,
    local_membership_points,
    local_only_example,
    pencil_coefficients,
    ranks_at,
    span_over_field,
    span_over_fractions,
    verify_witness_bounds,
)
from .matspace import (
    DEFAULT_SEARCH_BUDGET,
    MatrixSubspace,
    Rank1Idempotent,
    complement_subspace,
    find_rank1_idempotent,
    is_rank1_idempotent_free,
    is_subspace_of_tracezero,
    perp,
    trace_pairing,
)
from .polymat import ScalarMatrix, independent


class ParseError(ValueError):
    """Syntax or validation error in an instance file, with position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Expression tokenizer/parser.

#: The parser's work budget: a product or power whose result would exceed this
#: degree or term count, or (powers only) coefficient bits, is a `ParseError`
#: at its operator, a sum whose terms pass the term count is one at the ``+``
#: or ``-`` that passes it, and so is nesting past this depth.  A literal, or a
#: coefficient that a sum, product or power makes, is refused there past
#: `MAX_PARSE_DIGITS` digits, Python's default int-to-text limit.  An ambient
#: dimension n past `MAX_DIMENSION` (an ``n`` line, ``example --n``) is
#: refused before anything of size n is built.
MAX_PARSE_DEGREE = 32
MAX_PARSE_TERMS = 2_000
MAX_PARSE_BITS = 1 << 16
MAX_PARSE_DIGITS = 4300
MAX_PARSE_DEPTH = 100
MAX_DIMENSION = 64
_PRINTABLE = 10 ** MAX_PARSE_DIGITS

#: One match per token, each starting where the last ended: group 1 is an
#: integer literal, a name or a symbol, group 2 any other character, which
#: is an error.
_TOKEN_RE = re.compile(r"\s*(?:(\d+|[A-Za-z_]\w*|[-+*^/()\[\],=])|(\S))")
#: The start of an integer literal of more than `MAX_PARSE_DIGITS` digits.
_LONG_LITERAL_RE = re.compile(rf"\b\d{{{MAX_PARSE_DIGITS + 1}}}")
_VARIABLE_RE = re.compile(r"y(\d+)")


def _tokenize(text: str, line: int) -> tuple:
    """The token texts of ``text`` and their matches (for the columns); a
    character that starts no token, or an integer literal too long for
    ``int``, is a `ParseError` at its column."""
    matches = list(_TOKEN_RE.finditer(text))
    tokens = [m[1] for m in matches]
    if None in tokens:
        m = matches[tokens.index(None)]
        raise ParseError(f"unexpected character {m[2]!r}", line,
                         m.start(2) + 1)
    long = _LONG_LITERAL_RE.search(text)
    if long:
        raise ParseError("literal exceeds the parser budget", line,
                         long.start() + 1)
    return tokens, matches


def _is_name(token: str) -> bool:
    """Whether a token of `_tokenize` is a name: its other tokens are
    decimal literals and symbols, and neither starts with a letter."""
    return token[0] == "_" or token[0].isalpha()


def _printable(c) -> bool:
    """Whether a report can print the field value ``c``."""
    return type(c) is int or (-_PRINTABLE < c.numerator < _PRINTABLE
                              and c.denominator < _PRINTABLE)


class _ExprParser:
    """Recursive-descent parser producing polynomials in a fixed ring.

    Every value is a term map ``{monomial: nonzero field value}`` that the
    parser owns, as `Polynomial.terms`; a constant is the map of the zero
    monomial ``unit``.  A sum adds its terms into one map, a lone constant
    factor scales the other map, a one-term power raises its term, and the
    rest is `Polynomial` arithmetic on `Polynomial._raw` wrappers.
    ``tokens`` ends with an empty string, so looking ahead is one index.
    """

    def __init__(self, text: str, nvars: int, field: Field, line: int):
        self.tokens, self.matches = _tokenize(text, line)
        self.end = len(self.tokens)
        self.tokens.append("")
        self.pos = self.depth = 0
        self.nvars, self.field, self.line = nvars, field, line
        self.unit = (0,) * nvars

    def error(self, message: str, index: int) -> ParseError:
        """A `ParseError` at the column of token ``index``."""
        return ParseError(message, self.line, self.matches[index].start(1) + 1)

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if not tok:
            if not self.end:
                raise ParseError("unexpected end of line", self.line, 1)
            raise self.error("unexpected end of line", self.end - 1)
        self.pos += 1
        return tok

    def expect(self, symbol: str) -> None:
        if self.next() != symbol:
            raise self.error(f"expected {symbol!r}, found "
                             f"{self.tokens[self.pos - 1]!r}", self.pos - 1)

    def wrap(self, terms: dict) -> Polynomial:
        return Polynomial._raw(self.nvars, self.field, terms)

    def parse_polynomial(self) -> Polynomial:
        return self.wrap(self.parse_expression())

    def parse_scalar(self):
        """One expression, as a field value; None if it is not constant."""
        terms = self.parse_expression()
        return terms.get(self.unit) if len(terms) == 1 else (
            None if terms else self.field.zero)

    def parse_list(self, parse_item) -> list:
        """``[item, item, ...]``, each item read by ``parse_item``."""
        self.expect("[")
        items = [parse_item()]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            items.append(parse_item())
        self.expect("]")
        return items

    def parse_expression(self) -> dict:
        # a leading minus subtracts the first term from the empty sum
        total = {} if self.tokens[self.pos] == "-" else self.parse_term()
        while self.tokens[self.pos] in ("+", "-"):
            self.pos += 1
            self.add_into(total, self.pos - 1, self.parse_term())
        return total

    def add_into(self, total: dict, op: int, terms: dict) -> dict:
        """Add ``terms`` into ``total``, negated if token ``op`` is ``-``;
        a sum of more than `MAX_PARSE_TERMS` terms is refused at ``op``."""
        norm = self.field.normalize
        if self.tokens[op] == "-":
            terms = {m: norm(-c) for m, c in terms.items()}
        for m, c in terms.items():
            if m in total:
                c = norm(total[m] + c)
                self.bound(op, (c,))
                if not c:
                    del total[m]
                    continue
            total[m] = c
        if len(total) > MAX_PARSE_TERMS:
            raise self.error("sum exceeds the parser budget", op)
        return total

    def check_budget(self, index, degree, terms, bits=0) -> None:
        """Refuse an operator over budget at its token ``index``."""
        if (degree > MAX_PARSE_DEGREE or terms > MAX_PARSE_TERMS
                or bits > MAX_PARSE_BITS):
            raise self.error("expansion exceeds the parser budget", index)

    def bound(self, index: int, coefficients) -> None:
        """Refuse at token ``index`` coefficients no report can print."""
        if not all(map(_printable, coefficients)):
            raise self.error("coefficient exceeds the parser budget", index)

    def parse_term(self) -> dict:
        value, unit = self.parse_factor(), self.unit
        while self.tokens[self.pos] == "*":
            self.pos += 1
            star, other = self.pos - 1, self.parse_factor()
            if len(value) == 1 and unit in value:
                value, other = other, value
            lone = len(other) == 1 and unit in other
            a, b = self.wrap(value), self.wrap(other)
            # a lone constant factor scales the other map, whose degree is
            # within budget as every map's is; the zero map's is -inf
            self.check_budget(star, 0 if lone else a.total_degree()
                              + b.total_degree(), len(value) * len(other))
            if lone:
                c, norm = other[unit], self.field.normalize
                value = {m: norm(x * c) for m, x in value.items()}
            else:
                value = (a * b).terms
            self.bound(star, value.values())
        return value

    def parse_factor(self) -> dict:
        value = self.parse_atom()
        if self.tokens[self.pos] != "^":
            return value
        caret = self.pos
        self.pos += 1
        k, t, base = self.integer("exponent"), len(value), self.wrap(value)
        # a t-term polynomial to the k has at most C(t+k-1, k) terms; t > 1
        # means degree > 0, so a k past the degree budget fails by degree
        bits = max((c.numerator.bit_length() + c.denominator.bit_length()
                    for c in value.values()), default=0)
        self.check_budget(caret, base.total_degree() * k, comb(t + k - 1, k)
                          if 1 < t and k <= MAX_PARSE_DEGREE else t, k * bits)
        value = ({tuple(e * k for e in m): self.field.normalize(c ** k)
                  for m, c in value.items()} if t == 1 else (base ** k).terms)
        self.bound(caret, value.values())
        return value

    def integer(self, what: str) -> int:
        """The next token as an int; ``what`` names it if it is not one."""
        tok = self.next()
        if not tok.isdecimal():
            raise self.error(f"{what} must be an integer literal",
                             self.pos - 1)
        return int(tok)

    def parse_atom(self) -> dict:
        tok = self.next()
        if tok.isdecimal():
            try:
                value = int(tok)
                if self.tokens[self.pos] == "/":
                    self.pos += 1
                    value = Fraction(value, self.integer("denominator"))
                value = value and self.field.normalize(value)  # 0 stays 0
            except ZeroDivisionError:
                den = self.tokens[self.pos - 1]
                raise self.error(f"denominator {den} is zero in "
                                 f"{self.field!r}", self.pos - 1) from None
            return {self.unit: value} if value else {}
        if tok == "-" or tok == "(":
            self.depth += 1
            if self.depth > MAX_PARSE_DEPTH:
                raise self.error("nesting exceeds the parser budget",
                                 self.pos - 1)
            value = (self.add_into({}, self.pos - 1, self.parse_atom())
                     if tok == "-" else self.parse_expression())
            if tok == "(":
                self.expect(")")
            self.depth -= 1
            return value
        if not _is_name(tok):
            raise self.error(f"unexpected token {tok!r}", self.pos - 1)
        m = _VARIABLE_RE.fullmatch(tok)
        if not m or len(m[1]) > MAX_PARSE_DIGITS:
            raise self.error(f"unknown identifier {tok!r}", self.pos - 1)
        index = int(m[1])
        if not 1 <= index <= self.nvars:
            raise self.error(f"variable y{index} out of range for n = "
                             f"{self.nvars}", self.pos - 1)
        return {self.unit[:index - 1] + (1,) + self.unit[index:]:
                self.field.one}


def parse_polynomial(text: str, nvars: int, field: Field,
                     line: int = 0) -> Polynomial:
    """Parse one polynomial expression (used for instance files and reports)."""
    parser = _ExprParser(text, nvars, field, line)
    value = parser.parse_polynomial()
    if parser.pos < parser.end:
        raise parser.error(f"trailing input {parser.tokens[parser.pos]!r}",
                           parser.pos)
    return value


# ---------------------------------------------------------------------------
# Instance files.

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class InstanceFile:
    """A parsed instance: field, ambient n, and basis entries."""

    field: Field
    nvars: int
    kind: str
    labels: tuple
    vectors: tuple = ()      # linear-subspace kind
    matrices: tuple = ()     # matrix-subspace kind

    def field_name(self) -> str:
        return f"Fp {self.field.p}" if isinstance(self.field, PrimeField) else "Q"

    def canonical_text(self) -> str:
        lines = [f"field {self.field_name()}", f"n {self.nvars}",
                 f"kind {self.kind}"]
        if self.kind == "linear-subspace":
            for label, vec in zip(self.labels, self.vectors):
                body = ", ".join(format_polynomial(p) for p in vec)
                lines.append(f"{label} = [{body}]")
        else:
            for label, mat in zip(self.labels, self.matrices):
                rows = ", ".join("[" + ", ".join(map(str, row)) + "]"
                                 for row in mat.entries)
                lines.append(f"{label} = [{rows}]")
        lines.append("end")
        return "\n".join(lines) + "\n"

    def shape(self) -> dict:
        """Report keys field, n and d (codimension for matrices)."""
        count = len(self.labels)
        d = count if self.kind == "linear-subspace" else self.nvars ** 2 - count
        return {"field": self.field_name(), "n": self.nvars, "d": d}

    def header(self) -> dict:
        """`shape` and the keys instance and digest, the SHA-256 of the same
        rendering of the instance."""
        text = self.canonical_text()
        return self.shape() | {"instance": text, "digest": _sha256(text)}

    def to_linear_subspace(self) -> LinearSubspace:
        if self.kind != "linear-subspace":
            raise ValueError("instance is not a linear subspace")
        return LinearSubspace(self.vectors)

    def to_matrix_subspace(self) -> MatrixSubspace:
        if self.kind != "matrix-subspace":
            raise ValueError("instance is not a matrix subspace")
        return MatrixSubspace(self.matrices, n=self.nvars, field=self.field)


def parse_instance(text: str) -> InstanceFile:
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
        if (head == "field" and field is not None
                or head == "n" and nvars is not None
                or head == "kind" and kind is not None):
            raise ParseError(f"duplicate {head!r} declaration", lineno, 1)
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
        parser = _ExprParser(line, nvars, field, lineno)
        label = parser.tokens[0]
        if parser.end < 2 or not _is_name(label):
            raise ParseError("expected a basis line 'label = [...]'", lineno, 1)
        if label in labels:
            raise parser.error(f"duplicate basis label {label!r}", 0)
        parser.pos = 1
        parser.expect("=")
        if kind == "linear-subspace":
            components = parser.parse_list(parser.parse_polynomial)
            if parser.pos < parser.end:
                raise parser.error("trailing input after basis vector",
                                   parser.pos)
            if len(components) != nvars:
                raise ParseError(
                    f"vector has {len(components)} components, expected {nvars}",
                    lineno, 1)
            if not all(map(_is_linear_form, components)):
                raise ParseError("component not a linear form", lineno, 1)
            vectors.append(tuple(components))
        else:
            rows = parser.parse_list(
                lambda: parser.parse_list(parser.parse_scalar))
            if parser.pos < parser.end:
                raise parser.error("trailing input after matrix", parser.pos)
            if len(rows) != nvars or any(len(r) != nvars for r in rows):
                raise ParseError(f"matrix must be {nvars}x{nvars}", lineno, 1)
            if any(x is None for row in rows for x in row):
                raise ParseError("matrix entries must be constants", lineno, 1)
            matrices.append(ScalarMatrix(rows, field))
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


# ---------------------------------------------------------------------------
# Report plumbing.

def _matrix_json(matrix: ScalarMatrix) -> list:
    return [[str(x) for x in row] for row in matrix.entries]


def _witness_json(witness: CramerWitness) -> dict:
    return {
        "index_set": [i + 1 for i in witness.index_set],
        "lambdas": [{"num": format_polynomial(lam.numerator),
                     "den": format_polynomial(lam.denominator)}
                    for lam in witness.lambdas],
        "m": format_polynomial(witness.denominator_lcm),
    }


def _bounds_json(report: WitnessBoundsReport) -> dict:
    """The keys a `witness-bounds` payload adds to its `_witness_json`."""
    return {"identity_ok": report.identity_ok,
            "fractions_ok": report.fractions_ok,
            "divisibility_ok": report.divisibility_ok,
            "lcm_degree": report.lcm_degree,
            "lcm_degree_below_dim": report.lcm_degree_below_dim,
            "lambda_degrees": [list(t) for t in report.lambda_degrees]}


def _pencil_json(field: Field, matrices, null) -> dict:
    """The pencil payload; the coefficients divide by the last coordinate of
    the common null vector, if there is one, which must not be zero."""
    witness = {"matrices": [_matrix_json(m) for m in matrices],
               "common_null": None, "coefficients": None}
    if null is not None:
        inv_last = field.inv(null[-1])
        witness["common_null"] = [str(x) for x in null]
        witness["coefficients"] = [str(field.normalize(-x * inv_last))
                                   for x in null[:-1]]
    return witness


def _idempotent_json(found: Rank1Idempotent) -> dict:
    return {"u": [str(x) for x in found.u], "v": [str(x) for x in found.v]}


def _failure_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    if isinstance(witness, MinorFailure):
        return {"method": "closure_radical", "stratum": witness.stratum,
                "rows": [r + 1 for r in witness.rows],
                "cols": [c + 1 for c in witness.cols],
                "minor": format_polynomial(witness.minor)}
    if isinstance(witness, PointFailure):
        return {"method": "point_enumeration",
                "point": [str(x) for x in witness.point],
                "rank_basis": witness.rank_basis,
                "rank_augmented": witness.rank_augmented}
    if isinstance(witness, Rank1Idempotent):
        return {"idempotent": _idempotent_json(witness)}
    raise TypeError(f"unknown failure witness {witness!r}")


def _report(command: str, outcome, witness, failure, header: dict) -> dict:
    """The ten report keys in order; field, n, d, instance and digest come
    from ``header``, and `run_command` sets ``elapsed_ms``."""
    return {"command": command, "outcome": outcome, "witness": witness,
            "failure_witness": failure, "field": header.get("field"),
            "n": header.get("n"), "d": header.get("d"), "elapsed_ms": None,
            "instance": header.get("instance"), "digest": header.get("digest")}


def _render_text(report: dict) -> str:
    lines = [f"{key}: {json.dumps(report[key])}"
             for key in ("command", "field", "n", "d", "outcome")]
    for key in ("witness", "failure_witness"):
        if report.get(key) is not None:
            lines.append(f"{key}:")
            block = json.dumps(report[key], indent=2)
            lines.extend("  " + ln for ln in block.splitlines())
    lines.append(f"elapsed_ms: {report['elapsed_ms']}")
    if report.get("digest"):
        lines.append(f"digest: {report['digest']}")
    if report.get("instance"):
        lines.append("instance:")
        lines.extend("  " + ln for ln in report["instance"].splitlines())
    return "\n".join(lines)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each takes the parsed instance and the
# command-line arguments and returns (outcome, witness, failure witness).

def _cmd_decide_local(instance: InstanceFile, args) -> tuple:
    subspace = instance.to_linear_subspace()
    decision = (local_membership_closure(subspace) if args.method == "closure"
                else local_membership_points(subspace, budget=args.budget))
    return decision.holds, None, _failure_json(decision.failure_witness)


def _cmd_decide_span_f(instance: InstanceFile, args) -> tuple:
    subspace = instance.to_linear_subspace()
    coeffs = span_over_field(subspace)
    if coeffs is None:
        return False, None, None
    return True, {"coefficients": [str(c) for c in coeffs]}, None


def _cmd_decide_span_l(instance: InstanceFile, args) -> tuple:
    witness = span_over_fractions(instance.to_linear_subspace())
    return witness is not None, _witness_json(witness) if witness else None, None


def _cmd_witness_bounds(instance: InstanceFile, args) -> tuple:
    subspace = instance.to_linear_subspace()
    witness = span_over_fractions(subspace)
    if witness is None:
        return False, None, None
    report = verify_witness_bounds(witness, subspace)
    return report.ok, _witness_json(witness) | _bounds_json(report), None


def _cmd_pencil(instance: InstanceFile, args) -> tuple:
    subspace = instance.to_linear_subspace()
    matrices = pencil_coefficients(subspace)
    null = common_nullvector(matrices)
    return null is not None, _pencil_json(subspace.field, matrices, null), None


def _cmd_r1free(instance: InstanceFile, args) -> tuple:
    decision = is_rank1_idempotent_free(instance.to_matrix_subspace())
    return decision.holds, None, _failure_json(decision.failure_witness)


def _cmd_idempotent_search(instance: InstanceFile, args) -> tuple:
    found = find_rank1_idempotent(instance.to_matrix_subspace(),
                                  budget=args.budget)
    return found is not None, _idempotent_json(found) if found else None, None


def _cmd_perp(instance: InstanceFile, args) -> tuple:
    complement = perp(instance.to_matrix_subspace())
    return True, {"dim": complement.dim,
                  "basis": [_matrix_json(b) for b in complement.basis]}, None


def _cmd_tracezero(instance: InstanceFile, args) -> tuple:
    return is_subspace_of_tracezero(instance.to_matrix_subspace()), None, None


#: The instance subcommands: name -> (implementation, help text, options
#: beyond ``--input`` and ``--json``).  The table drives both the argument
#: parser and the dispatch in `run_command`.
_COMMANDS = {
    "decide-local": (
        _cmd_decide_local, "local membership of the coordinate vector",
        (("--method", {"choices": ("closure", "points"),
                       "default": "closure"}),
         ("--budget", {"type": int, "default": DEFAULT_POINT_BUDGET}))),
    "decide-span-f": (_cmd_decide_span_f,
                      "membership with base-field coefficients", ()),
    "decide-span-l": (_cmd_decide_span_l,
                      "membership with rational-function coefficients", ()),
    "witness-bounds": (_cmd_witness_bounds,
                       "degree and divisibility checks on the witness", ()),
    "pencil": (_cmd_pencil,
               "pencil decomposition and common null vector", ()),
    "r1free": (_cmd_r1free,
               "rank-1 idempotent freeness (closure method)", ()),
    "idempotent-search": (
        _cmd_idempotent_search, "exhaustive prime-field idempotent search",
        (("--budget", {"type": int, "default": DEFAULT_SEARCH_BUDGET}),)),
    "perp": (_cmd_perp, "orthogonal complement under the trace pairing", ()),
    "tracezero": (_cmd_tracezero, "containment in the trace-zero matrices", ()),
}


def instance_from_subspace(subspace: LinearSubspace) -> InstanceFile:
    labels = tuple(f"q{i + 1}" for i in range(subspace.dim))
    return InstanceFile(field=subspace.field, nvars=subspace.nvars,
                        kind="linear-subspace", labels=labels,
                        vectors=subspace.basis)


def instance_from_matrix_subspace(subspace: MatrixSubspace) -> InstanceFile:
    labels = tuple(f"b{i + 1}" for i in range(subspace.dim))
    return InstanceFile(field=subspace.field, nvars=subspace.n,
                        kind="matrix-subspace", labels=labels,
                        matrices=subspace.basis)


# ---------------------------------------------------------------------------
# verify: re-check the witness of an emitted report.  Every value read from
# the report is checked for its shape first; a malformed report is a
# `ValueError`, never a crash inside the library.

def _entry(payload, key: str, kind=list):
    """``payload[key]``, which must be a ``kind``."""
    value = payload.get(key) if isinstance(payload, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"malformed report: {key!r} must be a {kind.__name__}")
    return value


def _indices(payload, key: str, bound: int) -> tuple:
    """The strictly increasing 1-based indices in ``1..bound`` under
    ``key``, made 0-based, as every writer prints them."""
    values = _entry(payload, key)
    if not (all(type(i) is int and 1 <= i <= bound for i in values)
            and values == sorted(set(values))):
        raise ValueError(f"malformed report: {key!r} must hold increasing "
                         f"indices 1..{bound}")
    return tuple(i - 1 for i in values)


def _grammar_value(key: str, text: str, nvars: int, field: Field) -> Polynomial:
    """``text`` read by the instance grammar; a refusal names ``key``."""
    try:
        return parse_polynomial(text, nvars, field)
    except ParseError as exc:
        raise ValueError(f"malformed report: {key!r} at col {exc.col}: "
                         f"{exc}") from None


def _scalar(text, key: str, field: Field):
    """A report scalar under ``key``: a string holding a constant of the
    instance grammar."""
    if not isinstance(text, str):
        raise ValueError(f"malformed report: {key!r} must hold strings")
    return _grammar_value(key, text, 0, field).constant_value()


def _parse_vector(payload, key: str, field: Field) -> list:
    return [_scalar(x, key, field) for x in _entry(payload, key)]


def _parse_matrices(payload, key: str, field: Field) -> list:
    values = _entry(payload, key)
    if not all(isinstance(m, list) and all(isinstance(r, list) for r in m)
               for m in values):
        raise ValueError(f"malformed report: {key!r} must hold matrices")
    return [ScalarMatrix([[_scalar(x, key, field) for x in row] for row in m],
                         field) for m in values]


def _parse_poly(payload, key: str, subspace: LinearSubspace) -> Polynomial:
    return _grammar_value(key, _entry(payload, key, str), subspace.nvars,
                          subspace.field)


def _same(reported, value) -> bool:
    """Whether a reported field is ``value`` as JSON text: ``1`` is not ``true``."""
    return json.dumps(reported, sort_keys=True) == json.dumps(value, sort_keys=True)


def _check_cramer(subspace: LinearSubspace, witness, checks: dict,
                  with_bounds: bool):
    """Re-check a Cramer witness's identity and lcm; ``with_bounds`` also
    compares each `_bounds_json` key of a `witness-bounds` report with its
    recomputed value (a gcd per lambda; C(n, d) minors for a forged one)."""
    lambdas = _entry(witness, "lambdas")
    nums = [_parse_poly(e, "num", subspace) for e in lambdas]
    dens = [_parse_poly(e, "den", subspace) for e in lambdas]
    m = _parse_poly(witness, "m", subspace)
    if len(lambdas) != subspace.dim or not (m and all(dens)):
        raise ValueError("malformed report: bad 'lambdas' or 'm' in the witness")
    index_set = _indices(witness, "index_set", subspace.nvars)
    if len(index_set) != subspace.dim:
        raise ValueError("malformed report: 'index_set' must hold d indices")
    cramer = CramerWitness(index_set, tuple(map(RationalFunction, nums, dens)), m)
    bounds = verify_witness_bounds(cramer, subspace) if with_bounds else None
    same = {key: _same(witness.get(key), value)
            for key, value in _bounds_json(bounds).items()} if bounds else {}
    checks["identity_holds"] = (cramer_identity_holds(cramer, subspace)
                                if bounds is None else
                                bounds.identity_ok and same["identity_ok"])
    checks["m_is_denominator_lcm"] = denominator_lcm(cramer.lambdas) == m
    if bounds is not None:
        checks["fractions_flag_matches"] = \
            same["fractions_ok"] and same["lambda_degrees"]
        checks["divisibility_flag_matches"] = same["divisibility_ok"]
        checks["lcm_degree_matches"] = \
            same["lcm_degree"] and same["lcm_degree_below_dim"]


def _check_local_failure(subspace: LinearSubspace, failure, checks: dict):
    """Re-check a failing minor, or a rank jump at a point, of ``subspace``."""
    if _entry(failure, "method", str) == "closure_radical":
        s = failure.get("stratum")
        rows = _indices(failure, "rows", subspace.nvars)
        cols = _indices(failure, "cols", subspace.dim + 1)
        # s rows and s columns, the target column d + 1 among them
        if (type(s) is not int or subspace.dim not in cols
                or not len(rows) == s == len(cols)):
            raise ValueError("malformed report: 'stratum' must be the size of "
                             "a minor on the target column")
        reported = _parse_poly(failure, "minor", subspace)
        actual = subspace.augmented_matrix().submatrix(rows, cols).det()
        checks["minor_matches"] = actual == reported
        checks["minor_outside_radical"] = Stratum(subspace, s).outside(actual)
    else:
        point = _parse_vector(failure, "point", subspace.field)
        ranks = ranks_at(subspace, point)
        checks["rank_jump"] = ranks[1] > ranks[0] and \
            _same(failure, _failure_json(PointFailure(point, *ranks)))


def _check_idempotent(subspace: MatrixSubspace, payload, checks: dict):
    field = subspace.field
    u, v = (_parse_vector(payload, key, field) for key in ("u", "v"))
    if len(u) != subspace.n or len(v) != subspace.n:
        raise ValueError("malformed report: 'u' and 'v' must hold n entries")
    idempotent = Rank1Idempotent(u, v).matrix(field)
    checks["normalized"] = idempotent.trace() == field.one  # v^T u = 1
    checks["inside_subspace"] = subspace.contains(idempotent)


def _rederived_outcome(command: str, instance: InstanceFile) -> bool:
    """The outcome of ``command`` on ``instance`` with the parser's defaults;
    `decide-local` over F_p runs points, which every holding report implies."""
    if command == "example":  # whether this is the example of its n and d
        n, d = instance.nvars, len(instance.labels)
        return n >= 4 and 3 <= d < n and instance.canonical_text() == \
            instance_from_subspace(local_only_example(n, d)).canonical_text()
    argv = [command]
    if command == "decide-local" and isinstance(instance.field, PrimeField):
        argv += ["--method", "points"]
    return _COMMANDS[command][0](instance, _build_parser().parse_args(argv))[0]


def verify_report(report: dict) -> dict:
    """Re-check a report on its embedded instance: its certificate, which an
    ``outcome`` must not contradict, or else its re-derived outcome."""
    if not isinstance(report, dict):
        raise ValueError("malformed report: not a JSON object")
    command = report.get("command")
    if not isinstance(command, str) or command not in {*_COMMANDS, "example"}:
        raise ValueError("malformed report: 'command' must name an instance "
                         "subcommand or 'example'")
    text = _entry(report, "instance", str)
    if report.get("digest") not in (None, _sha256(text)):
        raise ValueError("malformed report: 'digest' is not the SHA-256 of "
                         "the instance")
    instance = parse_instance(text)
    for key, value in instance.shape().items():
        if key in report and not _same(report[key], value):
            raise ValueError(f"malformed report: {key!r} does not match "
                             "the instance")
    witness, failure = report.get("witness"), report.get("failure_witness")
    checks: dict = {}

    if command == "decide-span-f" and witness:
        subspace = instance.to_linear_subspace()
        coeffs = _parse_vector(witness, "coefficients", subspace.field)
        if len(coeffs) != subspace.dim:
            raise ValueError("malformed report: 'coefficients' must hold d entries")
        checks["combination_matches_target"] = \
            combination(subspace, coeffs) == subspace.coordinate_target()
        certified = True
    elif command in ("decide-span-l", "witness-bounds") and witness:
        _check_cramer(instance.to_linear_subspace(), witness, checks,
                      command == "witness-bounds")
        certified = command == "decide-span-l" or all(
            witness.get(key) is True
            for key in ("identity_ok", "fractions_ok", "divisibility_ok"))
    elif command == "decide-local" and failure:
        _check_local_failure(instance.to_linear_subspace(), failure, checks)
        certified = False
    elif command == "r1free" and failure:
        matrix_subspace = instance.to_matrix_subspace()
        if isinstance(failure, dict) and "idempotent" in failure:
            _check_idempotent(matrix_subspace, failure["idempotent"], checks)
        else:
            _check_local_failure(complement_subspace(matrix_subspace),
                                 failure, checks)
        certified = False
    elif command == "idempotent-search" and witness:
        _check_idempotent(instance.to_matrix_subspace(), witness, checks)
        certified = True
    elif command == "pencil" and witness:
        subspace = instance.to_linear_subspace()
        matrices, field = pencil_coefficients(subspace), subspace.field
        checks["matrices_match"] = \
            matrices == _parse_matrices(witness, "matrices", field)
        certified = witness.get("common_null") is not None
        if certified:
            null = _parse_vector(witness, "common_null", field)
            if len(null) != subspace.nvars:
                raise ValueError("malformed report: 'common_null' must hold "
                                 "n entries")
            checks["annihilates_pencil"] = not any(
                any(m.matvec(null)) for m in matrices)
            checks["last_coordinate_nonzero"] = null[-1] != field.zero and \
                _same(witness, _pencil_json(field, matrices, null))
        else:
            checks["no_common_null"] = common_nullvector(matrices) is None \
                and _same(witness, _pencil_json(field, matrices, None))
    elif command == "perp" and witness:
        matrix_subspace = instance.to_matrix_subspace()
        field, n = matrix_subspace.field, matrix_subspace.n
        basis = _parse_matrices(witness, "basis", field)
        if any(b.rows != n or b.cols != n for b in basis):
            raise ValueError("malformed report: 'basis' must hold n x n matrices")
        checks["orthogonal"] = all(
            trace_pairing(a, b) == field.zero
            for a in basis for b in matrix_subspace.basis)
        checks["dimension_complement"] = len(basis) == matrix_subspace.codim \
            and _same(witness.get("dim"), matrix_subspace.codim)
        checks["independent"] = independent(basis)
        certified = True
    else:
        checks["outcome_matches"] = _same(report.get("outcome"),
                                          _rederived_outcome(command, instance))
        return checks
    if "outcome" in report and report["outcome"] is not certified:
        raise ValueError("malformed report: 'outcome' contradicts the "
                         "report's own witness")
    return checks


# ---------------------------------------------------------------------------
# Entry point.

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, also when it ends in `SystemExit` (an error, or ``--help``)."""
    parser = argparse.ArgumentParser(
        prog="locspan",
        description="Exact span-membership and rank-1-idempotent decisions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", default="-",
                       help="instance file ('-' for stdin)")
        p.add_argument("--json", action="store_true",
                       help="emit the report as a JSON object")
        for flag, settings in options:
            p.add_argument(flag, **settings)

    p = sub.add_parser("example",
                       help="print a locally-spanning instance without a "
                            "base-field witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="re-check the witness in a JSON report")
    p.add_argument("--input", default="-")
    p.add_argument("--json", action="store_true")
    return parser


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "example":
            if args.n > MAX_DIMENSION:
                raise ValueError(f"n exceeds the cap of {MAX_DIMENSION}")
            instance = instance_from_subspace(
                local_only_example(args.n, args.d))
            if not args.json:
                sys.stdout.write(instance.canonical_text())
                return 0
            report = _report("example", True,
                             {"instance": instance.canonical_text()}, None,
                             instance.header())
        elif args.command == "verify":
            try:
                inner = json.loads(_read_input(args.input))
            except RecursionError:
                raise ValueError("malformed report: nested too deeply") from None
            checks = verify_report(inner)
            report = _report("verify", all(bool(v) for v in checks.values()),
                             {"checks": checks}, None, inner)
        else:
            instance = parse_instance(_read_input(args.input))
            run = _COMMANDS[args.command][0]
            report = _report(args.command, *run(instance, args),
                             instance.header())
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # stdout closed early: `main` ends the run
        raise
    except (ValueError, OSError) as exc:  # ParseError, JSON errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    print(json.dumps(report, indent=2) if args.json else _render_text(report))
    return 0


def main() -> None:
    """Run the CLI; a stdout closed before the report is written (as by
    ``| head``) ends the run with exit code 1 and no traceback."""
    try:
        code = run_command()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's recipe: point stdout at devnull so that the flush at
        # interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
