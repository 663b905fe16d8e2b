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
``verify`` subcommand.  Exit code 0 means the computation completed (the
decision itself is in the report), 2 means bad input, 3 means an
enumeration budget was exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import (
    QQ,
    Field,
    Polynomial,
    PrimeField,
    RationalFunction,
    format_polynomial,
    poly_lcm,
)
from .groebner import Ideal, radical_membership
from .localmem import (
    BudgetExceededError,
    CramerWitness,
    DEFAULT_POINT_BUDGET,
    LinearSubspace,
    MinorFailure,
    PointFailure,
    common_nullvector,
    local_membership_closure,
    local_membership_points,
    local_only_example,
    pencil_coefficients,
    span_over_field,
    span_over_fractions,
    verify_witness_bounds,
)
from .matspace import (
    DEFAULT_SEARCH_BUDGET,
    MatrixSubspace,
    Rank1Idempotent,
    find_rank1_idempotent,
    is_rank1_idempotent_free,
    is_subspace_of_tracezero,
    outer_product,
    perp,
    trace_pairing,
    unflat,
)
from .polymat import ScalarMatrix, rank


class ParseError(ValueError):
    """Syntax or validation error in an instance file, with position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Expression tokenizer/parser.

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)"
                       r"|(?P<sym>[-+*^/()\[\],=])|(?P<bad>\S))")


def _tokenize(text: str, line: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}",
                             line, m.start("bad") + 1)
        if m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int") + 1))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name") + 1))
        elif m.group("sym"):
            tokens.append(("sym", m.group("sym"), m.start("sym") + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser producing polynomials in a fixed ring."""

    def __init__(self, tokens, nvars: int, field: Field, line: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.field = field
        self.line = line

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
            op = self.next()[1]
            term = self.parse_term()
            value = value + term if op == "+" else value - term
        return value

    def parse_term(self) -> Polynomial:
        value = self.parse_factor()
        while self.at_symbol("*"):
            self.next()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> Polynomial:
        value = self.parse_atom()
        if self.at_symbol("^"):
            caret = self.next()
            tok = self.next()
            if tok[0] != "int":
                raise ParseError("exponent must be an integer literal",
                                 self.line, tok[2])
            value = value ** int(tok[1])
        return value

    def parse_atom(self) -> Polynomial:
        tok = self.next()
        if tok[0] == "sym" and tok[1] == "-":
            return -self.parse_atom()
        if tok[0] == "sym" and tok[1] == "(":
            value = self.parse_expression()
            self.expect(")")
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


def parse_polynomial(text: str, nvars: int, field: Field,
                     line: int = 0) -> Polynomial:
    """Parse one polynomial expression (used for instance files and reports)."""
    parser = _ExprParser(_tokenize(text, line), nvars, field, line)
    value = parser.parse_expression()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"trailing input {tok[1]!r}", line, tok[2])
    return value


# ---------------------------------------------------------------------------
# Instance files.

@dataclass(frozen=True)
class InstanceFile:
    """A parsed instance: field, ambient n, and basis entries."""

    field: Field
    nvars: int
    kind: str
    labels: tuple
    vectors: tuple = ()      # linear-subspace kind
    matrices: tuple = ()     # matrix-subspace kind

    def canonical_text(self) -> str:
        lines = []
        if isinstance(self.field, PrimeField):
            lines.append(f"field Fp {self.field.p}")
        else:
            lines.append("field Q")
        lines.append(f"n {self.nvars}")
        lines.append(f"kind {self.kind}")
        if self.kind == "linear-subspace":
            for label, vec in zip(self.labels, self.vectors):
                body = ", ".join(format_polynomial(p) for p in vec)
                lines.append(f"{label} = [{body}]")
        else:
            for label, mat in zip(self.labels, self.matrices):
                rows = ", ".join(
                    "[" + ", ".join(self.field.format(x) for x in row) + "]"
                    for row in mat.entries)
                lines.append(f"{label} = [{rows}]")
        lines.append("end")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def to_linear_subspace(self) -> LinearSubspace:
        if self.kind != "linear-subspace":
            raise ValueError("instance is not a linear subspace")
        return LinearSubspace(self.vectors)

    def to_matrix_subspace(self) -> MatrixSubspace:
        if self.kind != "matrix-subspace":
            raise ValueError("instance is not a matrix subspace")
        return MatrixSubspace(self.matrices, n=self.nvars, field=self.field)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


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
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line == "end":
            ended = True
            break
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
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
        tokens = _tokenize(line, lineno)
        if len(tokens) < 2 or tokens[0][0] != "name":
            raise ParseError("expected a basis line 'label = [...]'", lineno, 1)
        label = tokens[0][1]
        if label in labels:
            raise ParseError(f"duplicate basis label {label!r}", lineno,
                             tokens[0][2])
        parser = _ExprParser(tokens[1:], nvars, field, lineno)
        parser.expect("=")
        parser.expect("[")
        if kind == "linear-subspace":
            components = [parser.parse_expression()]
            while parser.at_symbol(","):
                parser.next()
                components.append(parser.parse_expression())
            parser.expect("]")
            if parser.peek() is not None:
                raise ParseError("trailing input after basis vector", lineno,
                                 parser.peek()[2])
            if len(components) != nvars:
                raise ParseError(
                    f"vector has {len(components)} components, expected {nvars}",
                    lineno, 1)
            for comp in components:
                if not (comp.is_zero() or comp.homogeneous_degree() == 1):
                    raise ParseError("component not a linear form", lineno, 1)
            vectors.append(tuple(components))
        else:
            rows = []
            while True:
                parser.expect("[")
                row = [parser.parse_expression()]
                while parser.at_symbol(","):
                    parser.next()
                    row.append(parser.parse_expression())
                parser.expect("]")
                rows.append(row)
                if parser.at_symbol(","):
                    parser.next()
                    continue
                break
            parser.expect("]")
            if parser.peek() is not None:
                raise ParseError("trailing input after matrix", lineno,
                                 parser.peek()[2])
            if len(rows) != nvars or any(len(r) != nvars for r in rows):
                raise ParseError(f"matrix must be {nvars}x{nvars}", lineno, 1)
            entries = []
            for row in rows:
                converted = []
                for p in row:
                    if not p.is_constant():
                        raise ParseError("matrix entries must be constants",
                                         lineno, 1)
                    converted.append(p.constant_value())
                entries.append(converted)
            matrices.append(ScalarMatrix(entries, field))
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

def _field_name(field: Field) -> str:
    return f"Fp {field.p}" if isinstance(field, PrimeField) else "Q"


def _scalars(field: Field, values) -> list:
    return [field.format(v) for v in values]


def _matrix_json(matrix: ScalarMatrix) -> list:
    return [[matrix.field.format(x) for x in row] for row in matrix.entries]


def _witness_json(witness: CramerWitness) -> dict:
    return {
        "index_set": [i + 1 for i in witness.index_set],
        "lambdas": [{"num": format_polynomial(lam.numerator),
                     "den": format_polynomial(lam.denominator)}
                    for lam in witness.lambdas],
        "m": format_polynomial(witness.denominator_lcm),
    }


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
        return {"idempotent": {"u": [str(x) for x in witness.u],
                               "v": [str(x) for x in witness.v]}}
    raise TypeError(f"unknown failure witness {witness!r}")


def _make_report(command: str, outcome: bool, witness, failure, instance,
                 n: int, d: int, field: Field, started: float) -> dict:
    return {
        "command": command,
        "outcome": outcome,
        "witness": witness,
        "failure_witness": failure,
        "field": _field_name(field),
        "n": n,
        "d": d,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
        "instance": instance.canonical_text() if instance is not None else None,
        "digest": instance.digest() if instance is not None else None,
    }


def _render_text(report: dict) -> str:
    lines = []
    for key in ("command", "field", "n", "d", "outcome"):
        lines.append(f"{key}: {json.dumps(report[key])}")
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


def _emit(report: dict, as_json: bool, stream=None) -> None:
    stream = stream or sys.stdout
    if as_json:
        print(json.dumps(report, indent=2), file=stream)
    else:
        print(_render_text(report), file=stream)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns a report dict.

def _cmd_decide_local(instance: InstanceFile, method: str, budget: int,
                      started: float) -> dict:
    subspace = instance.to_linear_subspace()
    if method == "closure":
        decision = local_membership_closure(subspace)
    else:
        decision = local_membership_points(subspace, budget=budget)
    return _make_report("decide-local", decision.holds, None,
                        _failure_json(decision.failure_witness), instance,
                        subspace.nvars, subspace.dim, subspace.field, started)


def _cmd_decide_span_f(instance: InstanceFile, started: float) -> dict:
    subspace = instance.to_linear_subspace()
    coeffs = span_over_field(subspace)
    witness = None
    if coeffs is not None:
        witness = {"coefficients": _scalars(subspace.field, coeffs)}
    return _make_report("decide-span-f", coeffs is not None, witness, None,
                        instance, subspace.nvars, subspace.dim,
                        subspace.field, started)


def _cmd_decide_span_l(instance: InstanceFile, started: float) -> dict:
    subspace = instance.to_linear_subspace()
    witness = span_over_fractions(subspace)
    return _make_report("decide-span-l", witness is not None,
                        _witness_json(witness) if witness else None, None,
                        instance, subspace.nvars, subspace.dim,
                        subspace.field, started)


def _cmd_witness_bounds(instance: InstanceFile, started: float) -> dict:
    subspace = instance.to_linear_subspace()
    witness = span_over_fractions(subspace)
    if witness is None:
        return _make_report("witness-bounds", False, None, None, instance,
                            subspace.nvars, subspace.dim, subspace.field,
                            started)
    report = verify_witness_bounds(witness, subspace)
    payload = _witness_json(witness)
    payload.update({
        "identity_ok": report.identity_ok,
        "fractions_ok": report.fractions_ok,
        "divisibility_ok": report.divisibility_ok,
        "lcm_degree": report.lcm_degree,
        "lcm_degree_below_dim": report.lcm_degree_below_dim,
        "lambda_degrees": [list(t) for t in report.lambda_degrees],
    })
    return _make_report("witness-bounds", report.ok, payload, None, instance,
                        subspace.nvars, subspace.dim, subspace.field, started)


def _cmd_pencil(instance: InstanceFile, started: float) -> dict:
    subspace = instance.to_linear_subspace()
    matrices = pencil_coefficients(subspace)
    null = common_nullvector(matrices)
    field = subspace.field
    coefficients = None
    if null is not None:
        inv_last = field.inv(null[-1])
        coefficients = [field.neg(field.mul(x, inv_last)) for x in null[:-1]]
    witness = {
        "matrices": [_matrix_json(m) for m in matrices],
        "common_null": _scalars(field, null) if null is not None else None,
        "coefficients": _scalars(field, coefficients)
        if coefficients is not None else None,
    }
    return _make_report("pencil", null is not None, witness, None, instance,
                        subspace.nvars, subspace.dim, field, started)


def _cmd_r1free(instance: InstanceFile, started: float) -> dict:
    subspace = instance.to_matrix_subspace()
    decision = is_rank1_idempotent_free(subspace)
    return _make_report("r1free", decision.holds, None,
                        _failure_json(decision.failure_witness), instance,
                        subspace.n, subspace.codim, subspace.field, started)


def _cmd_idempotent_search(instance: InstanceFile, budget: int,
                           started: float) -> dict:
    subspace = instance.to_matrix_subspace()
    found = find_rank1_idempotent(subspace, budget=budget)
    witness = None
    if found is not None:
        witness = {"u": [str(x) for x in found.u],
                   "v": [str(x) for x in found.v]}
    return _make_report("idempotent-search", found is not None, witness, None,
                        instance, subspace.n, subspace.codim,
                        subspace.field, started)


def _cmd_perp(instance: InstanceFile, started: float) -> dict:
    subspace = instance.to_matrix_subspace()
    complement = perp(subspace)
    witness = {"dim": complement.dim,
               "basis": [_matrix_json(b) for b in complement.basis]}
    return _make_report("perp", True, witness, None, instance, subspace.n,
                        subspace.codim, subspace.field, started)


def _cmd_tracezero(instance: InstanceFile, started: float) -> dict:
    subspace = instance.to_matrix_subspace()
    outcome = is_subspace_of_tracezero(subspace)
    return _make_report("tracezero", outcome, None, None, instance,
                        subspace.n, subspace.codim, subspace.field, started)


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
# verify: re-check the witness of an emitted report.

def _parse_lambda(entry: dict, nvars: int, field: Field) -> RationalFunction:
    num = parse_polynomial(entry["num"], nvars, field)
    den = parse_polynomial(entry["den"], nvars, field)
    return RationalFunction(num, den)


def _reconstruct_witness(payload: dict, nvars: int, field: Field) -> CramerWitness:
    index_set = tuple(i - 1 for i in payload["index_set"])
    lambdas = tuple(_parse_lambda(e, nvars, field) for e in payload["lambdas"])
    m = parse_polynomial(payload["m"], nvars, field)
    return CramerWitness(index_set, lambdas, m)


def _verify_minor_failure(subspace: LinearSubspace, payload: dict,
                          checks: dict) -> None:
    nvars, field = subspace.nvars, subspace.field
    rows = tuple(r - 1 for r in payload["rows"])
    cols = tuple(c - 1 for c in payload["cols"])
    s = payload["stratum"]
    reported = parse_polynomial(payload["minor"], nvars, field)
    augmented = subspace.augmented_matrix()
    actual = augmented.submatrix(rows, cols).det()
    checks["minor_matches"] = actual == reported
    ideal = Ideal([m for _, _, m in subspace.basis_matrix.minors(s)],
                  nvars=nvars, field=field) if s <= subspace.dim else \
        Ideal([], nvars=nvars, field=field)
    checks["minor_outside_radical"] = not radical_membership(reported, ideal)


def _verify_point_failure(subspace: LinearSubspace, payload: dict,
                          checks: dict) -> None:
    field = subspace.field
    point = [field.parse(x) for x in payload["point"]]
    columns = [b.matvec(point) for b in subspace.coeff_matrices]
    basis_eval = ScalarMatrix.from_columns(columns, field)
    aug_eval = ScalarMatrix.from_columns(columns + [tuple(point)], field)
    checks["rank_jump"] = rank(aug_eval) > rank(basis_eval)


def verify_report(report: dict) -> dict:
    """Re-check everything checkable in a previously emitted report."""
    command = report.get("command")
    checks: dict = {}
    instance = None
    if report.get("instance"):
        instance = parse_instance(report["instance"])
    witness = report.get("witness")
    failure = report.get("failure_witness")

    if command in ("decide-span-f",) and witness:
        subspace = instance.to_linear_subspace()
        field = subspace.field
        coeffs = [field.parse(x) for x in witness["coefficients"]]
        target = subspace.coordinate_target()
        ok = True
        for comp in range(subspace.nvars):
            acc = Polynomial.zero(subspace.nvars, field)
            for c, vec in zip(coeffs, subspace.basis):
                acc = acc + vec[comp].scale(c)
            ok = ok and acc == target[comp]
        checks["combination_matches_target"] = ok
    elif command in ("decide-span-l", "witness-bounds") and witness:
        subspace = instance.to_linear_subspace()
        cramer = _reconstruct_witness(witness, subspace.nvars, subspace.field)
        bounds = verify_witness_bounds(cramer, subspace)
        checks["identity_holds"] = bounds.identity_ok
        recomputed_m = Polynomial.one(subspace.nvars, subspace.field)
        for lam in cramer.lambdas:
            recomputed_m = poly_lcm(recomputed_m, lam.denominator)
        checks["m_is_denominator_lcm"] = recomputed_m == cramer.denominator_lcm
        if command == "witness-bounds":
            checks["fractions_flag_matches"] = \
                bounds.fractions_ok == witness["fractions_ok"]
            checks["divisibility_flag_matches"] = \
                bounds.divisibility_ok == witness["divisibility_ok"]
            checks["lcm_degree_matches"] = \
                bounds.lcm_degree == witness["lcm_degree"]
    elif command == "decide-local" and failure:
        subspace = instance.to_linear_subspace()
        if failure.get("method") == "closure_radical":
            _verify_minor_failure(subspace, failure, checks)
        else:
            _verify_point_failure(subspace, failure, checks)
    elif command == "r1free" and failure:
        matrix_subspace = instance.to_matrix_subspace()
        if "idempotent" in failure:
            field = matrix_subspace.field
            u = [field.parse(x) for x in failure["idempotent"]["u"]]
            v = [field.parse(x) for x in failure["idempotent"]["v"]]
            dot = field.zero
            for a, b in zip(u, v):
                dot = field.add(dot, field.mul(a, b))
            checks["normalized"] = dot == field.one
            checks["inside_subspace"] = matrix_subspace.contains(
                outer_product(u, v, field))
        else:
            complement = perp(matrix_subspace)
            derived = LinearSubspace([unflat(b) for b in complement.basis])
            if failure.get("method") == "closure_radical":
                _verify_minor_failure(derived, failure, checks)
            else:
                _verify_point_failure(derived, failure, checks)
    elif command == "idempotent-search" and witness:
        matrix_subspace = instance.to_matrix_subspace()
        field = matrix_subspace.field
        u = [field.parse(x) for x in witness["u"]]
        v = [field.parse(x) for x in witness["v"]]
        dot = field.zero
        for a, b in zip(u, v):
            dot = field.add(dot, field.mul(a, b))
        checks["normalized"] = dot == field.one
        checks["inside_subspace"] = matrix_subspace.contains(
            outer_product(u, v, field))
    elif command == "pencil" and witness:
        subspace = instance.to_linear_subspace()
        field = subspace.field
        matrices = pencil_coefficients(subspace)
        reported = [ScalarMatrix([[field.parse(x) for x in row] for row in m],
                                 field) for m in witness["matrices"]]
        checks["matrices_match"] = matrices == reported
        if witness.get("common_null") is not None:
            null = [field.parse(x) for x in witness["common_null"]]
            zero_vec = tuple(field.zero for _ in null)
            checks["annihilates_pencil"] = all(
                m.matvec(null) == zero_vec for m in matrices)
            checks["last_coordinate_nonzero"] = null[-1] != field.zero
    elif command == "perp" and witness:
        matrix_subspace = instance.to_matrix_subspace()
        field = matrix_subspace.field
        basis = [ScalarMatrix([[field.parse(x) for x in row] for row in m],
                              field) for m in witness["basis"]]
        checks["orthogonal"] = all(
            trace_pairing(a, b) == field.zero
            for a in basis for b in matrix_subspace.basis)
        checks["dimension_complement"] = (
            len(basis) + matrix_subspace.dim == matrix_subspace.n ** 2)
        checks["independent"] = MatrixSubspace(
            basis, n=matrix_subspace.n, field=field).dim == len(basis)
    elif command == "tracezero":
        matrix_subspace = instance.to_matrix_subspace()
        checks["outcome_matches"] = (
            is_subspace_of_tracezero(matrix_subspace) == report["outcome"])
    else:
        checks["nothing_to_verify"] = True

    return checks


# ---------------------------------------------------------------------------
# Entry point.

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locspan",
        description="Exact span-membership and rank-1-idempotent decisions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("--input", default="-",
                       help="instance file ('-' for stdin)")
        p.add_argument("--json", action="store_true",
                       help="emit the report as a JSON object")
        return p

    p = with_input(sub.add_parser("decide-local",
                                  help="local membership of the coordinate vector"))
    p.add_argument("--method", choices=("closure", "points"),
                   default="closure")
    p.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)

    with_input(sub.add_parser("decide-span-f",
                              help="membership with base-field coefficients"))
    with_input(sub.add_parser("decide-span-l",
                              help="membership with rational-function coefficients"))
    with_input(sub.add_parser("witness-bounds",
                              help="degree and divisibility checks on the witness"))
    with_input(sub.add_parser("pencil",
                              help="pencil decomposition and common null vector"))
    with_input(sub.add_parser("r1free",
                              help="rank-1 idempotent freeness (closure method)"))
    p = with_input(sub.add_parser("idempotent-search",
                                  help="exhaustive prime-field idempotent search"))
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    with_input(sub.add_parser("perp",
                              help="orthogonal complement under the trace pairing"))
    with_input(sub.add_parser("tracezero",
                              help="containment in the trace-zero matrices"))

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
            subspace = local_only_example(args.n, args.d)
            instance = instance_from_subspace(subspace)
            if args.json:
                report = _make_report(
                    "example", True, {"instance": instance.canonical_text()},
                    None, instance, args.n, args.d, subspace.field, started)
                _emit(report, as_json=True)
            else:
                sys.stdout.write(instance.canonical_text())
            return 0

        if args.command == "verify":
            inner = json.loads(_read_input(args.input))
            checks = verify_report(inner)
            outcome = all(bool(v) for v in checks.values())
            report = {
                "command": "verify",
                "outcome": outcome,
                "witness": {"checks": checks},
                "failure_witness": None,
                "field": inner.get("field"),
                "n": inner.get("n"),
                "d": inner.get("d"),
                "elapsed_ms": int((time.monotonic() - started) * 1000),
                "instance": inner.get("instance"),
                "digest": inner.get("digest"),
            }
            _emit(report, as_json=args.json)
            return 0

        text = _read_input(args.input)
        instance = parse_instance(text)
        if args.command == "decide-local":
            report = _cmd_decide_local(instance, args.method, args.budget,
                                       started)
        elif args.command == "decide-span-f":
            report = _cmd_decide_span_f(instance, started)
        elif args.command == "decide-span-l":
            report = _cmd_decide_span_l(instance, started)
        elif args.command == "witness-bounds":
            report = _cmd_witness_bounds(instance, started)
        elif args.command == "pencil":
            report = _cmd_pencil(instance, started)
        elif args.command == "r1free":
            report = _cmd_r1free(instance, started)
        elif args.command == "idempotent-search":
            report = _cmd_idempotent_search(instance, args.budget, started)
        elif args.command == "perp":
            report = _cmd_perp(instance, started)
        elif args.command == "tracezero":
            report = _cmd_tracezero(instance, started)
        else:  # pragma: no cover - argparse restricts the choices
            raise AssertionError(args.command)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, as_json=args.json)
    return 0


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
