"""LP and MPS writers, companion readers, and solution-file parsing.

The writers are deterministic: the same model always yields the same bytes,
and re-exporting a parsed export reproduces those bytes for models produced
by this package's builders. Rationals with terminating decimal expansions are
rendered as their shortest exact decimal; anything else is rounded to 17
significant digits and recorded as a warning, which export_lp and export_mps
log at WARNING.

The LP dialect is the CPLEX-style section format (Maximize / Subject To /
Bounds / Binaries / End); MPS output is free-format with OBJSENSE MAX and
INTORG/INTEND markers. Only maximization models are supported on both sides.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Mapping

from .milp import BINARY, CONTINUOUS, Exact, LinearModel, ModelError, _rational

logger = logging.getLogger(__name__)


class FormatError(ValueError):
    """Raised for unparsable or unrepresentable model text."""


def format_rational(q: Exact) -> tuple[str, bool]:
    """Render an int or Fraction as decimal text: (text, exactly_representable)."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num), True
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest == 1:
        k = max(twos, fives)
        digits = str(abs(num) * (10**k // den)).rjust(k + 1, "0")
        text = (digits[:-k] + "." + digits[-k:]).rstrip("0").rstrip(".")
        return ("-" if num < 0 else "") + text, True
    with localcontext() as ctx:
        ctx.prec = 17
        approx = Decimal(num) / Decimal(den)
    return format(approx, "f"), False


_NAME_CHARS = set(string.ascii_letters + string.digits + "_.")
_BAD_LEADS = set(string.digits + ".eE")


def sanitize_name(name: str, prefix: str) -> str:
    """Replace characters illegal in LP/MPS names; idempotent.

    Names starting with a digit, a dot, or e/E (which could read as a number)
    get the given prefix. Applying the same call twice is a no-op.
    """
    cleaned = "".join(ch if ch in _NAME_CHARS else "_" for ch in name)
    if not cleaned or cleaned[0] in _BAD_LEADS:
        cleaned = prefix + cleaned
    return cleaned


@dataclass(frozen=True)
class ExportDoc:
    """Export text plus the name maps and rendering warnings."""

    text: str
    var_names: dict[str, str]
    row_names: dict[str, str]
    warnings: tuple[str, ...]


def _name_maps(model: LinearModel) -> tuple[dict[str, str], dict[str, str]]:
    if not model.variables:
        raise FormatError("cannot export a model with no variables")
    var_names: dict[str, str] = {}
    used: set[str] = {"obj"}
    for var in model.variables:
        mapped = sanitize_name(var.name, "v_")
        if mapped in used:
            raise FormatError(f"sanitized variable name collision at {var.name!r}")
        used.add(mapped)
        var_names[var.name] = mapped
    row_names: dict[str, str] = {}
    for row in model.constraints:
        mapped = sanitize_name(row.tag, "c_")
        if mapped in used:
            raise FormatError(f"sanitized row name collision at {row.tag!r}")
        used.add(mapped)
        row_names[row.tag] = mapped
    return var_names, row_names


class _Renderer:
    def __init__(self) -> None:
        self.warnings: list[str] = []

    def number(self, q: Exact, where: str) -> str:
        text, exact = format_rational(q)
        if not exact:
            self.warnings.append(
                f"{where}: {q} rendered inexactly as {text} (17 significant digits)"
            )
        return text

    def terms(
        self, terms: Mapping[str, Exact], names: dict[str, str], where: str
    ) -> str:
        if not terms:
            return f"+ 0 {next(iter(names.values()))}"
        parts = []
        for name, coef in terms.items():
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {self.number(abs(coef), where)} {names[name]}")
        return " ".join(parts)


def _meta_lines(model: LinearModel, comment: str) -> list[str]:
    lines = []
    for key, value in model.metadata.items():
        if "=" in key or any(ch.isspace() for ch in key):
            raise FormatError(f"metadata key {key!r} not representable")
        if "\n" in value:
            raise FormatError(f"metadata value for {key!r} contains newline")
        lines.append(f"{comment} meta {key}={value}")
    return lines


def lp_document(model: LinearModel) -> ExportDoc:
    """Render the model in LP format with full name maps."""
    var_names, row_names = _name_maps(model)
    r = _Renderer()
    lines = ["\\ linear model"]
    lines += _meta_lines(model, "\\")
    lines.append("Maximize")
    lines.append(f" obj: {r.terms(model.objective, var_names, 'objective')}")
    lines.append("Subject To")
    for row in model.constraints:
        rname = row_names[row.tag]
        body = r.terms(row.terms, var_names, f"row {rname}")
        rhs = r.number(row.rhs, f"rhs of {rname}")
        lines.append(f" {rname}: {body} {row.sense} {rhs}")
    bound_lines = []
    for var in model.variables:
        name = var_names[var.name]
        if var.kind == BINARY:
            if (var.lower, var.upper) == (0, 1):
                continue
            lo = r.number(var.lower, f"bound of {name}")
            up = r.number(var.upper, f"bound of {name}")
            bound_lines.append(f" {lo} <= {name} <= {up}")
        elif var.lower is None and var.upper is None:
            bound_lines.append(f" {name} free")
        elif var.upper is None:
            bound_lines.append(f" {name} >= {r.number(var.lower, name)}")
        elif var.lower is None:
            bound_lines.append(f" -inf <= {name} <= {r.number(var.upper, name)}")
        else:
            lo = r.number(var.lower, f"bound of {name}")
            up = r.number(var.upper, f"bound of {name}")
            bound_lines.append(f" {lo} <= {name} <= {up}")
    if bound_lines:
        lines.append("Bounds")
        lines.extend(bound_lines)
    binaries = [var_names[v.name] for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    return ExportDoc(
        "\n".join(lines) + "\n", var_names, row_names, tuple(r.warnings)
    )


def _logged_text(doc: ExportDoc) -> str:
    """The document's text, after one log line counting its warnings."""
    if doc.warnings:
        count, first = len(doc.warnings), doc.warnings[0]
        logger.warning("%d numbers rendered inexactly; the first: %s", count, first)
    return doc.text


def export_lp(model: LinearModel) -> str:
    return _logged_text(lp_document(model))


def mps_document(model: LinearModel) -> ExportDoc:
    """Render the model in free MPS format with full name maps."""
    var_names, row_names = _name_maps(model)
    r = _Renderer()
    lines = ["* linear model"]
    lines += _meta_lines(model, "*")
    lines.append("NAME model")
    lines.append("OBJSENSE")
    lines.append("    MAX")
    lines.append("ROWS")
    lines.append(" N obj")
    sense_code = {"<=": "L", ">=": "G", "=": "E"}
    for row in model.constraints:
        lines.append(f" {sense_code[row.sense]} {row_names[row.tag]}")
    lines.append("COLUMNS")
    # One pass over the rows files each entry line under its variable, so
    # the COLUMNS section costs O(nonzeros) instead of O(variables x rows).
    columns: dict[str, list[str]] = {var.name: [] for var in model.variables}
    for var_name, coef in model.objective.items():
        name = var_names[var_name]
        columns[var_name].append(f"    {name}  obj  {r.number(coef, name)}")
    for row in model.constraints:
        rname = row_names[row.tag]
        for var_name, coef in row.terms.items():
            name = var_names[var_name]
            columns[var_name].append(f"    {name}  {rname}  {r.number(coef, name)}")
    marker = 0
    integer_mode = False
    for var in model.variables:
        want_integer = var.kind == BINARY
        if want_integer != integer_mode:
            state = "INTORG" if want_integer else "INTEND"
            lines.append(f"    MARKER{marker}  'MARKER'  '{state}'")
            marker += 1
            integer_mode = want_integer
        entries = columns.pop(var.name)
        lines.extend(entries or [f"    {var_names[var.name]}  obj  0"])
    if integer_mode:
        lines.append(f"    MARKER{marker}  'MARKER'  'INTEND'")
    lines.append("RHS")
    for row in model.constraints:
        rname = row_names[row.tag]
        lines.append(f"    RHS  {rname}  {r.number(row.rhs, f'rhs of {rname}')}")
    lines.append("BOUNDS")
    for var in model.variables:
        name = var_names[var.name]
        if var.lower is None and var.upper is None:
            lines.append(f" FR BND {name}")
            continue
        if var.lower is None:
            lines.append(f" MI BND {name}")
        else:
            lines.append(f" LO BND {name} {r.number(var.lower, name)}")
        if var.upper is not None:
            lines.append(f" UP BND {name} {r.number(var.upper, name)}")
    lines.append("ENDATA")
    return ExportDoc(
        "\n".join(lines) + "\n", var_names, row_names, tuple(r.warnings)
    )


def export_mps(model: LinearModel) -> str:
    return _logged_text(mps_document(model))


class _Numbers(dict):
    """Token -> int or Fraction (as the model stores it), or None for a token
    that is no number.

    Each distinct token is converted once; readers keep one per call, since
    model text repeats a handful of coefficients and every variable name.
    """

    def __missing__(self, token: str) -> Exact | None:
        try:
            value = _rational(Fraction(token), token)
        except (ValueError, ZeroDivisionError):
            value = None
        self[token] = value
        return value

    def parse(self, token: str, where: str) -> Exact:
        value = self[token]
        if value is None:
            raise FormatError(f"{where}: cannot parse number {token!r}")
        return value


def _is_infinite(token: str) -> bool:
    return token.lower().lstrip("+-") in ("inf", "infinity")


class _VarSpec:
    __slots__ = ("lower", "upper", "binary", "integer", "bounded")

    def __init__(self) -> None:
        self.lower: Exact | None = 0
        self.upper: Exact | None = None
        self.binary = False
        self.integer = False
        self.bounded = False


def _parse_expression(
    tokens: list[str], where: str, numbers: _Numbers
) -> dict[str, Exact]:
    """Parse "[sign] [coef] name" sequences into a term map.

    Every term after the first must follow a + or - sign, and a name may not
    start with a digit or a period, so malformed numbers such as 1/0 are
    rejected rather than read as variable names.
    """
    terms: dict[str, Exact] = {}
    sign = 1
    coef: Exact | None = None
    signed = True
    for token in tokens:
        if token == "+":
            signed = True
            continue
        if token == "-":
            sign = -sign
            signed = True
            continue
        if not signed:
            raise FormatError(f"{where}: missing + or - before {token!r}")
        number = numbers[token]
        if number is not None:
            if coef is not None:
                raise FormatError(f"{where}: two consecutive numbers near {token!r}")
            coef = number
            continue
        if token[0].isdigit() or token[0] == ".":
            raise FormatError(f"{where}: cannot parse number {token!r}")
        value = sign if coef is None else sign * coef
        terms[token] = terms.get(token, 0) + value
        sign = 1
        coef = None
        signed = False
    if coef is not None:
        raise FormatError(f"{where}: trailing number without variable")
    return {name: value for name, value in terms.items() if value != 0}


_LP_SECTIONS = {
    "maximize": "objective",
    "max": "objective",
    "minimize": "minimize",
    "min": "minimize",
    "subject to": "rows",
    "such that": "rows",
    "st": "rows",
    "s.t.": "rows",
    "bounds": "bounds",
    "bound": "bounds",
    "binaries": "binaries",
    "binary": "binaries",
    "bin": "binaries",
    "generals": "general",
    "general": "general",
    "gen": "general",
    "end": "end",
}


def parse_lp(text: str) -> LinearModel:
    """Parse LP text produced by export_lp (plus mild dialect slack)."""
    numbers = _Numbers()
    metadata: dict[str, str] = {}
    section_lines: dict[str, list[str]] = {
        "objective": [],
        "rows": [],
        "bounds": [],
        "binaries": [],
    }
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("\\"):
            body = stripped.lstrip("\\").strip()
            if body.startswith("meta ") and "=" in body:
                key, _, value = body[5:].partition("=")
                metadata[key.strip()] = value
            continue
        keyword = _LP_SECTIONS.get(stripped.lower())
        if keyword == "minimize":
            raise FormatError(f"line {lineno}: only maximization models supported")
        if keyword == "general":
            raise FormatError(f"line {lineno}: general integer variables not supported")
        if keyword == "end":
            break
        if keyword is not None:
            section = keyword
            continue
        if section is None:
            raise FormatError(f"line {lineno}: content before Maximize: {raw!r}")
        section_lines[section].append(stripped)

    # Objective: optional "name:" prefix, then a linear expression.
    obj_tokens = " ".join(section_lines["objective"]).replace(":", " : ").split()
    if ":" in obj_tokens:
        cut = obj_tokens.index(":")
        if cut != 1:
            raise FormatError("objective: malformed name prefix")
        obj_tokens = obj_tokens[cut + 1 :]
    objective = _parse_expression(obj_tokens, "objective", numbers)

    rows: list[tuple[str, dict[str, Exact], str, Exact]] = []
    row_tokens = " ".join(section_lines["rows"]).replace(":", " : ").split()
    i = 0
    row_count = 0
    while i < len(row_tokens):
        name = None
        if i + 1 < len(row_tokens) and row_tokens[i + 1] == ":":
            name = row_tokens[i]
            i += 2
        start = i
        while i < len(row_tokens) and row_tokens[i] not in ("<=", ">=", "=", "<", ">"):
            if row_tokens[i] == ":":
                raise FormatError(f"row {name or row_count}: unexpected ':'")
            i += 1
        if i >= len(row_tokens) - 1:
            raise FormatError("rows: missing sense or right-hand side")
        sense = {"<": "<=", ">": ">="}.get(row_tokens[i], row_tokens[i])
        rhs = numbers.parse(row_tokens[i + 1], f"row {name or row_count} rhs")
        terms = _parse_expression(
            row_tokens[start:i], f"row {name or row_count}", numbers
        )
        if name is None:
            name = f"r{row_count}"
        rows.append((name, terms, sense, rhs))
        row_count += 1
        i += 2

    specs: dict[str, _VarSpec] = {}

    def seen(name: str) -> _VarSpec:
        if numbers[name] is not None or name in ("<=", ">=", "=", ":"):
            raise FormatError(f"invalid variable name {name!r}")
        if name not in specs:
            specs[name] = _VarSpec()
        return specs[name]

    for name in objective:
        seen(name)
    for _, terms, _, _ in rows:
        for name in terms:
            seen(name)

    for line in section_lines["bounds"]:
        tokens = line.split()
        lowered = [t.lower() for t in tokens]
        if len(tokens) == 2 and lowered[1] == "free":
            spec = seen(tokens[0])
            spec.lower = None
            spec.upper = None
            spec.bounded = True
        elif len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
            spec = seen(tokens[2])
            spec.lower = None if _is_infinite(tokens[0]) else numbers.parse(
                tokens[0], "bounds"
            )
            spec.upper = None if _is_infinite(tokens[4]) else numbers.parse(
                tokens[4], "bounds"
            )
            spec.bounded = True
        elif len(tokens) == 3 and tokens[1] in ("<=", ">=", "="):
            spec = seen(tokens[0])
            if _is_infinite(tokens[2]):
                value = None
            else:
                value = numbers.parse(tokens[2], "bounds")
            if tokens[1] == "<=":
                spec.upper = value
            elif tokens[1] == ">=":
                spec.lower = value
            else:
                spec.lower = spec.upper = value
            spec.bounded = True
        else:
            raise FormatError(f"bounds: cannot parse line {line!r}")

    for line in section_lines["binaries"]:
        for name in line.split():
            spec = seen(name)
            spec.binary = True

    model = LinearModel(metadata)
    for name, spec in specs.items():
        if spec.binary:
            lower = 0 if spec.lower is None or not spec.bounded else spec.lower
            upper = 1 if spec.upper is None or not spec.bounded else spec.upper
            model.add_variable(name, BINARY, lower, upper)
        else:
            model.add_variable(name, CONTINUOUS, spec.lower, spec.upper)
    model.set_objective(objective)
    for name, terms, sense, rhs in rows:
        model.add_constraint(terms, sense, rhs, name)
    return model.freeze()


def parse_mps(text: str) -> LinearModel:
    """Parse free MPS text produced by export_mps (plus mild dialect slack)."""
    numbers = _Numbers()
    metadata: dict[str, str] = {}
    section = None
    obj_row: str | None = None
    row_order: list[tuple[str, str]] = []
    row_senses: dict[str, str] = {}
    row_terms: dict[str, dict[str, Exact]] = {}
    objective: dict[str, Exact] = {}
    var_order: list[str] = []
    specs: dict[str, _VarSpec] = {}
    rhs_values: dict[str, Exact] = {}
    integer_mode = False
    objsense: str | None = None
    sense_code = {"L": "<=", "G": ">=", "E": "="}

    def spec_for(name: str) -> _VarSpec:
        if name not in specs:
            specs[name] = _VarSpec()
            var_order.append(name)
        return specs[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if raw.lstrip().startswith("*"):
            body = raw.lstrip().lstrip("*").strip()
            if body.startswith("meta ") and "=" in body:
                key, _, value = body[5:].partition("=")
                metadata[key.strip()] = value
            continue
        is_header = not raw[0].isspace()
        tokens = raw.split()
        if is_header:
            head = tokens[0].upper()
            if head == "NAME":
                section = "name"
            elif head in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                section = head.lower()
                if head == "RANGES":
                    raise FormatError(f"line {lineno}: RANGES section not supported")
                if head == "OBJSENSE" and len(tokens) > 1:
                    objsense = tokens[1].upper()
            elif head == "ENDATA":
                section = "end"
                break
            else:
                raise FormatError(f"line {lineno}: unknown section {tokens[0]!r}")
            continue
        if section == "objsense":
            objsense = tokens[0].upper()
        elif section == "rows":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: malformed row declaration")
            code, name = tokens[0].upper(), tokens[1]
            if code == "N":
                if obj_row is not None:
                    raise FormatError(f"line {lineno}: second objective row")
                obj_row = name
            elif code in sense_code:
                row_order.append((name, sense_code[code]))
                row_senses[name] = sense_code[code]
                row_terms[name] = {}
            else:
                raise FormatError(f"line {lineno}: unknown row code {code!r}")
        elif section == "columns":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                state = tokens[-1].strip("'").upper()
                if state == "INTORG":
                    integer_mode = True
                elif state == "INTEND":
                    integer_mode = False
                else:
                    raise FormatError(f"line {lineno}: unknown marker {state!r}")
                continue
            if len(tokens) not in (3, 5):
                raise FormatError(f"line {lineno}: malformed column entry")
            var = tokens[0]
            spec = spec_for(var)
            spec.integer = spec.integer or integer_mode
            for pos in range(1, len(tokens), 2):
                row, value = tokens[pos], numbers.parse(
                    tokens[pos + 1], f"line {lineno}"
                )
                if row == obj_row:
                    if value != 0:
                        objective[var] = objective.get(var, 0) + value
                elif row in row_terms:
                    if value != 0:
                        row_terms[row][var] = row_terms[row].get(var, 0) + value
                else:
                    raise FormatError(f"line {lineno}: unknown row {row!r}")
        elif section == "rhs":
            pairs = tokens[1:] if len(tokens) % 2 == 1 else tokens
            for pos in range(0, len(pairs), 2):
                row, value = pairs[pos], numbers.parse(
                    pairs[pos + 1], f"line {lineno}"
                )
                if row == obj_row:
                    raise FormatError(f"line {lineno}: objective rhs not supported")
                if row not in row_senses:
                    raise FormatError(f"line {lineno}: unknown row {row!r}")
                rhs_values[row] = value
        elif section == "bounds":
            code = tokens[0].upper()
            if len(tokens) < 3:
                raise FormatError(f"line {lineno}: malformed bound")
            var = tokens[2]
            spec = spec_for(var)
            value = (
                numbers.parse(tokens[3], f"line {lineno}")
                if len(tokens) > 3
                else None
            )
            if code == "UP":
                spec.upper = value
            elif code == "LO":
                spec.lower = value
            elif code == "FX":
                spec.lower = spec.upper = value
            elif code == "FR":
                spec.lower = spec.upper = None
            elif code == "MI":
                spec.lower = None
            elif code == "PL":
                spec.upper = None
            elif code == "BV":
                spec.binary = True
                spec.integer = True
                spec.lower, spec.upper = 0, 1
            elif code in ("UI", "LI"):
                spec.integer = True
                if code == "UI":
                    spec.upper = value
                else:
                    spec.lower = value
            else:
                raise FormatError(f"line {lineno}: unknown bound code {code!r}")
            spec.bounded = True
        elif section == "name":
            raise FormatError(f"line {lineno}: stray content after NAME")

    if objsense not in ("MAX", "MAXIMIZE"):
        raise FormatError("missing or non-MAX OBJSENSE (only maximization supported)")
    if obj_row is None:
        raise FormatError("no objective row declared")

    model = LinearModel(metadata)
    for name in var_order:
        spec = specs[name]
        if spec.integer:
            lower = spec.lower if spec.bounded else 0
            upper = spec.upper if spec.bounded else 1
            if (
                lower is None
                or upper is None
                or not (0 <= lower <= upper <= 1)
            ):
                raise FormatError(
                    f"integer variable {name!r} with bounds outside [0, 1]: "
                    "general integers not supported"
                )
            model.add_variable(name, BINARY, lower, upper)
        else:
            model.add_variable(name, CONTINUOUS, spec.lower, spec.upper)
    model.set_objective(objective)
    for name, sense in row_order:
        model.add_constraint(row_terms[name], sense, rhs_values.get(name, 0), name)
    return model.freeze()


def parse_solution_file(model: LinearModel, text: str) -> dict[str, Exact]:
    """Parse "name value" lines into a full assignment over the model.

    Comment lines start with '#' (so the optional "# nodes N" line is one).
    Unlisted variables default to 0. Names may be the model's own or their
    sanitized export forms.
    """
    accepted: dict[str, str] = {}
    for var in model.variables:
        accepted[var.name] = var.name
        accepted.setdefault(sanitize_name(var.name, "v_"), var.name)
    values: dict[str, Exact] = {v.name: 0 for v in model.variables}
    numbers = _Numbers()
    listed: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise FormatError(
                f"line {lineno}: expected 'name value', got {raw!r}"
            )
        name, value = tokens
        if name not in accepted:
            raise FormatError(f"line {lineno}: unknown variable {name!r}")
        target = accepted[name]
        if target in listed:
            raise FormatError(f"line {lineno}: duplicate value for {name!r}")
        listed.add(target)
        values[target] = numbers.parse(value, f"line {lineno}")
    return values
