"""LP and MPS writers, companion readers, and solution-file parsing.

The writers are deterministic: the same model always yields the same bytes,
and re-exporting a parsed export reproduces those bytes for models produced
by this package's builders. Every number is written exactly, as its shortest
decimal; a number with no terminating decimal form (such as 1/3) raises
FormatError. The builders make only ints, so only a hand-built model can
hold such a number.

The LP dialect is the CPLEX-style section format (Maximize / Subject To /
Bounds / Binaries / End); MPS output is free-format with OBJSENSE MAX and
INTORG/INTEND markers. Only maximization models are supported on both sides.
export_lp and export_mps return the text; each writes a variable name as
sanitize_name(name, "v_") and a row tag as sanitize_name(tag, "c_"), and
refuses one that comes out as another's or as "obj".

parse_lp and parse_mps tokenize their format into one kind of column record
(_Column states the binary and integer rules) and end in one assembly, so
both raise FormatError, never ModelError, for text that is no valid model.
"""

from __future__ import annotations

import string
from fractions import Fraction
from typing import Mapping

from .milp import BINARY, CONTINUOUS, Exact, LinearModel, ModelError, _rational


class FormatError(ValueError):
    """Raised for unparsable or unrepresentable model text."""


def format_rational(q: Exact, where: str) -> str:
    """An int or Fraction as exact decimal text.

    A value with no terminating decimal form raises FormatError naming
    where it sits.
    """
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        raise FormatError(f"{where}: {q} has no exact decimal form")
    k = max(twos, fives)
    digits = str(abs(num) * (10**k // den)).rjust(k + 1, "0")
    text = (digits[:-k] + "." + digits[-k:]).rstrip("0").rstrip(".")
    return ("-" if num < 0 else "") + text


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


def _terms(terms: Mapping[str, Exact], names: dict[str, str], where: str) -> str:
    if not terms:
        return f"+ 0 {next(iter(names.values()))}"
    parts = []
    for name, coef in terms.items():
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {format_rational(abs(coef), where)} {names[name]}")
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


def export_lp(model: LinearModel) -> str:
    """The model as LP text."""
    var_names, row_names = _name_maps(model)
    lines = ["\\ linear model"]
    lines += _meta_lines(model, "\\")
    lines.append("Maximize")
    lines.append(f" obj: {_terms(model.objective, var_names, 'objective')}")
    lines.append("Subject To")
    for row in model.constraints:
        rname = row_names[row.tag]
        body = _terms(row.terms, var_names, f"row {rname}")
        rhs = format_rational(row.rhs, f"rhs of {rname}")
        lines.append(f" {rname}: {body} {row.sense} {rhs}")
    bound_lines = []
    for var in model.variables:
        if var.kind == BINARY and (var.lower, var.upper) == (0, 1):
            continue
        name = var_names[var.name]
        where = f"bound of {name}"
        if var.lower is None and var.upper is None:
            bound_lines.append(f" {name} free")
        elif var.upper is None:
            bound_lines.append(f" {name} >= {format_rational(var.lower, where)}")
        else:
            lo = "-inf" if var.lower is None else format_rational(var.lower, where)
            up = format_rational(var.upper, where)
            bound_lines.append(f" {lo} <= {name} <= {up}")
    if bound_lines:
        lines.append("Bounds")
        lines.extend(bound_lines)
    binaries = [var_names[v.name] for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_mps(model: LinearModel) -> str:
    """The model as free MPS text."""
    var_names, row_names = _name_maps(model)
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
        value = format_rational(coef, "objective")
        columns[var_name].append(f"    {var_names[var_name]}  obj  {value}")
    for row in model.constraints:
        rname = row_names[row.tag]
        where = f"row {rname}"
        for var_name, coef in row.terms.items():
            value = format_rational(coef, where)
            columns[var_name].append(f"    {var_names[var_name]}  {rname}  {value}")
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
        lines.append(f"    RHS  {rname}  {format_rational(row.rhs, f'rhs of {rname}')}")
    lines.append("BOUNDS")
    for var in model.variables:
        name = var_names[var.name]
        where = f"bound of {name}"
        if var.lower is None and var.upper is None:
            lines.append(f" FR BND {name}")
            continue
        if var.lower is None:
            lines.append(f" MI BND {name}")
        else:
            lines.append(f" LO BND {name} {format_rational(var.lower, where)}")
        if var.upper is not None:
            lines.append(f" UP BND {name} {format_rational(var.upper, where)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


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


_INTORG = "intorg"


class _Column:
    """A column as a reader collects it: its bounds as the text sets them
    (None for infinite) and its kind.

    CONTINUOUS takes its bounds as they are. BINARY, an LP Binaries entry,
    reads an infinite side as 0 or 1. _INTORG, an MPS column inside an
    INTORG block or with a BV, UI or LI bound, is [0, 1] while no bound line
    names it; otherwise both its sides must be finite and inside [0, 1], as
    general integers are not supported.
    """

    __slots__ = ("lower", "upper", "kind", "bounded")

    def __init__(self) -> None:
        self.lower: Exact | None = 0
        self.upper: Exact | None = None
        self.kind = CONTINUOUS
        self.bounded = False  # set by every MPS bound line; read for _INTORG


class _Columns(dict):
    """Column name -> _Column, made at its first mention: reading order."""

    def __missing__(self, name: str) -> _Column:
        column = self[name] = _Column()
        return column


def _read_meta(line: str, mark: str, metadata: dict[str, str]) -> None:
    """Record a "<mark> meta key=value" comment line, as _meta_lines writes
    it, in metadata; any other comment line is skipped."""
    body = line.lstrip(mark).strip()
    if body.startswith("meta ") and "=" in body:
        key, _, value = body[5:].partition("=")
        metadata[key.strip()] = value


def _assemble(
    metadata: dict[str, str],
    columns: dict[str, _Column],
    objective: dict[str, Exact],
    rows: dict[str, list],
) -> LinearModel:
    """The model of what a reader collected: the columns in reading order,
    the objective, then the rows (name -> [terms, sense, rhs]).

    Text that is no valid model, such as crossing bounds or a binary outside
    [0, 1], raises FormatError, never ModelError.
    """
    model = LinearModel(metadata)
    try:
        for name, column in columns.items():
            lower, upper = column.lower, column.upper
            if column.kind == BINARY:
                lower = 0 if lower is None else lower
                upper = 1 if upper is None else upper
            elif column.kind == _INTORG:
                if not column.bounded:
                    lower, upper = 0, 1
                elif lower is None or upper is None or not 0 <= lower <= upper <= 1:
                    raise FormatError(
                        f"integer variable {name!r} with bounds outside [0, 1]: "
                        "general integers not supported"
                    )
            kind = CONTINUOUS if column.kind == CONTINUOUS else BINARY
            model.add_variable(name, kind, lower, upper)
        model.set_objective(objective)
        for name, (terms, sense, rhs) in rows.items():
            model.add_constraint(terms, sense, rhs, name)
    except ModelError as exc:
        raise FormatError(str(exc)) from exc
    return model


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
    """Parse LP text produced by export_lp (plus mild dialect slack).

    LP text carries no column order: columns come in order of first use.
    """
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
        if stripped[0] == "\\":
            _read_meta(stripped, "\\", metadata)
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

    parsed: list[tuple[str | None, list]] = []
    row_tokens = " ".join(section_lines["rows"]).replace(":", " : ").split()
    i = 0
    while i < len(row_tokens):
        name = None
        if i + 1 < len(row_tokens) and row_tokens[i + 1] == ":":
            name = row_tokens[i]
            i += 2
        where = f"row {name or len(parsed)}"
        start = i
        while i < len(row_tokens) and row_tokens[i] not in ("<=", ">=", "=", "<", ">"):
            if row_tokens[i] == ":":
                raise FormatError(f"{where}: unexpected ':'")
            i += 1
        if i >= len(row_tokens) - 1:
            raise FormatError("rows: missing sense or right-hand side")
        sense = {"<": "<=", ">": ">="}.get(row_tokens[i], row_tokens[i])
        rhs = numbers.parse(row_tokens[i + 1], f"{where} rhs")
        terms = _parse_expression(row_tokens[start:i], where, numbers)
        parsed.append((name, [terms, sense, rhs]))
        i += 2

    # An unnamed row is "r<position>", or that with "_" appended until no row
    # of the text has the name.
    taken = {name for name, _ in parsed}
    rows: dict[str, list] = {}
    for position, (name, row) in enumerate(parsed):
        if name is None:
            name = f"r{position}"
            while name in taken:
                name += "_"
            taken.add(name)
        elif name in rows:
            raise FormatError(f"duplicate row {name!r}")
        rows[name] = row

    columns = _Columns()

    def column(name: str) -> _Column:
        if numbers[name] is not None or name in ("<=", ">=", "=", ":"):
            raise FormatError(f"invalid variable name {name!r}")
        return columns[name]

    for name in objective:
        column(name)
    for terms, _, _ in rows.values():
        for name in terms:
            column(name)

    def bound(token: str) -> Exact | None:
        if token.lower().lstrip("+-") in ("inf", "infinity"):
            return None
        return numbers.parse(token, "bounds")

    for line in section_lines["bounds"]:
        tokens = line.split()
        if len(tokens) == 2 and tokens[1].lower() == "free":
            col = column(tokens[0])
            col.lower = col.upper = None
        elif len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
            col = column(tokens[2])
            col.lower, col.upper = bound(tokens[0]), bound(tokens[4])
        elif len(tokens) == 3 and tokens[1] in ("<=", ">=", "="):
            col, value = column(tokens[0]), bound(tokens[2])
            if tokens[1] == "<=":
                col.upper = value
            elif tokens[1] == ">=":
                col.lower = value
            else:
                col.lower = col.upper = value
        else:
            raise FormatError(f"bounds: cannot parse line {line!r}")

    for line in section_lines["binaries"]:
        for name in line.split():
            column(name).kind = BINARY

    return _assemble(metadata, columns, objective, rows)


def parse_mps(text: str) -> LinearModel:
    """Parse free MPS text produced by export_mps (plus mild dialect slack)."""
    numbers = _Numbers()
    metadata: dict[str, str] = {}
    section = None
    obj_row: str | None = None
    objective: dict[str, Exact] = {}
    rows: dict[str, list] = {}
    columns = _Columns()
    integer_mode = False
    objsense: str | None = None
    sense_code = {"L": "<=", "G": ">=", "E": "="}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped[0] == "*":
            _read_meta(stripped, "*", metadata)
            continue
        tokens = raw.split()
        if not raw[0].isspace():
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
                break
            else:
                raise FormatError(f"line {lineno}: unknown section {tokens[0]!r}")
            continue
        if section is None:
            raise FormatError(f"line {lineno}: data before the first section header")
        if section == "objsense":
            objsense = tokens[0].upper()
        elif section == "rows":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: malformed row declaration")
            code, name = tokens[0].upper(), tokens[1]
            if name in rows or name == obj_row:
                raise FormatError(f"line {lineno}: duplicate row {name!r}")
            if code == "N":
                if obj_row is not None:
                    raise FormatError(f"line {lineno}: second objective row")
                obj_row = name
            elif code not in sense_code:
                raise FormatError(f"line {lineno}: unknown row code {code!r}")
            else:
                rows[name] = [{}, sense_code[code], 0]
        elif section == "columns":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                state = tokens[-1].strip("'").upper()
                if state not in ("INTORG", "INTEND"):
                    raise FormatError(f"line {lineno}: unknown marker {state!r}")
                integer_mode = state == "INTORG"
                continue
            if len(tokens) not in (3, 5):
                raise FormatError(f"line {lineno}: malformed column entry")
            var = tokens[0]
            column = columns[var]
            if integer_mode:
                column.kind = _INTORG
            for pos in range(1, len(tokens), 2):
                row, value = tokens[pos], numbers.parse(
                    tokens[pos + 1], f"line {lineno}"
                )
                if row == obj_row:
                    terms = objective
                elif row in rows:
                    terms = rows[row][0]
                else:
                    raise FormatError(f"line {lineno}: unknown row {row!r}")
                if value != 0:
                    terms[var] = terms.get(var, 0) + value
        elif section == "rhs":
            pairs = tokens[1:] if len(tokens) % 2 == 1 else tokens
            for pos in range(0, len(pairs), 2):
                row, value = pairs[pos], numbers.parse(
                    pairs[pos + 1], f"line {lineno}"
                )
                if row == obj_row:
                    raise FormatError(f"line {lineno}: objective rhs not supported")
                if row not in rows:
                    raise FormatError(f"line {lineno}: unknown row {row!r}")
                rows[row][2] = value
        elif section == "bounds":
            code = tokens[0].upper()
            if len(tokens) < 3:
                raise FormatError(f"line {lineno}: malformed bound")
            column = columns[tokens[2]]
            value = (
                numbers.parse(tokens[3], f"line {lineno}")
                if len(tokens) > 3
                else None
            )
            if code in ("UP", "UI"):
                column.upper = value
            elif code in ("LO", "LI"):
                column.lower = value
            elif code == "FX":
                column.lower = column.upper = value
            elif code == "FR":
                column.lower = column.upper = None
            elif code == "MI":
                column.lower = None
            elif code == "PL":
                column.upper = None
            elif code == "BV":
                column.lower, column.upper = 0, 1
            else:
                raise FormatError(f"line {lineno}: unknown bound code {code!r}")
            if code in ("BV", "UI", "LI"):
                column.kind = _INTORG
            column.bounded = True
        elif section == "name":
            raise FormatError(f"line {lineno}: stray content after NAME")

    if objsense not in ("MAX", "MAXIMIZE"):
        raise FormatError("missing or non-MAX OBJSENSE (only maximization supported)")
    if obj_row is None:
        raise FormatError("no objective row declared")
    return _assemble(metadata, columns, objective, rows)


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
