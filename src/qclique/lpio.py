"""LP and MPS writers, their readers, and solution-file parsing.

The writers are deterministic: the same model always yields the same bytes,
and re-exporting a parsed export reproduces those bytes for models produced
by this package's builders. Every number is written exactly, as its shortest
decimal; a number with no terminating decimal form (such as 1/3) raises
FormatError. The builders make only ints, so only a hand-built model can
hold such a number.

export_lp writes the CPLEX-style LP format and export_mps free-format MPS,
both for maximization only. Each returns the text, writes a variable name as
sanitize_name(name, "v_") and a row tag as sanitize_name(tag, "c_"), and
refuses one that comes out as another's, as "obj" or as an LP heading, and a
metadata value that would not read back as itself.

parse_lp and parse_mps read exactly that grammar. They raise FormatError,
never ModelError, for any other text and for text that is no valid model.
Comment lines ("\\" or "*" first) may sit anywhere; "meta key=value" ones
hold the metadata. Every other line is a fixed line of the format, in
order, or a data line indented by a space:

- LP: Maximize, one "obj: terms" line; Subject To, a "name: terms sense rhs"
  line per row; optional Bounds, with "name free", "name >= lo" or
  "lo <= name <= up" (lo may be -inf); optional Binaries, a name a line;
  End. Terms are "+|- number name" triples.
- MPS: NAME model; OBJSENSE; MAX; ROWS, the N row first; COLUMNS, "column
  row value" entries, a column's together, INTORG/INTEND markers around the
  binaries; RHS, one "RHS row value" per row; BOUNDS, for each column in
  order FR, MI or LO, then an optional UP, all with BND; ENDATA.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .milp import BINARY, CONTINUOUS, SENSES, Exact, LinearModel, ModelError, _rational


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
_LP_HEADINGS = ("Maximize", "Subject To", "Bounds", "Binaries", "End")


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
    used = {"obj", *_LP_HEADINGS}

    def written(names: list[str], prefix: str, what: str) -> dict[str, str]:
        out = {}
        for name in names:
            out[name] = mapped = sanitize_name(name, prefix)
            if mapped in used:
                raise FormatError(f"sanitized {what} name collision at {name!r}")
            used.add(mapped)
        return out

    var_names = written([v.name for v in model.variables], "v_", "variable")
    return var_names, written([r.tag for r in model.constraints], "c_", "row")


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
        line = f"{comment} meta {key}={value}"
        if line.splitlines() != [line] or value != value.rstrip():  # see _read_meta
            raise FormatError(f"metadata value for {key!r} would not read back")
        lines.append(line)
    return lines


def export_lp(model: LinearModel) -> str:
    """The model as LP text."""
    var_names, row_names = _name_maps(model)
    lines = ["\\ linear model"]
    lines += _meta_lines(model, "\\")
    lines += ["Maximize", f" obj: {_terms(model.objective, var_names, 'objective')}"]
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
    lines += ["NAME model", "OBJSENSE", "    MAX", "ROWS", " N obj"]
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
    model text repeats a handful of coefficients.
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


_MPS_FRAME = ("NAME model", "OBJSENSE", "    MAX", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA")
_ROW_CODES = {"N": None, "L": "<=", "G": ">=", "E": "="}
_BOUND_TOKENS = {"FR": 3, "MI": 3, "LO": 4, "UP": 4}


@dataclass(slots=True)
class _Column:
    """A column as a reader collects it: its bounds (None for infinite),
    [0, inf) until a bound line sets them, and its kind."""

    lower: Exact | None = 0
    upper: Exact | None = None
    kind: str = CONTINUOUS


def _column(columns: dict[str, _Column], name: str, where: str) -> _Column:
    """The column called name, made at its first mention, so that columns
    keep reading order. A name no writer writes (one that sanitize_name
    would change) is refused."""
    column = columns.get(name)
    if column is None:
        if sanitize_name(name, "_") != name:
            raise FormatError(f"{where}: invalid variable name {name!r}")
        column = columns[name] = _Column()
    return column


def _read_meta(line: str, mark: str, metadata: dict[str, str]) -> None:
    """Record a "<mark> meta key=value" comment line, as _meta_lines writes
    it, in metadata; any other comment line is skipped."""
    body = line.lstrip(mark).strip()
    if body.startswith("meta ") and "=" in body:
        key, _, value = body[5:].partition("=")
        metadata[key.strip()] = value


def _data_lines(
    text: str, mark: str, frame: tuple[str, ...], optional: tuple[str, ...], metadata: dict
) -> Iterator[tuple[str, str, list[str]]]:
    """(frame line, "line N", tokens) for each data line of model text.

    A line starting with mark is a comment, read by _read_meta. Every other
    line is a line of frame, in frame's order, or a data line under the
    latest one: indented by a space and not blank. Frame lines in optional
    may be left out; the last one ends the text.
    """
    at = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        if line.startswith(mark):
            _read_meta(line, mark, metadata)
        elif line in frame:
            step = frame.index(line)
            if step <= at or any(f not in optional for f in frame[at + 1 : step]):
                raise FormatError(f"{where}: expected {frame[at + 1]!r}, not {line!r}")
            at = step
        elif line[:1] == " " and not line.isspace() and 0 <= at < len(frame) - 1:
            yield frame[at], where, line.split()
        else:
            raise FormatError(f"{where}: unexpected line {line!r}")
    if at != len(frame) - 1:
        raise FormatError(f"no {frame[-1]!r} line")


def _lp_terms(
    tokens: list[str], where: str, numbers: _Numbers, columns: dict[str, _Column]
) -> dict[str, Exact]:
    """The terms of "+|- number name" triples. A name with a nonzero
    coefficient makes its column, so LP columns come in order of first use."""
    if len(tokens) % 3:
        raise FormatError(f"{where}: terms are not sign, number, name triples")
    terms: dict[str, Exact] = {}
    for sign, number, name in zip(tokens[::3], tokens[1::3], tokens[2::3]):
        value = numbers.parse(number, where)
        if sign == "-":
            value = -value
        elif sign != "+":
            raise FormatError(f"{where}: missing + or - before {sign!r}")
        if name in terms:
            raise FormatError(f"{where}: {name!r} appears twice")
        terms[name] = value
        if value:
            _column(columns, name, where)
    return terms


def _assemble(
    metadata: dict, columns: dict[str, _Column], objective: dict, rows: list[tuple[str, list]]
) -> LinearModel:
    """The model of what a reader collected: the columns in reading order,
    the objective, then the rows as (name, [terms, sense, rhs]).

    Text that is no valid model, such as crossing bounds, a repeated row
    name or a binary with a bound infinite or outside [0, 1], raises
    FormatError, never ModelError.
    """
    model = LinearModel(metadata)
    try:
        for name, column in columns.items():
            if column.kind == BINARY and (column.lower is None or column.upper is None):
                raise FormatError(f"binary {name} has an infinite bound")
            model.add_variable(name, column.kind, column.lower, column.upper)
        model.set_objective(objective)
        for name, (terms, sense, rhs) in rows:
            model.add_constraint(terms, sense, rhs, name)
    except ModelError as exc:
        raise FormatError(str(exc)) from exc
    return model


def parse_lp(text: str) -> LinearModel:
    """Parse LP text in the grammar export_lp writes; refuse any other.

    LP text carries no column order: columns come in order of first use in
    the objective, the rows, Bounds and Binaries.
    """
    numbers = _Numbers()
    metadata: dict[str, str] = {}
    columns: dict[str, _Column] = {}
    objective: dict[str, Exact] | None = None
    rows: list[tuple[str, list]] = []
    bounded: set[str] = set()
    lines = _data_lines(text, "\\", _LP_HEADINGS, ("Bounds", "Binaries"), metadata)
    for heading, where, tokens in lines:
        if heading == "Maximize":
            if objective is not None or tokens[0] != "obj:":
                raise FormatError(f"{where}: expected the one 'obj:' line")
            objective = _lp_terms(tokens[1:], "objective", numbers, columns)
        elif heading == "Subject To":
            if len(tokens) < 3 or tokens[0][-1] != ":" or tokens[-2] not in SENSES:
                raise FormatError(f"{where}: expected 'name: terms sense rhs'")
            name = tokens[0][:-1]
            terms = _lp_terms(tokens[1:-2], f"row {name}", numbers, columns)
            rhs = numbers.parse(tokens[-1], f"row {name} rhs")
            rows.append((name, [terms, tokens[-2], rhs]))
        elif heading == "Bounds":
            if len(tokens) == 2 and tokens[1] == "free":
                name, lower, upper = tokens[0], None, None
            elif len(tokens) == 3 and tokens[1] == ">=":
                name, lower, upper = tokens[0], numbers.parse(tokens[2], "bounds"), None
            elif len(tokens) == 5 and tokens[1] == tokens[3] == "<=":
                name, upper = tokens[2], numbers.parse(tokens[4], "bounds")
                lower = None if tokens[0] == "-inf" else numbers.parse(tokens[0], "bounds")
            else:
                raise FormatError(f"{where}: malformed bound line")
            if name in bounded:
                raise FormatError(f"{where}: second bound line for {name!r}")
            bounded.add(name)
            column = _column(columns, name, where)
            column.lower, column.upper = lower, upper
        else:  # Binaries; one named by no bound line is in [0, 1]
            if len(tokens) != 1:
                raise FormatError(f"{where}: expected one name")
            column = _column(columns, tokens[0], where)
            column.kind = BINARY
            if tokens[0] not in bounded:
                column.upper = 1
    if objective is None:
        raise FormatError("no objective line")
    return _assemble(metadata, columns, objective, rows)


def parse_mps(text: str) -> LinearModel:
    """Parse free MPS text in the grammar export_mps writes; refuse any
    other. Columns keep the model's order."""
    numbers = _Numbers()
    metadata: dict[str, str] = {}
    columns: dict[str, _Column] = {}
    objective: dict[str, Exact] = {}
    rows: dict[str, list] = {}  # name -> [terms, sense (None: objective), rhs]
    integer = False
    entries_of: str | None = None  # the column of the entry line before
    bounds_order: Iterator[str] | None = None
    lower_of: str | None = None  # the column of an MI or LO line just before
    for section, where, tokens in _data_lines(text, "*", _MPS_FRAME, (), metadata):
        if section == "ROWS":
            if len(tokens) != 2 or tokens[0] not in _ROW_CODES:
                raise FormatError(f"{where}: malformed row line")
            code, name = tokens
            if name in rows:
                raise FormatError(f"{where}: duplicate row {name!r}")
            if (code == "N") != (not rows):
                raise FormatError(f"{where}: the first row, and only it, is N")
            rows[name] = [objective if code == "N" else {}, _ROW_CODES[code], None]
        elif section == "COLUMNS":
            if len(tokens) != 3:
                raise FormatError(f"{where}: malformed column entry")
            name, row, value = tokens
            if row == "'MARKER'":
                if value not in ("'INTORG'", "'INTEND'"):
                    raise FormatError(f"{where}: unknown marker {value!r}")
                integer, entries_of = value == "'INTORG'", None
                continue
            if name != entries_of:
                if name in columns:
                    raise FormatError(f"{where}: entries of {name!r} are apart")
                _column(columns, name, where).kind = BINARY if integer else CONTINUOUS
                entries_of = name
            if row not in rows:
                raise FormatError(f"{where}: unknown row {row!r}")
            terms = rows[row][0]
            if name in terms:
                raise FormatError(f"{where}: second entry for {name!r} in {row!r}")
            terms[name] = numbers.parse(value, where)
        elif section == "RHS":
            if len(tokens) != 3 or tokens[0] != "RHS":
                raise FormatError(f"{where}: malformed RHS line")
            entry = rows.get(tokens[1])
            if entry is None or entry[1] is None:
                raise FormatError(f"{where}: no constraint row {tokens[1]!r}")
            if entry[2] is not None:
                raise FormatError(f"{where}: second RHS line for {tokens[1]!r}")
            entry[2] = numbers.parse(tokens[2], where)
        elif section == "BOUNDS":
            if len(tokens) != _BOUND_TOKENS.get(tokens[0]) or tokens[1] != "BND":
                raise FormatError(f"{where}: malformed bound line")
            code, _, name = tokens[:3]
            bounds_order = bounds_order or iter(columns)
            if code == "UP" and name == lower_of:  # right after the column's MI or LO
                columns[name].upper = numbers.parse(tokens[3], where)
                lower_of = None
            elif code != "UP" and name == next(bounds_order, None):
                value = numbers.parse(tokens[3], where) if code == "LO" else None
                columns[name].lower = value
                lower_of = None if code == "FR" else name
            else:
                raise FormatError(f"{where}: bound line for {name!r} out of order")
        else:
            raise FormatError(f"{where}: unexpected line under {section.strip()!r}")
    missing = next(bounds_order or iter(columns), None)
    if missing is not None:
        raise FormatError(f"no bound line for {missing!r}")
    # A row that no RHS line names keeps None, which the model refuses.
    return _assemble(metadata, columns, objective, list(rows.items())[1:])


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
