"""Observation tables: CSV ingestion and synthetic-curve simulation.

The CSV schema is ``condition,d_millions,loss`` with optional ``n_enc``,
``n_dec``, ``metric`` and ``replicate`` columns.  Dataset sizes are stored
in millions of sentence pairs; a file holding raw pair counts in a ``d``
column is converted on load with ``raw_counts=True``.

Every CSV input of the package is read as :func:`read_csv_records` reads it
(UTF-8 with an optional byte-order mark, header names stripped of
surrounding spaces, one ``csv.reader`` pass) and every numeric cell parsed
as :func:`parse_float` parses it, which accepts finite numbers only.  Errors
carry the 1-based line number, the header being line 1.

:func:`load_observations` parses and checks every row, and builds
observations only for the condition asked for, if one is.  It reads the file
once and checks it a column at a time, mostly with builtins that loop over
a whole column in C.  Where a check fails, or the file takes a shape that pass does
not handle (a row shorter than the header, say), it reads the file again row
by row: through :func:`read_csv_records` and
:func:`~datascale.core.check_observation`, the checks of an
:class:`~datascale.core.Observation`, raising the first bad row's error.
That row loop defines a valid table; the column pass accepts no table the
loop refuses, and builds the same observations from one it accepts.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    METRICS,
    JointLawParams,
    Observation,
    PowerLaw,
    check_observation,
    eval_joint_law,
    eval_law,
)
from .errors import DataScaleError, DomainError, ParseError
from .files import replace_on_success


# Rows transposed at a time by the column pass of load_observations: holding
# every row's list at once set off the cyclic garbage collector in most loads
# of a 500-row table.
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class ObservationTable:
    """A list of observations plus where they came from."""

    rows: list[Observation]
    source_path: str = ""

    def by_condition(self) -> dict[str, list[Observation]]:
        groups: dict[str, list[Observation]] = {}
        for row in self.rows:
            groups.setdefault(row.condition, []).append(row)
        return groups


def read_csv_records(
    path, required: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[tuple[int, tuple]]:
    """Yield ``(line, cells)`` for every data row of a CSV file.

    ``cells`` holds the row's cell of each ``required`` column and then of
    each ``optional`` one, in the order given; ask for two columns or more,
    as one gives a bare cell.  A cell is None where the header lacks an
    optional column or a short row ends before the column; cells past the
    header's end are ignored.  Header names are stripped of surrounding
    spaces, and of two columns with one name the last counts.  Blank lines
    are skipped but counted, and a record whose quoted field spans lines is
    numbered by its last line.

    Raises:
        ParseError: The file is empty or lacks a ``required`` column
            (reported at line 1).
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", line=1)
        index = {name.strip(): i for i, name in enumerate(header)}
        missing = [col for col in required if col not in index]
        if missing:
            raise ParseError(f"missing required columns: {', '.join(missing)}", line=1)
        # an absent column reads the None appended to every row
        cells = operator.itemgetter(*(index.get(col, -1) for col in (*required, *optional)))
        width = len(header)
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [None] * (width - len(row))
            row.append(None)
            yield reader.line_num, cells(row)


def parse_float(value: str | None, column: str, line: int) -> float:
    """The finite number in one CSV cell; a ParseError naming ``line``
    otherwise (an absent cell of a short row is ``None``)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"non-numeric {column} {value!r}", line=line) from None
    if not math.isfinite(number):
        raise ParseError(f"non-finite {column} {value!r}", line=line)
    return number


def _parse_count(value: str | None, column: str, line: int) -> int | None:
    if value is None or value.strip() == "":
        return None
    count = parse_float(value, column, line)
    if not count.is_integer():
        raise ParseError(f"{column} must be a whole number, got {value!r}", line=line)
    return int(count)


def load_observations(path, raw_counts: bool = False, condition: str | None = None) -> ObservationTable:
    """Load an observation table from a CSV file.

    The table is checked a column at a time.  Where a check fails, or the
    file takes a shape that pass leaves alone, the rows are read again one
    at a time, which raises the first bad row's error.

    Args:
        path: File to read.
        raw_counts: When True the size column must be named ``d`` and hold
            raw sentence-pair counts, which are divided by 1e6; otherwise
            the column must be ``d_millions``.
        condition: When given, only this condition's rows become
            observations of the table.  Every row is still parsed and
            checked, so a bad row of another condition raises all the same.

    Raises:
        ParseError: Missing columns, non-numeric or non-finite fields,
            non-positive sizes or losses, fractional parameter counts, or
            duplicate ``(condition, d_millions)`` rows not
            disambiguated by a ``replicate`` column.  Messages carry the
            1-based line number (the header is line 1).
    """
    size_column = "d" if raw_counts else "d_millions"
    rows = _load_columns(path, size_column, raw_counts, condition)
    if rows is None:
        rows = _load_rows(path, size_column, raw_counts, condition)
    return ObservationTable(rows=rows, source_path=str(path))


def _load_columns(path, size_column: str, raw_counts: bool, condition: str | None) -> list[Observation] | None:
    """The observations of :func:`_load_rows`, from one read and checks a
    column at a time; None where a check fails or the file holds no data
    row, a row shorter than the header, a missing column or text that does
    not decode or parse, all left to :func:`_load_rows`.  So it accepts no
    table that :func:`_load_rows` refuses."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            records = filter(None, reader)  # a blank line reads as []
            columns = [[] for _ in header]
            for block in iter(lambda: list(itertools.islice(records, _BLOCK_ROWS)), []):
                cells = list(zip(*block))  # as many as the shortest row has cells
                if len(cells) < len(header):
                    return None
                for column, part in zip(columns, cells):
                    column.extend(part)
    except (UnicodeDecodeError, csv.Error):
        return None
    index = {name.strip(): i for i, name in enumerate(header)}
    names = ("condition", size_column, "loss", "n_enc", "n_dec", "metric", "replicate")
    if not (columns and columns[0] and all(map(index.__contains__, names[:3]))):
        return None
    n = len(columns[0])
    labels, d, loss, n_enc, n_dec, metrics, replicates = (
        columns[index[name]] if name in index else None for name in names
    )
    labels = list(map(str.strip, labels))
    try:
        d, loss = list(map(float, d)), list(map(float, loss))
        if n_enc or n_dec:
            n_enc, n_dec = _count_columns(n_enc or ("",) * n, n_dec or ("",) * n)
        else:
            n_enc = n_dec = [None] * n
    except ValueError:
        return None
    if raw_counts:
        d = [v / 1e6 for v in d]
    if metrics:
        metrics = [metric or "log_perplexity" for metric in map(str.strip, metrics)]
        perplexities = [v for v, metric in zip(loss, metrics) if metric == "log_perplexity"]
    else:
        metrics, perplexities = ["log_perplexity"] * n, loss
    replicates = map(str.strip, replicates) if replicates else itertools.repeat("")
    if not (
        all(labels)
        and all(map(math.isfinite, d))
        and min(d) > 0
        and all(map(math.isfinite, loss))
        and min(perplexities, default=1.0) > 0
        and set(metrics) <= set(METRICS)
        and len(set(zip(labels, d, replicates))) == n
    ):
        return None
    fields = zip(labels, d, loss, n_enc, n_dec, metrics)
    return [Observation(*row) for row in fields if condition is None or row[0] == condition]


def _count_columns(enc_cells, dec_cells) -> tuple[list, list]:
    """The ``n_enc`` and ``n_dec`` of each row, None where both cells are
    blank; a ValueError where a cell is not a positive whole number or a
    row gives one count alone."""
    enc, dec = ([float(cell) if cell.strip() else None for cell in cells] for cells in (enc_cells, dec_cells))
    given = [count for count in enc + dec if count is not None]
    if [count is None for count in enc] != [count is None for count in dec]:
        raise ValueError("a row gives one parameter count alone")
    if not (all(map(float.is_integer, given)) and min(given, default=1.0) > 0):
        raise ValueError("a parameter count is not a positive whole number")
    return tuple([None if count is None else int(count) for count in counts] for counts in (enc, dec))


def _load_rows(path, size_column: str, raw_counts: bool, condition: str | None) -> list[Observation]:
    """The observations of :func:`load_observations`, parsed and checked a
    row at a time: the definition of a valid row, which raises the first
    bad row's ParseError."""
    rows: list[Observation] = []
    seen: set[tuple] = set()
    records = read_csv_records(
        path, ("condition", "loss", size_column), ("n_enc", "n_dec", "metric", "replicate")
    )
    for line, (label, loss, d_value, n_enc, n_dec, metric, replicate) in records:
        label = (label or "").strip()
        if not label:
            raise ParseError("empty condition", line=line)
        d_millions = parse_float(d_value, size_column, line)
        if raw_counts:
            d_millions /= 1e6
        loss = parse_float(loss, "loss", line)
        n_enc = _parse_count(n_enc, "n_enc", line)
        n_dec = _parse_count(n_dec, "n_dec", line)
        metric = (metric or "").strip() or "log_perplexity"
        try:
            check_observation(d_millions, loss, n_enc, n_dec, metric)
        except DataScaleError as exc:
            raise ParseError(str(exc), line=line) from None
        key = (label, d_millions, (replicate or "").strip())
        if key in seen:
            raise ParseError(
                f"duplicate observation for condition {label!r} at d={d_millions}",
                line=line,
            )
        seen.add(key)
        if condition is None or label == condition:
            rows.append(Observation(label, d_millions, loss, n_enc, n_dec, metric))
    return rows


def format_observations(table: ObservationTable) -> str:
    """CSV text for a table (sizes always in millions; optional columns are
    included only when some row needs them).  Floats use repr, so parsing
    the text back is lossless."""
    with_counts = any(row.n_enc is not None for row in table.rows)
    with_metric = any(row.metric != "log_perplexity" for row in table.rows)
    columns = ["condition", "d_millions", "loss"]
    if with_counts:
        columns += ["n_enc", "n_dec"]
    if with_metric:
        columns.append("metric")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in table.rows:
        record = [row.condition, repr(row.d_millions), repr(row.loss)]
        if with_counts:
            record += [
                "" if row.n_enc is None else str(row.n_enc),
                "" if row.n_dec is None else str(row.n_dec),
            ]
        if with_metric:
            record.append(row.metric)
        writer.writerow(record)
    return buffer.getvalue()


def write_observations(path, table: ObservationTable) -> None:
    with replace_on_success(path, newline="") as fh:
        fh.write(format_observations(table))


def _draw(points, noise_frac: float, seed: int) -> ObservationTable:
    """Observations with loss ``clean * (1 + noise_frac * z)`` for each
    ``(clean, fields)`` point, one standard-normal ``z`` per point in order."""
    if noise_frac < 0:
        raise DomainError("noise_frac must be non-negative")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    rows = [
        Observation(loss=float(clean * (1.0 + noise_frac * rng.standard_normal())), **fields)
        for clean, fields in points
    ]
    return ObservationTable(rows=rows, source_path="")


def simulate(
    law: PowerLaw,
    d_grid: Sequence[float],
    noise_frac: float,
    seed: int,
    condition: str = "simulated",
) -> ObservationTable:
    """Draw synthetic observations from a power law.

    Losses are ``eval_law(d) * (1 + noise_frac * z)`` with ``z`` standard
    normal, i.e. ``Normal(loss, noise_frac * loss)``; ``noise_frac = 0``
    yields exact curve points.  Deterministic for a fixed non-negative seed.
    """
    if not len(d_grid):
        raise DomainError("d grid must be non-empty")
    points = (
        (eval_law(law, float(d)), {"condition": condition, "d_millions": float(d)})
        for d in d_grid
    )
    return _draw(points, noise_frac, seed)


def simulate_joint(
    params: JointLawParams,
    shapes: Sequence[tuple[int, int]],
    d_grid: Sequence[float],
    noise_frac: float,
    seed: int,
) -> ObservationTable:
    """Draw synthetic observations from the joint law, one condition per
    parameter-count shape (labelled ``"<n_enc>x<n_dec>"``)."""
    if not len(d_grid):
        raise DomainError("d grid must be non-empty")
    if not len(shapes):
        raise DomainError("need at least one parameter-count shape")
    points = (
        (
            eval_joint_law(params, n_enc, n_dec, float(d)),
            {"condition": f"{n_enc}x{n_dec}", "d_millions": float(d), "n_enc": n_enc, "n_dec": n_dec},
        )
        for n_enc, n_dec in shapes
        for d in d_grid
    )
    return _draw(points, noise_frac, seed)
