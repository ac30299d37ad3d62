"""Observation tables: CSV ingestion and synthetic-curve simulation.

The CSV schema is ``condition,d_millions,loss`` with optional ``n_enc``,
``n_dec``, ``metric`` and ``replicate`` columns.  Dataset sizes are stored
in millions of sentence pairs; a file holding raw pair counts in a ``d``
column is converted on load with ``raw_counts=True``.

Every CSV input of the package goes through :func:`read_csv_records`
(UTF-8 with an optional byte-order mark, header names stripped of
surrounding spaces) and every numeric cell through :func:`parse_float`,
which accepts finite numbers only.  Errors carry the 1-based line number,
the header being line 1.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .core import Observation, JointLawParams, PowerLaw, eval_joint_law, eval_law
from .errors import DataScaleError, DomainError, ParseError
from .files import replace_on_success


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


def read_csv_records(path, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line, record)`` for every data row of a CSV file.

    Header names are stripped of surrounding spaces, so the keys of each
    record are too.  Blank lines are skipped but counted, and a record
    whose quoted field spans lines is numbered by its last line.

    Raises:
        ParseError: The file is empty or lacks a ``required`` column
            (reported at line 1).
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty file", line=1)
        reader.fieldnames = [name.strip() for name in reader.fieldnames]
        missing = [col for col in required if col not in reader.fieldnames]
        if missing:
            raise ParseError(f"missing required columns: {', '.join(missing)}", line=1)
        for record in reader:
            yield reader.line_num, record


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


def _parse_count(value: str, column: str, line: int) -> int | None:
    if value is None or value.strip() == "":
        return None
    count = parse_float(value, column, line)
    if not count.is_integer():
        raise ParseError(f"{column} must be a whole number, got {value!r}", line=line)
    return int(count)


def load_observations(path, raw_counts: bool = False) -> ObservationTable:
    """Load an observation table from a CSV file.

    Args:
        path: File to read.
        raw_counts: When True the size column must be named ``d`` and hold
            raw sentence-pair counts, which are divided by 1e6; otherwise
            the column must be ``d_millions``.

    Raises:
        ParseError: Missing columns, non-numeric or non-finite fields,
            non-positive sizes or losses, fractional parameter counts, or
            duplicate ``(condition, d_millions)`` rows not
            disambiguated by a ``replicate`` column.  Messages carry the
            1-based line number (the header is line 1).
    """
    size_column = "d" if raw_counts else "d_millions"
    rows: list[Observation] = []
    seen: set[tuple] = set()
    for line, record in read_csv_records(path, ("condition", "loss", size_column)):
        condition = (record.get("condition") or "").strip()
        if not condition:
            raise ParseError("empty condition", line=line)
        d_value = parse_float(record[size_column], size_column, line)
        d_millions = d_value / 1e6 if raw_counts else d_value
        loss = parse_float(record["loss"], "loss", line)
        n_enc = _parse_count(record.get("n_enc"), "n_enc", line)
        n_dec = _parse_count(record.get("n_dec"), "n_dec", line)
        metric = (record.get("metric") or "").strip() or "log_perplexity"
        try:
            row = Observation(
                condition=condition,
                d_millions=d_millions,
                loss=loss,
                n_enc=n_enc,
                n_dec=n_dec,
                metric=metric,
            )
        except DataScaleError as exc:
            raise ParseError(str(exc), line=line) from None
        key = (condition, d_millions, (record.get("replicate") or "").strip())
        if key in seen:
            raise ParseError(
                f"duplicate observation for condition {condition!r} at d={d_millions}",
                line=line,
            )
        seen.add(key)
        rows.append(row)
    return ObservationTable(rows=rows, source_path=str(path))


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
    yields exact curve points.  Deterministic for a fixed seed.
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
