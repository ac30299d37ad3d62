"""Observation tables: CSV ingestion and synthetic-curve simulation.

The CSV schema is ``condition,d_millions,loss`` with optional ``n_enc``,
``n_dec``, ``metric`` and ``replicate`` columns.  Dataset sizes are stored
in millions of sentence pairs; a file holding raw pair counts in a ``d``
column is converted on load with ``raw_counts=True``.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Observation, JointLawParams, PowerLaw, eval_joint_law, eval_law
from .errors import DataScaleError, DomainError, ParseError


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


_REQUIRED = ("condition", "loss")
_OPTIONAL = ("n_enc", "n_dec", "metric", "replicate")


def _parse_float(value: str, column: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"non-numeric {column} {value!r}", line=line) from None


def _parse_count(value: str, column: str, line: int) -> int | None:
    if value is None or value.strip() == "":
        return None
    count = _parse_float(value, column, line)
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
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty file", line=1)
        header = [name.strip() for name in reader.fieldnames]
        missing = [col for col in (*_REQUIRED, size_column) if col not in header]
        if missing:
            raise ParseError(f"missing required columns: {', '.join(missing)}", line=1)
        has_replicate = "replicate" in header
        for line, record in enumerate(reader, start=2):
            condition = (record.get("condition") or "").strip()
            if not condition:
                raise ParseError("empty condition", line=line)
            d_value = _parse_float(record.get(size_column, ""), size_column, line)
            d_millions = d_value / 1e6 if raw_counts else d_value
            loss = _parse_float(record.get("loss", ""), "loss", line)
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
            key = (condition, d_millions)
            if has_replicate:
                key = key + ((record.get("replicate") or "").strip(),)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_observations(table))


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
    if noise_frac < 0:
        raise DomainError("noise_frac must be non-negative")
    rng = np.random.default_rng(seed)
    rows = []
    for d in d_grid:
        clean = eval_law(law, float(d))
        noisy = clean * (1.0 + noise_frac * rng.standard_normal())
        rows.append(Observation(condition=condition, d_millions=float(d), loss=float(noisy)))
    return ObservationTable(rows=rows, source_path="")


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
    if noise_frac < 0:
        raise DomainError("noise_frac must be non-negative")
    rng = np.random.default_rng(seed)
    rows = []
    for n_enc, n_dec in shapes:
        for d in d_grid:
            clean = eval_joint_law(params, n_enc, n_dec, float(d))
            noisy = clean * (1.0 + noise_frac * rng.standard_normal())
            rows.append(
                Observation(
                    condition=f"{n_enc}x{n_dec}",
                    d_millions=float(d),
                    loss=float(noisy),
                    n_enc=n_enc,
                    n_dec=n_dec,
                )
            )
    return ObservationTable(rows=rows, source_path="")
