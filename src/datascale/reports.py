"""Fit reports: building, canonical JSON serialization, and tables.

Every report is a plain dict made by :func:`_report`, which adds the
``schema`` version, the ``kind`` tag and a ``provenance`` block (input path,
tool version and, for seeded commands, the seed and fit configuration) to
the fields of its kind.  Law blocks are the fields of the law dataclasses
(``asdict`` on writing, ``PowerLaw(**law)`` on reading).  Serialization is
canonical (sorted keys, two-space indent, trailing newline), so identical
fits produce byte-identical files and serialize -> parse -> serialize is a
fixed point.  Reading a file that is not JSON raises :class:`ParseError`
with the JSON line number; a report lacking a field raises
:class:`SchemaError` naming it.  Residuals and objectives are the fit's, and
tables evaluate laws on arrays as the fitters do: on numpy arrays, a row's
``residual`` is ``ln(observed) - ln(predicted)`` (or ``observed - predicted``).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict

import numpy as np

from . import __version__
from .analysis import McConfig, McSummary, asymptotic_loss, marginal_value, transition_point
from .core import (
    Observation,
    JointLawParams,
    PowerLaw,
    TailLaw,
    eval_joint_law,
    eval_law,
    eval_tail_law,
)
from .errors import ParseError, SchemaError
from .fitting import FitConfig, FitResult, JointFitResult, SharedFitResult

SCHEMA_VERSION = 1


def _report(kind: str, input_path: str, cfg: FitConfig | McConfig | None,
            fit_cfg: FitConfig | None = None, **fields) -> dict:
    """A ``kind`` report; a fit's ``cfg`` is also its ``fit_cfg``."""
    provenance = {"input": input_path, "tool_version": __version__}
    if cfg is not None:
        provenance["seed"] = cfg.seed
    fit_cfg = cfg if isinstance(cfg, FitConfig) else fit_cfg
    if fit_cfg is not None:
        provenance["config"] = {k: v for k, v in asdict(fit_cfg).items() if k != "seed"}
    return {"schema": SCHEMA_VERSION, "kind": kind, **fields, "provenance": provenance}


def _observation_record(obs: Observation) -> dict:
    record = {"condition": obs.condition, "d_millions": obs.d_millions, "loss": obs.loss}
    if obs.n_enc is not None:
        record["n_enc"] = obs.n_enc
        record["n_dec"] = obs.n_dec
    return record


def _fit_fields(result: FitResult | JointFitResult, obs: list[Observation]) -> dict:
    observations = [_observation_record(o) for o in obs]
    return {"objective": result.objective, "converged": result.converged, "n_iters": result.n_iters,
            "residuals": list(result.residuals), "observations": observations}


def law_analysis(law: PowerLaw, d_values) -> dict:
    """Regime quantities of ``law``, plus its marginal value of data at each
    size of ``d_values`` in the order given (omitted when there is none)."""
    out = {"asymptotic_loss": asymptotic_loss(law), "transition_point": transition_point(law)}
    if d_values:
        out["marginal_value"] = [[float(d), marginal_value(law, float(d))] for d in d_values]
    return out


def build_fit_report(
    result: FitResult, obs: list[Observation], cfg: FitConfig, input_path: str
) -> dict:
    analysis = law_analysis(result.law, sorted(o.d_millions for o in obs))
    return _report("fit", input_path, cfg, condition=obs[0].condition if obs else "",
                   law=asdict(result.law), analysis=analysis, **_fit_fields(result, obs))


def build_shared_report(
    result: SharedFitResult, groups: dict[str, list[Observation]], cfg: FitConfig, input_path: str
) -> dict:
    per_condition, observations = {}, []
    for label in sorted(groups):
        law = result.law(label)
        analysis = law_analysis(law, sorted(o.d_millions for o in groups[label]))
        per_condition[label] = {"alpha": law.alpha, "c": law.c, "analysis": analysis}
        observations += [_observation_record(o) for o in groups[label]]
    return _report("fit_shared", input_path, cfg, p=result.p, per_condition=per_condition,
                   objective=result.objective, converged=result.converged,
                   residuals=list(result.residuals), observations=observations)


def build_joint_report(
    result: JointFitResult,
    obs: list[Observation],
    cfg: FitConfig,
    input_path: str,
    hold_out: list[tuple[int, int]] = (),
) -> dict:
    return _report("fit_joint", input_path, cfg, law=asdict(result.params),
                   hold_out=[[int(a), int(b)] for a, b in hold_out],
                   holdout_residuals=list(result.holdout_residuals), **_fit_fields(result, obs))


def build_tail_report(
    result: FitResult, obs: list[Observation], d_min: float, cfg: FitConfig, input_path: str
) -> dict:
    return _report("fit_tail", input_path, cfg, law=asdict(result.law), d_min=d_min,
                   **_fit_fields(result, obs))


def build_linear_report(fit, x, y, input_path: str, x_name: str, y_name: str) -> dict:
    return _report("fit_linear", input_path, None, fit=asdict(fit), x_column=x_name,
                   y_column=y_name, points=[[float(a), float(b)] for a, b in zip(x, y)])


def build_mc_report(summary: McSummary, cfg: McConfig, cfg_fit: FitConfig, input_path: str) -> dict:
    q05, q50, q95 = summary.quantiles
    return _report("mc", input_path, cfg, cfg_fit, mean_p=summary.mean_p, std_p=summary.std_p,
                   quantiles={"q05": q05, "q50": q50, "q95": q95}, n_converged=summary.n_converged,
                   n_dropped=summary.n_dropped, n_reps=cfg.n_reps, noise_frac=cfg.noise_frac)


def dumps_report(report: dict) -> str:
    """Canonical serialization: stable across runs for identical content."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class _Loaded(dict):
    """A JSON object read from a report; a missing field is a SchemaError."""

    def __missing__(self, key):
        raise SchemaError(f"report lacks field {key!r}")


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            report = json.load(fh, object_hook=_Loaded)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(report, dict) or report.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"{path}: not a schema-{SCHEMA_VERSION} report")
    return report


def _law(cls, block):
    """``cls(**block)`` for a law block of a loaded report, each of whose
    fields must be a number in float range."""
    if isinstance(block, dict):
        for field, value in block.items():
            if not _is_number(value):
                raise SchemaError(f"law field {field!r} is not a number in float range")
    try:
        return cls(**block)
    except TypeError as exc:
        raise SchemaError(f"malformed law block: {exc}") from None


def shared_conditions(report: dict) -> dict:
    """The ``per_condition`` block of a ``fit_shared`` report, checked to map
    at least one condition to a record."""
    per_condition = report["per_condition"]
    if not isinstance(per_condition, dict) or not all(
        isinstance(entry, dict) for entry in per_condition.values()
    ):
        raise SchemaError("report field 'per_condition' is not an object of condition records")
    if not per_condition:
        raise SchemaError("report field 'per_condition' holds no condition")
    return per_condition


def law_from_report(report: dict, condition: str | None = None) -> PowerLaw:
    """Extract a power law from a ``fit`` or ``fit_shared`` report.

    Shared reports need a condition selector unless they contain exactly
    one condition.
    """
    kind = report.get("kind")
    if kind == "fit":
        return _law(PowerLaw, report["law"])
    if kind == "fit_shared":
        per_condition = shared_conditions(report)
        if condition is None:
            if len(per_condition) != 1:
                raise SchemaError(
                    "shared report holds several conditions; pass a condition selector"
                )
            condition = next(iter(per_condition))
        if not isinstance(condition, str) or condition not in per_condition:
            raise SchemaError(f"condition {condition!r} not in report")
        entry = per_condition[condition]
        return _law(PowerLaw, {"alpha": entry["alpha"], "c": entry["c"], "p": report["p"]})
    raise SchemaError(f"cannot extract a power law from a {kind!r} report")


def _is_number(value) -> bool:
    """A float, or an int (not a bool) within float range: JSON reads any
    integer literal as an int, however large."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _numbers(report: dict, field: str, n_rows: int) -> list:
    """``report[field]``, checked to be a list of ``n_rows`` numbers."""
    values = report[field]
    if not isinstance(values, list) or not all(map(_is_number, values)):
        raise SchemaError(f"report field {field!r} is not a list of numbers")
    if len(values) != n_rows:
        raise SchemaError(f"report field {field!r} holds {len(values)} values, not {n_rows}")
    return values


def _observations(report: dict, numeric: tuple[str, ...]) -> list:
    """``report["observations"]``, checked to be a list of records whose
    ``numeric`` fields are numbers."""
    records = report["observations"]
    if not isinstance(records, list) or not all(
        isinstance(record, dict) and all(_is_number(record[key]) for key in numeric) for record in records
    ):
        raise SchemaError(f"report field 'observations' is not a list of records with numeric {numeric}")
    return records


def render_table(report: dict) -> list[list]:
    """Plot-ready rows for a fit report.

    Columns are ``d, observed, predicted, residual``, prefixed by
    ``condition`` for multi-condition reports and by the parameter counts
    for joint reports.  ``d`` is in millions of sentence pairs.  An
    observation list that is not a list of records with numeric fields, or a
    residual list that does not hold one number per row it belongs to,
    raises :class:`SchemaError` naming the field.
    """
    kind = report.get("kind")
    if kind not in ("fit", "fit_shared", "fit_joint", "fit_tail"):
        raise SchemaError(f"no table rendering for a {kind!r} report")
    if kind == "fit_joint":
        params = _law(JointLawParams, report["law"])
        observations = _observations(report, ("n_enc", "n_dec", "d_millions", "loss"))
        hold_out = report.get("hold_out", [])
        if not isinstance(hold_out, list) or not all(
            isinstance(shape, list) and all(map(_is_number, shape)) for shape in hold_out
        ):
            raise SchemaError("report field 'hold_out' is not a list of shapes")
        held = {tuple(shape) for shape in hold_out}
        header = ["condition", "n_enc", "n_dec", "d", "observed", "predicted", "residual", "held_out"]
        held_rows = [(obs["n_enc"], obs["n_dec"]) in held for obs in observations]
        residuals = iter(_numbers(report, "residuals", held_rows.count(False)))
        holdout_residuals = iter(_numbers(report, "holdout_residuals", held_rows.count(True)))
        sizes = {}  # each shape's sizes in the order of its rows
        for obs in observations:
            sizes.setdefault((obs["n_enc"], obs["n_dec"]), []).append(obs["d_millions"])
        predicted = {shape: iter(eval_joint_law(params, *shape, np.array(d, dtype=float)).tolist())
                     for shape, d in sizes.items()}
        rows = [[obs["condition"], obs["n_enc"], obs["n_dec"], obs["d_millions"], obs["loss"],
                 next(predicted[obs["n_enc"], obs["n_dec"]]), next(holdout_residuals if is_held else residuals),
                 int(is_held)]
                for obs, is_held in zip(observations, held_rows)]
        return [header] + rows
    if kind == "fit_shared":
        observations = _observations(report, ("d_millions", "loss"))
        header = ["condition", "d", "observed", "predicted", "residual"]
        residuals = _numbers(report, "residuals", len(observations))
        laws, sizes = {}, {}  # each condition's law, and its sizes in the order of its rows
        for obs in observations:
            label = obs["condition"]
            if not isinstance(label, str) or label not in laws:  # law_from_report rejects a non-string
                laws[label] = law_from_report(report, label)
                sizes[label] = []
            sizes[label].append(obs["d_millions"])
        predicted = {label: iter(eval_law(laws[label], np.array(d, dtype=float)).tolist())
                     for label, d in sizes.items()}
        rows = [[obs["condition"], obs["d_millions"], obs["loss"], next(predicted[obs["condition"]]), residual]
                for obs, residual in zip(observations, residuals)]
        return [header] + rows
    if kind == "fit":
        law, evaluate = law_from_report(report), eval_law
    else:
        law, evaluate = _law(TailLaw, report["law"]), eval_tail_law
    observations = _observations(report, ("d_millions", "loss"))
    residuals = _numbers(report, "residuals", len(observations))
    predicted = evaluate(law, np.array([obs["d_millions"] for obs in observations], dtype=float)).tolist()
    rows = [[obs["d_millions"], obs["loss"], m, residual]
            for obs, m, residual in zip(observations, predicted, residuals)]
    return [["d", "observed", "predicted", "residual"]] + rows


def format_table(report: dict) -> str:
    """CSV text of :func:`render_table` (floats via repr, so re-parsing is
    lossless)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in render_table(report):
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return buffer.getvalue()
