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
:class:`SchemaError` naming it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict

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
    observation_residual,
)
from .errors import ParseError, SchemaError
from .fitting import FitConfig, FitResult, JointFitResult, SharedFitResult

SCHEMA_VERSION = 1


def _provenance(input_path: str, cfg: FitConfig | McConfig | None) -> dict:
    out = {"input": input_path, "tool_version": __version__}
    if cfg is not None:
        out["seed"] = cfg.seed
    if isinstance(cfg, FitConfig):
        out["config"] = {k: v for k, v in asdict(cfg).items() if k != "seed"}
    return out


def _report(kind: str, input_path: str, cfg: FitConfig | McConfig | None, **fields) -> dict:
    provenance = _provenance(input_path, cfg)
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
    per_condition, observations, residuals = {}, [], []
    for label in sorted(groups):
        law = result.law(label)
        analysis = law_analysis(law, sorted(o.d_millions for o in groups[label]))
        per_condition[label] = {"alpha": law.alpha, "c": law.c, "analysis": analysis}
        observations += [_observation_record(o) for o in groups[label]]
        residuals += [observation_residual(law, o, cfg.loss_space) for o in groups[label]]
    return _report("fit_shared", input_path, cfg, p=result.p, per_condition=per_condition,
                   objective=result.objective, converged=result.converged,
                   residuals=residuals, observations=observations)


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


def build_mc_report(summary: McSummary, cfg: McConfig, input_path: str) -> dict:
    q05, q50, q95 = summary.quantiles
    return _report("mc", input_path, cfg, mean_p=summary.mean_p, std_p=summary.std_p,
                   quantiles={"q05": q05, "q50": q50, "q95": q95},
                   n_converged=summary.n_converged, n_reps=cfg.n_reps, noise_frac=cfg.noise_frac)


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
    """``cls(**block)`` for a law block of a loaded report."""
    try:
        return cls(**block)
    except TypeError as exc:
        raise SchemaError(f"malformed law block: {exc}") from None


def law_from_report(report: dict, condition: str | None = None) -> PowerLaw:
    """Extract a power law from a ``fit`` or ``fit_shared`` report.

    Shared reports need a condition selector unless they contain exactly
    one condition.
    """
    kind = report.get("kind")
    if kind == "fit":
        return _law(PowerLaw, report["law"])
    if kind == "fit_shared":
        per_condition = report["per_condition"]
        if condition is None:
            if len(per_condition) != 1:
                raise SchemaError(
                    "shared report holds several conditions; pass a condition selector"
                )
            condition = next(iter(per_condition))
        if condition not in per_condition:
            raise SchemaError(f"condition {condition!r} not in report")
        entry = per_condition[condition]
        return PowerLaw(alpha=entry["alpha"], c=entry["c"], p=report["p"])
    raise SchemaError(f"cannot extract a power law from a {kind!r} report")


def _check_count(report: dict, field: str, n_rows: int) -> None:
    n = len(report[field])
    if n != n_rows:
        raise SchemaError(f"report field {field!r} holds {n} values, not {n_rows}")


def render_table(report: dict) -> list[list]:
    """Plot-ready rows for a fit report.

    Columns are ``d, observed, predicted, residual``, prefixed by
    ``condition`` for multi-condition reports and by the parameter counts
    for joint reports.  ``d`` is in millions of sentence pairs.  A residual
    list that does not hold one value per row it belongs to raises
    :class:`SchemaError` naming the field.
    """
    kind = report.get("kind")
    rows = []
    if kind == "fit":
        law = law_from_report(report)
        header = ["d", "observed", "predicted", "residual"]
        for obs, residual in zip(report["observations"], report["residuals"]):
            d = obs["d_millions"]
            rows.append([d, obs["loss"], eval_law(law, d), residual])
    elif kind == "fit_shared":
        header = ["condition", "d", "observed", "predicted", "residual"]
        for obs, residual in zip(report["observations"], report["residuals"]):
            law = law_from_report(report, obs["condition"])
            d = obs["d_millions"]
            rows.append([obs["condition"], d, obs["loss"], eval_law(law, d), residual])
    elif kind == "fit_joint":
        params = _law(JointLawParams, report["law"])
        held = {tuple(shape) for shape in report.get("hold_out", [])}
        header = ["condition", "n_enc", "n_dec", "d", "observed", "predicted", "residual", "held_out"]
        held_rows = [(obs["n_enc"], obs["n_dec"]) in held for obs in report["observations"]]
        _check_count(report, "residuals", held_rows.count(False))
        _check_count(report, "holdout_residuals", held_rows.count(True))
        residuals = iter(report["residuals"])
        holdout_residuals = iter(report["holdout_residuals"])
        for obs, is_held in zip(report["observations"], held_rows):
            residual = next(holdout_residuals) if is_held else next(residuals)
            d = obs["d_millions"]
            predicted = eval_joint_law(params, obs["n_enc"], obs["n_dec"], d)
            rows.append(
                [obs["condition"], obs["n_enc"], obs["n_dec"], d, obs["loss"], predicted, residual, int(is_held)]
            )
    elif kind == "fit_tail":
        law = _law(TailLaw, report["law"])
        header = ["d", "observed", "predicted", "residual"]
        for obs, residual in zip(report["observations"], report["residuals"]):
            d = obs["d_millions"]
            rows.append([d, obs["loss"], eval_tail_law(law, d), residual])
    else:
        raise SchemaError(f"no table rendering for a {kind!r} report")
    if kind != "fit_joint":
        _check_count(report, "residuals", len(report["observations"]))
    return [header] + rows


def format_table(report: dict) -> str:
    """CSV text of :func:`render_table` (floats via repr, so re-parsing is
    lossless)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in render_table(report):
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return buffer.getvalue()
