"""Fit reports: building, canonical JSON serialization, and tables.

A report is a plain dict with a ``schema`` version and a ``kind`` tag.
Serialization is canonical (sorted keys, two-space indent, trailing
newline), so identical fits produce byte-identical files and
serialize -> parse -> serialize is a fixed point.
"""

from __future__ import annotations

import csv
import io
import json
import math

from . import __version__
from .analysis import McConfig, McSummary, asymptotic_loss, marginal_value, transition_point
from .core import Observation, JointLawParams, PowerLaw, eval_joint_law, eval_law
from .errors import SchemaError
from .fitting import FitConfig, FitResult, JointFitResult, SharedFitResult

SCHEMA_VERSION = 1


def _provenance(input_path: str, cfg: FitConfig | None) -> dict:
    out = {"input": input_path, "tool_version": __version__}
    if cfg is not None:
        out["seed"] = cfg.seed
        out["config"] = {
            "loss_space": cfg.loss_space,
            "max_iters": cfg.max_iters,
            "rel_tol": cfg.rel_tol,
            "n_restarts": cfg.n_restarts,
        }
    return out


def _observation_record(obs: Observation) -> dict:
    record = {"condition": obs.condition, "d_millions": obs.d_millions, "loss": obs.loss}
    if obs.n_enc is not None:
        record["n_enc"] = obs.n_enc
        record["n_dec"] = obs.n_dec
    return record


def _law_analysis(law: PowerLaw, d_values) -> dict:
    return {
        "asymptotic_loss": asymptotic_loss(law),
        "transition_point": transition_point(law),
        "marginal_value": [[float(d), marginal_value(law, float(d))] for d in sorted(d_values)],
    }


def build_fit_report(
    result: FitResult, obs: list[Observation], cfg: FitConfig, input_path: str
) -> dict:
    law = result.law
    return {
        "schema": SCHEMA_VERSION,
        "kind": "fit",
        "condition": obs[0].condition if obs else "",
        "law": {"alpha": law.alpha, "c": law.c, "p": law.p},
        "objective": result.objective,
        "converged": result.converged,
        "n_iters": result.n_iters,
        "residuals": list(result.residuals),
        "observations": [_observation_record(o) for o in obs],
        "analysis": _law_analysis(law, [o.d_millions for o in obs]),
        "provenance": _provenance(input_path, cfg),
    }


def build_shared_report(
    result: SharedFitResult,
    groups: dict[str, list[Observation]],
    cfg: FitConfig,
    input_path: str,
) -> dict:
    per_condition = {}
    observations = []
    residuals = []
    for label in sorted(groups):
        alpha, c = result.per_condition[label]
        law = result.law(label)
        per_condition[label] = {
            "alpha": alpha,
            "c": c,
            "analysis": _law_analysis(law, [o.d_millions for o in groups[label]]),
        }
        for o in groups[label]:
            observations.append(_observation_record(o))
            pred = eval_law(law, o.d_millions)
            if cfg.loss_space == "log":
                residuals.append(math.log(o.loss) - math.log(pred))
            else:
                residuals.append(o.loss - pred)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "fit_shared",
        "p": result.p,
        "per_condition": per_condition,
        "objective": result.objective,
        "converged": result.converged,
        "residuals": residuals,
        "observations": observations,
        "provenance": _provenance(input_path, cfg),
    }


def build_joint_report(
    result: JointFitResult,
    obs: list[Observation],
    cfg: FitConfig,
    input_path: str,
    hold_out: list[tuple[int, int]] = (),
) -> dict:
    params = result.params
    return {
        "schema": SCHEMA_VERSION,
        "kind": "fit_joint",
        "law": {
            "alpha": params.alpha,
            "p": params.p,
            "beta": params.beta,
            "p_e": params.p_e,
            "p_d": params.p_d,
            "l_inf": params.l_inf,
        },
        "hold_out": [[int(a), int(b)] for a, b in hold_out],
        "objective": result.objective,
        "converged": result.converged,
        "n_iters": result.n_iters,
        "residuals": list(result.residuals),
        "holdout_residuals": list(result.holdout_residuals),
        "observations": [_observation_record(o) for o in obs],
        "provenance": _provenance(input_path, cfg),
    }


def build_tail_report(
    result: FitResult,
    obs: list[Observation],
    d_min: float,
    cfg: FitConfig,
    input_path: str,
) -> dict:
    law = result.law
    return {
        "schema": SCHEMA_VERSION,
        "kind": "fit_tail",
        "law": {"gamma": law.gamma, "q": law.q, "b": law.b},
        "d_min": d_min,
        "objective": result.objective,
        "converged": result.converged,
        "n_iters": result.n_iters,
        "residuals": list(result.residuals),
        "observations": [_observation_record(o) for o in obs],
        "provenance": _provenance(input_path, cfg),
    }


def build_linear_report(fit, x, y, input_path: str, x_name: str, y_name: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "fit_linear",
        "fit": {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2},
        "x_column": x_name,
        "y_column": y_name,
        "points": [[float(a), float(b)] for a, b in zip(x, y)],
        "provenance": _provenance(input_path, None),
    }


def build_mc_report(summary: McSummary, cfg: McConfig, input_path: str) -> dict:
    q05, q50, q95 = summary.quantiles
    return {
        "schema": SCHEMA_VERSION,
        "kind": "mc",
        "mean_p": summary.mean_p,
        "std_p": summary.std_p,
        "quantiles": {"q05": q05, "q50": q50, "q95": q95},
        "n_converged": summary.n_converged,
        "n_reps": cfg.n_reps,
        "noise_frac": cfg.noise_frac,
        "provenance": {**_provenance(input_path, None), "seed": cfg.seed},
    }


def dumps_report(report: dict) -> str:
    """Canonical serialization: stable across runs for identical content."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict) or report.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"{path}: not a schema-{SCHEMA_VERSION} report")
    return report


def law_from_report(report: dict, condition: str | None = None) -> PowerLaw:
    """Extract a power law from a ``fit`` or ``fit_shared`` report.

    Shared reports need a condition selector unless they contain exactly
    one condition.
    """
    kind = report.get("kind")
    if kind == "fit":
        law = report["law"]
        return PowerLaw(alpha=law["alpha"], c=law["c"], p=law["p"])
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


def _joint_params_from_report(report: dict) -> JointLawParams:
    law = report["law"]
    return JointLawParams(
        alpha=law["alpha"],
        p=law["p"],
        beta=law["beta"],
        p_e=law["p_e"],
        p_d=law["p_d"],
        l_inf=law["l_inf"],
    )


def render_table(report: dict) -> list[list]:
    """Plot-ready rows for a fit report.

    Columns are ``d, observed, predicted, residual``, prefixed by
    ``condition`` for multi-condition reports and by the parameter counts
    for joint reports.  ``d`` is in millions of sentence pairs.
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
        params = _joint_params_from_report(report)
        held = {tuple(shape) for shape in report.get("hold_out", [])}
        header = ["condition", "n_enc", "n_dec", "d", "observed", "predicted", "residual", "held_out"]
        residuals = iter(report["residuals"])
        holdout_residuals = iter(report["holdout_residuals"])
        for obs in report["observations"]:
            shape = (obs["n_enc"], obs["n_dec"])
            is_held = shape in held
            residual = next(holdout_residuals) if is_held else next(residuals)
            d = obs["d_millions"]
            predicted = eval_joint_law(params, obs["n_enc"], obs["n_dec"], d)
            rows.append(
                [obs["condition"], obs["n_enc"], obs["n_dec"], d, obs["loss"], predicted, residual, int(is_held)]
            )
    elif kind == "fit_tail":
        law = report["law"]
        header = ["d", "observed", "predicted", "residual"]
        for obs, residual in zip(report["observations"], report["residuals"]):
            d = obs["d_millions"]
            predicted = law["gamma"] * d ** -law["q"] + law["b"]
            rows.append([d, obs["loss"], predicted, residual])
    else:
        raise SchemaError(f"no table rendering for a {kind!r} report")
    return [header] + rows


def format_table(report: dict) -> str:
    """CSV text of :func:`render_table` (floats via repr, so re-parsing is
    lossless)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in render_table(report):
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return buffer.getvalue()
