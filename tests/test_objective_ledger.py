"""Objective ledger: the least-squares objective every fitter reaches on
seeded random instances, against objectives recorded from a reference engine.

``tests/data/objective_ledger.json`` holds one row per instance: which fitter
and loss space, the instance's index (from which :func:`instance` rebuilds its
data) or, for a named hard case, the data itself, the :class:`FitConfig` it
was fitted with, and what the reference engine reached: ``objective``,
``converged``, ``n_iters`` and the time per fit in ms.  ``best`` is the least
objective known for the instance: the reference engine's with 32 restarts
and, in log space, the profiled reference searches of ``bench/workloads.py``
(``_single_minimum`` for ``fit_single``, ``_joint_minimum`` for ``fit_joint``).

The gate is that every fit ends at most ``objective * (1 + 1e-9)``.  It has a
tolerance, so it holds on any machine.  How many fits lie above
``best * (1 + 1e-9)``, now and when recorded, and the current per-fit time
percentiles are printed (``pytest -s``), not asserted.  The recorded
``time_ms`` is not printed beside them: it was taken in an earlier run, on
a machine whose speed drifts by up to 2x, so only alternating runs of two
engines compare their times.

Tier-1 runs every fifth instance; ``pytest -m ledger`` runs the whole ledger.
``python tests/test_objective_ledger.py`` records it anew from the fitters on
the import path; record only from the engine meant as the reference.
"""

import json
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import datascale as ds

LEDGER = Path(__file__).parent / "data" / "objective_ledger.json"
FITTERS = ("fit_single", "fit_shared", "fit_joint", "fit_tail")
LOSS_SPACES = ("log", "linear")
N_INSTANCES = 300
SLACK = 1e-9
BEST_RESTARTS = 32


def _curve(rng, condition, noise, p=None):
    """A noisy curve: alpha in [0.5, 5], c log-uniform in [1e-4, 10], p in
    [0.1, 1.5], 4-11 sizes from 1...2048 M, log-normal noise."""
    law = ds.PowerLaw(rng.uniform(0.5, 5.0), 10 ** rng.uniform(-4, 1), p or rng.uniform(0.1, 1.5))
    sizes = np.sort(rng.choice(2.0 ** np.arange(12), size=rng.integers(4, 12), replace=False))
    losses = ds.eval_law(law, sizes) * np.exp(noise * rng.standard_normal(len(sizes)))
    return [ds.Observation(condition, float(d), float(y)) for d, y in zip(sizes, losses)]


def _joint_instance(rng, index):
    """Joint-law observations on 3-4 random shapes with ``l_inf`` 0 or 0.01,
    and every other pair of instances holding one shape out."""
    params = ds.JointLawParams(
        alpha=rng.uniform(0.5, 5.0), p=rng.uniform(0.1, 1.5), beta=rng.uniform(0.5, 5.0),
        p_e=rng.uniform(0.2, 0.5), p_d=rng.uniform(0.2, 0.5), l_inf=(0.0, 0.01)[index % 2],
    )
    shapes = [tuple(int(v) for v in 10 ** rng.uniform(6, 9, size=2)) for _ in range(rng.integers(3, 5))]
    sizes = np.sort(rng.choice(2.0 ** np.arange(12), size=rng.integers(4, 12), replace=False))
    obs = [
        ds.Observation(f"{n_e}x{n_d}", float(d), ds.eval_joint_law(params, n_e, n_d, float(d))
                       * float(np.exp(0.03 * rng.standard_normal())), n_enc=n_e, n_dec=n_d)
        for n_e, n_d in shapes
        for d in sizes
    ]
    fixed = (params.beta, params.p_e, params.p_d, params.l_inf)
    return obs, fixed, shapes[-1:] if index // 2 % 2 else []


def instance(row):
    """The fit of one ledger row, as a function of its :class:`FitConfig`."""
    if "data" in row:
        data = row["data"]
        obs = [ds.Observation("named", d, y) for d, y in zip(data["d"], data["y"])]
        return lambda cfg: ds.fit_tail(obs, data["d_min"], cfg)
    fitter, index = row["fitter"], row["index"]
    rng = np.random.default_rng(
        [2202, FITTERS.index(fitter), LOSS_SPACES.index(row["loss_space"]), index]
    )
    if fitter == "fit_single":
        obs = _curve(rng, "single", 0.03)
        return lambda cfg: ds.fit_single(obs, cfg)
    if fitter == "fit_shared":
        p = rng.uniform(0.1, 1.5)
        groups = {f"g{j}": _curve(rng, f"g{j}", 0.03, p) for j in range(rng.integers(2, 7))}
        return lambda cfg: ds.fit_shared(groups, cfg)
    if fitter == "fit_joint":
        obs, fixed, hold_out = _joint_instance(rng, index)
        return lambda cfg: ds.fit_joint(obs, fixed, cfg, hold_out=hold_out)
    obs = _curve(rng, "tail", 0.01)
    d_min = obs[int(rng.integers(0, len(obs) - 2))].d_millions
    return lambda cfg: ds.fit_tail(obs, d_min, cfg)


def _timed(fit, cfg):
    start = time.perf_counter()
    result = fit(cfg)
    return result, (time.perf_counter() - start) * 1e3


def _percentiles(times):
    return "p50 %.2f ms, p90 %.2f ms" % tuple(np.percentile(times, [50, 90]))


def _check(fitter, loss_space, step):
    rows = [
        row for row in json.loads(LEDGER.read_text(encoding="utf-8"))
        if row["fitter"] == fitter and row["loss_space"] == loss_space
    ][::step]
    worse, above_best, times = [], 0, []
    for row in rows:
        result, ms = _timed(instance(row), ds.FitConfig(**row["config"]))
        times.append(ms)
        if not result.objective <= row["objective"] * (1.0 + SLACK):
            worse.append((row.get("index", row.get("name")), result.objective, row["objective"]))
        above_best += result.objective > row["best"] * (1.0 + SLACK)
    recorded_above = sum(row["objective"] > row["best"] * (1.0 + SLACK) for row in rows)
    print(
        f"\n{fitter}/{loss_space}: {len(rows)} fits, {above_best} above best "
        f"({recorded_above} when recorded); {_percentiles(times)}"
    )
    assert not worse, f"objectives above the ledger's (instance, now, recorded): {worse}"


@pytest.mark.parametrize("fitter", FITTERS)
@pytest.mark.parametrize("loss_space", LOSS_SPACES)
def test_every_fifth_instance(fitter, loss_space):
    _check(fitter, loss_space, step=5)


@pytest.mark.ledger
@pytest.mark.parametrize("fitter", FITTERS)
@pytest.mark.parametrize("loss_space", LOSS_SPACES)
def test_whole_ledger(fitter, loss_space):
    _check(fitter, loss_space, step=1)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def _bench_tail_208():
    """Bench seed 208's ``no_filter_20`` tail, which stalled Gauss-Newton at
    its iteration cap: the fit_table workload's data and fit seed."""
    from workloads import TAIL_D_MIN, FitTable

    with tempfile.TemporaryDirectory() as work:
        workload = FitTable(208, False, work)
        workload.prepare()
        d, y = workload.data["no_filter_20"]
        return {"fitter": "fit_tail", "loss_space": "log", "name": "bench-208-no_filter_20",
                "data": {"d": d.tolist(), "y": y.tolist(), "d_min": TAIL_D_MIN},
                "config": asdict(ds.FitConfig(seed=int(workload.fit_seed)))}


def _reference_minimum(row):
    """The bench's profiled search on a log-space single or joint instance."""
    from workloads import _joint_minimum, _single_minimum

    if row["loss_space"] != "log" or row["fitter"] not in ("fit_single", "fit_joint"):
        return float("inf")
    rng = np.random.default_rng(
        [2202, FITTERS.index(row["fitter"]), LOSS_SPACES.index(row["loss_space"]), row["index"]]
    )
    if row["fitter"] == "fit_single":
        obs = _curve(rng, "single", 0.03)
        return _single_minimum(*(np.array(v) for v in zip(*[(o.d_millions, o.loss) for o in obs])))
    obs, (beta, p_e, p_d, l_inf), hold_out = _joint_instance(rng, row["index"])
    obs = [o for o in obs if o.shape not in hold_out]
    n_e, n_d, d, y = (np.array(v, dtype=float) for v in
                      zip(*[(o.n_enc, o.n_dec, o.d_millions, o.loss) for o in obs]))
    return _joint_minimum(d, y, beta, np.exp(-p_e * np.log(n_e) - p_d * np.log(n_d)) + l_inf)


def record(fitters=FITTERS):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    rows = [
        {"fitter": fitter, "loss_space": space, "index": i,
         "config": asdict(ds.FitConfig(loss_space=space, seed=i))}
        for fitter in fitters for space in LOSS_SPACES for i in range(N_INSTANCES)
    ]
    if "fit_tail" in fitters:
        rows.append(_bench_tail_208())
    for row in rows:
        fit = instance(row)
        result, ms = _timed(fit, ds.FitConfig(**row["config"]))
        many = fit(ds.FitConfig(**{**row["config"], "n_restarts": BEST_RESTARTS}))
        row.update(objective=result.objective, converged=result.converged,
                   n_iters=getattr(result, "n_iters", None), time_ms=round(ms, 3),
                   best=min(result.objective, many.objective, _reference_minimum(row)))
    return rows


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else LEDGER
    chosen = tuple(sys.argv[2].split(",")) if len(sys.argv) > 2 else FITTERS
    rows = record(chosen)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n", encoding="utf-8")
