"""Objective ledger: the least-squares objective every fitter reaches on
seeded random instances, against objectives recorded from a reference engine.

``tests/data/objective_ledger.json`` holds one row per instance: which fitter
and loss space, the instance's index (from which :func:`instance` rebuilds its
data) or, for a named hard case, the data itself, the :class:`FitConfig` it
was fitted with, and what the reference engine reached: ``objective``,
``converged``, ``n_iters`` and the time per fit in ms.  ``best`` is the least
objective known for the instance: the least of every recording's fit and, in
log space, of the profiled reference searches of ``bench/workloads.py``
(``_single_minimum`` for ``fit_single``, ``_joint_minimum`` for
``fit_joint``).  The rows were first recorded from a Gauss-Newton engine with
seeded restarts; their objectives are now those of the deterministic profiled
searches of ``datascale.fitting``, with this machine's last bits.

The gate is that every fit ends at most ``objective * (1 + 1e-9)``.  It has a
tolerance, so it holds on any machine.  How many fits lie above
``best * (1 + 1e-9)``, now and when recorded, and the current per-fit time
percentiles are printed (``pytest -s``), not asserted.  The recorded
``time_ms`` is not printed beside them: it was taken in an earlier run, on
a machine whose speed drifts by up to 2x, so only alternating runs of two
engines compare their times.

Tier-1 runs every fifth instance, and every ``fit_tail`` row recorded at an
objective of exactly 0 or named; ``pytest -m ledger`` runs the whole ledger.
``python tests/test_objective_ledger.py [OUT [FITTERS]]`` fits the ledger's
rows anew (those of the comma-separated ``FITTERS`` only, if given) from the
fitters on the import path and writes them to ``OUT`` (the ledger itself by
default).  It prints, per fitter and loss space, how many gates tightened, and
writes nothing if any fit ends above its old objective by more than the gate's
slack; record only from the engine meant as the reference.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import datascale as ds

LEDGER = Path(__file__).parent / "data" / "objective_ledger.json"
FITTERS = ("fit_single", "fit_shared", "fit_joint", "fit_tail")
LOSS_SPACES = ("log", "linear")
N_INSTANCES = 300
SLACK = 1e-9


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


def _rows(fitter, loss_space):
    return [
        row for row in json.loads(LEDGER.read_text(encoding="utf-8"))
        if row["fitter"] == fitter and row["loss_space"] == loss_space
    ]


def _check(fitter, loss_space, rows):
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
    _check(fitter, loss_space, _rows(fitter, loss_space)[::5])


@pytest.mark.parametrize("loss_space", LOSS_SPACES)
def test_tail_rows_at_zero_and_named(loss_space):
    """The ``fit_tail`` rows recorded at exactly 0, three points that the law
    interpolates, where only an exact 0 passes the gate; and the named rows."""
    rows = [row for row in _rows("fit_tail", loss_space) if row["objective"] == 0 or "name" in row]
    assert len(rows) == {"log": 46, "linear": 29}[loss_space]
    _check("fit_tail", loss_space, rows)


def test_bench_208_tail_converges():
    """Bench seed 208's ``no_filter_20`` tail, which stopped a Gauss-Newton
    engine at its iteration cap, converges no higher than its recorded
    objective."""
    (row,) = [row for row in _rows("fit_tail", "log") if row.get("name") == "bench-208-no_filter_20"]
    result = instance(row)(ds.FitConfig(**row["config"]))
    assert result.converged
    assert result.objective <= row["objective"]


@pytest.mark.ledger
@pytest.mark.parametrize("fitter", FITTERS)
@pytest.mark.parametrize("loss_space", LOSS_SPACES)
def test_whole_ledger(fitter, loss_space):
    _check(fitter, loss_space, _rows(fitter, loss_space))


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


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


def record(rows, fitters=FITTERS):
    """``rows``, the ledger, with the rows of ``fitters`` fitted anew by the
    fitters on the import path.

    Each row keeps its instance and config and takes the fit's ``objective``,
    ``converged``, ``n_iters`` and ``time_ms``.  Its ``best`` becomes the least
    of the old ``best``, the fit and :func:`_reference_minimum`, so it never
    rises.  Returns the new rows and the rows whose fit ends above the old
    objective by more than ``SLACK``: an engine regression, not a row to
    record.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    new, worse = [], []
    for old in rows:
        row = dict(old)
        if row["fitter"] in fitters:
            result, ms = _timed(instance(row), ds.FitConfig(**row["config"]))
            row.update(objective=result.objective, converged=result.converged,
                       n_iters=getattr(result, "n_iters", None), time_ms=round(ms, 3),
                       best=min(old["best"], result.objective, _reference_minimum(row)))
            if not result.objective <= old["objective"] * (1.0 + SLACK):
                worse.append(row)
        new.append(row)
    return new, worse


def _tightened(old_rows, new_rows):
    """Per fitter and loss space: how many gates tightened, how many by more
    than ``SLACK``, and the largest relative tightening."""
    lines = []
    for fitter in FITTERS:
        for space in LOSS_SPACES:
            pairs = [(o["objective"], n["objective"]) for o, n in zip(old_rows, new_rows)
                     if o["fitter"] == fitter and o["loss_space"] == space]
            gaps = [(o - n) / o for o, n in pairs if n < o]
            lines.append(f"{fitter}/{space}: {len(gaps)} of {len(pairs)} gates tightened, "
                         f"{sum(g > SLACK for g in gaps)} by more than {SLACK:g}, "
                         f"largest by {max(gaps, default=0.0):.3g}")
    return "\n".join(lines)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else LEDGER
    chosen = tuple(sys.argv[2].split(",")) if len(sys.argv) > 2 else FITTERS
    old_rows = json.loads(LEDGER.read_text(encoding="utf-8"))
    rows, worse = record(old_rows, chosen)
    print(_tightened(old_rows, rows))
    if worse:
        sys.exit("not written: objectives above the ledger's (fitter, loss space, instance, now):\n"
                 + "\n".join(f"{r['fitter']} {r['loss_space']} {r.get('index', r.get('name'))} "
                              f"{r['objective']!r}" for r in worse))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n", encoding="utf-8")
