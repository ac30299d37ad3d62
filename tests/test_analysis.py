"""Regime quantities, the equivalence factor, and Monte Carlo uncertainty."""

import numpy as np
import pytest

import datascale as ds
from datascale import analysis, cli, fitting
from datascale.analysis import _replicate_draws
from datascale.fitting import _fit_laws

from conftest import DOUBLING_GRID, curve_observations, law_size_sweep

# Frozen from independent 40-digit evaluations of the closed forms with the
# encoder_decoder (1.969, 0.057, 0.285) and filtering-block coefficients.
ASYMPTOTE = 0.8703021371692619
TRANSITION = 17.543859649122807
MARGINAL_AT_1 = 0.5393577956482192
EQUIVALENCE = 1.7817306223371006


class TestAsymptoticLoss:
    def test_benchmark_value(self):
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        np.testing.assert_allclose(ds.asymptotic_loss(law), ASYMPTOTE, rtol=1e-12)

    def test_zero_capacity_means_zero_floor(self):
        assert ds.asymptotic_loss(ds.PowerLaw(5.0, 0.0, 0.3)) == 0.0

    def test_unit_capacity_returns_alpha(self):
        assert ds.asymptotic_loss(ds.PowerLaw(2.0, 1.0, 0.7)) == 2.0


class TestTransitionPoint:
    def test_benchmark_value(self):
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        np.testing.assert_allclose(ds.transition_point(law), TRANSITION, rtol=1e-12)

    def test_zero_capacity_has_no_transition(self):
        assert ds.transition_point(ds.PowerLaw(1.0, 0.0, 0.3)) is None

    def test_unit_capacity(self):
        assert ds.transition_point(ds.PowerLaw(1.0, 1.0, 0.3)) == 1.0


class TestMarginalValue:
    def test_benchmark_value(self):
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        np.testing.assert_allclose(ds.marginal_value(law, 1.0), MARGINAL_AT_1, rtol=1e-12)

    def test_pure_inverse_law(self):
        # loss = 1/d improves by 1/d^2 per extra million
        assert ds.marginal_value(ds.PowerLaw(1.0, 0.0, 1.0), 2.0) == 0.25

    def test_matches_central_difference_of_eval_law(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            law = ds.PowerLaw(
                rng.uniform(0.5, 5.0), rng.uniform(0.0, 0.5), rng.uniform(0.05, 1.5)
            )
            d = rng.uniform(0.25, 1024.0)
            h = d * 1e-6
            numeric = -(ds.eval_law(law, d + h) - ds.eval_law(law, d - h)) / (2 * h)
            analytic = ds.marginal_value(law, d)
            assert abs(analytic - numeric) <= 1e-6 * abs(analytic)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ds.DomainError):
            ds.marginal_value(ds.PowerLaw(1.0, 0.1, 0.3), 0.0)

    def test_float_input_gives_a_float(self):
        assert type(ds.marginal_value(ds.PowerLaw(2.0, 0.05, 0.4), 2.5)) is float

    def test_float_path_matches_numpy_scalar_path(self):
        for law, d in law_size_sweep(seed=43):
            assert ds.marginal_value(law, float(d)) == ds.marginal_value(law, np.float64(d)), (law, d)

    def test_float_path_rejects_bad_sizes(self):
        law = ds.PowerLaw(1.0, 0.1, 0.3)
        for d in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ds.DomainError):
                ds.marginal_value(law, d)


class TestDataEquivalenceFactor:
    def test_filtering_benchmark_pair(self):
        unfiltered = ds.PowerLaw(2.501, 0.034, 0.278)
        filtered = ds.PowerLaw(2.130, 0.064, 0.278)
        np.testing.assert_allclose(
            ds.data_equivalence_factor(unfiltered, filtered), EQUIVALENCE, rtol=1e-12
        )

    def test_equal_constants_need_no_extra_data(self):
        a = ds.PowerLaw(2.0, 0.05, 0.3)
        b = ds.PowerLaw(2.0, 0.1, 0.3)
        assert ds.data_equivalence_factor(a, b) == 1.0

    def test_requires_shared_exponent(self):
        with pytest.raises(ds.ExponentMismatchError):
            ds.data_equivalence_factor(
                ds.PowerLaw(2.0, 0.05, 0.30), ds.PowerLaw(2.0, 0.05, 0.31)
            )

    def test_factor_equates_losses_in_data_limited_regime(self):
        law1 = ds.PowerLaw(2.501, 0.034, 0.278)
        law2 = ds.PowerLaw(2.130, 0.064, 0.278)
        k = ds.data_equivalence_factor(law1, law2)
        c_max = max(law1.c, law2.c)
        for d in np.geomspace(1e-5, 0.0099 / c_max, 40):
            if d * c_max >= 0.01:
                continue
            rel = abs(ds.eval_law(law1, k * d) - ds.eval_law(law2, d)) / ds.eval_law(law2, d)
            assert rel < 0.01


class TestMcUncertainty:
    BASE_LAW = ds.PowerLaw(1.969, 0.057, 0.285)

    def _observations(self):
        return curve_observations(self.BASE_LAW, DOUBLING_GRID)

    def test_vanishing_noise_pins_the_exponent(self):
        summary = ds.mc_uncertainty(
            self._observations(),
            ds.FitConfig(seed=1),
            ds.McConfig(noise_frac=1e-9, n_reps=20, seed=5),
        )
        assert summary.std_p < 1e-5
        assert summary.mean_p == pytest.approx(self.BASE_LAW.p, abs=1e-6)

    def test_bit_reproducible(self):
        cfg_fit = ds.FitConfig(seed=1)
        cfg_mc = ds.McConfig(noise_frac=0.02, n_reps=25, seed=9)
        first = ds.mc_uncertainty(self._observations(), cfg_fit, cfg_mc)
        second = ds.mc_uncertainty(self._observations(), cfg_fit, cfg_mc)
        assert first == second

    def test_matches_manual_replication(self):
        # independent reimplementation of the draw layout, point by point:
        # the block row-major from stream (seed, 0), then round k's
        # non-positive points row-major from stream (seed, k); same refits,
        # same summary
        obs = self._observations()
        cfg_fit = ds.FitConfig(seed=1)
        cfg_mc = ds.McConfig(noise_frac=0.6, n_reps=8, seed=32)
        summary = ds.mc_uncertainty(obs, cfg_fit, cfg_mc)
        z = iter(np.random.default_rng([32, 0]).standard_normal(8 * len(obs)).tolist())
        rows = [[o.loss + 0.6 * o.loss * next(z) for o in obs] for _ in range(8)]
        rounds = 0
        for k in range(1, analysis.MAX_REDRAWS):
            bad = [(r, i) for r, row in enumerate(rows) for i, y in enumerate(row) if y <= 0]
            if not bad:
                break
            rounds = k
            for (r, i), zk in zip(bad, np.random.default_rng([32, k]).standard_normal(len(bad)).tolist()):
                rows[r][i] = obs[i].loss + 0.6 * obs[i].loss * zk
        assert rounds > 0
        fits = [ds.fit_single([ds.Observation(o.condition, o.d_millions, y) for o, y in zip(obs, row)], cfg_fit)
                for row in rows]
        ps = [fit.law.p for fit in fits if fit.converged]
        assert (summary.n_converged, summary.n_dropped) == (len(ps), 0)
        assert summary.mean_p == float(np.mean(ps))
        assert summary.std_p == float(np.std(ps, ddof=1))

    def test_replicates_do_not_depend_on_n_reps(self):
        # at noise 0.6 some replicates need redraws, and the first 50 of 200
        # replicates are still the 50 of n_reps 50, bit for bit
        losses = ds.eval_law(self.BASE_LAW, np.array(DOUBLING_GRID))
        z = np.random.default_rng([8, 0]).standard_normal((50, len(losses)))
        assert (losses + 0.6 * losses * z <= 0).any()
        small = _replicate_draws(losses, ds.McConfig(noise_frac=0.6, n_reps=50, seed=8))
        large = _replicate_draws(losses, ds.McConfig(noise_frac=0.6, n_reps=200, seed=8))
        assert (len(small), len(large)) == (50, 200)
        assert repr(small.tolist()) == repr(large[:50].tolist())

    def test_replicates_left_bad_by_the_last_round_are_dropped(self, monkeypatch):
        # with a single round, exactly the replicates holding a non-positive
        # first draw are dropped, and the summary counts them
        monkeypatch.setattr(analysis, "MAX_REDRAWS", 1)
        obs = self._observations()
        losses = np.array([o.loss for o in obs])
        cfg_mc = ds.McConfig(noise_frac=0.6, n_reps=40, seed=8)
        first = losses + 0.6 * losses * np.random.default_rng([8, 0]).standard_normal((40, len(losses)))
        kept = (first > 0).all(1)
        assert 0 < kept.sum() < 40
        assert repr(_replicate_draws(losses, cfg_mc).tolist()) == repr(first[kept].tolist())
        assert ds.mc_uncertainty(obs, ds.FitConfig(seed=1), cfg_mc).n_dropped == 40 - kept.sum()

    def test_mean_stable_when_doubling_replicates(self):
        obs = self._observations()
        cfg_fit = ds.FitConfig(seed=1)
        small = ds.mc_uncertainty(obs, cfg_fit, ds.McConfig(noise_frac=0.02, n_reps=80, seed=2))
        large = ds.mc_uncertainty(obs, cfg_fit, ds.McConfig(noise_frac=0.02, n_reps=160, seed=2))
        bound = 3.0 * large.std_p / np.sqrt(small.n_converged)
        assert abs(small.mean_p - large.mean_p) <= bound

    def test_quantiles_are_ordered(self):
        summary = ds.mc_uncertainty(
            self._observations(),
            ds.FitConfig(seed=1),
            ds.McConfig(noise_frac=0.02, n_reps=40, seed=4),
        )
        q05, q50, q95 = summary.quantiles
        assert q05 <= q50 <= q95
        assert summary.n_converged <= 40

    @pytest.mark.parametrize("block", [1, 7, fitting._BLOCK])
    def test_batched_replicates_match_lone_fits(self, monkeypatch, block):
        # Each replicate of the batch gets the law, residuals, convergence and
        # steps that fit_single gives it alone, bit for bit: across blocks of
        # any size, iteration caps that stop some rows early, a coarse
        # tolerance, a curve without and one deep in saturation, and noise
        # that goes through the redraw rounds.
        grid = np.array([1.0, 3.0, 7.0, 20.0, 50.0, 120.0, 300.0])
        curves = (ds.PowerLaw(1.9, 1e-6, 0.6), ds.PowerLaw(3.0, 50.0, 0.2), self.BASE_LAW)
        configs = [ds.FitConfig(), ds.FitConfig(max_iters=3), ds.FitConfig(rel_tol=1e-3), ds.FitConfig(max_iters=1)]
        monkeypatch.setattr(fitting, "_BLOCK", block)
        for i, law in enumerate(curves):
            losses = ds.eval_law(law, grid)
            for noise_frac in (0.02, 0.6):
                draws = _replicate_draws(losses, ds.McConfig(noise_frac=noise_frac, n_reps=18, seed=i))
                for cfg in configs:
                    batch = [repr((fit, (np.log(row) - np.log(ds.eval_law(fit, grid))).tolist(), converged, n_iters))
                             for (fit, converged, n_iters), row in zip(_fit_laws(grid, draws, cfg), draws)]
                    lone = [ds.fit_single([ds.Observation("c", d, y) for d, y in zip(grid.tolist(), row.tolist())],
                                          cfg) for row in draws]
                    assert batch == [repr((fit.law, fit.residuals, fit.converged, fit.n_iters)) for fit in lone]

    def test_mc_report_bytes_do_not_depend_on_the_block(self, monkeypatch, tmp_path):
        # 150 replicates cross blocks at every block size tried
        path = tmp_path / "obs.csv"
        ds.write_observations(path, ds.simulate(self.BASE_LAW, DOUBLING_GRID, 0.01, seed=4))
        reports = []
        for block in (1, 7, fitting._BLOCK):
            monkeypatch.setattr(fitting, "_BLOCK", block)
            output = tmp_path / f"mc-{block}.json"
            assert cli.main(["mc", "--input", str(path), "--seed", "9", "--n-reps", "150",
                             "--output", str(output)]) == 0
            reports.append(output.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_redraw_keeps_replicate_losses_positive(self):
        # even when the noise dwarfs the loss, rejected draws are retried,
        # so no replicate is dropped and none carries a non-positive loss
        draws = _replicate_draws(np.full(200, 0.5), ds.McConfig(noise_frac=50.0, n_reps=5, seed=0))
        assert draws.shape == (5, 200)
        assert np.all(draws > 0)
