"""Regime quantities, the equivalence factor, and Monte Carlo uncertainty."""

import numpy as np
import pytest

import datascale as ds
from datascale.analysis import _replicate_draws, _replicate_losses
from datascale.fitting import _fit_laws

from conftest import DOUBLING_GRID, curve_observations

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
            ds.FitConfig(seed=1, n_restarts=2),
            ds.McConfig(noise_frac=1e-9, n_reps=20, seed=5),
        )
        assert summary.std_p < 1e-5
        assert summary.mean_p == pytest.approx(self.BASE_LAW.p, abs=1e-6)

    def test_bit_reproducible(self):
        cfg_fit = ds.FitConfig(seed=1, n_restarts=2)
        cfg_mc = ds.McConfig(noise_frac=0.02, n_reps=25, seed=9)
        first = ds.mc_uncertainty(self._observations(), cfg_fit, cfg_mc)
        second = ds.mc_uncertainty(self._observations(), cfg_fit, cfg_mc)
        assert first == second

    def test_matches_manual_replication(self):
        # independent reimplementation of the replicate loop: same streams,
        # same refits, same summary
        obs = self._observations()
        cfg_fit = ds.FitConfig(seed=1, n_restarts=2)
        cfg_mc = ds.McConfig(noise_frac=0.02, n_reps=6, seed=33)
        summary = ds.mc_uncertainty(obs, cfg_fit, cfg_mc)
        ps = []
        for rep in range(cfg_mc.n_reps):
            rng = np.random.default_rng([cfg_mc.seed, rep])
            noisy = [
                ds.Observation(o.condition, o.d_millions, rng.normal(o.loss, 0.02 * o.loss))
                for o in obs
            ]
            res = ds.fit_single(noisy, cfg_fit)
            if res.converged:
                ps.append(res.law.p)
        assert summary.n_converged == len(ps)
        assert summary.mean_p == float(np.mean(ps))
        assert summary.std_p == float(np.std(ps, ddof=1))

    def test_mean_stable_when_doubling_replicates(self):
        obs = self._observations()
        cfg_fit = ds.FitConfig(seed=1, n_restarts=2)
        small = ds.mc_uncertainty(obs, cfg_fit, ds.McConfig(noise_frac=0.02, n_reps=80, seed=2))
        large = ds.mc_uncertainty(obs, cfg_fit, ds.McConfig(noise_frac=0.02, n_reps=160, seed=2))
        bound = 3.0 * large.std_p / np.sqrt(small.n_converged)
        assert abs(small.mean_p - large.mean_p) <= bound

    def test_quantiles_are_ordered(self):
        summary = ds.mc_uncertainty(
            self._observations(),
            ds.FitConfig(seed=1, n_restarts=2),
            ds.McConfig(noise_frac=0.02, n_reps=40, seed=4),
        )
        q05, q50, q95 = summary.quantiles
        assert q05 <= q50 <= q95
        assert summary.n_converged <= 40

    def test_batched_replicates_match_lone_fits(self):
        # Each replicate of the batch gets the p, convergence and steps that
        # fit_single gives it alone: across blocks, bracket counts (n_restarts
        # 0 to 8), iteration caps that stop some rows early, a coarse
        # tolerance, a curve without and one deep in saturation, and noise
        # that goes through the redraw loop.
        grid = np.array([1.0, 3.0, 7.0, 20.0, 50.0, 120.0, 300.0])
        curves = (ds.PowerLaw(1.9, 1e-6, 0.6), ds.PowerLaw(3.0, 50.0, 0.2), self.BASE_LAW)
        configs = [ds.FitConfig(n_restarts=0), ds.FitConfig(n_restarts=8, max_iters=3),
                   ds.FitConfig(n_restarts=3, rel_tol=1e-3), ds.FitConfig(n_restarts=2, max_iters=1)]
        for i, law in enumerate(curves):
            losses = ds.eval_law(law, grid)
            for noise_frac in (0.02, 0.6):
                draws = _replicate_draws(losses, ds.McConfig(noise_frac=noise_frac, n_reps=18, seed=i))
                for cfg in configs:
                    batch = [(fit.p, converged, n_iters) for fit, converged, n_iters in _fit_laws(grid, draws, cfg)]
                    lone = [ds.fit_single([ds.Observation("c", d, y) for d, y in zip(grid.tolist(), row.tolist())],
                                          cfg) for row in draws]
                    assert batch == [(fit.law.p, fit.converged, fit.n_iters) for fit in lone]

    def test_redraw_keeps_replicate_losses_positive(self):
        # even when the noise dwarfs the loss, rejected draws are retried
        # so the replicate never carries a non-positive loss
        rng = np.random.default_rng(0)
        noisy = _replicate_losses([0.5] * 200, 50.0, rng)
        assert noisy is not None
        assert np.all(noisy > 0)
