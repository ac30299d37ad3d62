"""Fitter round-trips, degeneracies, error paths, the grid oracle and a seeded
sweep pinning the engine's results bit for bit."""

import hashlib

import numpy as np
import pytest

import datascale as ds

from conftest import DOUBLING_GRID, FILTERING_BLOCK, GridSpec, curve_observations, grid_oracle


class TestFitSingle:
    def test_recovers_exact_inverse_law(self):
        obs = curve_observations(ds.PowerLaw(1.0, 0.0, 1.0), [1, 2, 4, 8, 16])
        res = ds.fit_single(obs, ds.FitConfig(seed=1))
        assert abs(res.law.alpha - 1.0) < 1e-6
        assert abs(res.law.c) < 1e-6
        assert abs(res.law.p - 1.0) < 1e-6
        assert res.converged

    def test_recovers_benchmark_coefficients(self):
        law = ds.PowerLaw(1.969, 0.064, 0.296)
        obs = curve_observations(law, DOUBLING_GRID)
        res = ds.fit_single(obs, ds.FitConfig(seed=1))
        assert abs(res.law.alpha - law.alpha) / law.alpha < 1e-4
        assert abs(res.law.c - law.c) / law.c < 1e-4
        assert abs(res.law.p - law.p) / law.p < 1e-4

    def test_objective_not_worse_than_grid_oracle(self):
        rng = np.random.default_rng(8)
        obs = curve_observations(
            ds.PowerLaw(2.5, 0.03, 0.28), DOUBLING_GRID, noise_frac=0.01, rng=rng
        )
        fit = ds.fit_single(obs, ds.FitConfig(seed=8))
        oracle = grid_oracle(obs, GridSpec((1.5, 3.5), (0.0, 0.1), (0.1, 0.5), 9, 9, 9))
        assert fit.objective <= oracle.objective + 1e-12

    def test_objective_equals_sum_of_squared_residuals(self):
        rng = np.random.default_rng(9)
        obs = curve_observations(
            ds.PowerLaw(2.0, 0.05, 0.3), DOUBLING_GRID, noise_frac=0.02, rng=rng
        )
        res = ds.fit_single(obs, ds.FitConfig(seed=9))
        assert res.objective == sum(v * v for v in res.residuals)
        assert len(res.residuals) == len(obs)

    def test_too_few_points(self):
        obs = curve_observations(ds.PowerLaw(1.0, 0.0, 1.0), [1, 2, 4])
        with pytest.raises(ds.InsufficientDataError):
            ds.fit_single(obs, ds.FitConfig(seed=0))

    def test_duplicate_sizes(self):
        law = ds.PowerLaw(1.0, 0.0, 1.0)
        obs = curve_observations(law, [1, 2, 4, 8]) + curve_observations(law, [4])
        with pytest.raises(ds.DuplicateAbscissaError):
            ds.fit_single(obs, ds.FitConfig(seed=0))

    def test_mixed_conditions(self):
        obs = curve_observations(ds.PowerLaw(1.0, 0.0, 1.0), [1, 2, 4], condition="a")
        obs += curve_observations(ds.PowerLaw(1.0, 0.0, 1.0), [8, 16], condition="b")
        with pytest.raises(ds.SchemaError):
            ds.fit_single(obs, ds.FitConfig(seed=0))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(10)
        obs = curve_observations(
            ds.PowerLaw(1.8, 0.08, 0.25), DOUBLING_GRID, noise_frac=0.03, rng=rng
        )
        assert ds.fit_single(obs, ds.FitConfig(seed=4)) == ds.fit_single(
            obs, ds.FitConfig(seed=4)
        )

    def test_exhausted_budget_reports_non_convergence(self):
        rng = np.random.default_rng(11)
        obs = curve_observations(
            ds.PowerLaw(2.2, 0.1, 0.3), DOUBLING_GRID, noise_frac=0.2, rng=rng
        )
        res = ds.fit_single(obs, ds.FitConfig(seed=3, max_iters=1, rel_tol=1e-18, n_restarts=1))
        assert not res.converged

    def test_tolerance_below_float_resolution_still_converges(self):
        # brackets close at float resolution, so a tiny rel_tol neither
        # spins to the step cap nor reports a closed bracket as open
        rng = np.random.default_rng(14)
        obs = curve_observations(
            ds.PowerLaw(2.0, 0.05, 0.3), DOUBLING_GRID, noise_frac=0.02, rng=rng
        )
        cfg = ds.FitConfig(rel_tol=1e-300, max_iters=200)
        assert ds.fit_single(obs, cfg).converged
        assert ds.fit_shared({"a": obs}, cfg).converged

    def test_law_valid_even_on_pathological_data(self):
        # increasing losses cannot come from the model; the bounded searches
        # must still return something inside the law's domain
        obs = [ds.Observation("a", d, 0.1 * d + 0.5) for d in (1, 2, 4, 8, 16)]
        res = ds.fit_single(obs, ds.FitConfig(seed=5))
        assert res.law.alpha > 0 and res.law.c >= 0 and 0 < res.law.p <= 2

    def test_linear_loss_space(self):
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        obs = curve_observations(law, DOUBLING_GRID)
        res = ds.fit_single(obs, ds.FitConfig(seed=2, loss_space="linear"))
        assert abs(res.law.p - law.p) / law.p < 1e-4


class TestFitShared:
    def test_recovers_common_exponent(self):
        groups = {}
        for label, alpha, c in [("ed", 1.969, 0.057), ("do", 1.817, 0.11)]:
            law = ds.PowerLaw(alpha, c, 0.285)
            groups[label] = curve_observations(law, DOUBLING_GRID, condition=label)
        res = ds.fit_shared(groups, ds.FitConfig(seed=6))
        assert abs(res.p - 0.285) < 1e-3
        for label, alpha, c in [("ed", 1.969, 0.057), ("do", 1.817, 0.11)]:
            got_alpha, got_c = res.per_condition[label]
            assert abs(got_alpha - alpha) / alpha < 1e-3
            assert abs(got_c - c) / c < 1e-3

    def test_single_group_reduces_to_fit_single(self):
        law = ds.PowerLaw(2.0, 0.08, 0.3)
        rng = np.random.default_rng(12)
        obs = curve_observations(law, DOUBLING_GRID, condition="only", noise_frac=0.01, rng=rng)
        shared = ds.fit_shared({"only": obs}, ds.FitConfig(seed=6))
        single = ds.fit_single(obs, ds.FitConfig(seed=6))
        alpha, c = shared.per_condition["only"]
        assert abs(shared.p - single.law.p) < 1e-8
        assert abs(alpha - single.law.alpha) < 1e-8
        assert abs(c - single.law.c) < 1e-8

    def test_misspecified_exponents_cost_pooled_objective(self):
        groups = {}
        separate_total = 0.0
        for label, p in [("slow", 0.20), ("mid", 0.28), ("fast", 0.36)]:
            law = ds.PowerLaw(2.0, 0.05, p)
            groups[label] = curve_observations(law, DOUBLING_GRID, condition=label)
            separate_total += ds.fit_single(groups[label], ds.FitConfig(seed=1)).objective
        pooled = ds.fit_shared(groups, ds.FitConfig(seed=1)).objective
        assert pooled > separate_total

    def test_every_condition_reported_once(self):
        groups = {
            label: curve_observations(
                ds.PowerLaw(2.0, 0.05, 0.3), DOUBLING_GRID, condition=label
            )
            for label in ("x", "y", "z")
        }
        res = ds.fit_shared(groups, ds.FitConfig(seed=0))
        assert sorted(res.per_condition) == ["x", "y", "z"]

    def test_law_accessor_builds_full_power_law(self):
        groups = {
            "a": curve_observations(ds.PowerLaw(1.5, 0.1, 0.4), DOUBLING_GRID, condition="a")
        }
        res = ds.fit_shared(groups, ds.FitConfig(seed=0))
        law = res.law("a")
        assert law.p == res.p


class TestFitJoint:
    FIXED = (2.2, 0.44, 0.38, 0.4)
    SHAPES = [(10**8, 10**8), (3 * 10**8, 10**8), (10**8, 3 * 10**8), (2 * 10**8, 2 * 10**8)]

    def _observations(self, params, noise_frac=0.0, rng=None):
        rows = []
        for n_e, n_d in self.SHAPES:
            for d in DOUBLING_GRID:
                loss = ds.eval_joint_law(params, n_e, n_d, d)
                if noise_frac:
                    loss *= 1.0 + noise_frac * rng.standard_normal()
                rows.append(
                    ds.Observation(f"{n_e}x{n_d}", d, loss, n_enc=n_e, n_dec=n_d)
                )
        return rows

    def test_recovers_alpha_and_p(self):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.2, p_e=0.44, p_d=0.38, l_inf=0.4)
        res = ds.fit_joint(self._observations(params), self.FIXED, ds.FitConfig(seed=3))
        assert abs(res.params.alpha - 1.5) / 1.5 < 1e-5
        assert abs(res.params.p - 0.3) / 0.3 < 1e-5

    def test_single_shape_matches_fit_single_with_pinned_capacity(self):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.2, p_e=0.44, p_d=0.38, l_inf=0.4)
        n_e = n_d = 10**8
        obs = [
            ds.Observation("one", d, ds.eval_joint_law(params, n_e, n_d, d), n_enc=n_e, n_dec=n_d)
            for d in DOUBLING_GRID
        ]
        joint = ds.fit_joint(obs, self.FIXED, ds.FitConfig(seed=3))
        single = ds.fit_single(obs, ds.FitConfig(seed=3))
        implied_c = ds.capacity_constant(joint.params, n_e, n_d)
        assert abs(joint.params.alpha - single.law.alpha) < 1e-6
        assert abs(joint.params.p - single.law.p) < 1e-6
        assert abs(implied_c - single.law.c) < 1e-6

    def test_holdout_residuals_comparable_to_in_sample(self):
        params = ds.JointLawParams(alpha=1.6, p=0.32, beta=2.2, p_e=0.44, p_d=0.38, l_inf=0.4)
        rng = np.random.default_rng([271, 0])
        obs = self._observations(params, noise_frac=0.01, rng=rng)
        res = ds.fit_joint(
            obs, self.FIXED, ds.FitConfig(seed=2), hold_out=[(2 * 10**8, 2 * 10**8)]
        )
        assert len(res.holdout_residuals) == len(DOUBLING_GRID)
        rms_in = float(np.sqrt(np.mean(np.square(res.residuals))))
        rms_out = float(np.sqrt(np.mean(np.square(res.holdout_residuals))))
        assert 0.5 <= rms_out / rms_in <= 2.0

    def test_missing_counts_rejected(self):
        obs = [ds.Observation("a", d, 1.0 / d + 0.5) for d in (1, 2, 4, 8)]
        with pytest.raises(ds.SchemaError):
            ds.fit_joint(obs, self.FIXED, ds.FitConfig(seed=0))


class TestFitTail:
    def test_exponent_near_one_on_saturating_curve(self):
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        obs = curve_observations(law, DOUBLING_GRID)
        res = ds.fit_tail(obs, 32.0, ds.FitConfig(seed=4))
        assert 0.8 <= res.law.q <= 1.05

    def test_exact_recovery_of_inverse_tail(self):
        obs = [ds.Observation("a", d, 2.0 / d + 0.5) for d in (32, 64, 128, 256, 512)]
        res = ds.fit_tail(obs, 32.0, ds.FitConfig(seed=4))
        assert abs(res.law.gamma - 2.0) < 1e-6
        assert abs(res.law.q - 1.0) < 1e-6
        assert abs(res.law.b - 0.5) < 1e-6

    def test_threshold_above_all_sizes(self):
        obs = [ds.Observation("a", d, 2.0 / d + 0.5) for d in (32, 64, 128)]
        with pytest.raises(ds.InsufficientDataError):
            ds.fit_tail(obs, 1024.0, ds.FitConfig(seed=0))


class TestFitLinear:
    def test_exact_line(self):
        x = np.arange(10.0)
        fit = ds.fit_linear(x, 3.0 * x + 1.0)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_noisy_line(self):
        rng = np.random.default_rng(13)
        x = np.linspace(0, 5, 100)
        y = -2.0 * x + 5.0 + 0.01 * rng.standard_normal(100)
        fit = ds.fit_linear(x, y)
        assert abs(fit.slope + 2.0) < 0.01
        assert fit.r2 > 0.99

    def test_constant_x_is_rank_deficient(self):
        with pytest.raises(ds.RankError):
            ds.fit_linear([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ds.SchemaError):
            ds.fit_linear([1.0, 2.0], [1.0, 2.0, 3.0])


class TestGridOracle:
    def test_zero_objective_when_grid_contains_truth(self):
        law = ds.PowerLaw(1.0, 0.1, 1.0)
        obs = curve_observations(law, [1, 2, 4, 8])
        grid = GridSpec((0.5, 1.5), (0.0, 0.2), (0.5, 1.5), 3, 3, 3)
        res = grid_oracle(obs, grid)
        assert res.objective == pytest.approx(0.0, abs=1e-25)
        assert res.law == law

    def test_evaluation_count_is_grid_size(self):
        obs = curve_observations(ds.PowerLaw(1.0, 0.0, 1.0), [1, 2, 4, 8])
        res = grid_oracle(obs, GridSpec((0.5, 1.5), (0.0, 0.2), (0.5, 1.5), 3, 3, 3))
        assert res.n_evaluations == 27

    def test_dominance_over_random_instances(self):
        rng = np.random.default_rng(77)
        grid = GridSpec((0.5, 4.0), (0.0, 0.4), (0.05, 0.8), 4, 4, 4)
        for i in range(20):
            law = ds.PowerLaw(
                rng.uniform(0.8, 3.0), rng.uniform(0.0, 0.3), rng.uniform(0.1, 0.6)
            )
            obs = curve_observations(
                law, DOUBLING_GRID, noise_frac=rng.uniform(0.0, 0.05), rng=rng
            )
            fit = ds.fit_single(obs, ds.FitConfig(seed=i))
            assert fit.objective <= grid_oracle(obs, grid).objective + 1e-12


def engine_sweep():
    """Results of 160 seeded fits, 40 of each fitter, alternating the loss
    space and cycling 0-3 restarts and iteration caps of 3, 12, 40 and 2000:
    the 120 power-law fits, then the 40 ``fit_tail`` fits."""
    rng = np.random.default_rng(2202)
    power_law, tail = [], []

    def config(i):
        return ds.FitConfig(
            loss_space=("log", "linear")[i % 2],
            max_iters=(3, 12, 40, 2000)[i // 2 % 4],
            n_restarts=i % 4,
            seed=i,
        )

    def curve(condition, noise=0.03):
        law = ds.PowerLaw(rng.uniform(0.5, 5.0), 10 ** rng.uniform(-4, 1), rng.uniform(0.1, 1.5))
        sizes = np.sort(rng.choice(2 ** np.arange(12), size=rng.integers(4, 12), replace=False))
        return [
            ds.Observation(
                condition, float(d), ds.eval_law(law, float(d)) * float(np.exp(noise * z))
            )
            for d, z in zip(sizes, rng.standard_normal(len(sizes)))
        ]

    for i in range(40):
        power_law.append(ds.fit_single(curve("single"), config(i)))
    for i in range(40):
        groups = {f"g{j}": curve(f"g{j}") for j in range(1 + i % 3)}
        power_law.append(ds.fit_shared(groups, config(i)))
    for i in range(40):
        obs = curve("tail", noise=0.01)
        d_min = obs[(len(obs) - 3) // (1 + i % 2)].d_millions
        tail.append(ds.fit_tail(obs, d_min, config(i)))
    shapes = [(10**8, 10**8), (3 * 10**8, 10**8), (10**8, 3 * 10**8)]
    for i in range(40):
        params = ds.JointLawParams(alpha=rng.uniform(0.8, 3.0), p=rng.uniform(0.15, 0.6), beta=2.2,
                                   p_e=0.44, p_d=0.38, l_inf=(0.0, 0.01)[i // 2 % 2])
        obs = [
            ds.Observation(f"{n_e}x{n_d}", d, ds.eval_joint_law(params, n_e, n_d, d)
                           * float(np.exp(0.01 * rng.standard_normal())), n_enc=n_e, n_dec=n_d)
            for n_e, n_d in shapes
            for d in DOUBLING_GRID
        ]
        fixed = (params.beta, params.p_e, params.p_d, params.l_inf)
        hold_out = [shapes[2]] if i // 4 % 2 else []
        power_law.append(ds.fit_joint(obs, fixed, config(i), hold_out=hold_out))
    return power_law, tail


@pytest.fixture(scope="module")
def sweep():
    return engine_sweep()


# Every field of the sweep's fits (laws, objectives, residuals, ``converged``,
# ``n_iters``) hashes to a digest recorded from an earlier implementation, so
# a change that is meant to keep the fitters' arithmetic has to keep every
# bit.  Like the golden fitting digests, these depend on the numpy build and
# the CPU: record them anew on another machine from a commit known to be good.


def test_power_law_sweep_is_byte_identical(sweep):
    digest = hashlib.sha256(repr(sweep[0]).encode()).hexdigest()
    assert digest == "9c8ff2d924ed8d93b4fdde39b17a7ad93ba1ad4684863e2d8c3ad63316db4ff9"


def test_tail_sweep_is_byte_identical(sweep):
    """The tail fits keep the Gauss-Newton engine, so their digest is the one
    recorded before the power-law fits moved to the profiled searches."""
    digest = hashlib.sha256(repr(sweep[1]).encode()).hexdigest()
    assert digest == "1ea5b9890802890892dbb55a2bd0b95582706bb7f03c586b2388942299fc8899"
