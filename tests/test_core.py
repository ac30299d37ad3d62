"""Closed-form evaluators: exact values and invariants."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf, power

import datascale as ds
from datascale.core import capacity_constant

from conftest import law_size_sweep

# Frozen from an independent 40-digit evaluation of the closed form with the
# encoder_decoder benchmark coefficients (1.969, 0.057, 0.285).
EVAL_AT_1 = 2.000355052632167
EVAL_AT_512 = 0.8786990624800946


class TestObservation:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ds.DomainError):
            ds.Observation("a", 0.0, 1.0)

    def test_rejects_non_positive_log_perplexity(self):
        with pytest.raises(ds.DomainError):
            ds.Observation("a", 1.0, -1.0)

    def test_bleu_metric_allows_small_scores(self):
        obs = ds.Observation("a", 1.0, 0.0, metric="bleu")
        assert obs.loss == 0.0

    def test_parameter_counts_come_in_pairs(self):
        with pytest.raises(ds.DomainError):
            ds.Observation("a", 1.0, 1.0, n_enc=100)
        obs = ds.Observation("a", 1.0, 1.0, n_enc=100, n_dec=200)
        assert obs.shape == (100, 200)

    def test_unknown_metric(self):
        with pytest.raises(ds.DomainError):
            ds.Observation("a", 1.0, 1.0, metric="accuracy")


class TestTypeInvariants:
    def test_power_law_bounds(self):
        for bad in [(-1, 0.1, 0.3), (1, -0.1, 0.3), (1, 0.1, 0.0), (1, 0.1, 2.5)]:
            with pytest.raises(ds.DomainError):
                ds.PowerLaw(*bad)
        assert ds.PowerLaw(1.0, 0.0, 2.0).p == 2.0

    def test_tail_law_bounds(self):
        with pytest.raises(ds.DomainError):
            ds.TailLaw(0.0, 1.0, 0.0)
        with pytest.raises(ds.DomainError):
            ds.TailLaw(1.0, 0.0, 0.0)
        with pytest.raises(ds.DomainError):
            ds.TailLaw(1.0, 1.0, -0.1)

    def test_linear_fit_r2_range(self):
        with pytest.raises(ds.DomainError):
            ds.LinearFit(1.0, 0.0, 1.5)


class TestEvalLaw:
    def test_pure_inverse_law(self):
        # with c = 0 and p = 1 the law collapses to alpha / d
        assert ds.eval_law(ds.PowerLaw(1.0, 0.0, 1.0), 2.0) == 0.5

    def test_benchmark_values(self):
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        np.testing.assert_allclose(ds.eval_law(law, 1.0), EVAL_AT_1, rtol=1e-12)
        np.testing.assert_allclose(ds.eval_law(law, 512.0), EVAL_AT_512, rtol=1e-12)

    def test_rejects_non_positive_size(self):
        law = ds.PowerLaw(1.0, 0.1, 0.3)
        for d in (0.0, -2.0, math.inf):
            with pytest.raises(ds.DomainError):
                ds.eval_law(law, d)

    def test_float_input_gives_a_float(self):
        assert type(ds.eval_law(ds.PowerLaw(2.0, 0.05, 0.4), 2.5)) is float

    def test_float_path_matches_numpy_scalar_path(self):
        # a float runs on float operators, an np.float64 on numpy: same bits
        for law, d in law_size_sweep(seed=41):
            assert ds.eval_law(law, float(d)) == ds.eval_law(law, np.float64(d)), (law, d)

    def test_float_path_rejects_bad_sizes(self):
        law = ds.PowerLaw(1.0, 0.1, 0.3)
        for d in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ds.DomainError):
                ds.eval_law(law, d)

    def test_float_size_gives_the_bits_of_numpy_scalars(self):
        for law, d in law_size_sweep(seed=44):
            alpha, c, p, size = (np.float64(v) for v in (law.alpha, law.c, law.p, d))
            assert ds.eval_law(law, float(d)) == alpha * (1.0 / size + c) ** p, (law, d)

    def test_array_elements_do_not_depend_on_length_or_position(self):
        # an element of an array gets the bits it gets in a one-element array,
        # though not always those of the float path: numpy's array power and
        # libm's pow differ in the last bit for about 5 % of sizes
        rng = np.random.default_rng(45)
        for law, _ in law_size_sweep(seed=45, n=200):
            d = 10.0 ** rng.uniform(-4.0, 6.0, size=rng.integers(1, 80))
            values = ds.eval_law(law, d).tolist()
            assert values == [ds.eval_law(law, d[i : i + 1])[0] for i in range(len(d))], law
            for start in range(1, min(9, len(d))):
                assert ds.eval_law(law, d[start:]).tolist() == values[start:], (law, start)

    def test_strictly_decreasing_and_bounded_below(self):
        rng = np.random.default_rng(7)
        d = np.geomspace(0.25, 1024, 64)
        for _ in range(50):
            law = ds.PowerLaw(
                rng.uniform(0.5, 5.0), rng.uniform(0.0, 0.5), rng.uniform(0.05, 1.5)
            )
            values = ds.eval_law(law, d)
            assert np.all(np.diff(values) < 0)
            assert np.all(values >= ds.asymptotic_loss(law))

    def test_approaches_asymptote(self):
        law = ds.PowerLaw(1.7, 0.21, 0.33)
        floor = ds.asymptotic_loss(law)
        assert ds.eval_law(law, 1e12) == pytest.approx(floor, rel=1e-9)


class TestEvalJointLaw:
    def test_unit_parameter_counts(self):
        # n_e = n_d = 1 with l_inf = 0 forces the capacity constant to
        # beta * 1**(1/p) = 1, so the loss saturates at alpha * 1**p = alpha.
        params = ds.JointLawParams(alpha=1.0, p=1.0, beta=1.0, p_e=0.3, p_d=0.7, l_inf=0.0)
        assert capacity_constant(params, 1, 1) == 1.0
        assert ds.eval_joint_law(params, 1, 1, 1e15) == pytest.approx(1.0, rel=1e-12)

    def test_matches_arbitrary_precision_evaluation(self):
        params = ds.JointLawParams(
            alpha=1.0, p=0.5, beta=1.0, p_e=0.25, p_d=0.25, l_inf=0.01
        )
        got = ds.eval_joint_law(params, 10**8, 10**8, 64.0)
        mp.dps = 40
        n = mpf(10) ** 8
        capacity = mpf(1) * power(power(n, mpf("-0.25")) * power(n, mpf("-0.25")) + mpf("0.01"), 2)
        expected = float(power(1 / mpf(64) + capacity, mpf("0.5")))
        assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_large_count_limit_matches_plain_law(self):
        # as counts grow the capacity tends to beta * l_inf**(1/p) = 0.25
        params = ds.JointLawParams(alpha=1.3, p=0.5, beta=1.0, p_e=0.4, p_d=0.4, l_inf=0.5)
        limit_law = ds.PowerLaw(1.3, 0.25, 0.5)
        for d in (0.5, 4.0, 100.0):
            got = ds.eval_joint_law(params, 10**15, 10**15, d)
            assert got == pytest.approx(ds.eval_law(limit_law, d), rel=1e-5)

    def test_exact_consistency_with_eval_law(self):
        params = ds.JointLawParams(alpha=2.1, p=0.31, beta=1.7, p_e=0.44, p_d=0.38, l_inf=0.2)
        for n_e, n_d in [(10**7, 10**8), (5 * 10**8, 10**6)]:
            c = capacity_constant(params, n_e, n_d)
            law = ds.PowerLaw(params.alpha, c, params.p)
            for d in (0.5, 3.0, 77.0):
                assert ds.eval_joint_law(params, n_e, n_d, d) == ds.eval_law(law, d)

    def test_rejects_zero_counts(self):
        params = ds.JointLawParams(alpha=1.0, p=0.5, beta=1.0, p_e=0.3, p_d=0.3, l_inf=0.0)
        with pytest.raises(ds.DomainError):
            ds.eval_joint_law(params, 0, 10**8, 1.0)
        with pytest.raises(ds.DomainError):
            ds.eval_joint_law(params, 10**8, -5, 1.0)
