"""Report building, canonical serialization, and table rendering."""

import collections
import json
import math

import numpy as np
import pytest

import datascale as ds
from datascale.reports import (
    build_fit_report,
    build_joint_report,
    build_shared_report,
    build_tail_report,
    dumps_report,
    format_table,
    law_from_report,
    load_report,
    render_table,
)

from conftest import (
    ARCHITECTURE_BLOCK,
    BACKTRANSLATION_BLOCK,
    DOUBLING_GRID,
    FILTERING_BLOCK,
    NOISE_BLOCK,
    curve_observations,
)


def single_fit_report(noise=0.01, seed=5):
    law = ds.PowerLaw(1.969, 0.057, 0.285)
    rng = np.random.default_rng(seed)
    obs = curve_observations(law, DOUBLING_GRID, condition="base", noise_frac=noise, rng=rng)
    cfg = ds.FitConfig(seed=seed)
    result = ds.fit_single(obs, cfg)
    return build_fit_report(result, obs, cfg, "obs.csv"), result, obs


class TestSerialization:
    def test_serialize_parse_serialize_is_a_fixed_point(self, tmp_path):
        report, _, _ = single_fit_report()
        text = dumps_report(report)
        path = tmp_path / "fit.json"
        path.write_text(text, encoding="utf-8")
        loaded = load_report(path)
        assert dumps_report(loaded) == text

    def test_identical_fits_serialize_identically(self):
        a, _, _ = single_fit_report()
        b, _, _ = single_fit_report()
        assert dumps_report(a) == dumps_report(b)

    def test_schema_and_provenance_fields(self):
        report, _, _ = single_fit_report()
        assert report["schema"] == 1
        prov = report["provenance"]
        assert prov["input"] == "obs.csv"
        assert prov["seed"] == 5
        assert prov["tool_version"] == ds.__version__
        assert prov["config"]["loss_space"] == "log"

    def test_rejects_non_report_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"schema": 99}), encoding="utf-8")
        with pytest.raises(ds.SchemaError):
            load_report(path)


class TestLawExtraction:
    def test_single_fit_law_round_trips(self):
        report, result, _ = single_fit_report()
        assert law_from_report(report) == result.law

    def test_shared_report_requires_condition_selector(self):
        groups = {
            label: curve_observations(
                ds.PowerLaw(alpha, c, 0.278), DOUBLING_GRID, condition=label
            )
            for label, alpha, c in [("no_filter", 2.501, 0.034), ("bicleaner", 2.130, 0.064)]
        }
        cfg = ds.FitConfig(seed=1)
        result = ds.fit_shared(groups, cfg)
        report = build_shared_report(result, groups, cfg, "obs.csv")
        with pytest.raises(ds.SchemaError):
            law_from_report(report)
        law = law_from_report(report, "no_filter")
        assert law.p == result.p
        assert law.alpha == result.per_condition["no_filter"][0]

    def test_wrong_kind_rejected(self):
        with pytest.raises(ds.SchemaError):
            law_from_report({"schema": 1, "kind": "mc"})


class TestTables:
    def test_single_fit_table_columns_and_consistency(self):
        report, _, obs = single_fit_report()
        table = render_table(report)
        assert table[0] == ["d", "observed", "predicted", "residual"]
        assert len(table) == len(obs) + 1
        for d, observed, predicted, residual in table[1:]:
            # log-space residual: observed = predicted * exp(residual)
            assert observed == pytest.approx(predicted * math.exp(residual), rel=1e-12)

    def test_table_csv_is_parseable_and_deterministic(self):
        report, _, _ = single_fit_report()
        text = format_table(report)
        lines = text.strip().splitlines()
        assert lines[0] == "d,observed,predicted,residual"
        assert format_table(report) == text
        first = lines[1].split(",")
        assert float(first[0]) == 1.0

    def test_shared_table_carries_condition_column(self):
        groups = {
            label: curve_observations(ds.PowerLaw(2.0, 0.05, 0.3), DOUBLING_GRID, condition=label)
            for label in ("a", "b")
        }
        cfg = ds.FitConfig(seed=2)
        result = ds.fit_shared(groups, cfg)
        report = build_shared_report(result, groups, cfg, "obs.csv")
        table = render_table(report)
        assert table[0][0] == "condition"
        assert {row[0] for row in table[1:]} == {"a", "b"}

    def test_joint_table_marks_held_out_rows(self):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        shapes = [(10**8, 10**8), (2 * 10**8, 10**8)]
        table_obs = ds.simulate_joint(params, shapes, DOUBLING_GRID, 0.0, seed=1)
        cfg = ds.FitConfig(seed=1)
        hold_out = [(2 * 10**8, 10**8)]
        result = ds.fit_joint(table_obs.rows, (2.0, 0.4, 0.4, 0.2), cfg, hold_out=hold_out)
        report = build_joint_report(result, table_obs.rows, cfg, "obs.csv", hold_out)
        rows = render_table(report)[1:]
        held_flags = [row[-1] for row in rows]
        assert sum(held_flags) == len(DOUBLING_GRID)

    def test_tail_table_predictions(self):
        obs = [ds.Observation("a", d, 2.0 / d + 0.5) for d in (32, 64, 128, 256, 512)]
        cfg = ds.FitConfig(seed=3)
        result = ds.fit_tail(obs, 32.0, cfg)
        report = build_tail_report(result, obs, 32.0, cfg, "obs.csv")
        for d, observed, predicted, _ in render_table(report)[1:]:
            assert predicted == pytest.approx(2.0 / d + 0.5, rel=1e-6)
            assert observed == 2.0 / d + 0.5


JOINT_SHAPES = [(10**8, 5 * 10**7), (2 * 10**8, 10**8), (4 * 10**8, 2 * 10**8)]
JOINT_FIXED = (2.0, 0.3, 0.25, 0.01)


@pytest.fixture(scope="module")
def fitted():
    """``(result, report)`` pairs of every table kind in both loss spaces, fitted
    to seeded simulations of the benchmark blocks; joint fits hold one shape out."""
    blocks = (ARCHITECTURE_BLOCK, NOISE_BLOCK, FILTERING_BLOCK, BACKTRANSLATION_BLOCK)
    groups = [
        {label: ds.simulate(ds.PowerLaw(alpha, c, p), DOUBLING_GRID, 0.02, seed=60 + 10 * b + i,
                            condition=label).rows
         for i, (label, alpha, c, p) in enumerate(block)}
        for b, block in enumerate(blocks)
    ]
    curves = [obs for group in groups for obs in group.values()]
    joint = [
        ds.simulate_joint(ds.JointLawParams(alpha, p, *JOINT_FIXED), JOINT_SHAPES, DOUBLING_GRID, 0.01,
                          seed=90 + i).rows
        for i, (_, alpha, _, p) in enumerate(NOISE_BLOCK)
    ]
    out = collections.defaultdict(list)
    for space in ("log", "linear"):
        cfg = ds.FitConfig(loss_space=space)
        for obs in curves:
            result = ds.fit_single(obs, cfg)
            out["fit", space].append((result, build_fit_report(result, obs, cfg, "obs.csv")))
            tail = [o for o in obs if o.d_millions >= 2.0]
            result = ds.fit_tail(tail, 2.0, cfg)
            out["fit_tail", space].append((result, build_tail_report(result, tail, 2.0, cfg, "obs.csv")))
        for group in groups:
            result = ds.fit_shared(group, cfg)
            out["fit_shared", space].append((result, build_shared_report(result, group, cfg, "obs.csv")))
        for obs in joint:
            result = ds.fit_joint(obs, JOINT_FIXED, cfg, hold_out=JOINT_SHAPES[-1:])
            report = build_joint_report(result, obs, cfg, "obs.csv", JOINT_SHAPES[-1:])
            out["fit_joint", space].append((result, report))
    return out


class TestTablesFromTheFit:
    """A table's ``residual`` column is ``ln(observed) - ln(predicted)``, or
    ``observed - predicted`` in the linear loss space, on numpy arrays."""

    def test_sweep_holds_sizes_where_float_and_array_paths_disagree(self, fitted):
        # without such a size, taking predicted on the float path would pass too
        pairs = [(law_from_report(report), obs["d_millions"])
                 for space in ("log", "linear") for _, report in fitted["fit", space]
                 for obs in report["observations"]]
        assert sum(ds.eval_law(law, d) != ds.eval_law(law, np.array([d]))[0] for law, d in pairs) > 0

    @pytest.mark.parametrize("space", ["log", "linear"])
    @pytest.mark.parametrize("kind", ["fit", "fit_shared", "fit_tail", "fit_joint"])
    def test_residual_is_observed_against_predicted(self, fitted, kind, space):
        for _, report in fitted[kind, space]:
            header, *rows = render_table(report)
            observed, predicted, residual = (np.array([row[header.index(name)] for row in rows])
                                             for name in ("observed", "predicted", "residual"))
            expected = np.log(observed) - np.log(predicted) if space == "log" else observed - predicted
            assert residual.tolist() == expected.tolist()
            assert "np.float64" not in format_table(report)

    @pytest.mark.parametrize("space", ["log", "linear"])
    def test_joint_table_gives_each_row_the_bits_of_its_own_evaluation(self, space):
        # 40 rows of 4 shapes in shuffled order, one shape held out: each
        # shape is evaluated in one call, and each row must still read what
        # the row evaluated alone reads
        shapes = JOINT_SHAPES + [(10**9, 3 * 10**8)]
        rows = ds.simulate_joint(ds.JointLawParams(1.8, 0.3, *JOINT_FIXED), shapes, DOUBLING_GRID, 0.01,
                                 seed=7).rows
        obs = [rows[i] for i in np.random.default_rng(7).permutation(len(rows))]
        cfg = ds.FitConfig(loss_space=space)
        result = ds.fit_joint(obs, JOINT_FIXED, cfg, hold_out=shapes[1:2])
        header, *table = render_table(build_joint_report(result, obs, cfg, "obs.csv", shapes[1:2]))
        alone = [float(ds.eval_joint_law(result.params, o.n_enc, o.n_dec, np.array([o.d_millions]))[0])
                 for o in obs]
        assert len(table) == 40 and sum(row[-1] for row in table) == 10
        assert [repr(row[header.index("predicted")]) for row in table] == list(map(repr, alone))

    @pytest.mark.parametrize("space", ["log", "linear"])
    @pytest.mark.parametrize("kind", ["fit_shared", "fit_joint"])
    def test_report_prints_the_fit_residuals_and_their_sum_of_squares(self, fitted, kind, space):
        for result, report in fitted[kind, space]:
            assert report["residuals"] == result.residuals
            r = np.array(report["residuals"])
            assert report["objective"] == result.objective == float((r * r).sum())
