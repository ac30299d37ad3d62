"""CSV ingestion, unit conversion, and the synthetic-curve simulator."""

import numpy as np
import pytest

import datascale as ds
from datascale.observations import format_observations

from conftest import DOUBLING_GRID


def write(tmp_path, text, name="obs.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadObservations:
    def test_well_formed_file(self, tmp_path):
        path = write(
            tmp_path,
            "condition,d_millions,loss\nbase,1,2.0\nbase,2,1.7\nbase,4,1.5\n",
        )
        table = ds.load_observations(path)
        assert len(table.rows) == 3
        assert table.rows[0] == ds.Observation("base", 1.0, 2.0)
        assert table.source_path == str(path)

    def test_negative_loss_cites_the_row(self, tmp_path):
        path = write(tmp_path, "condition,d_millions,loss\nbase,1,2.0\nbase,2,-1\n")
        with pytest.raises(ds.ParseError, match="line 3"):
            ds.load_observations(path)

    def test_raw_counts_are_converted_to_millions(self, tmp_path):
        path = write(tmp_path, "condition,d,loss\nbase,512000000,0.9\n")
        table = ds.load_observations(path, raw_counts=True)
        assert table.rows[0].d_millions == 512.0

    def test_missing_size_column(self, tmp_path):
        path = write(tmp_path, "condition,loss\nbase,2.0\n")
        with pytest.raises(ds.ParseError, match="d_millions"):
            ds.load_observations(path)

    def test_non_numeric_field_cites_the_row(self, tmp_path):
        path = write(tmp_path, "condition,d_millions,loss\nbase,one,2.0\n")
        with pytest.raises(ds.ParseError, match="line 2"):
            ds.load_observations(path)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = write(tmp_path, "condition,d_millions,loss\nbase,1,2.0\nbase,1,2.1\n")
        with pytest.raises(ds.ParseError, match="duplicate"):
            ds.load_observations(path)

    def test_replicate_column_disambiguates(self, tmp_path):
        path = write(
            tmp_path,
            "condition,d_millions,loss,replicate\nbase,1,2.0,1\nbase,1,2.1,2\n",
        )
        assert len(ds.load_observations(path).rows) == 2

    def test_parameter_counts_parsed(self, tmp_path):
        path = write(
            tmp_path,
            "condition,d_millions,loss,n_enc,n_dec\nbase,1,2.0,100000000,50000000\n",
        )
        row = ds.load_observations(path).rows[0]
        assert row.shape == (100_000_000, 50_000_000)

    def test_lone_count_cites_the_row(self, tmp_path):
        path = write(
            tmp_path, "condition,d_millions,loss,n_enc,n_dec\nbase,1,2.0,100,\n"
        )
        with pytest.raises(ds.ParseError, match="line 2"):
            ds.load_observations(path)

    def test_bleu_metric_column(self, tmp_path):
        path = write(
            tmp_path, "condition,d_millions,loss,metric\nbase,1,0.31,bleu\n"
        )
        assert ds.load_observations(path).rows[0].metric == "bleu"

    def test_grouping_by_condition(self, tmp_path):
        path = write(
            tmp_path,
            "condition,d_millions,loss\na,1,2.0\nb,1,2.2\na,2,1.8\n",
        )
        table = ds.load_observations(path)
        groups = table.by_condition()
        assert sorted(groups) == ["a", "b"]
        assert len(groups["a"]) == 2


class TestFormatRoundTrip:
    def test_csv_round_trip_is_lossless(self, tmp_path):
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        table = ds.simulate(law, DOUBLING_GRID, 0.02, seed=3, condition="base")
        path = tmp_path / "out.csv"
        ds.write_observations(path, table)
        again = ds.load_observations(path)
        assert again.rows == table.rows


class TestSimulate:
    def test_zero_noise_gives_exact_curve_points(self):
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        table = ds.simulate(law, DOUBLING_GRID, 0.0, seed=1)
        for row in table.rows:
            assert row.loss == ds.eval_law(law, row.d_millions)

    def test_end_to_end_round_trip_through_fit(self):
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        table = ds.simulate(law, DOUBLING_GRID, 0.0, seed=1)
        res = ds.fit_single(table.rows, ds.FitConfig(seed=1))
        assert abs(res.law.alpha - law.alpha) / law.alpha < 1e-6
        assert abs(res.law.p - law.p) / law.p < 1e-6

    def test_fixed_seed_reproduces_csv_bytes(self):
        law = ds.PowerLaw(2.0, 0.05, 0.3)
        a = format_observations(ds.simulate(law, DOUBLING_GRID, 0.02, seed=11))
        b = format_observations(ds.simulate(law, DOUBLING_GRID, 0.02, seed=11))
        assert a == b

    def test_sample_mean_tracks_the_curve(self):
        # 1000 draws at one size: the mean lands within 3 standard errors
        law = ds.PowerLaw(1.969, 0.057, 0.285)
        table = ds.simulate(law, [8.0] * 1000, 0.02, seed=21)
        losses = np.array([row.loss for row in table.rows])
        clean = ds.eval_law(law, 8.0)
        assert abs(losses.mean() - clean) <= 3.0 * 0.02 * clean / np.sqrt(1000)

    def test_empty_grid_rejected(self):
        with pytest.raises(ds.DomainError):
            ds.simulate(ds.PowerLaw(1.0, 0.1, 0.3), [], 0.0, seed=0)


class TestSimulateJoint:
    def test_shapes_become_conditions_with_counts(self):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        table = ds.simulate_joint(params, [(10**8, 5 * 10**7)], [1.0, 2.0], 0.0, seed=2)
        assert {row.condition for row in table.rows} == {"100000000x50000000"}
        for row in table.rows:
            assert row.shape == (10**8, 5 * 10**7)
            assert row.loss == ds.eval_joint_law(params, *row.shape, row.d_millions)


class TestCsvLayout:
    """How a table's text maps to rows and line numbers; each test pins one case."""

    def test_short_row_reads_its_absent_cell_as_none(self, tmp_path):
        path = write(tmp_path, "condition,d_millions,loss\nbase,1,2.0\nbase,2\n")
        with pytest.raises(ds.ParseError, match=r"^line 3: non-numeric loss None$"):
            ds.load_observations(path)

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        path = write(tmp_path, "condition,d_millions,loss\n\nbase,1,2.0\n\n\nbase,2,-1\n")
        with pytest.raises(ds.ParseError, match=r"^line 6: "):
            ds.load_observations(path)
        path = write(tmp_path, "condition,d_millions,loss\n\nbase,1,2.0\n\nbase,2,1.9\n\n")
        assert [row.d_millions for row in ds.load_observations(path).rows] == [1.0, 2.0]

    def test_quoted_multi_line_field_is_numbered_by_its_last_line(self, tmp_path):
        path = write(tmp_path, 'condition,d_millions,loss\n"ba\nse",1,2.0\nbase,2,-1\n')
        with pytest.raises(ds.ParseError, match=r"^line 4: "):
            ds.load_observations(path)
        path = write(tmp_path, 'condition,d_millions,loss\nbase,1,2.0\n"ba\n\nse",2,-1\n')
        with pytest.raises(ds.ParseError, match=r"^line 5: "):
            ds.load_observations(path)

    def test_byte_order_mark_and_spaced_header_names(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_bytes(b"\xef\xbb\xbf condition , d_millions ,loss \nbase,1,2.0\n")
        assert ds.load_observations(path).rows == [ds.Observation("base", 1.0, 2.0)]

    def test_last_of_duplicate_header_names_wins(self, tmp_path):
        path = write(tmp_path, "condition,loss,d_millions,loss\nbase,9,1,2.0\n")
        assert ds.load_observations(path).rows == [ds.Observation("base", 1.0, 2.0)]

    def test_extra_cells_of_a_long_row_are_ignored(self, tmp_path):
        path = write(tmp_path, "condition,d_millions,loss\nbase,1,2.0,x,\nbase,2,1.9,,,y\n")
        assert [row.loss for row in ds.load_observations(path).rows] == [2.0, 1.9]
