"""CSV ingestion, unit conversion, and the synthetic-curve simulator."""

import csv
import io
import random

import numpy as np
import pytest

import datascale as ds
from datascale import observations
from datascale.cli import main
from datascale.observations import format_observations

from conftest import BENCHMARK_ROWS, DOUBLING_GRID


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


# ---------------------------------------------------------------------------
# The column pass against the row loop
# ---------------------------------------------------------------------------


def bench_shaped(rng, raw_counts):
    """Header and rows of a small table shaped like the benchmark's:
    conditions on the doubling grid, sizes and losses written by repr, and a
    random choice of the optional columns in a random order."""
    size_column = "d" if raw_counts else "d_millions"
    header = ["condition", size_column, "loss"]
    if rng.random() < 0.5:
        header += ["n_enc", "n_dec"]
    header += [name for name in ("metric", "replicate") if rng.random() < 0.4]
    rng.shuffle(header)
    rows = []
    for i in range(rng.randint(1, 4)):
        n_enc, n_dec = rng.choice([(10**8, 5 * 10**7), (2 * 10**8, 10**8)])
        for d in DOUBLING_GRID[: rng.randint(1, 5)]:
            cells = {
                "condition": f"{BENCHMARK_ROWS[i][0]}_{i:02d}",
                size_column: repr(d * 1e6 if raw_counts else d),
                "loss": repr(rng.uniform(1.0, 3.0)),
                "n_enc": str(n_enc),
                "n_dec": str(n_dec),
                "metric": "log_perplexity",
                "replicate": "1",
            }
            rows.append([cells[name] for name in header])
    return header, rows


ODD_CELLS = [
    "nan", "inf", "-inf", "1_000", " 2.5 ", "2.5", "0", "-0", "-1", "", "  ", "x",
    "1e400", "5e-324", "1.5", "1e3", " bleu ", "bleu", "BLEU", "log_perplexity", " padded ",
]


def set_odd_cell(rng, header, rows):
    rng.choice(rows)[rng.randrange(len(header))] = rng.choice(ODD_CELLS)


def set_non_positive(rng, header, rows):
    size_column = "d" if "d" in header else "d_millions"
    rng.choice(rows)[header.index(rng.choice([size_column, "loss"]))] = rng.choice(["0", "-0", "-1", "5e-324"])


def set_bleu_row(rng, header, rows):
    row = rng.choice(rows)
    if "metric" in header:
        row[header.index("metric")] = rng.choice(["bleu", " bleu "])
    row[header.index("loss")] = rng.choice(["-3.5", "0", "-0", "31.2"])


def set_lone_count(rng, header, rows):
    if "n_enc" in header:
        rng.choice(rows)[header.index(rng.choice(["n_enc", "n_dec"]))] = rng.choice(["", " "])


def set_odd_count(rng, header, rows):
    if "n_enc" in header:
        rng.choice(rows)[header.index(rng.choice(["n_enc", "n_dec"]))] = rng.choice(["1.5", "1e3", "0", "-4", "1e400"])


def duplicate_row(rng, header, rows):
    copy = list(rng.choice(rows))
    if "replicate" in header and rng.random() < 0.5:
        copy[header.index("replicate")] = rng.choice(["2", " 1 ", "1 ", ""])
    rows.insert(rng.randrange(len(rows) + 1), copy)


def shorten_row(rng, header, rows):
    i = rng.randrange(len(rows))
    rows[i] = rows[i][: rng.randrange(len(header))]


def lengthen_row(rng, header, rows):
    rng.choice(rows).extend(rng.choice([["x"], ["", ""], ["1", "nan", "y"]]))


def split_label(rng, header, rows):
    row, at = rng.choice(rows), header.index("condition")
    row[at] = row[at][:2] + rng.choice(["\n", "\n\n", "\r\n"]) + row[at][2:]


def change_header(rng, header, rows):
    i = rng.randrange(len(header))
    header[i] = rng.choice([f" {header[i]} ", "other", header[i - 1]])


CELL_MUTATIONS = [set_odd_cell, set_odd_cell, set_non_positive, set_bleu_row, set_lone_count, set_odd_count, duplicate_row, split_label]
# drawn after the cell mutations, which look cells up by the header's names
SHAPE_MUTATIONS = [shorten_row, lengthen_row, change_header]


def table_text(rng, header, rows):
    """The CSV text of a table, with blank lines, a CRLF line end or a
    byte-order mark drawn at random."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=rng.choice(["\n", "\r\n"])).writerows([header, *rows])
    lines = buffer.getvalue().splitlines(keepends=True)
    for _ in range(rng.choice([0, 0, 1, 3])):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["\n", "\r\n"]))
    return ("\ufeff" if rng.random() < 0.2 else "") + "".join(lines)


def outcome(load):
    """The repr of what ``load`` returns, or its ParseError's text."""
    try:
        return repr(load())
    except ds.ParseError as exc:
        return f"ParseError: {exc}"


class TestColumnPass:
    def test_agrees_with_the_row_loop_on_mutated_tables(self, monkeypatch, tmp_path):
        path = tmp_path / "obs.csv"
        taken = errors = 0
        block_rows = [1, 2, 7, observations._BLOCK_ROWS]
        for seed in range(1500):
            rng = random.Random(seed)
            monkeypatch.setattr(observations, "_BLOCK_ROWS", rng.choice(block_rows))
            raw_counts = rng.random() < 0.25
            header, rows = bench_shaped(rng, raw_counts)
            condition = rng.choice([None, None, rows[0][header.index("condition")], "absent"])
            for mutate in rng.choices(CELL_MUTATIONS, k=rng.choice([0, 1, 1, 2, 3])):
                mutate(rng, header, rows)
            for mutate in SHAPE_MUTATIONS:
                if rng.random() < 0.1:
                    mutate(rng, header, rows)
            path.write_bytes(table_text(rng, header, rows).encode("utf-8"))
            size_column = "d" if raw_counts else "d_millions"
            by_rows = outcome(lambda: ds.ObservationTable(
                observations._load_rows(path, size_column, raw_counts, condition), str(path)))
            assert outcome(lambda: ds.load_observations(path, raw_counts, condition)) == by_rows, seed
            by_columns = observations._load_columns(path, size_column, raw_counts, condition)
            if by_columns is not None:
                assert repr(ds.ObservationTable(by_columns, str(path))) == by_rows, seed
            taken += by_columns is not None
            errors += by_rows.startswith("ParseError")
        # both sides of the hand-over are exercised
        assert 400 < taken and 400 < errors, (taken, errors)

    def test_valid_tables_never_reach_the_row_loop(self, monkeypatch, tmp_path, capsys):
        calls = []
        row_loop = observations._load_rows
        monkeypatch.setattr(observations, "_load_rows", lambda *args: calls.append(args) or row_loop(*args))
        rng = np.random.default_rng(4)
        rows = []
        for i in range(50):
            label, alpha, c, p = BENCHMARK_ROWS[i % len(BENCHMARK_ROWS)]
            law = ds.PowerLaw(alpha * float(np.exp(0.1 * rng.standard_normal())), c, p)
            rows += ds.simulate(law, DOUBLING_GRID, 0.02, seed=i, condition=f"{label}_{i:02d}").rows
        table_path, joint_path = tmp_path / "obs.csv", tmp_path / "joint.csv"
        ds.write_observations(table_path, ds.ObservationTable(rows))
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        shapes = [(10**8, 10**8), (2 * 10**8, 10**8), (10**8, 2 * 10**8)]
        ds.write_observations(joint_path, ds.simulate_joint(params, shapes, DOUBLING_GRID, 0.01, seed=1))
        single = ["--input", str(table_path), "--condition", "cds_07", "--seed", "1"]
        commands = [
            ["fit", *single, "--output", str(tmp_path / "fit.json")],
            ["fit-tail", *single, "--d-min", "8", "--output", str(tmp_path / "tail.json")],
            ["fit-shared", "--input", str(table_path), "--seed", "1", "--output", str(tmp_path / "shared.json")],
            ["fit-joint", "--input", str(joint_path), "--seed", "1", "--beta", "2.0", "--p-e", "0.4",
             "--p-d", "0.4", "--l-inf", "0.2", "--output", str(tmp_path / "joint.json")],
        ]
        for argv in commands:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert calls == []
        with_every_column = tmp_path / "every.csv"
        with_every_column.write_text(
            "replicate,metric,n_dec,n_enc,loss,d,condition,extra\n"
            "1,bleu,100,200,-3.5,1000000,a,\n2,,100,200,1.5,1000000,a,x\n1, bleu ,,,0,2e6,b,\n",
            encoding="utf-8",
        )
        table = ds.load_observations(with_every_column, raw_counts=True)
        assert calls == [] and len(table.rows) == 3
        assert table == ds.ObservationTable(row_loop(with_every_column, "d", True, None), str(with_every_column))
