"""End-to-end command-line behavior: exit codes, determinism, output shapes."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import datascale as ds
from datascale import cli
from datascale.cli import main
from datascale.core import eval_tail_law

from conftest import FILTERING_BLOCK


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_csv(capsys, tmp_path, name, alpha, c, p, noise="0.0", seed="3", condition="base"):
    path = tmp_path / name
    code, _, err = run(
        capsys,
        "simulate",
        "--alpha", str(alpha), "--c", str(c), "--p", str(p),
        "--d-grid", "1,2,4,8,16,32,64,128,256,512",
        "--noise-frac", noise,
        "--seed", seed,
        "--condition", condition,
        "--output", str(path),
    )
    assert code == 0, err
    return path


def two_condition_csv(capsys, tmp_path):
    """Simulated curves of the first two filtering conditions, in one file."""
    rows = []
    for i, (label, alpha, c, p) in enumerate(FILTERING_BLOCK[:2]):
        path = simulate_csv(capsys, tmp_path, f"{label}.csv", alpha, c, p, seed=str(i), condition=label)
        rows += path.read_text(encoding="utf-8").splitlines()[1 if i else 0:]
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return csv_path


class TestSimulate:
    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a = simulate_csv(capsys, tmp_path, "a.csv", 1.969, 0.057, 0.285, noise="0.02")
        b = simulate_csv(capsys, tmp_path, "b.csv", 1.969, 0.057, 0.285, noise="0.02")
        assert a.read_bytes() == b.read_bytes()

    def test_requires_capacity_unless_joint(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--alpha", "1", "--p", "0.3", "--d-grid", "1,2", "--seed", "1"
        )
        assert code == 2
        assert "--c" in err


class TestFit:
    def test_fit_recovers_simulated_law_and_is_deterministic(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        out = tmp_path / "fit.json"
        code, _, _ = run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(out))
        assert code == 0
        first = out.read_bytes()
        code, _, _ = run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(out))
        assert code == 0
        assert out.read_bytes() == first
        report = json.loads(first)
        assert report["kind"] == "fit"
        assert abs(report["law"]["p"] - 0.285) < 1e-4

    def test_validation_failure_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("condition,d_millions,loss\nbase,1,-2\n", encoding="utf-8")
        code, _, err = run(capsys, "fit", "--input", str(bad), "--seed", "1")
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("a,1,2.0,1e8,5e7\na,2,1.9,inf,5e7\n", 3),
            ("a,1,2.0,1e8,1.5\n", 2),
            ("a,inf,2.0,1e8,5e7\n", 2),
            ("a,1,2.0,1e8,5e7\na,2,inf,1e8,5e7\n", 3),
        ],
        ids=["infinite_count", "fractional_count", "infinite_size", "infinite_loss"],
    )
    def test_bad_number_exits_2_with_line(self, capsys, tmp_path, rows, line):
        bad = tmp_path / "bad.csv"
        bad.write_text("condition,d_millions,loss,n_enc,n_dec\n" + rows, encoding="utf-8")
        code, _, err = run(capsys, "fit", "--input", str(bad), "--seed", "1")
        assert code == 2
        assert f"line {line}:" in err

    def test_header_with_byte_order_mark(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        for path in (csv_path, bom):
            code, out, err = run(capsys, "fit", "--input", str(path), "--seed", "7")
            assert code == 0, err
            assert json.loads(out)["condition"] == "base"

    def test_header_with_spaces_after_commas(self, capsys, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text(
            "condition, d_millions, loss\n"
            + "".join(f"base, {d}, {2.0 * (1.0 / d + 0.1) ** 0.3}\n" for d in (1, 2, 4, 8, 16)),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "fit", "--input", str(path), "--seed", "1")
        assert code == 0, err
        assert abs(json.loads(out)["law"]["p"] - 0.3) < 1e-4

    def test_bleu_is_not_fitted_with_a_decreasing_law(self, capsys, tmp_path):
        path = tmp_path / "bleu.csv"
        path.write_text(
            "condition,d_millions,loss,metric\n"
            + "".join(f"base,{d},{b},bleu\n" for d, b in ((1, 2), (2, 25), (4, 28), (8, 30))),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "fit", "--input", str(path), "--seed", "1")
        assert code == 2
        assert out == "" and "bleu" in err

    def test_rejected_overflowing_step_prints_no_warning(self, capsys, tmp_path):
        # A trial step of this linear-space fit overflows in the Jacobian
        # products; the step is rejected, so numpy must not warn about it.
        path = tmp_path / "obs.csv"
        losses = (4.6926628459868525, 4.621305149911232, 4.432494651676629, 4.49043260396211)
        path.write_text(
            "condition,d_millions,loss\n"
            + "".join(f"a,{d},{loss!r}\n" for d, loss in zip((2, 8, 256, 2048), losses)),
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                capsys, "fit", "--input", str(path), "--seed", "100", "--loss-space", "linear"
            )
        assert code == 0, err

    @pytest.mark.parametrize("command", ["fit", "fit-shared"])
    def test_capacity_seed_beyond_its_box_is_clamped(self, capsys, tmp_path, command):
        # The seed's capacity (1 / 23.8) ** (1 / 0.01) overflows a float.
        path = tmp_path / "obs.csv"
        path.write_text("condition,d_millions,loss\na,1000,1\na,2000,4\na,4000,5\na,8000,6\n",
                        encoding="utf-8")
        code, out, err = run(capsys, command, "--input", str(path), "--seed", "1")
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if code != 2:
            assert json.loads(out)["kind"] == command.replace("-", "_")

    def test_input_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("condition,d_millions,loss\nbär,1,2.0\n".encode("latin-1"))
        code, _, err = run(capsys, "fit", "--input", str(path), "--seed", "1")
        assert code == 2
        assert "utf-8" in err

    def test_output_to_a_device_is_written_in_place(self, capsys, tmp_path):
        if not os.path.exists(os.devnull):
            pytest.skip(f"no {os.devnull} here")
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        code, _, err = run(
            capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", os.devnull
        )
        assert code == 0, err
        assert sorted(os.listdir(tmp_path)) == ["obs.csv"]

    def test_non_convergence_exits_3_with_report(self, capsys, tmp_path):
        csv_path = simulate_csv(
            capsys, tmp_path, "noisy.csv", 2.2, 0.1, 0.3, noise="0.2", seed="12"
        )
        out = tmp_path / "fit.json"
        code, _, _ = run(
            capsys,
            "fit", "--input", str(csv_path), "--seed", "1",
            "--max-iters", "1", "--rel-tol", "1e-18",
            "--output", str(out),
        )
        assert code == 3
        assert json.loads(out.read_text())["converged"] is False

    def test_multi_condition_file_needs_selector(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "condition,d_millions,loss\n"
            + "".join(f"a,{d},{2.0/d + 0.5}\n" for d in (1, 2, 4, 8))
            + "".join(f"b,{d},{1.0/d + 0.4}\n" for d in (1, 2, 4, 8)),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "fit", "--input", str(path), "--seed", "1")
        assert code == 2 and "--condition" in err
        code, out, _ = run(capsys, "fit", "--input", str(path), "--seed", "1", "--condition", "a")
        assert code == 0
        assert json.loads(out)["condition"] == "a"

    def test_raw_counts_agree_with_preconverted(self, capsys, tmp_path):
        millions = simulate_csv(capsys, tmp_path, "m.csv", 1.969, 0.057, 0.285)
        raw = tmp_path / "raw.csv"
        lines = millions.read_text(encoding="utf-8").splitlines()
        out_lines = ["condition,d,loss"]
        for line in lines[1:]:
            condition, d, loss = line.split(",")
            out_lines.append(f"{condition},{float(d) * 1e6},{loss}")
        raw.write_text("\n".join(out_lines) + "\n", encoding="utf-8")
        code, out_m, _ = run(capsys, "fit", "--input", str(millions), "--seed", "7")
        assert code == 0
        code, out_r, _ = run(capsys, "fit", "--input", str(raw), "--seed", "7", "--raw-counts")
        assert code == 0
        assert json.loads(out_m)["law"] == json.loads(out_r)["law"]

    def test_raw_counts_read_the_d_column(self, capsys, tmp_path):
        path = tmp_path / "both.csv"
        path.write_text(
            "condition,d,d_millions,loss\n"
            + "".join(f"base,{d * 1e6!r},{2 * d!r},{2.0 / d + 0.5!r}\n" for d in (1.0, 2.0, 4.0, 8.0)),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "fit", "--input", str(path), "--seed", "1", "--raw-counts")
        assert code == 0, err
        assert [o["d_millions"] for o in json.loads(out)["observations"]] == [1.0, 2.0, 4.0, 8.0]
        code, out, err = run(capsys, "fit", "--input", str(path), "--seed", "1")
        assert code == 0, err
        assert [o["d_millions"] for o in json.loads(out)["observations"]] == [2.0, 4.0, 8.0, 16.0]

    @pytest.mark.parametrize(
        "b_rows, line",
        [("b,1,2.0\nb,2,-1\n", 7), ("b,1,2.0\nb,1,1.9\n", 7), ("b,one,2.0\n", 6)],
        ids=["invalid", "duplicate", "non_numeric"],
    )
    def test_bad_row_of_another_condition_exits_2_with_its_line(self, capsys, tmp_path, b_rows, line):
        path = tmp_path / "two.csv"
        a_rows = "".join(f"a,{d},{2.0 / d + 0.5}\n" for d in (1, 2, 4, 8))
        path.write_text("condition,d_millions,loss\n" + a_rows + b_rows + a_rows.replace("a,", "c,"),
                        encoding="utf-8")
        code, out, err = run(capsys, "fit", "--input", str(path), "--seed", "1", "--condition", "a")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}: ")

    @pytest.mark.parametrize(
        "command", [["fit"], ["fit-tail", "--d-min", "2"], ["mc", "--n-reps", "2"]], ids=lambda c: c[0]
    )
    def test_only_the_selected_condition_becomes_observations(self, capsys, tmp_path, monkeypatch, command):
        path = tmp_path / "two.csv"
        path.write_text(
            "condition,d_millions,loss\n"
            + "".join(f"{c},{d},{2.0 / d + 0.5}\n" for c in "bac" for d in (1, 2, 4, 8)),
            encoding="utf-8",
        )
        built = []
        init = ds.Observation.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.condition)

        monkeypatch.setattr(ds.Observation, "__init__", recording_init)
        code, _, err = run(capsys, *command, "--input", str(path), "--seed", "1", "--condition", "a")
        assert code == 0, err
        assert built == ["a"] * 4

    def test_losses_at_the_bottom_of_the_float_range_exit_2_naming_alpha(self, capsys, tmp_path):
        # a flat curve near 1e-319: the search takes c near 1e12, where the
        # least-squares alpha underflows to 0
        losses = [1.0105e-319, 1.01778e-319, 9.7445e-320, 9.986e-320, 1.0101e-319, 1.01353e-319]
        path = tmp_path / "tiny.csv"
        path.write_text(
            "condition,d_millions,loss\n" + "".join(f"a,{2.0**k!r},{y!r}\n" for k, y in enumerate(losses)),
            encoding="utf-8",
        )
        for command in ("fit", "fit-shared"):
            code, out, err = run(capsys, command, "--input", str(path), "--seed", "1")
            assert (code, out) == (2, "")
            assert err == "error: the fitted alpha underflows to 0: the losses lie too close to " \
                "the bottom of the float range; rescale them\n"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestFitShared:
    def test_two_condition_report_shape(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        text = "condition,d_millions,loss\n"
        for label, alpha, c, p in FILTERING_BLOCK[:2]:
            law = ds.PowerLaw(alpha, c, p)
            for d in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
                text += f"{label},{d},{ds.eval_law(law, float(d))!r}\n"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "fit-shared", "--input", str(path), "--seed", "2")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "fit_shared"
        assert isinstance(report["p"], float)
        assert sorted(report["per_condition"]) == ["cds", "no_filter"]
        for entry in report["per_condition"].values():
            assert set(entry) >= {"alpha", "c"}


class TestAnalyze:
    def _shared_report(self, capsys, tmp_path):
        path = tmp_path / "filtering.csv"
        text = "condition,d_millions,loss\n"
        for label, alpha, c, p in (FILTERING_BLOCK[0], FILTERING_BLOCK[2]):
            law = ds.PowerLaw(alpha, c, p)
            for d in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
                text += f"{label},{d},{ds.eval_law(law, float(d))!r}\n"
        path.write_text(text, encoding="utf-8")
        report_path = tmp_path / "shared.json"
        code, _, err = run(
            capsys, "fit-shared", "--input", str(path), "--seed", "2", "--output", str(report_path)
        )
        assert code == 0, err
        return report_path

    def test_equivalence_between_filtering_conditions(self, capsys, tmp_path):
        report_path = self._shared_report(capsys, tmp_path)
        code, out, _ = run(
            capsys,
            "analyze",
            "--equivalence", str(report_path), str(report_path),
            "--condition-a", "no_filter",
            "--condition-b", "bicleaner",
        )
        assert code == 0
        assert abs(float(out.strip()) - 1.78) < 0.005

    def test_report_analysis_block(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        report_path = tmp_path / "fit.json"
        run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(report_path))
        code, out, _ = run(
            capsys, "analyze", str(report_path), "--marginal-at", "1", "--marginal-at", "16"
        )
        assert code == 0
        block = json.loads(out)
        assert abs(block["asymptotic_loss"] - 0.8703) < 1e-3
        assert abs(block["transition_point"] - 17.54) < 0.02
        assert len(block["marginal_value"]) == 2

    @pytest.mark.parametrize("size", ["nan", "inf"])
    def test_marginal_value_at_a_bad_size_exits_2(self, capsys, tmp_path, size):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        fit = tmp_path / "fit.json"
        assert run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(fit))[0] == 0
        code, out, err = run(capsys, "analyze", str(fit), "--marginal-at", size)
        assert code == 2
        assert out == "" and "positive and finite" in err

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_report_that_is_not_json_exits_2_with_line(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "schema": 1,\n  "kind": fit\n}\n', encoding="utf-8")
        argv = [command, str(path)] if command == "analyze" else [command, "--report", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "line 3:" in err

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_report_without_law_exits_2_naming_the_field(self, capsys, tmp_path, command):
        path = tmp_path / "bare.json"
        path.write_text('{"schema": 1, "kind": "fit"}\n', encoding="utf-8")
        argv = [command, str(path)] if command == "analyze" else [command, "--report", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "'law'" in err

    def test_shared_report_with_mistyped_conditions_exits_2_naming_the_field(
        self, capsys, tmp_path
    ):
        report_path = self._shared_report(capsys, tmp_path)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["per_condition"] = 3
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(report_path))
        assert code == 2
        assert out == "" and "'per_condition'" in err

    @pytest.mark.parametrize("p", ["x", 5.0])
    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_shared_report_without_conditions_exits_2_naming_the_field(self, capsys, tmp_path, command, p):
        report_path = self._shared_report(capsys, tmp_path)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report.update(per_condition={}, p=p)
        report_path.write_text(json.dumps(report), encoding="utf-8")
        argv = [command, str(report_path)] if command == "analyze" else [command, "--report", str(report_path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err == "error: report field 'per_condition' holds no condition\n"

    def test_requires_some_input(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2


class TestReportCommand:
    def test_plot_ready_table(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285, noise="0.01")
        report_path = tmp_path / "fit.json"
        run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(report_path))
        code, out, _ = run(capsys, "report", "--report", str(report_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,observed,predicted,residual"
        assert len(lines) == 11

    def test_fit_report_with_cut_residuals_exits_2_naming_the_field(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285, noise="0.01")
        report_path = tmp_path / "fit.json"
        run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(report_path))
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["residuals"] = report["residuals"][:2]
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(report_path))
        assert code == 2
        assert out == "" and "'residuals'" in err

    def test_joint_report_with_cut_holdout_residuals_exits_2_naming_the_field(
        self, capsys, tmp_path
    ):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        table = ds.simulate_joint(
            params, [(10**8, 10**8), (2 * 10**8, 10**8)], [1, 2, 4, 8, 16, 32], 0.0, seed=1
        )
        csv_path = tmp_path / "joint.csv"
        ds.write_observations(csv_path, table)
        report_path = tmp_path / "joint.json"
        code, _, err = run(
            capsys,
            "fit-joint", "--input", str(csv_path), "--seed", "2",
            "--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2",
            "--hold-out", "200000000x100000000", "--output", str(report_path),
        )
        assert code == 0, err
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["holdout_residuals"] = report["holdout_residuals"][:2]
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(report_path))
        assert code == 2
        assert out == "" and "'holdout_residuals'" in err

    def test_joint_report_with_mistyped_hold_out_exits_2_naming_it(self, capsys, tmp_path):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        table = ds.simulate_joint(params, [(10**8, 10**8), (2 * 10**8, 10**8)], [1, 2, 4, 8], 0.0, seed=1)
        csv_path = tmp_path / "joint.csv"
        ds.write_observations(csv_path, table)
        report_path = tmp_path / "joint.json"
        code, _, err = run(
            capsys,
            "fit-joint", "--input", str(csv_path), "--seed", "2",
            "--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2",
            "--hold-out", "200000000x100000000", "--output", str(report_path),
        )
        assert code == 0, err
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["hold_out"] = 3
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(report_path))
        assert code == 2
        assert out == "" and "'hold_out'" in err


    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("residuals", 3, id="residuals-number"),
            pytest.param("residuals", ["x"] * 10, id="residuals-strings"),
            pytest.param("residuals", [True] * 10, id="residuals-booleans"),
            pytest.param("observations", 5, id="observations-number"),
            pytest.param("observations", ["x"] * 10, id="observations-strings"),
        ],
    )
    def test_fit_report_with_mistyped_field_exits_2_naming_it(self, capsys, tmp_path, field, value):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285, noise="0.01")
        report_path = tmp_path / "fit.json"
        run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(report_path))
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report[field] = value
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(report_path))
        assert code == 2
        assert out == "" and f"'{field}'" in err

    @pytest.mark.parametrize("d", [0, -2.0])
    def test_tail_report_with_a_non_positive_size_exits_2(self, capsys, tmp_path, d):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285, noise="0.01")
        report_path = tmp_path / "tail.json"
        run(capsys, "fit-tail", "--input", str(csv_path), "--d-min", "8", "--seed", "7", "--output", str(report_path))
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["observations"][0]["d_millions"] = d
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(report_path))
        assert code == 2
        assert out == "" and "dataset size must be positive" in err

    @pytest.mark.parametrize("key", ["d_millions", "loss"])
    def test_fit_report_with_mistyped_observation_exits_2(self, capsys, tmp_path, key):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285, noise="0.01")
        report_path = tmp_path / "fit.json"
        run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(report_path))
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["observations"][3][key] = "x"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(report_path))
        assert code == 2
        assert out == "" and "'observations'" in err and key in err

    @pytest.mark.parametrize(
        "mistype",
        [
            pytest.param(lambda report: report.update(per_condition=3), id="per_condition"),
            pytest.param(lambda report: report.update(p="x"), id="p"),
            pytest.param(lambda report: report["observations"][0].update(condition=[1]), id="condition"),
        ],
    )
    def test_shared_report_with_mistyped_field_exits_2(self, capsys, tmp_path, mistype):
        csv_path = two_condition_csv(capsys, tmp_path)
        report_path = tmp_path / "shared.json"
        code, _, err = run(capsys, "fit-shared", "--input", str(csv_path), "--seed", "1",
                           "--output", str(report_path))
        assert code == 0, err
        report = json.loads(report_path.read_text(encoding="utf-8"))
        mistype(report)
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(report_path))
        assert code == 2
        assert out == "" and err.startswith("error: ")


class TestReportNumbersBeyondFloatRange:
    """A JSON integer too large for a float is a schema error naming its
    field, in every report kind; an int within float range still reads."""

    def _report(self, capsys, tmp_path, kind):
        if kind == "fit_shared":
            csv_path = two_condition_csv(capsys, tmp_path)
        else:
            csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285, noise="0.01")
        tail = ["--d-min", "8"] if kind == "fit_tail" else []
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, kind.replace("_", "-"), "--input", str(csv_path), "--seed", "7", *tail,
                           "--output", str(report_path))
        assert code == 0, err
        return report_path, json.loads(report_path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "kind, edit, field",
        [
            pytest.param("fit", lambda r: r["law"].update(alpha=10**400), "'alpha'", id="fit-alpha"),
            pytest.param("fit", lambda r: r["law"].update(c=10**400), "'c'", id="fit-c"),
            pytest.param("fit", lambda r: r["law"].update(alpha=True), "'alpha'", id="fit-bool-alpha"),
            pytest.param("fit", lambda r: r["observations"][2].update(d_millions=10**400), "d_millions",
                         id="fit-d"),
            pytest.param("fit_shared", lambda r: r["observations"][2].update(d_millions=10**400), "d_millions",
                         id="fit_shared-d"),
            pytest.param("fit_shared", lambda r: r["per_condition"]["cds"].update(alpha=10**400), "'alpha'",
                         id="fit_shared-alpha"),
            pytest.param("fit_tail", lambda r: r["observations"][2].update(d_millions=10**400), "d_millions",
                         id="fit_tail-d"),
        ],
    )
    def test_report_exits_2_naming_the_field(self, capsys, tmp_path, kind, edit, field):
        report_path, report = self._report(capsys, tmp_path, kind)
        edit(report)
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(report_path))
        assert code == 2
        assert out == "" and err.startswith("error: ") and field in err

    @pytest.mark.parametrize("field", ["alpha", "c"])
    def test_analyze_exits_2_naming_the_law_field(self, capsys, tmp_path, field):
        report_path, report = self._report(capsys, tmp_path, "fit")
        report["law"][field] = 10**400
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(report_path))
        assert code == 2
        assert out == "" and f"'{field}'" in err

    def test_joint_report_with_an_encoder_count_of_10_to_the_20_renders(self, capsys, tmp_path):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        table = ds.simulate_joint(params, [(10**8, 10**8), (2 * 10**8, 10**8)], [1, 2, 4, 8], 0.0, seed=1)
        csv_path = tmp_path / "joint.csv"
        ds.write_observations(csv_path, table)
        report_path = tmp_path / "joint.json"
        code, _, err = run(
            capsys, "fit-joint", "--input", str(csv_path), "--seed", "2",
            "--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2", "--output", str(report_path),
        )
        assert code == 0, err
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["observations"][0]["n_enc"] = 10**20
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(report_path))
        assert code == 0, err
        row = out.splitlines()[1].split(",")
        assert row[1] == str(10**20)
        expected = ds.eval_joint_law(ds.JointLawParams(**report["law"]), 10**20, 10**8, 1.0)
        assert float(row[5]) == expected


class TestMc:
    def test_summary_shape_and_determinism(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        args = (
            "mc", "--input", str(csv_path), "--seed", "7",
            "--noise-frac", "0.02", "--n-reps", "40",
        )
        code, out, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out == out2
        summary = json.loads(out)
        assert summary["kind"] == "mc"
        assert summary["n_converged"] <= 40
        assert summary["quantiles"]["q05"] <= summary["quantiles"]["q95"]

    def test_report_records_its_fit_config(self, capsys, tmp_path):
        # the loss space changes the quantiles, so the report must say it
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285, noise="0.01")
        reports = {}
        for space in ("log", "linear"):
            code, out, _ = run(capsys, "mc", "--input", str(csv_path), "--seed", "3", "--n-reps", "5",
                               "--loss-space", space, "--rel-tol", "1e-8")
            assert code == 0
            reports[space] = json.loads(out)
            assert reports[space]["provenance"]["config"] == {"loss_space": space, "max_iters": 2000,
                                                              "rel_tol": 1e-8}
            assert reports[space]["n_dropped"] == 0
        assert reports["log"]["quantiles"] != reports["linear"]["quantiles"]

    def test_huge_noise_does_not_overflow_the_seed(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        code, out, err = run(capsys, "mc", "--input", str(csv_path), "--seed", "1",
                             "--noise-frac", "1e300", "--n-reps", "5")
        assert code in (0, 2, 3)
        assert "Traceback" not in err

    @pytest.mark.parametrize("space", ["log", "linear"])
    def test_overflowing_noise_frac_exits_2_before_any_draw(self, capsys, tmp_path, space):
        # 1e308 times a loss of 2 overflows; the draws would be infinite
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "mc", "--input", str(csv_path), "--seed", "1",
                                 "--noise-frac", "1e308", "--n-reps", "5", "--loss-space", space)
        assert code == 2
        assert out == "" and err.startswith("error: --noise-frac 1e+308 ")

    def test_infinite_first_draw_exits_2(self, capsys, tmp_path):
        # noise_frac * loss is finite, but replicate 0 of seed 3 draws inf
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "mc", "--input", str(csv_path), "--seed", "3",
                                 "--noise-frac", "5e307", "--n-reps", "5")
        assert code == 2
        assert out == "" and err == "error: loss must be finite, got inf\n"

    def test_bleu_exits_2_as_fit_does(self, capsys, tmp_path):
        # A BLEU of 0 cannot be redrawn positive, so drawing replicates
        # before the input check would end in exit 3 instead.
        path = tmp_path / "bleu.csv"
        path.write_text(
            "condition,d_millions,loss,metric\n"
            + "".join(f"base,{d},{b},bleu\n" for d, b in ((1, 0), (2, 25), (4, 28), (8, 30))),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "mc", "--input", str(path), "--seed", "1", "--n-reps", "20")
        assert code == 2
        assert out == "" and "bleu" in err


class TestNegativeSeed:
    # numpy's generators take non-negative seeds only; a negative one is an
    # input error, not a traceback
    @pytest.mark.parametrize("command", [
        ["mc", "--n-reps", "5"],
        ["simulate", "--alpha", "2", "--c", "0.1", "--p", "0.3", "--d-grid", "1,2,4,8"],
        ["simulate", "--joint", "--alpha", "1.5", "--p", "0.3", "--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4",
         "--l-inf", "0.2", "--d-grid", "1,2,4,8", "--shapes", "10x10"],
    ])
    def test_exits_2_with_a_message(self, capsys, tmp_path, command):
        if command[0] == "mc":
            command += ["--input", str(simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285))]
        output = tmp_path / "out"
        code, out, err = run(capsys, *command, "--seed", "-1", "--output", str(output))
        assert code == 2
        assert out == "" and err == "error: seed must be non-negative, got -1\n"
        assert not output.exists()

    def test_library_entry_points_raise_domain_error(self):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        for call in (lambda: ds.McConfig(seed=-1),
                     lambda: ds.simulate(ds.PowerLaw(2.0, 0.1, 0.3), [1.0, 2.0], 0.01, seed=-1),
                     lambda: ds.simulate_joint(params, [(10, 10)], [1.0, 2.0], 0.01, seed=-1)):
            with pytest.raises(ds.DomainError, match="seed must be non-negative"):
                call()


class TestOverflowingLaw:
    # float ** raises OverflowError where numpy's power gives inf; a law past
    # the float range is an input error, not a traceback
    @pytest.mark.parametrize("command, message", [
        (["--d-grid", "1,2", "--alpha", "1e308", "--p", "2", "--c", "1e300"],
         "error: (1/d + c) ** p overflows at d = 1.0, c = 1e+300, p = 2.0\n"),
        (["--d-grid", "1e-300", "--alpha", "1", "--p", "2", "--c", "0"],
         "error: (1/d + c) ** p overflows at d = 1e-300, c = 0.0, p = 2.0\n"),
        # c comes from the parameter counts, through numpy's exp and log
        (["--joint", "--d-grid", "1e-300", "--alpha", "1", "--p", "2", "--beta", "2.0", "--p-e", "0.4",
          "--p-d", "0.4", "--l-inf", "0.2", "--shapes", "10x10"],
         "error: (1/d + c) ** p overflows at d = 1e-300, c = 1.19"),
    ], ids=["huge-c", "tiny-d", "joint"])
    def test_simulate_exits_2_with_a_message(self, capsys, tmp_path, command, message):
        output = tmp_path / "out.csv"
        code, out, err = run(capsys, "simulate", "--seed", "1", *command, "--output", str(output))
        assert code == 2
        assert out == "" and err.startswith(message) and err.count("\n") == 1
        assert not output.exists()

    def test_analyze_exits_2_with_a_message(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        fit = tmp_path / "fit.json"
        assert run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(fit))[0] == 0
        report = json.loads(fit.read_text(encoding="utf-8"))
        report["law"].update(c=1e300, p=2.0)
        fit.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(fit))
        assert code == 2
        assert out == "" and err == "error: the loss floor alpha * c ** p overflows at c = 1e+300, p = 2.0\n"

    def test_report_exits_2_naming_the_size(self, capsys, tmp_path):
        # numpy's power gives inf, with a warning, where float ** raises: the
        # table would print inf in every predicted cell
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        fit = tmp_path / "fit.json"
        assert run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(fit))[0] == 0
        report = json.loads(fit.read_text(encoding="utf-8"))
        report["law"].update(c=1e300, p=2.0)
        fit.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(fit))
        assert code == 2
        assert out == "" and err == "error: (1/d + c) ** p overflows at d = 1.0, c = 1e+300, p = 2.0\n"

    def test_report_of_a_tail_law_exits_2_naming_the_smallest_size(self, capsys, tmp_path):
        # d**-q overflows at the small sizes only: 0.001**-200 is 1e600, 0.032**-200 about 1e299
        path, tail = tmp_path / "small.csv", tmp_path / "tail.json"
        path.write_text("condition,d_millions,loss\n" + "".join(
            f"a,{0.001 * 2**i!r},{1.0 + 0.1 * 2.0 ** (-0.5 * i)!r}\n" for i in range(6)), encoding="utf-8")
        assert run(capsys, "fit-tail", "--input", str(path), "--seed", "1", "--d-min", "0.001",
                   "--output", str(tail))[0] == 0
        report = json.loads(tail.read_text(encoding="utf-8"))
        report["law"]["q"] = 200.0
        tail.write_text(json.dumps(report), encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(tail))
        assert code == 2
        assert out == "" and err == (f"error: gamma * d ** -q overflows at d = 0.001, "
                                     f"gamma = {report['law']['gamma']}, q = 200.0\n")


class TestFitJointCommand:
    def test_holdout_flag(self, capsys, tmp_path):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        table = ds.simulate_joint(
            params, [(10**8, 10**8), (2 * 10**8, 10**8)], [1, 2, 4, 8, 16, 32], 0.0, seed=1
        )
        csv_path = tmp_path / "joint.csv"
        ds.write_observations(csv_path, table)
        code, out, err = run(
            capsys,
            "fit-joint", "--input", str(csv_path), "--seed", "2",
            "--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2",
            "--hold-out", "200000000x100000000",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["kind"] == "fit_joint"
        assert abs(report["law"]["alpha"] - 1.5) < 1e-4
        assert abs(report["law"]["p"] - 0.3) < 1e-4
        assert len(report["holdout_residuals"]) == 6


    def test_simulate_with_an_encoder_of_2_to_the_64_or_more(self, capsys, tmp_path):
        csv_path = tmp_path / "joint.csv"
        code, _, err = run(
            capsys, "simulate", "--joint", "--alpha", "1.5", "--p", "0.3", "--beta", "2.0",
            "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2", "--d-grid", "1,2,4,8", "--seed", "1",
            "--shapes", f"{10**20}x10", "--output", str(csv_path),
        )
        assert code == 0, err
        rows = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 5 and all(row.endswith(f",{10**20},10") for row in rows[1:])

    def test_fit_joint_on_an_encoder_count_of_1e20(self, capsys, tmp_path):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        table = ds.simulate_joint(params, [(10**8, 10**8), (2 * 10**8, 10**8)], [1, 2, 4, 8], 0.0, seed=1)
        csv_path = tmp_path / "joint.csv"
        ds.write_observations(csv_path, table)
        text = csv_path.read_text(encoding="utf-8")
        csv_path.write_text(text.replace(",200000000,100000000\n", ",1e20,100000000\n"), encoding="utf-8")
        code, out, err = run(
            capsys, "fit-joint", "--input", str(csv_path), "--seed", "2",
            "--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2",
        )
        assert code == 0, err
        assert [obs["n_enc"] for obs in json.loads(out)["observations"]] == [10**8] * 4 + [10**20] * 4


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see the
    repeatable options of an earlier one."""

    def test_repeatable_options_do_not_carry_over(self, capsys, tmp_path):
        params = ds.JointLawParams(alpha=1.5, p=0.3, beta=2.0, p_e=0.4, p_d=0.4, l_inf=0.2)
        shapes = [(10**8, 10**8), (2 * 10**8, 10**8), (4 * 10**8, 10**8)]
        joint = tmp_path / "joint.csv"
        ds.write_observations(joint, ds.simulate_joint(params, shapes, [1, 2, 4, 8, 16, 32], 0.0, seed=1))
        fit_joint = ("fit-joint", "--input", str(joint), "--seed", "2",
                     "--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2")
        fit = tmp_path / "fit.json"
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        assert run(capsys, "fit", "--input", str(csv_path), "--seed", "7", "--output", str(fit))[0] == 0

        runs = [
            run(capsys, *fit_joint, "--hold-out", "200000000x100000000"),
            run(capsys, *fit_joint),
            run(capsys, *fit_joint, "--hold-out", "400000000x100000000"),
            run(capsys, "analyze", str(fit), "--marginal-at", "1", "--marginal-at", "16"),
            run(capsys, "analyze", str(fit)),
            run(capsys, "analyze", str(fit), "--marginal-at", "4"),
        ]
        assert [code for code, _, _ in runs] == [0] * 6
        held, free, other, marginal, plain, one = (json.loads(out) for _, out, _ in runs)
        assert len(held["holdout_residuals"]) == 6 and len(held["residuals"]) == 12
        assert free["holdout_residuals"] == [] and len(free["residuals"]) == 18
        assert len(other["holdout_residuals"]) == 6 and other["residuals"] != held["residuals"]
        assert [d for d, _ in marginal["marginal_value"]] == [1.0, 16.0]
        assert "marginal_value" not in plain
        assert [d for d, _ in one["marginal_value"]] == [4.0]


class TestFitTailCommand:
    def test_tail_exponent_near_one(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        code, out, _ = run(
            capsys, "fit-tail", "--input", str(csv_path), "--seed", "4", "--d-min", "32"
        )
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "fit_tail"
        assert 0.8 <= report["law"]["q"] <= 1.05

    def test_seed_does_not_change_the_fit(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285, noise="0.01")
        reports = []
        for seed in ("4", "5"):
            code, out, _ = run(capsys, "fit-tail", "--input", str(csv_path), "--seed", seed, "--d-min", "8")
            assert code == 0
            reports.append(json.loads(out))
        for key in ("law", "objective", "residuals", "converged", "n_iters"):
            assert reports[0][key] == reports[1][key]

    def test_iteration_cap_writes_the_report_and_exits_3(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285, noise="0.01")
        out = tmp_path / "tail.json"
        code, _, _ = run(capsys, "fit-tail", "--input", str(csv_path), "--seed", "4", "--d-min", "8",
                         "--max-iters", "1", "--output", str(out))
        assert code == 3
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["converged"] is False and report["n_iters"] == 1

    def test_rising_losses_fit_the_constant_law(self, capsys, tmp_path):
        # no decreasing law beats the constant: it is reported as a valid law
        # whose values are the constant at every size, and renders as a table
        path, out = tmp_path / "rising.csv", tmp_path / "tail.json"
        losses = (1.01, 1.02, 1.04, 1.08)
        path.write_text("condition,d_millions,loss\n" + "".join(f"a,{2**i},{y!r}\n" for i, y in enumerate(losses)),
                        encoding="utf-8")
        code, _, _ = run(capsys, "fit-tail", "--input", str(path), "--seed", "1", "--d-min", "1",
                         "--output", str(out))
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        law = ds.TailLaw(**report["law"])
        assert eval_tail_law(law, np.array([1.0, 2.0, 4.0, 8.0])).tolist() == [law.b] * 4
        ln_y = np.log(losses)
        assert report["objective"] == pytest.approx(float(((ln_y - ln_y.mean()) ** 2).sum()), rel=1e-12)
        code, table, _ = run(capsys, "report", "--report", str(out))
        assert code == 0
        assert [float(row.split(",")[2]) for row in table.splitlines()[1:]] == [law.b] * 4

    # a flat curve near 1e-319: the constant law fits it best, and its gamma is
    # the least positive float
    TINY = ((1, 1.0105e-319), (2, 1.0112e-319), (4, 1.012e-319), (8, 1.0127e-319),
            (16, 1.0131e-319), (32, 1.01353e-319))
    # a power law falling by 2**-130 per doubling from d = 10: its gamma * d**-q
    # underflows to 0 at d = 320 although the points lie on it
    STEEP = tuple((10 * 2**i, 1e-5 * 2.0 ** (-130 * i)) for i in range(6))

    def fit_points(self, capsys, tmp_path, points, *argv):
        """``fit-tail`` on ``points`` of ``(d, loss)`` with warnings as errors: exit code, stderr, report path."""
        path, out = tmp_path / "points.csv", tmp_path / "tail.json"
        path.write_text("condition,d_millions,loss\n" + "".join(f"a,{d},{y!r}\n" for d, y in points),
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "fit-tail", "--input", str(path), "--seed", "1",
                               "--d-min", str(points[0][0]), "--output", str(out), *argv)
        return code, err, out

    @pytest.mark.parametrize("space", ["log", "linear"])
    def test_losses_at_the_bottom_of_the_float_range_fit_the_constant_law(self, capsys, tmp_path, space):
        code, _, out = self.fit_points(capsys, tmp_path, self.TINY, "--loss-space", space)
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert math.isfinite(report["objective"])
        assert report["law"]["gamma"] == 5e-324 and report["law"]["b"] > 0

    def test_a_law_that_underflows_at_a_size_exits_2_naming_it(self, capsys, tmp_path):
        code, err, out = self.fit_points(capsys, tmp_path, self.STEEP)
        assert code == 2
        assert err == "error: the fitted tail law underflows to 0 at d = 320: its gamma * d**-q lies below the " \
            "float range; rescale the losses or sizes\n"
        assert not out.exists()
        code, _, out = self.fit_points(capsys, tmp_path, self.STEEP, "--loss-space", "linear")
        assert code == 0
        assert math.isfinite(json.loads(out.read_text(encoding="utf-8"))["objective"])

    def test_a_gamma_beyond_the_float_range_exits_2(self, capsys, tmp_path):
        code, err, out = self.fit_points(capsys, tmp_path, [(d, y * 1e205) for d, y in self.STEEP])
        assert code == 2
        assert err == "error: the fitted tail law's gamma overflows: the losses or sizes lie too close to the " \
            "edge of the float range; rescale them\n"
        assert not out.exists()


class TestNoFitTakesRestarts:
    """No fit takes ``--n-restarts``: the searches refine their best grid cell
    alone and draw no random numbers, so every fit command rejects it."""

    JOINT = ["--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2"]

    @pytest.mark.parametrize("argv", [["fit"], ["fit-shared"], ["fit-joint", *JOINT], ["mc", "--n-reps", "5"],
                                      ["fit-tail", "--d-min", "32"]])
    def test_fit_commands_reject_it(self, capsys, tmp_path, argv):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--input", str(csv_path), "--seed", "1", "--n-restarts", "1", "--output", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --n-restarts 1" in capsys.readouterr().err
        assert not out.exists()


class TestOutputOverInput:
    """A fit or analysis command whose ``--output`` is one of its inputs exits
    2 and leaves that file as it was, as the corpus commands do."""

    JOINT = ["--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2"]

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["fit", "--input", "{csv}", "--seed", "1"], "csv"),
            (["fit-shared", "--input", "{csv}", "--seed", "1"], "csv"),
            (["fit-joint", "--input", "{csv}", "--seed", "1", *JOINT], "csv"),
            (["fit-tail", "--input", "{csv}", "--seed", "1", "--d-min", "32"], "csv"),
            (["fit-linear", "--input", "{csv}", "--x-column", "d_millions", "--y-column", "loss"], "csv"),
            (["mc", "--input", "{csv}", "--seed", "1", "--n-reps", "5"], "csv"),
            (["analyze", "{fit}"], "fit"),
            (["analyze", "--equivalence", "{fit}", "{fit2}"], "fit"),
            (["analyze", "--equivalence", "{fit}", "{fit2}"], "fit2"),
            (["report", "--report", "{fit}"], "fit"),
        ],
        ids=["fit", "fit-shared", "fit-joint", "fit-tail", "fit-linear", "mc", "analyze",
             "equivalence-first", "equivalence-second", "report"],
    )
    def test_is_refused(self, capsys, tmp_path, argv, target):
        paths = {
            "csv": simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285),
            "fit": tmp_path / "fit.json",
            "fit2": tmp_path / "fit2.json",
        }
        for seed, name in enumerate(("fit", "fit2")):
            code, _, err = run(capsys, "fit", "--input", str(paths["csv"]), "--seed", str(seed),
                               "--output", str(paths[name]))
            assert code == 0, err
        before = paths[target].read_bytes()
        code, out, err = run(capsys, *(a.format(**paths) for a in argv), "--output", str(paths[target]))
        assert code == 2
        assert out == "" and f"--output {paths[target]} is the input file" in err
        assert paths[target].read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["fit.json", "fit2.json", "obs.csv"]


class TestNumericLayersBindOnce:
    """``cli`` binds the names of its numeric layers as module globals on the
    first command that needs them, and never again, so a wrapper put in place
    of one afterwards (as ``bench/spans.py`` does) sees every later call."""

    def test_wrappers_put_in_place_after_a_fit_are_called(self, capsys, tmp_path, monkeypatch):
        import datascale.cli as cli

        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        argv = ("fit", "--input", str(csv_path), "--seed", "1")
        first = run(capsys, *argv)
        assert first[0] == 0, first[2]
        calls = []
        for name in ("load_observations", "fit_single"):
            def recording(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, recording)
        assert run(capsys, *argv) == first
        assert calls == ["load_observations", "fit_single"]


class TestLinearSpaceOverflow:
    """Losses whose squares overflow cannot be fitted in the linear loss
    space: every fitter exits 2 naming it, warns nothing and writes nothing."""

    HUGE = ((1, 1e300), (2, 9e299), (4, 8e299), (8, 7.5e299), (16, 7e299))
    JOINT = ["--beta", "2.0", "--p-e", "0.4", "--p-d", "0.4", "--l-inf", "0.2"]

    @pytest.mark.parametrize("argv", [
        ["fit"], ["fit-shared"], ["fit-tail", "--d-min", "1"], ["fit-joint", *JOINT],
    ])
    def test_fitters_exit_2(self, capsys, tmp_path, argv):
        path, out = tmp_path / "huge.csv", tmp_path / "report.json"
        path.write_text(
            "condition,d_millions,loss,n_enc,n_dec\n"
            + "".join(f"base,{d},{loss!r},100000000,100000000\n" for d, loss in self.HUGE),
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, *argv, "--input", str(path), "--seed", "1",
                               "--loss-space", "linear", "--output", str(out))
        assert code == 2
        assert "linear loss space" in err
        assert not out.exists()

    def test_mc_exits_2(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "mc", "--input", str(csv_path), "--seed", "1",
                                 "--loss-space", "linear", "--noise-frac", "1e300", "--n-reps", "5")
        assert code == 2
        assert out == "" and "linear loss space" in err


class TestFitLinearCommand:
    def test_line_between_columns(self, capsys, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text(
            "loss,bleu\n" + "".join(f"{x},{-0.5 * x + 0.9}\n" for x in (1.0, 1.5, 2.0, 2.5)),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys,
            "fit-linear", "--input", str(path), "--x-column", "loss", "--y-column", "bleu",
        )
        assert code == 0
        report = json.loads(out)
        assert report["fit"]["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert report["fit"]["r2"] == pytest.approx(1.0, abs=1e-12)


    def test_infinite_value_exits_2_with_line_and_no_warning(self, capsys, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("x,y\n1,2\n\n2,inf\n3,6\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "fit-linear", "--input", str(path), "--x-column", "x", "--y-column", "y"
            )
        assert code == 2
        assert out == "" and "line 4:" in err

    def test_header_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("\ufeffx,y\n1,2\n2,4\n3,6\n", encoding="utf-8")
        code, out, err = run(
            capsys, "fit-linear", "--input", str(path), "--x-column", "x", "--y-column", "y"
        )
        assert code == 0, err
        assert json.loads(out)["fit"]["slope"] == 2.0


class TestCorpusCommands:
    def _write_corpus(self, tmp_path, n=200, scores=False):
        path = tmp_path / "corpus.tsv"
        lines = []
        for i in range(n):
            extra = f"\t{(i % 7) / 7.0}" if scores else ""
            lines.append(f"src {i} words here\ttgt {i} words{extra}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_corrupt_is_deterministic(self, capsys, tmp_path):
        src = self._write_corpus(tmp_path)
        out1, out2 = tmp_path / "o1.tsv", tmp_path / "o2.tsv"
        for out in (out1, out2):
            code, _, err = run(
                capsys,
                "corpus", "corrupt", "--kind", "char_noise", "--side", "source",
                "--seed", "9", "--input", str(src), "--output", str(out),
            )
            assert code == 0, err
        assert out1.read_bytes() == out2.read_bytes()
        corrupted = list(ds.read_pairs(out1))
        original = list(ds.read_pairs(src))
        assert [p.target for p in corrupted] == [p.target for p in original]
        assert any(p.source != q.source for p, q in zip(corrupted, original))

    def test_corrupt_requires_side_for_char_noise(self, capsys, tmp_path):
        src = self._write_corpus(tmp_path)
        code, _, err = run(
            capsys,
            "corpus", "corrupt", "--kind", "char_noise",
            "--seed", "9", "--input", str(src), "--output", str(tmp_path / "o.tsv"),
        )
        assert code == 2
        assert "--side" in err

    def test_filter_keeps_top_half(self, capsys, tmp_path):
        src = self._write_corpus(tmp_path, scores=True)
        out = tmp_path / "top.tsv"
        code, _, _ = run(
            capsys,
            "corpus", "filter", "--fraction", "0.5", "--input", str(src), "--output", str(out),
        )
        assert code == 0
        kept = list(ds.read_pairs(out))
        assert len(kept) == 100

    @pytest.mark.parametrize("fraction, kept", [("0.07", 7), ("0.55", 55)])
    def test_filter_count_is_exact_on_the_decimal_fraction(self, capsys, tmp_path, fraction, kept):
        src = self._write_corpus(tmp_path, n=100, scores=True)
        out = tmp_path / "top.tsv"
        code, _, err = run(
            capsys,
            "corpus", "filter", "--fraction", fraction, "--input", str(src), "--output", str(out),
        )
        assert code == 0, err
        assert len(list(ds.read_pairs(out))) == kept

    def test_filter_on_a_nan_score_exits_2_naming_the_pair(self, capsys, tmp_path):
        src = tmp_path / "corpus.tsv"
        src.write_text("s0\tt0\t0.9\ns1\tt1\tnan\ns2\tt2\t0.1\n", encoding="utf-8")
        out = tmp_path / "top.tsv"
        code, _, err = run(
            capsys,
            "corpus", "filter", "--fraction", "0.5", "--input", str(src), "--output", str(out),
        )
        assert code == 2
        assert "index 1 has a NaN score" in err
        assert sorted(os.listdir(tmp_path)) == ["corpus.tsv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_filter_refuses_an_input_it_cannot_read_twice(self, tmp_path):
        # A fresh process with a timeout: opening a FIFO with no writer would
        # block, so the command must refuse it before it opens it.
        fifo = tmp_path / "pipe.tsv"
        os.mkfifo(fifo)
        src = os.path.dirname(os.path.dirname(ds.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["corpus", "filter", "--fraction", "0.5", "--input", str(fifo), "--output", str(tmp_path / "o.tsv")]
        done = subprocess.run(
            [sys.executable, "-m", "datascale.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 2
        assert "is not a regular file; corpus filter reads its input twice" in done.stderr
        assert sorted(os.listdir(tmp_path)) == ["pipe.tsv"]

    @pytest.mark.parametrize(
        "changed",
        ["s0\tt0\t0.9\ns1\tt1\t0.1\n", "s0\tt0\t0.9\ns1\tt1\t0.7\ns2\tt2\t0.5\n"],
        ids=["count", "score"],
    )
    def test_filter_whose_input_changes_between_reads_exits_2(self, capsys, tmp_path, monkeypatch, changed):
        src = tmp_path / "corpus.tsv"
        src.write_text("s0\tt0\t0.9\ns1\tt1\t0.1\ns2\tt2\t0.5\n", encoding="utf-8")
        reads = []

        def read_pairs(path):
            reads.append(path)
            if len(reads) == 2:
                src.write_text(changed, encoding="utf-8")
            return ds.read_pairs(path)

        monkeypatch.setattr(cli, "read_pairs", read_pairs)
        code, _, err = run(
            capsys,
            "corpus", "filter", "--fraction", "0.5", "--input", str(src), "--output", str(tmp_path / "o.tsv"),
        )
        assert code == 2
        assert "the pairs changed between the filter's two passes" in err
        assert len(reads) == 2
        assert sorted(os.listdir(tmp_path)) == ["corpus.tsv"]

    def test_sample_without_replacement(self, capsys, tmp_path):
        src = self._write_corpus(tmp_path)
        out = tmp_path / "sample.tsv"
        code, _, _ = run(
            capsys,
            "corpus", "sample", "--size", "50", "--seed", "3",
            "--input", str(src), "--output", str(out),
        )
        assert code == 0
        sample = list(ds.read_pairs(out))
        assert len(sample) == 50
        sources = {p.source for p in sample}
        assert len(sources) == 50

    @pytest.mark.parametrize(
        "argv",
        [
            ["corrupt", "--kind", "char_noise", "--side", "source", "--seed", "1"],
            ["filter", "--fraction", "0.5"],
            ["sample", "--size", "10", "--seed", "1"],
        ],
        ids=["corrupt", "filter", "sample"],
    )
    def test_output_over_input_is_refused(self, capsys, tmp_path, argv):
        src = self._write_corpus(tmp_path, scores=True)
        before = src.read_bytes()
        code, _, err = run(capsys, "corpus", *argv, "--input", str(src), "--output", str(src))
        assert code == 2
        assert "input" in err
        assert src.read_bytes() == before

    def test_malformed_corpus_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\nbroken line\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "corpus", "corrupt", "--kind", "char_noise", "--side", "source",
            "--seed", "1", "--input", str(path), "--output", str(tmp_path / "o.tsv"),
        )
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["absent", "existing"])
    def test_failed_command_leaves_output_untouched(self, capsys, tmp_path, old):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\nc\td\nbroken line\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        if old is not None:
            out.write_bytes(old)
        code, _, err = run(
            capsys,
            "corpus", "corrupt", "--kind", "char_noise", "--side", "source",
            "--seed", "1", "--input", str(path), "--output", str(out),
        )
        assert code == 2
        assert "line 3" in err
        assert (out.read_bytes() if out.exists() else None) == old
        assert sorted(os.listdir(tmp_path)) == sorted(["bad.tsv"] + (["o.tsv"] if old else []))

    @pytest.mark.parametrize(
        "argv",
        [
            ["corrupt", "--kind", "char_noise", "--side", "source", "--seed", "1"],
            ["filter", "--fraction", "0.5"],
            ["sample", "--size", "1", "--seed", "1"],
        ],
        ids=["corrupt", "filter", "sample"],
    )
    def test_bare_cr_exits_2_naming_its_line(self, capsys, tmp_path, argv):
        path = tmp_path / "cr.tsv"
        path.write_bytes(b"s0\tt0\t0.9\ns1\tt\rextra\t0.5\ns2\tt2\t0.1\n")
        code, _, err = run(capsys, "corpus", *argv, "--input", str(path), "--output", str(tmp_path / "o.tsv"))
        assert code == 2
        assert "line 2" in err and "CR" in err
        assert sorted(os.listdir(tmp_path)) == ["cr.tsv"]

    def test_corpus_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("bär\tbear\t0.5\n".encode("latin-1"))
        code, _, err = run(
            capsys,
            "corpus", "filter", "--fraction", "0.5",
            "--input", str(path), "--output", str(tmp_path / "o.tsv"),
        )
        assert code == 2
        assert "utf-8" in err
        assert not (tmp_path / "o.tsv").exists()
