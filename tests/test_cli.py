"""End-to-end command-line behavior: exit codes, determinism, output shapes."""

import json
import os
import warnings

import pytest

import datascale as ds
from datascale.cli import main

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
            "--max-iters", "1", "--rel-tol", "1e-18", "--n-restarts", "1",
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
        rows = []
        for i, (label, alpha, c, p) in enumerate(FILTERING_BLOCK[:2]):
            path = simulate_csv(capsys, tmp_path, f"{label}.csv", alpha, c, p, seed=str(i), condition=label)
            rows += path.read_text(encoding="utf-8").splitlines()[1 if i else 0:]
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
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


class TestMc:
    def test_summary_shape_and_determinism(self, capsys, tmp_path):
        csv_path = simulate_csv(capsys, tmp_path, "obs.csv", 1.969, 0.057, 0.285)
        args = (
            "mc", "--input", str(csv_path), "--seed", "7",
            "--noise-frac", "0.02", "--n-reps", "40", "--n-restarts", "2",
        )
        code, out, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out == out2
        summary = json.loads(out)
        assert summary["kind"] == "mc"
        assert summary["n_converged"] <= 40
        assert summary["quantiles"]["q05"] <= summary["quantiles"]["q95"]

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
