"""The package's public names: one export list, resolved on first use; and
what a fresh process loads for each kind of command."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import datascale as ds

SRC = str(Path(ds.__file__).resolve().parents[1])

PUBLIC = [
    "__version__",
    "Observation", "PowerLaw", "TailLaw", "JointLawParams", "LinearFit",
    "capacity_constant", "eval_joint_law", "eval_law",
    "DataScaleError", "DomainError", "DuplicateAbscissaError", "ExponentMismatchError",
    "InsufficientDataError", "MonteCarloError", "ParseError", "RankError", "SchemaError",
    "FitConfig", "FitResult", "JointFitResult", "SharedFitResult",
    "fit_joint", "fit_linear", "fit_shared", "fit_single", "fit_tail",
    "McConfig", "McSummary", "asymptotic_loss", "data_equivalence_factor",
    "marginal_value", "mc_uncertainty", "transition_point",
    "CorruptionSpec", "SentencePair", "corrupt_chars", "delete_words",
    "filter_top_fraction", "read_pairs", "sample_subset", "shuffle_pairs", "write_pairs",
    "ObservationTable", "load_observations", "simulate", "simulate_joint", "write_observations",
]

MODULES = ("core", "errors", "fitting", "analysis", "corpus", "observations", "reports", "files", "cli")

# Printed by a fresh interpreter after the step under test.
LOADED = "print('numpy' in sys.modules, 'datascale.fitting' in sys.modules)\n"


def fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_corpus_import_loads_neither_numpy_nor_the_fitting_stack():
    out = fresh_python(
        "import sys, datascale.corpus, datascale\n"
        "print('numpy' in sys.modules, 'datascale.fitting' in sys.modules)\n"
        "datascale.fit_single\n"
        "print('numpy' in sys.modules, 'datascale.fitting' in sys.modules)\n"
    )
    assert out == ["False", "False", "True", "True"]


def test_parser_and_help_load_neither_numpy_nor_the_fitting_stack():
    out = fresh_python(
        "import contextlib, io, sys\n"
        "import datascale.cli as cli\n"
        "cli.build_parser()\n"
        + LOADED
        + "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    cli.main(['--help'])\n"
        + LOADED
    )
    assert out == ["False", "False", "False", "False"]


@pytest.mark.parametrize(
    "argv", [["filter", "--fraction", "0.5"], ["sample", "--size", "2", "--seed", "1"]], ids=["filter", "sample"]
)
def test_corpus_command_loads_neither_numpy_nor_the_fitting_stack(tmp_path, argv):
    src, dst = tmp_path / "corpus.tsv", tmp_path / "out.tsv"
    src.write_text("s0\tt0\t0.9\ns1\tt1\t0.1\ns2\tt2\t0.5\n", encoding="utf-8")
    argv = ["corpus", *argv, "--input", str(src), "--output", str(dst)]
    out = fresh_python(f"import sys\nfrom datascale.cli import main\nprint(main({argv!r}))\n" + LOADED)
    assert out == ["0", "False", "False"]
    assert len(dst.read_text(encoding="utf-8").splitlines()) == 2


def test_fit_loads_the_numeric_layers_on_its_first_call(tmp_path):
    csv_path, report = tmp_path / "obs.csv", tmp_path / "fit.json"
    law = ds.PowerLaw(alpha=1.969, c=0.057, p=0.285)
    ds.write_observations(csv_path, ds.simulate(law, [1, 2, 4, 8, 16, 32, 64], 0.0, seed=1))
    argv = ["fit", "--input", str(csv_path), "--seed", "1", "--output", str(report)]
    out = fresh_python(
        "import sys\nfrom datascale.cli import main\n" + LOADED + f"print(main({argv!r}))\n" + LOADED
    )
    assert out == ["False", "False", "0", "True", "True"]
    assert json.loads(report.read_text(encoding="utf-8"))["converged"]


def test_bare_import_resolves_every_module():
    code = "import datascale\n" + "".join(f"print(datascale.{name}.__name__)\n" for name in MODULES)
    assert fresh_python(code) == [f"datascale.{name}" for name in MODULES]


def test_export_list_is_pinned():
    assert ds.__all__ == PUBLIC


def test_each_name_is_the_object_of_its_module():
    for name in PUBLIC[1:]:
        obj = getattr(ds, name)
        assert obj.__module__ in {f"datascale.{module}" for module in MODULES}, name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_dir_lists_every_export():
    assert set(ds.__all__) <= set(dir(ds))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from datascale import *", namespace)
    assert {name: namespace[name] for name in ds.__all__} == {name: getattr(ds, name) for name in ds.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'datascale' has no attribute 'no_such_name'$"):
        ds.no_such_name
