"""The package's public names: one export list, resolved on first use."""

import importlib
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

MODULES = ("core", "errors", "fitting", "analysis", "corpus", "observations")


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
