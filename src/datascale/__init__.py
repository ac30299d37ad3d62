"""Data scaling curve fitting, analysis, and corpus tooling.

Public names and the modules of ``_EXPORTS`` resolve on first use (PEP 562),
so ``import datascale.corpus`` loads neither numpy nor the fitting stack, which
a shell loop of corpus commands would otherwise pay for at every start.
"""

import importlib

__version__ = "0.1.0"

# Each module's public names, in the order of ``__all__``.
_EXPORTS = {
    "core": ("Observation", "PowerLaw", "TailLaw", "JointLawParams", "LinearFit",
             "capacity_constant", "eval_joint_law", "eval_law"),
    "errors": ("DataScaleError", "DomainError", "DuplicateAbscissaError", "ExponentMismatchError",
               "InsufficientDataError", "MonteCarloError", "ParseError", "RankError", "SchemaError"),
    "fitting": ("FitConfig", "FitResult", "JointFitResult", "SharedFitResult", "fit_joint",
                "fit_linear", "fit_shared", "fit_single", "fit_tail"),
    "analysis": ("McConfig", "McSummary", "asymptotic_loss", "data_equivalence_factor",
                 "marginal_value", "mc_uncertainty", "transition_point"),
    "corpus": ("CorruptionSpec", "SentencePair", "corrupt_chars", "delete_words",
               "filter_top_fraction", "read_pairs", "sample_subset", "shuffle_pairs", "write_pairs"),
    "observations": ("ObservationTable", "load_observations", "simulate", "simulate_joint",
                     "write_observations"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
