"""Command-line interface.

Subcommands cover fitting (``fit``, ``fit-shared``, ``fit-joint``,
``fit-tail``, ``fit-linear``), analysis of fit reports (``analyze``,
``report``), Monte Carlo exponent uncertainty (``mc``), synthetic-curve
generation (``simulate``) and the corpus toolbox (``corpus corrupt``,
``corpus filter``, ``corpus sample``).

Exit codes: 0 on success, 2 on any validation or usage error (including a
report that is not JSON or lacks a field, and an input file that is not
UTF-8), 3 when a fit did not converge (the report is still written) or Monte
Carlo produced no usable replicate.  Every randomized command requires an
explicit ``--seed`` so reruns are byte-identical.  An output file appears
only once it is complete; a failed command leaves it as it was, and one whose
``--output`` names one of its inputs exits 2 before it reads anything.

Importing this module loads only the corpus layer, with ``errors`` and
``files``.  The numeric layers (numpy, ``fitting``, ``analysis``,
``observations``, ``reports``) are imported by the first command that needs
them, so building the parser, ``--help`` and the corpus commands start
without numpy; ``corpus corrupt`` imports it only for its noise draws.

The corpus commands stream their pairs.  ``corpus filter`` reads its
``--input`` twice, once for the scores and once for the pairs it keeps, so
that input must be a regular file; a pipe exits 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from . import __version__
from .corpus import (
    DEFAULT_PROBS,
    REPLACEMENT_ALPHABET,
    CorruptionSpec,
    corrupt_chars,
    delete_words,
    filter_top_fraction,
    read_pairs,
    sample_subset,
    shuffle_pairs,
    write_pairs,
)
from .errors import DataScaleError, MonteCarloError, SchemaError
from .files import replace_on_success

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


@functools.cache
def _load_numeric_layers() -> None:
    """Import the numeric layers and bind the names this module uses from
    them as its globals, once per process.

    Every command but the corpus ones calls this first, so the parser and the
    corpus commands start without numpy.  The names are module attributes,
    bound only on the first call: a wrapper put in place of one afterwards
    (as ``bench/spans.py`` does) stays in place.
    """
    global McConfig, data_equivalence_factor, mc_uncertainty, JointLawParams, PowerLaw
    global FitConfig, fit_joint, fit_linear, fit_shared, fit_single, fit_tail
    global format_observations, load_observations, parse_float, read_csv_records
    global simulate, simulate_joint, build_fit_report, build_joint_report, build_linear_report
    global build_mc_report, build_shared_report, build_tail_report, dumps_report, format_table
    global law_analysis, law_from_report, load_report, shared_conditions
    from .analysis import McConfig, data_equivalence_factor, mc_uncertainty
    from .core import JointLawParams, PowerLaw
    from .fitting import FitConfig, fit_joint, fit_linear, fit_shared, fit_single, fit_tail
    from .observations import (
        format_observations,
        load_observations,
        parse_float,
        read_csv_records,
        simulate,
        simulate_joint,
    )
    from .reports import (
        build_fit_report,
        build_joint_report,
        build_linear_report,
        build_mc_report,
        build_shared_report,
        build_tail_report,
        dumps_report,
        format_table,
        law_analysis,
        law_from_report,
        load_report,
        shared_conditions,
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        with replace_on_success(output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_fit(report: dict, args) -> int:
    """Write a fit report; the exit code says whether the fit converged."""
    _emit(dumps_report(report), args.output)
    return EXIT_OK if report["converged"] else EXIT_NO_CONVERGENCE


def _fit_config(args, seed: int) -> FitConfig:
    return FitConfig(
        loss_space=args.loss_space,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
        seed=seed,
    )


def _add_fit_options(
    parser: argparse.ArgumentParser, seed_help: str = "recorded in the report; no fit draws random numbers"
) -> None:
    parser.add_argument("--input", required=True, help="observation CSV")
    parser.add_argument("--seed", type=int, required=True, help=seed_help)
    parser.add_argument("--loss-space", choices=("log", "linear"), default="log")
    parser.add_argument("--max-iters", type=int, default=2000,
                        help="steps per search before it stops unconverged")
    parser.add_argument("--rel-tol", type=float, default=1e-10,
                        help="relative bracket width that closes a search")
    parser.add_argument(
        "--raw-counts",
        action="store_true",
        help="size column is named 'd' and holds raw pair counts; divide by 1e6",
    )
    parser.add_argument("--output", help="write the JSON report here instead of stdout")


def _select_condition(table, condition: str | None):
    groups = table.by_condition()
    if condition is not None:
        if condition not in groups:
            raise SchemaError(f"condition {condition!r} not present in {table.source_path}")
        return groups[condition]
    if len(groups) != 1:
        raise SchemaError(
            f"file holds {len(groups)} conditions ({', '.join(sorted(groups))}); pass --condition"
        )
    return next(iter(groups.values()))


def _check_output_is_not_input(output: str | None, *inputs: str | None) -> None:
    # Output is written to a partial file that replaces the target only at
    # the end, so writing to an input would replace it with the output.
    if output and os.path.exists(output):
        for path in inputs:
            if path and os.path.samefile(path, output):
                raise SchemaError(f"--output {output} is the input file; write to another path")


def _parse_shape(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise SchemaError(f"bad shape {text!r}; expected N_ENCxN_DEC, e.g. 100000000x50000000")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise SchemaError(f"bad shape {text!r}; counts must be integers") from None


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise SchemaError(f"bad d grid {text!r}; expected comma-separated numbers") from None


# ---------------------------------------------------------------------------
# Fit commands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    _load_numeric_layers()
    _check_output_is_not_input(args.output, args.input)
    table = load_observations(args.input, raw_counts=args.raw_counts, condition=args.condition)
    obs = _select_condition(table, args.condition)
    cfg = _fit_config(args, args.seed)
    return _emit_fit(build_fit_report(fit_single(obs, cfg), obs, cfg, args.input), args)


def cmd_fit_shared(args) -> int:
    _load_numeric_layers()
    _check_output_is_not_input(args.output, args.input)
    table = load_observations(args.input, raw_counts=args.raw_counts)
    groups = table.by_condition()
    cfg = _fit_config(args, args.seed)
    return _emit_fit(build_shared_report(fit_shared(groups, cfg), groups, cfg, args.input), args)


def cmd_fit_joint(args) -> int:
    _load_numeric_layers()
    _check_output_is_not_input(args.output, args.input)
    table = load_observations(args.input, raw_counts=args.raw_counts)
    cfg = _fit_config(args, args.seed)
    hold_out = [_parse_shape(s) for s in args.hold_out or []]
    fixed = (args.beta, args.p_e, args.p_d, args.l_inf)
    result = fit_joint(table.rows, fixed, cfg, hold_out=hold_out)
    return _emit_fit(build_joint_report(result, table.rows, cfg, args.input, hold_out), args)


def cmd_fit_tail(args) -> int:
    _load_numeric_layers()
    _check_output_is_not_input(args.output, args.input)
    table = load_observations(args.input, raw_counts=args.raw_counts, condition=args.condition)
    obs = _select_condition(table, args.condition)
    cfg = _fit_config(args, args.seed)
    result = fit_tail(obs, args.d_min, cfg)
    subset = [o for o in obs if o.d_millions >= args.d_min]
    return _emit_fit(build_tail_report(result, subset, args.d_min, cfg, args.input), args)


def cmd_fit_linear(args) -> int:
    _load_numeric_layers()
    _check_output_is_not_input(args.output, args.input)
    xs, ys = [], []
    for line, (x, y) in read_csv_records(args.input, (args.x_column, args.y_column)):
        xs.append(parse_float(x, args.x_column, line))
        ys.append(parse_float(y, args.y_column, line))
    fit = fit_linear(xs, ys)
    _emit(
        dumps_report(
            build_linear_report(fit, xs, ys, args.input, args.x_column, args.y_column)
        ),
        args.output,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Analysis commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    _load_numeric_layers()
    _check_output_is_not_input(args.output, args.report, *(args.equivalence or ()))
    if args.equivalence:
        path_a, path_b = args.equivalence
        law_a = law_from_report(load_report(path_a), args.condition_a)
        law_b = law_from_report(load_report(path_b), args.condition_b)
        factor = data_equivalence_factor(law_a, law_b)
        _emit(repr(factor) + "\n", args.output)
        return EXIT_OK
    if not args.report:
        raise SchemaError("pass a report path or --equivalence FIT1 FIT2")
    report = load_report(args.report)
    if report["kind"] == "fit_shared" and args.condition is None:
        payload = {
            "p": report["p"],
            "per_condition": {
                label: law_analysis(law_from_report(report, label), args.marginal_at)
                for label in sorted(shared_conditions(report))
            },
        }
    else:
        payload = law_analysis(law_from_report(report, args.condition), args.marginal_at)
    _emit(dumps_report(payload), args.output)
    return EXIT_OK


def cmd_report(args) -> int:
    _load_numeric_layers()
    _check_output_is_not_input(args.output, args.report)
    _emit(format_table(load_report(args.report)), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Monte Carlo and simulation
# ---------------------------------------------------------------------------


def cmd_mc(args) -> int:
    _load_numeric_layers()
    _check_output_is_not_input(args.output, args.input)
    table = load_observations(args.input, raw_counts=args.raw_counts, condition=args.condition)
    obs = _select_condition(table, args.condition)
    cfg_mc = McConfig(noise_frac=args.noise_frac, n_reps=args.n_reps, seed=args.seed)
    cfg_fit = _fit_config(args, args.fit_seed)
    summary = mc_uncertainty(obs, cfg_fit, cfg_mc)
    _emit(dumps_report(build_mc_report(summary, cfg_mc, cfg_fit, args.input)), args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    _load_numeric_layers()
    grid = _parse_grid(args.d_grid)
    if args.joint:
        for name in ("beta", "p_e", "p_d", "l_inf", "shapes"):
            if getattr(args, name) is None:
                raise SchemaError(f"--joint requires --{name.replace('_', '-')}")
        params = JointLawParams(
            alpha=args.alpha,
            p=args.p,
            beta=args.beta,
            p_e=args.p_e,
            p_d=args.p_d,
            l_inf=args.l_inf,
        )
        shapes = [_parse_shape(s) for s in args.shapes.split(",")]
        table = simulate_joint(params, shapes, grid, args.noise_frac, args.seed)
    else:
        if args.c is None:
            raise SchemaError("--c is required unless --joint is given")
        law = PowerLaw(alpha=args.alpha, c=args.c, p=args.p)
        table = simulate(law, grid, args.noise_frac, args.seed, condition=args.condition)
    _emit(format_observations(table), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Corpus commands
# ---------------------------------------------------------------------------


def cmd_corpus_corrupt(args) -> int:
    _check_output_is_not_input(args.output, args.input)
    if args.kind != "pair_shuffle" and args.side is None:
        raise SchemaError(f"--side is required for kind {args.kind}")
    prob = DEFAULT_PROBS[args.kind] if args.prob is None else args.prob
    spec = CorruptionSpec(
        kind=args.kind, side=args.side or "source", prob=prob, seed=args.seed
    )
    pairs = read_pairs(args.input)
    if args.kind == "char_noise":
        out = corrupt_chars(pairs, spec)
    elif args.kind == "word_delete":
        out = delete_words(pairs, spec)
    else:
        out = shuffle_pairs(pairs, spec)
    write_pairs(args.output, out)
    return EXIT_OK


class _PairFile:
    """The pairs of a corpus file, read anew by each ``iter()``."""

    def __init__(self, path):
        self.path = path

    def __iter__(self):
        # ``read_pairs`` is looked up at each call, and a wrapper put in its
        # place (as bench/spans.py does) may return a list.
        return iter(read_pairs(self.path))


def cmd_corpus_filter(args) -> int:
    _check_output_is_not_input(args.output, args.input)
    # A pipe or terminal cannot be read a second time, and opening a FIFO
    # would block, so the input is checked before it is opened.
    if not stat.S_ISREG(os.stat(args.input).st_mode):
        raise SchemaError(
            f"--input {args.input} is not a regular file; corpus filter reads its input twice"
        )
    write_pairs(args.output, filter_top_fraction(_PairFile(args.input), args.fraction))
    return EXIT_OK


def cmd_corpus_sample(args) -> int:
    _check_output_is_not_input(args.output, args.input)
    write_pairs(args.output, sample_subset(read_pairs(args.input), args.size, args.seed))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datascale",
        description="Fit, analyze and stress-test data scaling curves; "
        "corrupt, filter and sample parallel corpora deterministically.",
    )
    parser.add_argument("--version", action="version", version=f"datascale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one condition's power law")
    _add_fit_options(p)
    p.add_argument("--condition", help="condition to fit when the file holds several")
    p.set_defaults(handler="cmd_fit")

    p = sub.add_parser("fit-shared", help="fit all conditions with a common exponent")
    _add_fit_options(p)
    p.set_defaults(handler="cmd_fit_shared")

    p = sub.add_parser("fit-joint", help="fit (alpha, p) of the joint data/parameter law")
    _add_fit_options(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--p-e", type=float, required=True, dest="p_e")
    p.add_argument("--p-d", type=float, required=True, dest="p_d")
    p.add_argument("--l-inf", type=float, required=True, dest="l_inf")
    p.add_argument(
        "--hold-out",
        action="append",
        metavar="N_ENCxN_DEC",
        help="exclude a parameter-count shape from fitting (repeatable)",
    )
    p.set_defaults(handler="cmd_fit_joint")

    p = sub.add_parser("fit-tail", help="fit the large-data tail law gamma*(1/d)^q + b")
    _add_fit_options(p)
    p.add_argument("--d-min", type=float, required=True, help="smallest size (millions) to include")
    p.add_argument("--condition", help="condition to fit when the file holds several")
    p.set_defaults(handler="cmd_fit_tail")

    p = sub.add_parser("fit-linear", help="ordinary least squares between two CSV columns")
    p.add_argument("--input", required=True)
    p.add_argument("--x-column", required=True)
    p.add_argument("--y-column", required=True)
    p.add_argument("--output")
    p.set_defaults(handler="cmd_fit_linear")

    p = sub.add_parser("analyze", help="derive regime quantities from a fit report")
    p.add_argument("report", nargs="?", help="fit report JSON")
    p.add_argument("--condition", help="condition selector for shared reports")
    p.add_argument(
        "--marginal-at",
        type=float,
        action="append",
        metavar="D",
        help="also report the marginal value of data at this size (repeatable)",
    )
    p.add_argument(
        "--equivalence",
        nargs=2,
        metavar=("FIT1", "FIT2"),
        help="print the data-equivalence factor between two fit reports",
    )
    p.add_argument("--condition-a", help="condition selector for FIT1 when shared")
    p.add_argument("--condition-b", help="condition selector for FIT2 when shared")
    p.add_argument("--output")
    p.set_defaults(handler="cmd_analyze")

    p = sub.add_parser("mc", help="Monte Carlo uncertainty of the fitted exponent")
    _add_fit_options(p, seed_help="Monte Carlo master seed")
    p.add_argument("--noise-frac", type=float, default=0.02)
    p.add_argument("--n-reps", type=int, default=1000)
    p.add_argument("--condition")
    p.add_argument("--fit-seed", type=int, default=0, help="--seed of each replicate's fit (no fit draws random numbers)")
    p.set_defaults(handler="cmd_mc")

    p = sub.add_parser("simulate", help="generate synthetic observations from a law")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d-grid", required=True, help="comma-separated sizes in millions")
    p.add_argument("--noise-frac", type=float, default=0.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--c", type=float, help="capacity constant (plain law)")
    p.add_argument("--condition", default="simulated")
    p.add_argument("--joint", action="store_true", help="simulate the joint law instead")
    p.add_argument("--beta", type=float)
    p.add_argument("--p-e", type=float, dest="p_e")
    p.add_argument("--p-d", type=float, dest="p_d")
    p.add_argument("--l-inf", type=float, dest="l_inf")
    p.add_argument("--shapes", help="comma-separated N_ENCxN_DEC shapes for --joint")
    p.add_argument("--output")
    p.set_defaults(handler="cmd_simulate")

    p = sub.add_parser("report", help="render a fit report as a plot-ready CSV table")
    p.add_argument("--report", required=True)
    p.add_argument("--output")
    p.set_defaults(handler="cmd_report")

    corpus = sub.add_parser("corpus", help="deterministic parallel-corpus operations")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    alphabet_help = REPLACEMENT_ALPHABET.replace("%", "%%")
    p = corpus_sub.add_parser(
        "corrupt",
        help="inject character, word or pair-alignment noise",
        description=(
            "Apply one noise kind to a TAB-separated corpus. char_noise replaces "
            "each character of the chosen side with probability PROB (default 0.1) "
            f"by a symbol from the 94-character alphabet {alphabet_help} ; "
            "word_delete drops each whitespace-delimited word with probability "
            "PROB (default 0.15); pair_shuffle rotates the targets of a PROB "
            "(default 0.1) fraction of pairs so their alignment is destroyed. "
            "With one seed, the units changed at a lower PROB are a subset of "
            "those changed at a higher one."
        ),
    )
    p.add_argument("--kind", choices=("char_noise", "word_delete", "pair_shuffle"), required=True)
    p.add_argument("--side", choices=("source", "target"), help="side to corrupt")
    p.add_argument("--prob", type=float, help="per-unit probability (default depends on kind)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler="cmd_corpus_corrupt")

    p = corpus_sub.add_parser(
        "filter",
        help="keep the top-scoring fraction of pairs",
        description=(
            "Keep the ceil(FRACTION * n) highest-scoring pairs of a scored corpus, in "
            "input order; ties at the cutoff go to the earlier pair. The input is read "
            "twice, first for the scores alone, so it must be a regular file."
        ),
    )
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--input", required=True, help="scored corpus; a regular file, read twice")
    p.add_argument("--output", required=True)
    p.set_defaults(handler="cmd_corpus_filter")

    p = corpus_sub.add_parser(
        "sample",
        help="uniform subsample without replacement",
        description=(
            "Keep SIZE pairs drawn uniformly without replacement, in input order. Under one "
            "seed the samples nest: a smaller sample is a subset of every larger one."
        ),
    )
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler="cmd_corpus_sample")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was, and
    the ``append`` options start each parse from a fresh list."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # handlers are looked up by name at each call, so a wrapper put in
        # place of one after the parser was built (as bench/spans.py does) runs
        return globals()[args.handler](args)
    except MonteCarloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (DataScaleError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
