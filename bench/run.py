"""Benchmark of the datascale command-line tool.

Runs one seeded workload through ``datascale.cli.main(argv)`` in this
process, one command at a time, for a fixed number of seconds, checks every
output, and prints one JSON result line last on stdout::

    python3 bench/run.py --workload fit_table --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced passes with passes traced per layer and reports the
per-layer metrics, including the tracing overhead.  A detailed record (the
per-command figures, sample counts, output digests and the environment) is
printed on the line before the result and written to ``bench/results/``,
along with the spans of a traced run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import datascale.cli as cli; cli.build_parser()"
# Timed passes always taken, whatever --seconds says, so a median exists.
MIN_PASSES = 2

PER_LAYER = {
    "cli.self_ms": "ms",
    "cli.fit_ms_p90": "ms",
    "observations.load_ms": "ms",
    "observations.rows_per_s": "1/s",
    "fitting.fit_shared_s": "s",
    "fitting.fit_single_ms": "ms",
    "fitting.fit_tail_ms": "ms",
    "fitting.fit_joint_ms": "ms",
    "fitting.fits": "count",
    "fitting.converged_frac": "ratio",
    "fitting.iters_p50": "count",
    "fitting.iters_max": "count",
    "fitting.objective_vs_truth_max": "ratio",
    "analysis.mc_self_ms_per_rep": "ms",
    "analysis.fit_ms_per_rep": "ms",
    "analysis.reps_converged_frac": "ratio",
    "analysis.reps_dropped": "count",
    "reports.build_ms": "ms",
    "reports.dumps_ms": "ms",
    "reports.format_table_ms": "ms",
    "reports.bytes": "count",
    "corpus.read_pairs_per_s": "1/s",
    "corpus.write_pairs_per_s": "1/s",
    "corpus.char_noise_ms": "ms",
    "corpus.word_delete_ms": "ms",
    "corpus.pair_shuffle_ms": "ms",
    "corpus.filter_ms": "ms",
    "corpus.sample_ms": "ms",
    "corpus.chars_replaced": "count",
    "corpus.char_rate_effective": "ratio",
    "corpus.words_deleted": "count",
    "corpus.pairs_shuffled": "count",
    "corpus.stage_gap_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit_table", "mc", "corpus"))
    parser.add_argument("--seed", type=_seed, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every input, for the benchmark's self-test",
    )
    return parser.parse_args(argv)


def measure_setup(samples: int) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its
    parser, after one unmeasured start that writes the bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_CODE]
    out = []
    for i in range(samples + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            out.append(time.perf_counter() - start)
    return out


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(cli, ops, tracer=None):
    """Run every op once; returns ``[(exit code, seconds, digest, root span)]``."""
    if tracer is not None:
        tracer.install()
    out = []
    try:
        for op in ops:
            root = len(tracer.spans) if tracer is not None else -1
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # A crash is a failed operation, not the end of the run.
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - start
            digest = sha256(op.output) if os.path.exists(op.output) else None
            out.append((code, seconds, digest, root))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out


def median(values):
    return float(statistics.median(values)) if values else 0.0


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else median(values)


class Gate:
    """Counts checked operations and failures; keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, units: int, problems: list[str]) -> None:
        self.attempted += units
        self.failed += min(units, len(problems))
        self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def check_reference(workload, ops, results, earlier, gate):
    """Check the first pass in depth, and its digests against ``earlier``
    ones of the same seed when there are any; returns ``{output: digest}``."""
    digests = {}
    for op, (code, _, digest, _) in zip(ops, results):
        digests[op.output] = digest
        if code != 0 or digest is None:
            problems = [f"{op.output}: exit code {code}" + ("" if digest else ", no output")] * op.units
        elif earlier is not None and earlier.get(op.output) != digest:
            problems = [f"{op.output}: differs from an earlier run of this seed"] * op.units
        else:
            try:
                problems = workload.check(op)
            except (OSError, ValueError, LookupError, TypeError) as exc:
                problems = [f"{op.output}: malformed output ({exc!r})"] * op.units
        gate.record(op.units, problems)
    return digests


def check_repeat(ops, results, digests, gate):
    """A later pass must exit 0 and reproduce the first pass byte for byte."""
    for op, (code, _, digest, _) in zip(ops, results):
        if code != 0:
            problems = [f"{op.output}: exit code {code}"] * op.units
        elif digest != digests.get(op.output):
            problems = [f"{op.output}: differs from the first pass"] * op.units
        else:
            problems = []
        gate.record(op.units, problems)


def end_to_end(setup, passes):
    """End-to-end metrics of the untraced passes.

    Commands of one kind (``fit`` on each of 50 conditions, say) are
    summarised by their median, so a pass is costed as every command taking
    its kind's median time.  The few fits that run for thousands of
    iterations change from seed to seed; they show in the measured pass
    time (``wall_s`` in the record) and in the iteration counts.
    """
    per_kind = {}
    for one in passes:
        for kind, seconds in one:
            per_kind.setdefault(kind, []).append(seconds)
    per_pass = {kind: len(times) / len(passes) for kind, times in per_kind.items()}
    pass_s = sum(per_pass[kind] * median(times) for kind, times in per_kind.items())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (median(setup), "s", len(setup)),
        "pass_s": (pass_s, "s", sum(len(one) for one in passes)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def per_layer(workload, ops, traced, spans, untraced, walls, traced_walls):
    """Per-layer metrics from the spans of the traced passes."""
    from spans import children, self_times, subtree

    selfs = self_times(spans)
    kids = children(spans)
    n_passes = max(1, len(traced))

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def durations(name, scale=1.0):
        return [(spans[i][2] - spans[i][1]) * scale for i in named(name)]

    def rate(name, key):
        idx = named(name)
        seconds = sum(spans[i][2] - spans[i][1] for i in idx)
        items = sum((spans[i][4] or {}).get(key, 0) for i in idx)
        return (items / seconds if seconds else 0.0), len(idx)

    roots = [(op, result[3]) for one in traced for op, result in zip(ops, one)]
    cli_self = [sum(selfs[i] for i in subtree(kids, root) if spans[i][0].startswith("cli.")) * 1e3
                for _, root in roots]
    fit_roots = [(spans[r][2] - spans[r][1]) * 1e3 for op, r in roots if op.kind == "fit"]

    fit_names = ("fitting.fit_single", "fitting.fit_shared", "fitting.fit_tail", "fitting.fit_joint")
    fits = [i for i, s in enumerate(spans) if s[0] in fit_names]
    converged = [bool((spans[i][4] or {}).get("converged")) for i in fits]
    iters = [spans[i][4]["n_iters"] for i in fits if (spans[i][4] or {}).get("n_iters") is not None]
    ratios = list(workload.counters.get("objective_ratios", {}).values())

    mc_spans = named("analysis.mc_uncertainty")
    n_reps = getattr(workload, "n_reps", 0) * len(mc_spans)
    rep_fits = [i for m in mc_spans for i in kids.get(m, ()) if spans[i][0] == "fitting.fit_single"]
    rep_converged = sum(bool(spans[i][4]["converged"]) for i in rep_fits)

    report_text = [i for i, s in enumerate(spans) if s[0] in ("reports.dumps_report", "reports.format_table")]
    builds = [(s[2] - s[1]) * 1e3 for s in spans if s[0].startswith("reports.build_")]

    # Streamed command time (untraced) against the sum of its stages when
    # each stage is materialised in turn (traced).
    corpus_ops = [j for j, op in enumerate(ops) if op.kind in CORPUS_STAGES]
    stage_sum = streamed = 0.0
    for j in corpus_ops:
        per_pass = []
        for one in traced:
            tree = subtree(kids, one[j][3])
            per_pass.append(sum(spans[i][2] - spans[i][1] for i in tree if spans[i][0] in CORPUS_SPAN_STAGES))
        stage_sum += median(per_pass)
        streamed += median([one[j][1] for one in untraced])

    counters = workload.counters
    out = {
        "cli.self_ms": (median(cli_self), len(cli_self)),
        "cli.fit_ms_p90": (p90(fit_roots), len(fit_roots)),
        "observations.load_ms": (median(durations("observations.load_observations", 1e3)),
                                 len(named("observations.load_observations"))),
        "observations.rows_per_s": rate("observations.load_observations", "items"),
        "fitting.fit_shared_s": (median(durations("fitting.fit_shared")), len(named("fitting.fit_shared"))),
        "fitting.fit_single_ms": (median(durations("fitting.fit_single", 1e3)), len(named("fitting.fit_single"))),
        "fitting.fit_tail_ms": (median(durations("fitting.fit_tail", 1e3)), len(named("fitting.fit_tail"))),
        "fitting.fit_joint_ms": (median(durations("fitting.fit_joint", 1e3)), len(named("fitting.fit_joint"))),
        "fitting.fits": (len(fits) / n_passes, len(traced)),
        "fitting.converged_frac": ((sum(converged) / len(fits)) if fits else 0.0, len(fits)),
        "fitting.iters_p50": (median(iters), len(iters)),
        "fitting.iters_max": (float(max(iters, default=0)), len(iters)),
        "fitting.objective_vs_truth_max": (max(ratios, default=0.0), len(ratios)),
        "analysis.mc_self_ms_per_rep": (
            (sum(selfs[i] for i in mc_spans) * 1e3 / n_reps) if n_reps else 0.0, n_reps),
        "analysis.fit_ms_per_rep": (
            (sum(spans[i][2] - spans[i][1] for i in rep_fits) * 1e3 / n_reps) if n_reps else 0.0, n_reps),
        "analysis.reps_converged_frac": ((rep_converged / n_reps) if n_reps else 0.0, n_reps),
        "analysis.reps_dropped": ((n_reps - len(rep_fits)) / n_passes, n_reps),
        "reports.build_ms": (median(builds), len(builds)),
        "reports.dumps_ms": (median(durations("reports.dumps_report", 1e3)), len(named("reports.dumps_report"))),
        "reports.format_table_ms": (median(durations("reports.format_table", 1e3)),
                                    len(named("reports.format_table"))),
        "reports.bytes": (sum(spans[i][4]["chars"] for i in report_text) / n_passes, len(report_text)),
        "corpus.read_pairs_per_s": rate("corpus.read_pairs", "items"),
        "corpus.write_pairs_per_s": rate("corpus.write_pairs", "value"),
        "corpus.chars_replaced": (float(counters.get("chars_replaced", 0)), 1),
        "corpus.char_rate_effective": (float(counters.get("char_rate_effective", 0.0)), 1),
        "corpus.words_deleted": (float(counters.get("words_deleted", 0)), 1),
        "corpus.pairs_shuffled": (float(counters.get("pairs_shuffled", 0)), 1),
        "corpus.stage_gap_frac": ((stage_sum / streamed - 1.0) if streamed else 0.0, len(corpus_ops)),
        "trace.overhead_frac": (median(traced_walls) / median(walls) - 1.0, len(traced_walls)),
    }
    for kind, span_name in CORPUS_STAGES.items():
        idx = named(span_name)
        out[f"corpus.{kind}_ms"] = (median([selfs[i] * 1e3 for i in idx]), len(idx))
    return {name: (value, PER_LAYER[name], n) for name, (value, n) in out.items()}


# Corpus op kinds and the span of the transform each one runs.
CORPUS_STAGES = {
    "char_noise": "corpus.corrupt_chars",
    "word_delete": "corpus.delete_words",
    "pair_shuffle": "corpus.shuffle_pairs",
    "filter": "corpus.filter_top_fraction",
    "sample": "corpus.sample_subset",
}
CORPUS_SPAN_STAGES = {"corpus.read_pairs", "corpus.write_pairs", *CORPUS_STAGES.values()}


def environment(numpy_version: str) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "datascale" / "cli.py").is_file():
        print(f"error: no datascale sources under {SRC}; run from a datascale checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread unless the caller chose otherwise; set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    import numpy

    import datascale
    import datascale.cli as cli
    from spans import Tracer
    from workloads import WORKLOADS

    if Path(datascale.__file__).resolve().parent != SRC / "datascale":
        print(f"error: datascale was imported from {datascale.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tiny = args.scale == "tiny"
    work = BENCH / ".work" / f"{args.workload}-{args.scale}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        setup = measure_setup(2 if tiny else 7)
        workload = WORKLOADS[args.workload](args.seed, tiny, os.path.relpath(work, ROOT))
        workload.prepare()
        ops = workload.ops()

        # Outputs of a seed must match every earlier run of it in this
        # checkout, traced or not; the first run records them.
        key = f"{args.workload}-{args.scale}-seed{args.seed}"
        recorded = RESULTS / f"digests-{key}.json"
        earlier = json.loads(recorded.read_text(encoding="utf-8")) if recorded.exists() else None
        gate = Gate()
        digests = check_reference(workload, ops, run_pass(cli, ops), earlier, gate)
        if earlier is None:
            recorded.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n", encoding="utf-8")

        tracer = Tracer(datascale) if args.trace else None
        untraced, walls, traced, traced_walls = [], [], [], []
        modes = [(None, untraced, walls)]
        if tracer is not None:
            modes.append((tracer, traced, traced_walls))
        # Passes run while another one fits in the time left, so a run
        # measures for at most --seconds (but at least MIN_PASSES passes).
        origin = time.perf_counter()
        while True:
            cycle = time.perf_counter()
            for use_tracer, results, pass_walls in modes:
                start = time.perf_counter()
                one = run_pass(cli, ops, use_tracer)
                pass_walls.append(time.perf_counter() - start)
                results.append(one)
                check_repeat(ops, one, digests, gate)
            now = time.perf_counter()
            if len(walls) >= MIN_PASSES and now + (now - cycle) > origin + args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [[(op.kind, r[1]) for op, r in zip(ops, one)] for one in untraced]
    measured = {"wall_s": (median(walls), "s", len(walls))}
    if args.trace:
        metrics = per_layer(workload, ops, traced, tracer.spans, untraced, walls, traced_walls)
        spans_path = RESULTS / f"spans-{key}.json"
        spans_path.write_text(json.dumps(tracer.export(origin)) + "\n", encoding="utf-8")
    else:
        metrics = end_to_end(setup, passes)

    digest = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "env": environment(numpy.__version__),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "commands": {k: {"value": v, "unit": u, "n": n}
                     for k, (v, u, n) in {**measured, **workload.summary(passes)}.items()},
        "failed_frac": gate.failed / gate.attempted,
        "problems": gate.problems,
        "digest": digest,
        "outputs": digests,
        "counters": workload.counters,
    }
    text = json.dumps(detail, sort_keys=True)
    (RESULTS / f"record-{key}-trace{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(text)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
