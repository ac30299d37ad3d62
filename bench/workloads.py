"""The benchmark's workloads: seeded inputs, CLI command lists and checks.

Every workload writes its inputs from the workload seed, lists the CLI
commands of one pass (each writing its own output file) and checks the
outputs of a pass against what generated the inputs.  A check never trusts
a fit's ``converged`` flag alone: a fit's objective must also be no worse
than that of the law which generated its data.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from datascale.core import JointLawParams
from datascale.observations import format_observations, simulate_joint

# Doubling grid of dataset sizes in millions of pairs: 1, 2, 4, ..., 512.
GRID = [2.0**k for k in range(10)]
NOISE_FRAC = 0.02

# Coefficient rows (condition, alpha, c, p) of the paper's experiments, as in
# the test suite's fixtures: architecture, noise, filtering and
# back-translation blocks.
ROWS = [
    ("encoder_decoder", 1.969, 0.057, 0.285),
    ("decoder_only", 1.817, 0.11, 0.285),
    ("hybrid_lstm", 2.011, 0.078, 0.285),
    ("no_noise", 1.969, 0.064, 0.296),
    ("source_noise", 2.222, 0.067, 0.296),
    ("target_noise", 2.772, 0.323, 0.296),
    ("no_filter", 2.501, 0.034, 0.278),
    ("cds", 2.235, 0.054, 0.278),
    ("bicleaner", 2.130, 0.064, 0.278),
    ("bt_2l6l", 2.343, 0.059, 0.198),
    ("bt_6l6l", 2.288, 0.054, 0.198),
    ("bt_32l6l", 2.251, 0.040, 0.198),
    ("bt_64l6l", 2.224, 0.037, 0.198),
    ("parallel", 1.196, 0.048, 0.271),
]
ROW = {name: (alpha, c, p) for name, alpha, c, p in ROWS}

# Joint-law quartet (beta, p_e, p_d, l_inf) and encoder/decoder shapes.
JOINT_FIXED = (2.2, 0.44, 0.38, 0.4)
JOINT_SHAPES = [(10**8, 10**8), (3 * 10**8, 10**8), (10**8, 3 * 10**8), (2 * 10**8, 2 * 10**8)]

# Relative slack on "objective <= best objective found independently".  On
# 400 seeded conditions the fits came within 3e-11 of a profiled search.
OBJECTIVE_SLACK = 1e-8


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass; ``units`` counts its checked operations."""

    kind: str
    argv: list[str]
    output: str
    units: int = 1


def log_objective(y, model) -> float:
    r = np.log(np.asarray(y)) - np.log(np.asarray(model))
    return float(r @ r)


def power_law(alpha, c, p, d):
    return alpha * (1.0 / np.asarray(d) + c) ** p


def _grid_minimum(objective, grid) -> float:
    """Least value of a 1-D objective found by a grid search refined by
    ternary search between the neighbours of the best grid point.  Some
    parameter value attains it, so a fit that ends above it has stopped
    short of the optimum."""
    values = objective(grid)
    i = int(np.argmin(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    best = float(values[i])
    for _ in range(80):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        fa, fb = objective(np.array([a, b]))
        best = min(best, float(fa), float(fb))
        if fa < fb:
            hi = b
        else:
            lo = a
    return best


def _single_minimum(d, y) -> float:
    """Least log-space objective of ``alpha*(1/d + c)**p`` with ``p`` in
    (0, 2]: for fixed ``c`` the law is linear in ``(ln alpha, p)``, so the
    search is over ``c`` alone."""
    ly = np.log(y) - np.log(y).mean()

    def objective(cs):
        x = np.log(1.0 / d[None, :] + cs[:, None])
        x -= x.mean(axis=1, keepdims=True)
        p = np.clip((x @ ly) / np.maximum((x * x).sum(axis=1), 1e-300), 1e-12, 2.0)
        r = ly[None, :] - p[:, None] * x
        return (r * r).sum(axis=1)

    return _grid_minimum(objective, np.concatenate([[0.0], np.logspace(-9, 4, 600)]))


def _joint_minimum(d, y, beta, count_term) -> float:
    """Least log-space objective of the joint law over ``(alpha, p)``: for
    fixed ``p`` the best ``ln alpha`` is the mean residual."""
    ly = np.log(y)

    def objective(ps):
        c = beta * count_term[None, :] ** (1.0 / ps[:, None])
        r = ly[None, :] - ps[:, None] * np.log(1.0 / d[None, :] + c)
        r -= r.mean(axis=1, keepdims=True)
        return (r * r).sum(axis=1)

    return _grid_minimum(objective, np.linspace(1e-3, 2.0, 400))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, work_dir: str):
        self.seed = seed
        self.tiny = tiny
        self.work = work_dir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        # Deterministic per-output facts the checks measure (iterations,
        # objective ratios, corpus counts); reported by the traced run.
        self.counters: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cli_seed(self) -> str:
        return str(int(self.rng.integers(0, 2**31)))

    def prepare(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        """Problems with one op's output; one entry per failed unit."""
        raise NotImplementedError

    def summary(self, passes: list[list[tuple[str, float]]]) -> dict:
        """Per-command figures: ``name -> (value, unit, sample count)``."""
        raise NotImplementedError


def _median_of(passes, kind):
    times = [t for one in passes for k, t in one if k == kind]
    return (float(np.median(times)) if times else 0.0), len(times)


# ---------------------------------------------------------------------------
# fit_table
# ---------------------------------------------------------------------------

SHARED_EXPONENTS = sorted({p for _, _, _, p in ROWS})
TAIL_D_MIN = 8.0


class FitTable(Workload):
    """Many small fits beside one large shared fit and four joint fits."""

    name = "fit_table"

    def prepare(self):
        n_conditions = 4 if self.tiny else 50
        p = float(self.rng.choice(SHARED_EXPONENTS))
        self.laws, self.data = {}, {}
        lines = ["condition,d_millions,loss"]
        for i in range(n_conditions):
            row, alpha, _, _ = ROWS[i % len(ROWS)]
            alpha *= math.exp(0.1 * self.rng.standard_normal())
            c = 10.0 ** self.rng.uniform(-3.0, 0.0)
            label = f"{row}_{i:02d}"
            d = np.array(GRID)
            y = power_law(alpha, c, p, d) * (1.0 + NOISE_FRAC * self.rng.standard_normal(len(d)))
            self.laws[label] = (alpha, c, p)
            self.data[label] = (d, y)
            lines.extend(f"{label},{a!r},{b!r}" for a, b in zip(d.tolist(), y.tolist()))
        self.obs_csv = self.path("obs.csv")
        _write(self.obs_csv, "\n".join(lines) + "\n")

        beta, p_e, p_d, l_inf = JOINT_FIXED
        self.joint_law = JointLawParams(
            alpha=1.6 * math.exp(0.1 * self.rng.standard_normal()),
            p=float(self.rng.choice(SHARED_EXPONENTS)),
            beta=beta,
            p_e=p_e,
            p_d=p_d,
            l_inf=l_inf,
        )
        shapes = JOINT_SHAPES[:2] if self.tiny else JOINT_SHAPES
        table = simulate_joint(self.joint_law, shapes, GRID, NOISE_FRAC, int(self.rng.integers(2**31)))
        self.joint_rows = [(o.n_enc, o.n_dec, o.d_millions, o.loss) for o in table.rows]
        self.joint_csv = self.path("joint.csv")
        _write(self.joint_csv, format_observations(table))
        self.shapes = shapes
        self.fit_seed = self.cli_seed()

    def ops(self):
        seed = ["--seed", self.fit_seed]
        shared = self.path("shared.json")
        out = [
            Op("fit_shared", ["fit-shared", "--input", self.obs_csv, *seed, "--output", shared], shared),
            Op("report", ["report", "--report", shared, "--output", self.path("shared-table.csv")],
               self.path("shared-table.csv")),
            Op("analyze", ["analyze", shared, "--output", self.path("shared-analysis.json")],
               self.path("shared-analysis.json")),
        ]
        for label in self.laws:
            common = ["--input", self.obs_csv, "--condition", label, *seed]
            fit, tail = self.path(f"fit-{label}.json"), self.path(f"tail-{label}.json")
            out.append(Op("fit", ["fit", *common, "--output", fit], fit))
            out.append(Op("fit_tail", ["fit-tail", *common, "--d-min", repr(TAIL_D_MIN), "--output", tail], tail))
        fixed = [
            f"--{flag}={value!r}"
            for flag, value in zip(("beta", "p-e", "p-d", "l-inf"), JOINT_FIXED)
        ]
        for n_enc, n_dec in self.shapes:
            joint = self.path(f"joint-{n_enc}x{n_dec}.json")
            out.append(Op("fit_joint", ["fit-joint", "--input", self.joint_csv, *seed, *fixed,
                                        "--hold-out", f"{n_enc}x{n_dec}", "--output", joint], joint))
        return out

    def _references(self, op: Op, report: dict) -> tuple[float, float]:
        """Objectives on the data the op fitted: of the law that generated
        it (for the tail law, of that law's large-data linearization, which
        is a tail law), and the best a fit can reach as far as an independent
        search finds (the generating law's where there is no search)."""
        if op.kind == "fit_shared":
            truth = sum(self._truth(label) for label in self.laws)
            return truth, truth
        if op.kind == "fit":
            d, y = self.data[report["condition"]]
            truth = self._truth(report["condition"])
            return truth, min(truth, _single_minimum(d, y))
        if op.kind == "fit_tail":
            alpha, c, p = self.laws[report["observations"][0]["condition"]]
            d, y = self.data[report["observations"][0]["condition"]]
            keep = d >= TAIL_D_MIN
            gamma, b = alpha * p * c ** (p - 1.0), alpha * c**p
            truth = log_objective(y[keep], gamma / d[keep] + b)
            return truth, truth
        held = {tuple(shape) for shape in report["hold_out"]}
        law = self.joint_law
        rows = [r for r in self.joint_rows if (r[0], r[1]) not in held]
        n_e, n_d, d, y = (np.array(col, dtype=float) for col in zip(*rows))
        count_term = np.exp(-law.p_e * np.log(n_e) - law.p_d * np.log(n_d)) + law.l_inf
        c = law.beta * count_term ** (1.0 / law.p)
        truth = log_objective(y, power_law(law.alpha, c, law.p, d))
        return truth, min(truth, _joint_minimum(d, y, law.beta, count_term))

    def _truth(self, label):
        d, y = self.data[label]
        return log_objective(y, power_law(*self.laws[label], d))

    def check(self, op):
        if op.kind == "report":
            return self._check_table(op.output)
        if op.kind == "analyze":
            return self._check_analysis(op.output)
        report = _load_json(op.output)
        truth, best = self._references(op, report)
        objective = report["objective"]
        self.counters.setdefault("objective_ratios", {})[op.output] = objective / truth
        if "n_iters" in report:
            self.counters.setdefault("iterations", {})[op.output] = report["n_iters"]
        if not report["converged"]:
            return [f"{op.output}: converged is false"]
        if objective > best * (1.0 + OBJECTIVE_SLACK):
            return [f"{op.output}: objective {objective!r} above {best!r}, "
                    f"reached by the generating law or an independent search"]
        return []

    def _check_table(self, path):
        shared = _load_json(self.path("shared.json"))
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["condition", "d", "observed", "predicted", "residual"]:
            return [f"{path}: unexpected header {rows[0]}"]
        if [float(r[4]) for r in rows[1:]] != shared["residuals"]:
            return [f"{path}: residual column differs from the report"]
        return []

    def _check_analysis(self, path):
        shared = _load_json(self.path("shared.json"))
        payload = _load_json(path)
        p = shared["p"]
        for label, entry in shared["per_condition"].items():
            got = payload["per_condition"][label]
            alpha, c = entry["alpha"], entry["c"]
            floor = alpha * c**p if c else 0.0
            if (got["transition_point"] is None) != (c == 0) or (
                c and not math.isclose(got["transition_point"], 1.0 / c, rel_tol=1e-12)
            ):
                return [f"{path}: transition point of {label} is not 1/c"]
            if not math.isclose(got["asymptotic_loss"], floor, rel_tol=1e-12, abs_tol=0.0):
                return [f"{path}: asymptotic loss of {label} is not alpha*c**p"]
        return []

    def summary(self, passes):
        out = {}
        for kind, name, scale, unit in (
            ("fit_shared", "fit_shared_s", 1.0, "s"),
            ("fit", "fit_ms", 1e3, "ms"),
            ("fit_tail", "fit_tail_ms", 1e3, "ms"),
            ("fit_joint", "fit_joint_ms", 1e3, "ms"),
        ):
            value, n = _median_of(passes, kind)
            out[name] = (value * scale, unit, n)
        per_pass = [sum(t for k, t in one if k in ("report", "analyze")) for one in passes]
        out["report_ms"] = (float(np.median(per_pass)) * 1e3, "ms", len(per_pass))
        return out


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


class MonteCarlo(Workload):
    """Exponent uncertainty of a saturated and a barely saturated curve.

    The curves are the paper's fitted laws evaluated exactly on the grid,
    with alpha jittered by the seed; the replicates supply the noise.  A
    noisy draw of the curve itself can leave the exponent unidentified
    (one such draw made every replicate ten times slower), which would make
    the work per pass depend on the seed more than on the code.
    """

    name = "mc"
    # target_noise is deep in the capacity regime (1/c = 3.1 M pairs);
    # no_filter has the smallest c of the rows (1/c = 29 M pairs).
    CURVES = ("target_noise", "no_filter")

    def prepare(self):
        self.n_reps = 5 if self.tiny else 200
        self.inputs = {}
        for name in self.CURVES:
            alpha, c, p = ROW[name]
            alpha *= math.exp(0.1 * self.rng.standard_normal())
            d = np.array(GRID)
            y = power_law(alpha, c, p, d)
            lines = ["condition,d_millions,loss"]
            lines.extend(f"{name},{a!r},{b!r}" for a, b in zip(d.tolist(), y.tolist()))
            self.inputs[name] = self.path(f"mc-{name}.csv")
            _write(self.inputs[name], "\n".join(lines) + "\n")
        self.mc_seed = self.cli_seed()
        self.fit_seed = self.cli_seed()

    def ops(self):
        out = []
        for name, path in self.inputs.items():
            output = self.path(f"mc-{name}.json")
            argv = ["mc", "--input", path, "--seed", self.mc_seed, "--fit-seed", self.fit_seed,
                    "--noise-frac", repr(NOISE_FRAC), "--n-reps", str(self.n_reps), "--output", output]
            out.append(Op(f"mc_{name}", argv, output, units=self.n_reps))
        return out

    def check(self, op):
        payload = _load_json(op.output)
        q = payload["quantiles"]
        if not (math.isfinite(payload["mean_p"]) and q["q05"] <= q["q50"] <= q["q95"]):
            return [f"{op.output}: malformed summary"] * op.units
        self.counters.setdefault("converged", {})[op.output] = payload["n_converged"]
        missing = payload["n_reps"] - payload["n_converged"]
        return [f"{op.output}: replicate dropped or not converged"] * missing

    def summary(self, passes):
        times = [t for one in passes for k, t in one if k.startswith("mc_")]
        reps = self.n_reps * len(times)
        return {"mc_reps_per_s": (reps / sum(times) if times else 0.0, "1/s", len(times))}


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyz"
EXTRA_LETTERS = "äöüßабвгдежзиклмнопрстуфхцчшщыэюя"
FILTER_FRACTION = 0.5


def _pairs(path):
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            yield line.rstrip("\n").split("\t")


def _is_subsequence(short, long):
    it = iter(long)
    return all(word in it for word in short)


class Corpus(Workload):
    """Noise, filtering and sampling of a scored parallel corpus.

    Inputs are written and outputs checked one line at a time, so the
    harness holds little of the corpus and the process's peak memory is
    set by the commands.
    """

    name = "corpus"
    CHUNK = 1000

    def _vocabulary(self, size, extra_share):
        words = []
        for _ in range(size):
            length = int(self.rng.integers(2, 11))
            alphabet = EXTRA_LETTERS if self.rng.random() < extra_share else ASCII_LETTERS
            words.append("".join(alphabet[i] for i in self.rng.integers(0, len(alphabet), length)))
        return words

    def _sentences(self, vocabulary, n):
        """``n`` sentences of whole words, each just over 85 characters."""
        out = []
        for row in self.rng.integers(0, len(vocabulary), size=(n, 14)).tolist():
            words, length = [], -1
            for i in row:
                if length >= 85:
                    break
                words.append(vocabulary[i])
                length += len(vocabulary[i]) + 1
            out.append(" ".join(words))
        return out

    def prepare(self):
        self.n_pairs = 200 if self.tiny else 20_000
        self.sample_size = 20 if self.tiny else 1_000
        source_words = self._vocabulary(3000, 0.0)
        target_words = self._vocabulary(3000, 0.2)
        self.corpus = self.path("corpus.tsv")
        self.units = {"char_noise": 0, "word_delete": 0}
        with open(self.corpus, "w", encoding="utf-8", newline="") as fh:
            for start in range(0, self.n_pairs, self.CHUNK):
                n = min(self.CHUNK, self.n_pairs - start)
                sources = self._sentences(source_words, n)
                targets = self._sentences(target_words, n)
                for src, tgt, score in zip(sources, targets, self.rng.random(n).tolist()):
                    fh.write(f"{src}\t{tgt}\t{score!r}\n")
                    self.units["char_noise"] += len(src)
                    self.units["word_delete"] += len(tgt.split())
        self.noise_seed = self.cli_seed()
        self.sample_seed = self.cli_seed()

    def ops(self):
        src, seed = ["--input", self.corpus], ["--seed", self.noise_seed]
        corrupt = [
            ("char_noise", ["--side", "source"]),
            ("word_delete", ["--side", "target"]),
            ("pair_shuffle", []),
        ]
        out = []
        for kind, side in corrupt:
            output = self.path(f"{kind}.tsv")
            argv = ["corpus", "corrupt", "--kind", kind, *side, *seed, *src, "--output", output]
            out.append(Op(kind, argv, output))
        output = self.path("filter.tsv")
        out.append(Op("filter", ["corpus", "filter", "--fraction", repr(FILTER_FRACTION), *src,
                                 "--output", output], output))
        output = self.path("sample.tsv")
        out.append(Op("sample", ["corpus", "sample", "--size", str(self.sample_size), "--seed",
                                 self.sample_seed, *src, "--output", output], output))
        return out

    def check(self, op):
        problem = getattr(self, f"_check_{op.kind}")(op.output)
        return [f"{op.output}: {problem}"] if problem else []

    def _aligned(self, path):
        """Input and output pairs side by side; None marks a missing line."""
        return itertools.zip_longest(_pairs(self.corpus), _pairs(path))

    def _check_char_noise(self, path):
        replaced = 0
        for old, new in self._aligned(path):
            if old is None or new is None:
                return "pair count changed"
            if new[1:] != old[1:]:
                return "untouched side or score changed"
            if len(new[0]) != len(old[0]):
                return "character count of the corrupted side changed"
            replaced += sum(a != b for a, b in zip(old[0], new[0]))
        self.counters["chars_replaced"] = replaced
        self.counters["char_rate_effective"] = replaced / self.units["char_noise"]
        return None

    def _check_word_delete(self, path):
        deleted = 0
        for old, new in self._aligned(path):
            if old is None or new is None:
                return "pair count changed"
            if [new[0], new[2]] != [old[0], old[2]]:
                return "untouched side or score changed"
            words = old[1].split()
            kept = new[1].split(" ") if new[1] else []
            if " ".join(kept) != new[1] or not _is_subsequence(kept, words):
                return "kept words are not a subsequence of the input"
            deleted += len(words) - len(kept)
        self.counters["words_deleted"] = deleted
        return None

    def _check_pair_shuffle(self, path):
        shuffled, old_targets, new_targets = 0, [], []
        for old, new in self._aligned(path):
            if old is None or new is None:
                return "pair count changed"
            if [new[0], new[2]] != [old[0], old[2]]:
                return "a source or score moved"
            shuffled += new[1] != old[1]
            old_targets.append(hash(old[1]))
            new_targets.append(hash(new[1]))
        if sorted(old_targets) != sorted(new_targets):
            return "multiset of targets changed"
        self.counters["pairs_shuffled"] = shuffled
        return None

    def _check_filter(self, path):
        kept = self._subset(path)
        if kept is None:
            return "output is not an ordered subset of the input"
        if len(kept) != math.ceil(FILTER_FRACTION * self.n_pairs):
            return "kept pair count is not ceil(fraction * n)"
        lowest_kept, highest_dropped = math.inf, -math.inf
        for i, pair in enumerate(_pairs(self.corpus)):
            if i in kept:
                lowest_kept = min(lowest_kept, float(pair[2]))
            else:
                highest_dropped = max(highest_dropped, float(pair[2]))
        if highest_dropped > lowest_kept:
            return "a dropped pair outscores a kept one"
        return None

    def _check_sample(self, path):
        kept = self._subset(path)
        if kept is None:
            return "output is not an ordered subset of the input"
        if len(kept) != self.sample_size:
            return "sample size differs from --size"
        return None

    def _subset(self, path):
        """Input line numbers of the output's lines, or None when the output
        is not an ordered subset of the input."""
        position = {hash(tuple(pair)): i for i, pair in enumerate(_pairs(self.corpus))}
        indices = [position.get(hash(tuple(pair)), -1) for pair in _pairs(path)]
        if min(indices, default=0) < 0 or indices != sorted(set(indices)):
            return None
        return set(indices)

    def summary(self, passes):
        units = {
            "char_noise": (self.units["char_noise"], "char_noise_chars_per_s"),
            "word_delete": (self.units["word_delete"], "word_delete_words_per_s"),
            "pair_shuffle": (self.n_pairs, "pair_shuffle_pairs_per_s"),
            "filter": (self.n_pairs, "filter_pairs_per_s"),
            "sample": (self.n_pairs, "sample_pairs_per_s"),
        }
        out = {}
        for kind, (count, name) in units.items():
            value, n = _median_of(passes, kind)
            out[name] = (count / value if value else 0.0, "1/s", n)
        return out


WORKLOADS = {cls.name: cls for cls in (FitTable, MonteCarlo, Corpus)}
