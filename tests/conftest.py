"""Shared fixtures: benchmark coefficient families, curve synthesis, the
grid-search oracle the fitters are checked against, and the one-draw-at-a-time
random stream the corpus noise is checked against."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

import datascale as ds
from datascale.corpus import _GOLDEN, _MASK64, _mix64

# Benchmark coefficient rows (condition, alpha, c, p): four families of
# training setups, each family sharing one exponent.  They span the
# coefficient ranges this tool targets and anchor the round-trip tests.
ARCHITECTURE_BLOCK = [
    ("encoder_decoder", 1.969, 0.057, 0.285),
    ("decoder_only", 1.817, 0.11, 0.285),
    ("hybrid_lstm", 2.011, 0.078, 0.285),
]
NOISE_BLOCK = [
    ("no_noise", 1.969, 0.064, 0.296),
    ("source_noise", 2.222, 0.067, 0.296),
    ("target_noise", 2.772, 0.323, 0.296),
]
FILTERING_BLOCK = [
    ("no_filter", 2.501, 0.034, 0.278),
    ("cds", 2.235, 0.054, 0.278),
    ("bicleaner", 2.130, 0.064, 0.278),
]
BACKTRANSLATION_BLOCK = [
    ("bt_2l6l", 2.343, 0.059, 0.198),
    ("bt_6l6l", 2.288, 0.054, 0.198),
    ("bt_32l6l", 2.251, 0.040, 0.198),
    ("bt_64l6l", 2.224, 0.037, 0.198),
    ("parallel", 1.196, 0.048, 0.271),
]
BENCHMARK_ROWS = ARCHITECTURE_BLOCK + NOISE_BLOCK + FILTERING_BLOCK + BACKTRANSLATION_BLOCK

# Doubling grid of dataset sizes (millions): 1, 2, 4, ..., 512.
DOUBLING_GRID = [2.0**k for k in range(10)]


def curve_observations(law, d_grid, condition="curve", noise_frac=0.0, rng=None):
    """Observations on an exact curve, optionally with multiplicative noise."""
    rows = []
    for d in d_grid:
        loss = ds.eval_law(law, float(d))
        if noise_frac:
            loss *= 1.0 + noise_frac * rng.standard_normal()
        rows.append(ds.Observation(condition=condition, d_millions=float(d), loss=float(loss)))
    return rows


def law_size_sweep(seed, n=2000):
    """``n`` seeded ``(law, d)`` pairs: laws over the ranges the fitters
    search (one in five with ``c = 0``), sizes from 1e-4 to 1e6 millions."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        c = 0.0 if i % 5 == 0 else 10.0 ** rng.uniform(-6.0, 1.0)
        law = ds.PowerLaw(10.0 ** rng.uniform(-3.0, 3.0), c, rng.uniform(1e-3, 2.0))
        yield law, 10.0 ** rng.uniform(-4.0, 6.0)


class SplitMix64:
    """The per-pair random stream of :mod:`datascale.corpus`, one draw at a
    time: the scalar oracle for ``corpus._streams``, and the generator of
    the corpus tests' inputs.

    Streams for distinct ``(seed, index)`` keys are derived through the
    SplitMix64 finalizer, so per-item randomness never depends on how many
    other items were processed.
    """

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK64

    @classmethod
    def for_item(cls, seed: int, index: int) -> "SplitMix64":
        return cls(_mix64((seed + (index + 1) * _GOLDEN) & _MASK64))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        return self.next_u64() % n


# Brute-force verification oracle: an independent upper bound on the fit
# objective, which the optimizer must never exceed.


@dataclass(frozen=True)
class GridSpec:
    """Exhaustive-search grid over power-law coefficients.

    Axis values are ``n`` evenly spaced points across each inclusive range
    (a single point when ``n == 1``).
    """

    alpha_range: tuple[float, float]
    c_range: tuple[float, float]
    p_range: tuple[float, float]
    n_alpha: int
    n_c: int
    n_p: int
    loss_space: str = "log"

    def __post_init__(self):
        if self.loss_space not in ("log", "linear"):
            raise ds.DomainError(f"unknown loss space {self.loss_space!r}")
        if min(self.n_alpha, self.n_c, self.n_p) < 1:
            raise ds.DomainError("grid needs at least one point per axis")
        if not 0 < self.alpha_range[0] <= self.alpha_range[1]:
            raise ds.DomainError("alpha range must be positive and ordered")
        if not 0 <= self.c_range[0] <= self.c_range[1]:
            raise ds.DomainError("c range must be non-negative and ordered")
        if not 0 < self.p_range[0] <= self.p_range[1] <= 2:
            raise ds.DomainError("p range must lie in (0, 2] and be ordered")

    def axes(self):
        return (
            np.linspace(*self.alpha_range, self.n_alpha),
            np.linspace(*self.c_range, self.n_c),
            np.linspace(*self.p_range, self.n_p),
        )


@dataclass(frozen=True)
class GridOracleResult:
    """Best grid point found by :func:`grid_oracle`."""

    law: ds.PowerLaw
    objective: float
    n_evaluations: int


def grid_oracle(obs, grid):
    """Exhaustively evaluate the fit objective over a coefficient grid.

    Every grid point is evaluated exactly once (``n_evaluations`` counts
    them), and ties keep the earliest point in iteration order.
    """
    d = np.array([o.d_millions for o in obs], dtype=float)
    y = np.array([o.loss for o in obs], dtype=float)
    best_law, best_obj, n_evaluations = None, math.inf, 0
    for alpha, c, p in itertools.product(*grid.axes()):
        law = ds.PowerLaw(float(alpha), float(c), float(p))
        m = ds.eval_law(law, d)
        r = np.log(y) - np.log(m) if grid.loss_space == "log" else y - m
        obj = float(r @ r)
        n_evaluations += 1
        if obj < best_obj:
            best_law, best_obj = law, obj
    return GridOracleResult(law=best_law, objective=best_obj, n_evaluations=n_evaluations)
