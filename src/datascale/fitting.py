"""Least-squares estimation of scaling laws.

All fitters minimize squared residuals either in log-loss space (default;
residuals are relative errors, appropriate when losses span a large range)
or in linear space.

The power laws ``alpha * (1/d + c)**p`` are fitted by variable projection
(Golub & Pereyra, 1973): for fixed ``c`` and ``p`` the best ``alpha`` has a
closed form (:func:`_fit_alpha`), and in log space so does the best ``p`` for
fixed ``c`` (:func:`_log_line`).  The rest is bracketed 1-D searches: a grid
stage, then a refinement between the neighbours of the best cells
(:func:`_minimize`), over ``ln c`` for log :func:`fit_single` and over ``p``
for :func:`fit_joint` (``c = beta * g**(1/p)``).  :func:`fit_shared` and
linear :func:`fit_single` search ``p`` by Brent's method around a batched
search over each group's ``ln c`` (:func:`_shared_exponent`).  ``c`` lies in
``[1e-12, 1e12]`` or is 0 (below 1e-12 it is reported as 0) and ``p`` in
``[1e-12, 2]``.  The searches draw no random numbers and use elementwise
operations and last-axis sums only: a BLAS matmul can make a row's bits
depend on how many rows share the call.

Log :func:`fit_single` is one row of the batched search of
:func:`_log_fits`, which Monte Carlo runs on all its replicates.  A row of
the batch keeps the bits of a lone fit: besides taking only elementwise
operations and last-axis sums, it refines as many brackets as it has alone
with as many section points per step, stops at its own step, and compares
its best bracket with the ``c = 0`` endpoint on its own; rows with as many
brackets are refined together (:func:`_minimize`, :func:`_sections`).  The
rows go ``_BLOCK`` at a time, and their grid stage ``_CHUNK`` elements at a
time, so no temporary grows with the number of replicates: one unblocked
table of 200 replicates on 402 cells would take tens of MB.

:func:`fit_tail` runs a damped Gauss-Newton loop with adaptive
(Marquardt-style) damping from a data-driven seed plus log-normally perturbed
restarts (:func:`_restart_points`); the lowest objective wins, ties going to
the earliest restart.  The golden digests pin its results bit for bit, so its
operations keep their operands, their order and the library that computes
them: numpy's array ``exp`` and ``**``, the BLAS matmuls ``J.T @ r``,
``J.T @ J`` and ``r @ r`` on a C-contiguous ``(n, k)`` Jacobian, and
``np.linalg.solve``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ZERO_CAPACITY,
    Observation,
    LinearFit,
    PowerLaw,
    TailLaw,
    JointLawParams,
    capacity_constant,
    eval_law,
    eval_tail_law,
    observation_residual,
)
from .errors import (
    DomainError,
    DuplicateAbscissaError,
    InsufficientDataError,
    RankError,
    SchemaError,
)

LOSS_SPACES = ("log", "linear")

# Internal-parameter box keeping the tail fit's exp maps numerically safe.
_LOG_BOX = 300.0

# Search grids: ln c over [1e-12, 1e12] and c = 0 below; p over [1e-12, 2], denser near 0.
_P_MIN = 1e-12
_LN_C_GRID = np.concatenate([[-np.inf], np.linspace(math.log(ZERO_CAPACITY), math.log(1e12), 401)])
_P_GRID = 2.0 * np.linspace(math.sqrt(_P_MIN / 2.0), 1.0, 31) ** 2
_CHUNK = 2**14  # most elements of one temporary array of a grid table
_SECTION_POINTS = 128  # points evaluated per step of a batched refinement
_BLOCK = 16  # rows of one batched single-curve search: a few hundred kB of temporaries
# Inner ln c searches of a shared p: the grid stage's bracket tolerance, the
# slope in ln c per unit p allowed for beside a line through two optima, and
# the widest half-width tried before the grid is searched again.
_COARSE = 0.01
_SLOPE = 4.0
_WARM = 4.0


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the least-squares fitters.

    Args:
        loss_space: ``"log"`` (default) fits squared differences of log
            losses; ``"linear"`` fits plain squared differences.
        max_iters: Cap on the refinement steps of each power-law search, and
            on the iterations of each ``fit_tail`` restart.
        rel_tol: Power laws: a bracket closes once narrower than about
            ``max(rel_tol, 1e-15) * (1 + |x|)``, near float resolution at
            the least (``rel_tol**(2/3)`` for the ``ln c`` searches that only
            steer the search over a shared ``p``).  ``fit_tail``: relative
            objective decrease between accepted steps that ends the fit as
            converged.
        n_restarts: Power laws: grid local minima refined (at least 1), of
            ``ln c`` for log ``fit_single`` and of ``p`` otherwise.
            ``fit_tail``: initializations tried (the first is the
            data-driven seed, the rest log-normal perturbations of it).
        seed: Seed of ``fit_tail``'s perturbations, which fixes its result
            exactly; the power-law fits draw no random numbers.
    """

    loss_space: str = "log"
    max_iters: int = 2000
    rel_tol: float = 1e-10
    n_restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.loss_space not in LOSS_SPACES:
            raise DomainError(f"unknown loss space {self.loss_space!r}")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        if self.n_restarts < 0:
            raise DomainError("n_restarts must be non-negative")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a single-condition power-law or tail-law fit."""

    law: PowerLaw | TailLaw
    objective: float
    residuals: list[float]
    converged: bool
    n_iters: int


@dataclass(frozen=True)
class SharedFitResult:
    """Outcome of a multi-condition fit with one common exponent."""

    p: float
    per_condition: dict[str, tuple[float, float]]
    objective: float
    converged: bool

    def law(self, condition: str) -> PowerLaw:
        """The full power law for one condition under the shared exponent."""
        alpha, c = self.per_condition[condition]
        return PowerLaw(alpha, c, self.p)


@dataclass(frozen=True)
class JointFitResult:
    """Outcome of fitting (alpha, p) of the joint data/parameter law."""

    params: JointLawParams
    objective: float
    residuals: list[float]
    holdout_residuals: list[float]
    converged: bool
    n_iters: int


# ---------------------------------------------------------------------------
# Bracketed 1-D search
# ---------------------------------------------------------------------------


def _minimize(values, grid, objective, cfg: FitConfig):
    """Minimize a batch of 1-D functions over the range of an ascending grid.

    ``values`` holds each function's values on the grid, one row each, and
    ``objective(rows, x)`` maps ``x`` of shape ``(len(rows), m)`` to the
    values of the functions ``rows``.  A leading ``-inf`` grid point is an
    endpoint.  The brackets of :func:`_brackets` are refined by
    :func:`_sections`, the rows with as many brackets together: how many
    points a row evaluates per step depends only on its number of brackets,
    so each row gets the bits it gets alone.  Returns each row's best ``x``
    and value, whether its brackets closed, and its steps.
    """
    with np.errstate(all="ignore"):
        first = int(np.isinf(grid[0]))
        lo, x, hi, n = _brackets(values[:, first:], grid[first:], cfg.n_restarts)
        best, f_best = np.empty(len(x)), np.empty(len(x))
        closed, steps = np.empty(len(x), bool), np.empty(len(x), int)
        for k in sorted(set(n.tolist())):
            rows = np.flatnonzero(n == k)
            xk, fk, closed[rows], steps[rows] = _sections(
                lambda sub, points: objective(rows[sub], points), lo[rows, :k], x[rows, :k], hi[rows, :k], cfg
            )
            if first:
                xk = np.hstack([np.full((len(rows), 1), grid[0]), xk])
                fk = np.hstack([values[rows, :1], fk])
            at = (np.arange(len(rows)), fk.argmin(1))
            best[rows], f_best[rows] = xk[at], fk[at]
        return best, f_best, closed, steps


def _brackets(values, cells, n_restarts):
    """Brackets ``(lo, x, hi)`` between the neighbours of each row's best cell
    by ``values`` (NaN counts as infinite) and of its next best local minima,
    ``n_restarts`` in all (at least 1), and how many each row has: a row's
    columns past that hold no bracket."""
    fc = np.where(np.isnan(values), np.inf, values)
    edge = np.full((len(fc), 1), np.inf)
    left = np.hstack([edge, fc[:, :-1]])
    right = np.hstack([fc[:, 1:], edge])
    # a local minimum sits below a neighbour by more than rounding: flat runs hold none
    local = (fc <= left) & (fc <= right) & (np.maximum(left, right) - fc > 1e-9 * np.abs(fc))
    local[np.arange(len(fc)), fc.argmin(1)] = True
    n = np.maximum(1, np.minimum(n_restarts, local.sum(1)))
    i = np.argsort(np.where(local, fc, np.inf), axis=1, kind="stable")[:, : n.max()]
    return cells[np.maximum(i - 1, 0)], cells[i], cells[np.minimum(i + 1, len(cells) - 1)], n


def _sections(f, lo, x, hi, cfg: FitConfig):
    """Refine brackets ``[lo, hi]`` around ``x``, arrays of shape ``(rows,
    ...)``: evaluate each at evenly spaced points and keep the neighbours of
    the best.  The brackets of a row take ``max(4, min(64, _SECTION_POINTS //
    size))`` sections each, ``size`` being their number, and stop together,
    once all are narrower than ``max(rel_tol, 1e-15) * (1 + |x|)`` or after
    ``max_iters`` steps; each row stops on its own.  ``f(rows, points)`` maps
    the points of the rows ``rows``, of shape ``(len(rows), ..., m)``, to
    their values.  Returns each row's best points and values (``x`` and its
    value if it took no step), whether its brackets closed, and its steps."""
    shape, rows = x.shape, len(x)
    size = x.size // rows
    sections = max(4, min(64, _SECTION_POINTS // size))
    t = np.arange(sections + 1) / sections
    tol = max(cfg.rel_tol, 1e-15)
    best, f_best = np.empty((rows, size)), np.empty((rows, size))
    closed, steps = np.zeros(rows, bool), np.zeros(rows, int)
    live = np.arange(rows)
    lo, x, hi = lo.ravel(), x.ravel(), hi.ravel()
    fx = np.full(x.size, np.inf)
    at = np.arange(x.size)
    for step in range(cfg.max_iters + 1):
        shut = ~(hi - lo > tol * (1.0 + np.abs(x))).reshape(-1, size).any(1)
        if step == cfg.max_iters or shut.any():
            stop = shut | (step == cfg.max_iters)
            done = live[stop]
            best[done] = x.reshape(-1, size)[stop]
            f_best[done] = (fx if step else f(live, x.reshape(-1, *shape[1:]))).reshape(-1, size)[stop]
            closed[done], steps[done] = shut[stop], step
            live = live[~stop]
            if not live.size:
                return best.reshape(shape), f_best.reshape(shape), closed, steps
            keep = np.repeat(~stop, size)
            lo, x, hi, fx, at = lo[keep], x[keep], hi[keep], fx[keep], at[: keep.sum()]
        xs = lo[:, None] + (hi - lo)[:, None] * t
        fs = f(live, xs.reshape(len(live), *shape[1:-1], -1)).reshape(xs.shape)
        j = fs.argmin(1)
        fj = fs[at, j]
        x = np.where(fj < fx, xs[at, j], x)
        fx = np.minimum(fj, fx)
        j = np.minimum(np.maximum(j, 1), sections - 1)
        lo = xs[at, j - 1]
        hi = xs[at, j + 1]


def _brent(f, a, x, b, cfg: FitConfig):
    """Brent's method (*Algorithms for Minimization without Derivatives*,
    1973) for a scalar ``f`` on ``[a, b]`` from ``x``, until the bracket is
    narrower than about ``4 * max(rel_tol, 1e-15) * (1 + |x|)``: ``(x, f(x),
    closed, steps)``."""
    fx = fw = fv = float(f(x))
    w = v = x
    d = e = 0.0
    for steps in range(cfg.max_iters + 1):
        xm = 0.5 * (a + b)
        tol = max(cfg.rel_tol, 1e-15) * (1.0 + abs(x))
        closed = abs(x - xm) <= 2.0 * tol - 0.5 * (b - a)
        if closed or steps == cfg.max_iters:
            return x, fx, closed, steps
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = math.copysign(tol, xm - x)
        else:
            e = a - x if x >= xm else b - x
            d = (3.0 - math.sqrt(5.0)) / 2.0 * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = float(f(u))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _fit_alpha(u, p, target, w, log_space: bool):
    """Least-squares ``alpha`` of ``alpha * u**p`` against ``target`` (``ln y``
    in log space) along the last axis, each point weighted by ``w`` (1, or 0
    for padding); returns ``(alpha, objective)``, a NaN objective as inf."""
    if log_space:
        return _log_alpha(np.log(u), p, target, w)
    b = w * u**p
    alpha = (b * target).sum(-1) / (b * b).sum(-1)
    return alpha, _squares(w * target - alpha[..., None] * b)


def _log_alpha(ln_u, p, ln_y, w):
    """:func:`_fit_alpha` in log space, from ``ln u``."""
    r = ln_y - p * ln_u
    ln_alpha = (w * r).sum(-1) / w.sum(-1)
    return np.exp(ln_alpha), _squares(w * (r - ln_alpha[..., None]))


def _squares(r):
    """The sum of squares of ``r`` along the last axis, NaN as inf."""
    objective = (r * r).sum(-1)
    return np.where(np.isnan(objective), np.inf, objective)


def _log_parts(inv_d, ln_c):
    """What the log-space objective takes of the sizes and of ``c``, for each
    ``ln c``: ``ln u = ln(1/d + c)`` over the points (last axis), its centred
    form ``x`` and ``sxx``, the sum of the squares of ``x``."""
    ln_u = np.log(inv_d + np.exp(ln_c)[..., None])
    x = ln_u - ln_u.mean(-1, keepdims=True)
    return ln_u, x, (x * x).sum(-1)


def _centred_sums(ln_y, parts):
    """The sums ``(sxy, sxx, syy)`` for each row of ``ln_y`` and each ``ln c``
    of the :func:`_log_parts` ``parts``, over the points of products of the
    centred ``x`` and ``ln y``: the least-squares slope of ``ln y`` on ``x``
    is ``sxy / sxx``, and at slope ``p`` the objective is ``syy - 2 p sxy +
    p**2 sxx``."""
    _, x, sxx = parts
    ln_y = ln_y - ln_y.mean(-1, keepdims=True)
    return (x * ln_y[..., None, :]).sum(-1), sxx, (ln_y * ln_y).sum(-1)


def _log_line(ln_y, parts):
    """Least-squares ``ln y = ln alpha + p * ln(1/d + c)`` for each row of
    ``ln_y`` and each ``ln c`` of the :func:`_log_parts` ``parts``, with ``p``
    clipped to ``[1e-12, 2]``: ``(p, alpha, objective)``."""
    sxy, sxx, _ = _centred_sums(ln_y, parts)
    p = np.clip(sxy / sxx, _P_MIN, 2.0)
    return (p, *_log_alpha(parts[0], p[..., None], ln_y[..., None, :], np.ones(ln_y.shape[-1])))


def _log_fits(d, y, cfg: FitConfig):
    """Log-space fits of ``alpha * (1/d + c)**p`` to each row of losses ``y``
    at sizes ``d``, each with the bits of a lone fit: a search over ``ln c``
    (:func:`_minimize`) with ``p`` the clipped slope of :func:`_log_line`,
    ``_BLOCK`` rows at a time, sharing the grid's :func:`_log_parts`.
    Returns each row's ``p``, ``alpha``, ``ln c``, whether its brackets
    closed, and its steps."""
    inv_d = 1.0 / d
    p, alpha, ln_c = np.empty(len(y)), np.empty(len(y)), np.empty(len(y))
    closed, steps = np.empty(len(y), bool), np.empty(len(y), int)
    with np.errstate(all="ignore"):
        grid = _log_parts(inv_d, _LN_C_GRID)
        chunk = max(1, _CHUNK // grid[0].size)  # rows of one grid table
        for start in range(0, len(y), _BLOCK):
            block = slice(start, start + _BLOCK)
            ln_y = np.log(y[block])
            ln_c[block], _, closed[block], steps[block] = _minimize(
                np.concatenate([_log_line(ln_y[i : i + chunk], grid)[2] for i in range(0, len(ln_y), chunk)]),
                _LN_C_GRID,
                lambda rows, points: _log_line(ln_y[rows], _log_parts(inv_d, points))[2],
                cfg,
            )
            line = _log_line(ln_y, _log_parts(inv_d, ln_c[block, None]))
            p[block], alpha[block] = line[0][:, 0], line[1][:, 0]
    return p, alpha, ln_c, closed, steps


def _shared_exponent(arrays, cfg: FitConfig):
    """Least-squares ``p`` shared by the groups ``arrays`` of ``(d, y)``: a
    search over ``p`` around a batched search over each group's ``ln c``.

    The grid stage takes each group's best ``ln c`` cell at each ``p`` cell
    and refines it to ``_COARSE``.  Brent's method then refines the best
    ``p`` cells.  Each of its evaluations starts every group's ``ln c``
    where a line through its optima at the two nearest ``p`` searched puts
    it, brackets it as widely as that line may err, and closes the bracket
    at ``rel_tol**(2/3)``: the objective's error is quadratic in it, so near
    ``rel_tol**(4/3)``.  A bracket whose optimum reaches its edge is widened up
    to ``_WARM``, and beyond that the ``ln c`` grid is searched again.  At
    the ``p`` found each group's optimum is refined to ``rel_tol``, or the
    grid searched again if one of its cells beats it.  Returns ``p``, the
    groups' ``alpha`` and ``c``, whether every bracket closed, and the steps
    over ``p``.
    """
    log_space = cfg.loss_space == "log"
    k = len(arrays)
    n = max(len(d) for d, _ in arrays)
    inv_d = np.ones((k, n))
    target = np.zeros((k, n))
    weight = np.zeros((k, n))
    for i, (d, y) in enumerate(arrays):
        inv_d[i, : len(d)] = 1.0 / d
        target[i, : len(d)] = np.log(y) if log_space else y
        weight[i, : len(d)] = 1.0
    if log_space:  # a group's objective on the c grid is syy - 2 p sxy + p**2 sxx
        sums = [_centred_sums(np.log(y), _log_parts(1.0 / d, _LN_C_GRID)) for d, y in arrays]
        sxy, sxx, syy = (np.array(v) for v in zip(*sums))
    else:  # and here <y, y> - <y, b>**2 / <b, b> with b = (1/d + c)**p
        u_grid = inv_d[:, None] + np.exp(_LN_C_GRID)[:, None]
        yy = (target * target).sum(-1)

    def on_grid(ps):
        """Every group's objective on the ln c grid at each of ``ps``: shape ``(len(ps), k, cells)``."""
        p = ps[:, None, None]
        if log_space:
            return syy[:, None] - p * (2.0 * sxy - p * sxx)
        b = weight[:, None] * u_grid ** p[..., None]
        by = (b * target[:, None]).sum(-1)
        return yy[:, None] - by * by / (b * b).sum(-1)

    def objective(rows, p):
        """The objectives of the groups ``rows`` at ``p``, as a function of their ``ln c``."""
        return lambda ln_c: _fit_alpha(inv_d[rows, None] + np.exp(ln_c)[..., None], p, target[rows, None],
                                       weight[rows, None], log_space)[1]

    def search(f, lo, x, hi, cfg):
        """Refine the brackets of every group in ``f`` together, to one stopping step: their best
        ``ln c`` and values, and whether every bracket closed."""
        (x,), (fx,), (closed,), _ = _sections(lambda _, ln_c: f(ln_c[0])[None], lo[None], x[None], hi[None], cfg)
        return x, fx, bool(closed)

    def grid_search(ps, cfg):
        """Every group's ln c and objective at each of ``ps``, flattened: its best cell of the ln c grid
        refined, or c = 0; and whether every bracket closed."""
        cells = k * len(_LN_C_GRID) * (1 if log_space else n)  # of the grid table at one p
        chunks = np.array_split(ps, min(len(ps), -(-len(ps) * cells // _CHUNK)))
        tables = (np.where(np.isnan(v), np.inf, v) for v in map(on_grid, chunks))
        best = [(v[..., 1:].argmin(-1) + 1, v[..., 0].copy()) for v in tables]  # finite cell, and c = 0
        i, zero = (np.concatenate(v).ravel() for v in zip(*best))
        rows = np.tile(np.arange(k), len(ps))
        p = np.repeat(ps, k)[:, None, None]
        ln_c = np.empty((len(rows), 1))
        values = np.empty((len(rows), 1))
        closed = True
        for r in np.array_split(np.arange(len(rows)), -(-len(rows) * 5 * n // _CHUNK)):  # 5 points at least
            lo = _LN_C_GRID[np.maximum(i[r] - 1, 1), None]
            x = _LN_C_GRID[i[r], None]
            hi = _LN_C_GRID[np.minimum(i[r] + 1, len(_LN_C_GRID) - 1), None]
            ln_c[r], values[r], done = search(objective(rows[r], p[r]), lo, x, hi, cfg)
            closed = closed and done
        at_zero = zero <= values[:, 0]
        ln_c[at_zero] = -np.inf
        values[at_zero, 0] = zero[at_zero]
        return ln_c, values, closed

    def refine(f, start, width, cfg):
        """Search each group's ln c within ``width`` of ``start`` and the c range; and whether an
        optimum reached an edge inside the range, beyond which it may lie."""
        lo = np.maximum(start - width, _LN_C_GRID[1])
        hi = np.minimum(start + width, _LN_C_GRID[-1])
        ln_c, fx, closed = search(f, lo, start, hi, cfg)
        low = (ln_c < lo + 0.1 * width) & (lo > _LN_C_GRID[1])
        high = (ln_c > hi - 0.1 * width) & (hi < _LN_C_GRID[-1])
        return ln_c, fx, closed, (low | high).any()

    inner = replace(cfg, rel_tol=cfg.rel_tol ** (2.0 / 3.0))
    optima = {}  # each p searched: every group's ln c, and how far from its optimum it may lie
    searched = []  # the keys of optima, in an order that breaks ties in distance

    def profile(p):
        """The pooled objective at ``p``."""
        q1, q2 = (searched[i] for i in np.argsort(np.abs(np.array(searched) - p), kind="stable")[:2])
        (c1, e1), (c2, e2) = optima[q1], optima[q2]
        t = (p - q1) / (q1 - q2)
        move = t * (c1 - c2)
        start = np.clip(c1 + move, _LN_C_GRID[1], _LN_C_GRID[-1])
        width = np.minimum(_WARM, e1 + abs(t) * (e1 + e2) + 0.5 * abs(move) + _SLOPE * abs(p - q1))
        while True:
            ln_c, fx, _, edge = refine(objective(slice(None), p), start, width, inner)
            if not edge or width.min() == _WARM:
                break
            width = np.minimum(_WARM, 32.0 * width)
        if edge:
            ln_c, fx, _ = grid_search(np.array([p]), inner)
        if p not in optima:
            searched.append(p)
        optima[p] = (np.maximum(ln_c, _LN_C_GRID[1]), 0.0)  # c = 0 is followed from the grid's low end
        return fx.sum()

    with np.errstate(all="ignore"):
        ln_c, values, _ = grid_search(_P_GRID, replace(cfg, rel_tol=_COARSE))
        ln_c = np.maximum(ln_c, _LN_C_GRID[1]).reshape(-1, k, 1)
        optima.update((p, (c, _COARSE)) for p, c in zip(_P_GRID.tolist(), ln_c))
        searched.extend(optima)
        lo, x, hi, _ = _brackets(values.reshape(-1, k).sum(1)[None], _P_GRID, cfg.n_restarts)
        brackets = zip(lo[0].tolist(), x[0].tolist(), hi[0].tolist())
        runs = [_brent(profile, a, x, b, cfg) for a, x, b in brackets]
        p = min(runs, key=lambda run: run[1])[0]
        f = objective(slice(None), p)
        start = optima[p][0]  # within its bracket's width, inner.rel_tol * (1 + |ln c|), of the optimum
        ln_c, fx, inner_converged, edge = refine(f, start, 4.0 * inner.rel_tol * (1.0 + np.abs(start)), cfg)
        if edge or (on_grid(np.array([p]))[0, :, 1:].min(1) < fx[:, 0] * (1.0 - 1e-9)).any():
            ln_c, fx, inner_converged = grid_search(np.array([p]), cfg)
        ln_c[f(np.full((k, 1), -np.inf)) <= fx] = -np.inf
        alpha, _ = _fit_alpha(inv_d + np.exp(ln_c), p, target, weight, log_space)
    converged = inner_converged and all(run[2] for run in runs)
    return p, alpha.tolist(), np.exp(ln_c[:, 0]).tolist(), converged, max(run[3] for run in runs)


# ---------------------------------------------------------------------------
# Damped Gauss-Newton engine (tail law)
# ---------------------------------------------------------------------------


def _clamped_exp(v: float) -> float:
    return math.exp(min(max(v, -_LOG_BOX), _LOG_BOX))


def _gauss_newton(model, residual, jacobian, theta0, max_iters, rel_tol):
    """Minimize ``sum(residual(model(theta))**2)`` from ``theta0``, given
    ``jacobian(theta, m)``, the Jacobian of the model in the residual's loss
    space at ``theta`` where ``m = model(theta)``.

    The residual's Jacobian is the negated model Jacobian ``J``, so the step
    solves ``(J.T @ J + lam * D) step = J.T @ r``.  Returns ``(theta,
    objective, converged, n_iters)``.  Convergence means either an accepted
    step decreased the objective by a relative amount at most ``rel_tol``,
    the gradient vanished, or no damping level could find a downhill step
    (numerical stationarity).  Exhausting ``max_iters`` leaves ``converged``
    False.
    """
    theta = np.array(theta0, dtype=float)
    m = model(theta)
    r = residual(m)
    f = float(r @ r)
    if not math.isfinite(f):
        return theta, f, False, 0
    lam = 1e-3
    converged = False
    n_iters = 0
    for n_iters in range(1, max_iters + 1):
        J = jacobian(theta, m)
        g = J.T @ r
        g_tol = 1e-14 * max(1.0, f)
        if all(abs(v) <= g_tol for v in g.tolist()):  # False when g holds a NaN
            converged = True
            break
        A = J.T @ J
        damping = np.diag(np.maximum(A.diagonal(), 1e-12))
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(A + lam * damping, g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            theta_new = theta + step
            m_new = model(theta_new)
            r_new = residual(m_new)
            f_new = float(r_new @ r_new)
            if math.isfinite(f_new) and f_new <= f:
                rel_dec = (f - f_new) / max(f, 1e-300)
                theta, m, r, f = theta_new, m_new, r_new, f_new
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if rel_dec <= rel_tol:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e15:
                break
        if not accepted:
            converged = True  # no downhill step at any damping: numerically stationary
        if converged:
            break
    return theta, f, converged, n_iters


def _restart_points(base, lower, upper, cfg: FitConfig) -> np.ndarray:
    """Initial points of the ``max(1, n_restarts)`` restarts, one per row.

    Row 0 is ``base``; each later row multiplies ``base`` by log-normal
    factors (one ``normal(0, 0.5)`` draw per entry from a generator seeded
    by ``cfg.seed``).  Every row is clipped to ``[lower, upper]``; the
    data-driven seeds already lie in those boxes, so row 0 stays ``base``.
    """
    base = np.asarray(base, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    points = [base]
    for _ in range(1, max(1, cfg.n_restarts)):
        points.append(base * np.exp(rng.normal(0.0, 0.5, size=len(base))))
    return np.clip(points, lower, upper)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


def _arrays(obs: list[Observation], loss_space: str) -> tuple[np.ndarray, np.ndarray]:
    """Sizes and losses of ``obs``.  Only log-perplexities are accepted:
    every law fitted here decreases with data, while BLEU rises, and an
    :class:`Observation` of log-perplexity already holds a positive loss.
    In the linear loss space the sum of squared losses must be finite."""
    for o in obs:
        if o.metric != "log_perplexity":
            raise SchemaError(
                f"condition {o.condition!r} holds {o.metric} scores, which rise with "
                "data; only log_perplexity can be fitted with a decreasing law"
            )
    d = np.array([o.d_millions for o in obs], dtype=float)
    y = np.array([o.loss for o in obs], dtype=float)
    return d, _linear_losses(y) if loss_space == "linear" else y


def _linear_losses(y: np.ndarray) -> np.ndarray:
    """``y``, unless the sum of its squares overflows, which the linear loss
    space cannot fit."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(y * y)):
            raise DomainError(
                f"losses up to {y.max():g} are too large for the linear loss space: "
                "their squares overflow; fit them in the log loss space"
            )
    return y


def _single_group_arrays(obs: list[Observation], loss_space: str) -> tuple[np.ndarray, np.ndarray]:
    if len(obs) < 4:
        raise InsufficientDataError(f"need at least 4 observations, got {len(obs)}")
    conditions = {o.condition for o in obs}
    if len(conditions) > 1:
        raise SchemaError(f"observations span multiple conditions: {sorted(conditions)}")
    d, y = _arrays(obs, loss_space)
    if len(set(d.tolist())) != len(d):
        raise DuplicateAbscissaError("observations share a dataset size")
    return d, y


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    """Least-squares ``(slope, intercept)`` of ``y`` on ``x``; None when all
    ``x`` are equal."""
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0:
        return None
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    return slope, float(y.mean() - slope * x.mean())


# ---------------------------------------------------------------------------
# Power-law fits
# ---------------------------------------------------------------------------


def _residuals(law: PowerLaw, d, y, loss_space: str) -> np.ndarray:
    """Residuals of losses ``y`` at sizes ``d`` under ``law`` in ``loss_space``."""
    m = eval_law(law, d)
    return np.log(y) - np.log(m) if loss_space == "log" else y - m


def fit_single(obs: list[Observation], cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit one power law to observations of a single condition.

    Args:
        obs: At least 4 observations of one condition with distinct sizes.
        cfg: Fit configuration.

    Returns:
        The least-squares law found.  ``converged`` is False when a search
        bracket did not close within ``max_iters`` steps; the result is
        still returned so callers can inspect it.

    Raises:
        InsufficientDataError: Fewer than 4 observations.
        DuplicateAbscissaError: Two observations share a size.
    """
    d, y = _single_group_arrays(obs, cfg.loss_space)
    ((law, converged, n_iters),) = _fit_laws(d, y[None], cfg)
    r = _residuals(law, d, y, cfg.loss_space)
    return FitResult(law, float((r * r).sum()), r.tolist(), converged, n_iters)


def _fit_laws(d, y, cfg: FitConfig):
    """:func:`fit_single` on each row of losses ``y`` at sizes ``d``, bit for
    bit: each row's law, whether its search converged, and its steps, in row
    order, raising what ``fit_single`` raises on the first row it rejects.
    Log space searches every row in one batch (:func:`_log_fits`); linear
    space one row at a time, as its search over ``p`` is scalar."""
    if cfg.loss_space == "log":
        p, alpha, ln_c, converged, n_iters = _log_fits(d, y, cfg)
        fits = zip(p.tolist(), alpha.tolist(), map(math.exp, ln_c.tolist()), converged.tolist(), n_iters.tolist())
    else:
        fits = (_shared_exponent([(d, _linear_losses(row))], cfg) for row in y)
        fits = ((p, alpha, c, ok, n) for p, (alpha,), (c,), ok, n in fits)
    for p, alpha, c, converged, n_iters in fits:
        yield PowerLaw(alpha, 0.0 if c < ZERO_CAPACITY else c, p), converged, n_iters


def fit_shared(
    groups: dict[str, list[Observation]], cfg: FitConfig = FitConfig()
) -> SharedFitResult:
    """Fit all conditions jointly with one common exponent.

    Minimizes the pooled squared residual over ``p`` plus a per-condition
    ``(alpha, c)`` pair: a search over ``p`` around one batched search over
    every condition's ``c``, with each ``alpha`` in closed form.  The
    reported objective is recomputed condition by condition from the final
    laws.  With exactly one group the optimum agrees with :func:`fit_single`
    up to the search tolerance, not bit for bit.

    Args:
        groups: Map from condition label to that condition's observations;
            every group must satisfy the :func:`fit_single` preconditions.
        cfg: Fit configuration.
    """
    if not groups:
        raise InsufficientDataError("no condition groups given")
    labels = sorted(groups)
    arrays = [_single_group_arrays(groups[label], cfg.loss_space) for label in labels]
    p, alphas, cs, converged, _ = _shared_exponent(arrays, cfg)
    laws = {label: PowerLaw(a, 0.0 if c < ZERO_CAPACITY else c, p) for label, a, c in zip(labels, alphas, cs)}
    residuals = [_residuals(law, d, y, cfg.loss_space) for law, (d, y) in zip(laws.values(), arrays)]
    objective = sum(float((r * r).sum()) for r in residuals)
    per_condition = {label: (law.alpha, law.c) for label, law in laws.items()}
    return SharedFitResult(p, per_condition, objective, converged)


def fit_joint(
    obs: list[Observation],
    fixed: tuple[float, float, float, float],
    cfg: FitConfig = FitConfig(),
    hold_out: Sequence[tuple[int, int]] = (),
) -> JointFitResult:
    """Fit (alpha, p) of the joint law with the quartet ``fixed`` supplied.

    For each ``p`` the capacity constants ``c = beta * g**(1/p)`` are known
    and ``alpha`` has a closed form, so the fit is a search over ``p``.

    Args:
        obs: Observations, each carrying encoder/decoder parameter counts.
        fixed: ``(beta, p_e, p_d, l_inf)`` of the parameter scaling law.
        cfg: Fit configuration.
        hold_out: Parameter-count shapes excluded from fitting; their
            residuals are reported separately for out-of-sample checks.

    Raises:
        SchemaError: An observation lacks parameter counts.
        InsufficientDataError: Fewer than 4 observations remain to fit.
    """
    beta, p_e, p_d, l_inf = (float(v) for v in fixed)
    JointLawParams(1.0, 1.0, beta, p_e, p_d, l_inf)  # validates the quartet
    for o in obs:
        if o.shape is None:
            raise SchemaError(f"observation at d={o.d_millions} lacks parameter counts")

    held = set((int(a), int(b)) for a, b in hold_out)
    fit_obs = [o for o in obs if o.shape not in held]
    out_obs = [o for o in obs if o.shape in held]
    if len(fit_obs) < 4:
        raise InsufficientDataError(f"need at least 4 observations to fit, got {len(fit_obs)}")

    _arrays(out_obs, cfg.loss_space)  # held-out rows get residuals too
    d, y = _arrays(fit_obs, cfg.loss_space)
    ln_g = np.array([-p_e * np.log(o.n_enc) - p_d * np.log(o.n_dec) for o in fit_obs])
    if l_inf > 0:
        ln_g = np.logaddexp(ln_g, np.log(l_inf))
    log_space = cfg.loss_space == "log"
    target = np.log(y) if log_space else y

    def fit_alpha(p):
        u = 1.0 / d + np.exp(math.log(beta) + ln_g / p[..., None])
        return _fit_alpha(u, p[..., None], target, np.ones(len(d)), log_space)

    with np.errstate(all="ignore"):
        values = fit_alpha(_P_GRID[None])[1]
    (p,), _, (converged,), (n_iters,) = _minimize(values, _P_GRID, lambda _, x: fit_alpha(x)[1], cfg)
    alpha = float(fit_alpha(np.array([p]))[0][0])
    p = float(p)
    params = JointLawParams(alpha=alpha, p=p, beta=beta, p_e=p_e, p_d=p_d, l_inf=l_inf)

    def law_residuals(subset):
        return [
            observation_residual(
                PowerLaw(alpha, capacity_constant(params, o.n_enc, o.n_dec), p), o, cfg.loss_space
            )
            for o in subset
        ]

    residuals = law_residuals(fit_obs)
    return JointFitResult(
        params=params,
        objective=float(sum(v * v for v in residuals)),
        residuals=residuals,
        holdout_residuals=law_residuals(out_obs),
        converged=bool(converged),
        n_iters=int(n_iters),
    )


# ---------------------------------------------------------------------------
# Tail law fit
# ---------------------------------------------------------------------------


def fit_tail(obs: list[Observation], d_min: float, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit ``gamma * (1/d)**q + b`` to observations with ``d >= d_min``.

    Raises:
        InsufficientDataError: Fewer than 3 qualifying observations.
    """
    subset = [o for o in obs if o.d_millions >= d_min]
    if len(subset) < 3:
        raise InsufficientDataError(
            f"need at least 3 observations with d >= {d_min}, got {len(subset)}"
        )
    d, y = _arrays(subset, cfg.loss_space)
    log_space = cfg.loss_space == "log"
    ln_d, ln_y = np.log(d), np.log(y)

    def residual(m):
        return ln_y - np.log(m) if log_space else y - m

    def unpack(theta):
        return tuple(map(_clamped_exp, theta.tolist()))

    def model(theta):
        gamma, q, b = unpack(theta)
        return gamma * d**-q + b

    def jacobian(theta, m):
        gamma, q, b = unpack(theta)
        decay = gamma * d**-q
        J = np.empty((len(d), 3))
        J[:, 0] = decay
        J[:, 1] = -decay * ln_d * q
        J[:, 2] = b
        if log_space:
            J /= m[:, None]
        return J

    # Seed by OLS of loss on 1/d (exact for q = 1), clipped into the
    # (gamma, q, b) box that the perturbed restarts are clipped to as well.
    inv_d = 1.0 / d
    slope, intercept = _ols(inv_d, y) or (1.0, float(y.mean() - inv_d.mean()))
    lower, upper = (1e-8, 1e-3, ZERO_CAPACITY), (1e8, 10.0, 1e8)
    seed = np.clip([slope, 1.0, intercept], lower, upper)
    seeds = [np.log(point) for point in _restart_points(seed, lower, upper, cfg)]

    best = None  # lowest objective, ties to the earliest; overflows rejected silently
    with np.errstate(over="ignore"):
        for theta0 in seeds:
            result = _gauss_newton(model, residual, jacobian, theta0, cfg.max_iters, cfg.rel_tol)
            if best is None or result[1] < best[1]:
                best = result
    theta, _, converged, n_iters = best
    gamma, q, b = unpack(theta)
    law = TailLaw(gamma=gamma, q=q, b=0.0 if b < ZERO_CAPACITY else b)
    r = residual(eval_tail_law(law, d))
    return FitResult(law, float(r @ r), [float(v) for v in r], converged, n_iters)


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------


def fit_linear(x, y) -> LinearFit:
    """Ordinary least squares of ``y`` on ``x`` with R^2.

    Raises:
        SchemaError: Mismatched lengths.
        InsufficientDataError: Fewer than 2 points.
        RankError: All ``x`` identical.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise SchemaError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise InsufficientDataError("need at least 2 points")
    line = _ols(x, y)
    if line is None:
        raise RankError("all x values are identical")
    slope, intercept = line
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return LinearFit(slope=slope, intercept=intercept, r2=r2)
