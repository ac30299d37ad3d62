"""Least-squares estimation of scaling laws.

All fitters minimize squared residuals either in log-loss space (default;
residuals are relative errors, appropriate when losses span a large range)
or in linear space.  Each returns the residuals of its final law, evaluated
on arrays (:func:`_residuals`), and their sum of squares as its objective:
reports print them as they are, and tables evaluate the law on arrays too.

The power laws ``alpha * (1/d + c)**p`` are fitted by variable projection
(Golub & Pereyra, 1973): for fixed ``c`` and ``p`` the best ``alpha`` has a
closed form (:func:`_fit_alpha`), and in log space so does the best ``p`` for
fixed ``c`` (:func:`_log_line`).  The rest is bracketed 1-D searches: a grid
stage, then a refinement between the neighbours of the best cell
(:func:`_minimize`), over ``ln c`` for log :func:`fit_single` and over ``p``
for :func:`fit_joint` (``c = beta * g**(1/p)``).  ``c`` lies in ``[1e-12,
1e12]`` or is 0 (below 1e-12 it is reported as 0) and ``p`` in ``[1e-12,
2]``.  No fit draws random numbers, and these searches use elementwise
operations and sums only, the log-space ones over a first axis of sizes in
numpy's own order (:func:`_size_sum`): a BLAS matmul can make a row's bits
depend on how many rows share the call.

:func:`fit_shared`, linear :func:`fit_single` and log :func:`fit_tail` search
an exponent and, per group, a log offset: ``p`` and each condition's ``ln c``
(:func:`_shared_exponent`), or ``ln q`` and ``ln rho`` (:func:`_tail_log`).
One nested search does both (:func:`_profiled`): Brent's method over the
exponent, from the best cell of a grid stage, on the profile that the inner
searches give.  Each starts on the line through the optima at the two
nearest exponents searched, in a bracket as wide as that line may err, and
closes at ``rel_tol**(2/3)``.  A bracket whose optimum reaches its edge is
widened up to ``_WARM``, and beyond that the whole span is searched.  At the
exponent found the offsets are refined to ``rel_tol``, and the whole span
searched if one reaches an edge or a cell of its grid beats it.
``converged`` means that the bracket over the exponent and every final inner
bracket closed within ``max_iters`` steps, and ``n_iters`` counts the steps
over the exponent.

Log :func:`fit_single` is one row of the batched search of
:func:`_log_fits`, which Monte Carlo runs on all its replicates.  A row of
the batch keeps the bits of a lone fit: besides taking only elementwise
operations and those sums, it stops at its own step and compares its
refined cell with the ``c = 0`` endpoint on its own (:func:`_minimize`,
:func:`_sections`).  The rows go ``_BLOCK`` at a time, their grid stage
``_CHUNK`` elements (128 kB) at a time, and each step of their refinement
writes its 65 points a row into three ``(sizes, rows, points)`` arrays that
every step reuses, 250 kB each for 48 rows of 10 sizes.  So no temporary
grows with the number of replicates: one unblocked table of 200 replicates
on 402 cells would take tens of MB.

:func:`fit_tail` searches ``G * x + b`` with ``x = (d/d0)**-q`` in ``(0, 1]``,
``d0`` the smallest size, ``G, b >= 0`` and ``ln q`` in ``[-12, 8]``, cut
where ``q * |ln d0|`` reaches 300 so that ``gamma = G * d0**q`` stays finite.
For each ``q``, linear space has ``(G, b)`` in closed form
(:func:`_tail_linear`; Lawson & Hanson, 1974), searched over ``ln q`` by
:func:`_minimize`.  Log space writes the law as ``G * (x + rho)``, a log power
law of slope 1 at abscissa ``x`` whose best ``ln G`` is a mean, and runs the
nested search over ``ln q`` and ``ln rho``.  Three points are interpolated
where the law can (:func:`_tail_interpolation`).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import (ZERO_CAPACITY, JointLawParams, LinearFit, Observation, PowerLaw, TailLaw, count_term,
                   eval_joint_law, eval_law, eval_tail_law)
from .errors import DomainError, DuplicateAbscissaError, InsufficientDataError, RankError, SchemaError

LOSS_SPACES = ("log", "linear")

# Search grids: ln c over [1e-12, 1e12] and c = 0 below; p over [1e-12, 2], denser near 0.
_P_MIN = 1e-12
_LN_C_GRID = np.concatenate([[-np.inf], np.linspace(math.log(ZERO_CAPACITY), math.log(1e12), 401)])
_P_GRID = 2.0 * np.linspace(math.sqrt(_P_MIN / 2.0), 1.0, 31) ** 2
_CHUNK = 2**14  # most elements of one temporary array of a grid table: 128 kB
_SECTION_POINTS = 128  # points evaluated per step of a batched refinement
_BLOCK = 48  # rows of one batched single-curve search: workspace arrays (sizes, rows, points), 250 kB at 10 sizes
# Nested searches: the grid stage's inner tolerance, the slope in the inner
# variable per unit of the outer allowed for beside a line through two
# optima, and the widest inner half-width tried before the whole span.
_COARSE = 0.01
_SLOPE = 4.0
_WARM = 4.0
# Tail searches: ln q cells over [-12, 8] (cut where q * |ln d0| reaches
# 300), and ln rho over [-30, 30] and rho = 0 below.
_LN_Q_CELLS = 41
_LN_RHO = np.concatenate([[-np.inf], np.linspace(-30.0, 30.0, 61)])


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the least-squares fitters.

    Args:
        loss_space: ``"log"`` (default) fits squared differences of log
            losses; ``"linear"`` fits plain squared differences.
        max_iters: Cap on the steps of each search (bracket refinements,
            Brent or bisection steps).
        rel_tol: A bracket closes once narrower than about ``max(rel_tol,
            1e-15) * (1 + |x|)``, near float resolution at the least.  The
            inner searches of the nested search (``ln c`` under a shared
            ``p``, ``ln rho`` under the tail's ``q``) close at
            ``rel_tol**(2/3)`` while they only steer the search over the
            exponent, and at ``rel_tol`` at the exponent found.
        seed: Recorded in reports; no fit draws random numbers.
    """

    loss_space: str = "log"
    max_iters: int = 2000
    rel_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.loss_space not in LOSS_SPACES:
            raise DomainError(f"unknown loss space {self.loss_space!r}")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        if not 0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")


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
    """Outcome of a multi-condition fit with one common exponent; residuals by sorted label."""

    p: float
    per_condition: dict[str, tuple[float, float]]
    objective: float
    residuals: list[float]
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
    endpoint.  Each row's bracket of :func:`_brackets` is refined by
    :func:`_sections`, all rows in one call: a row's arithmetic is its own,
    so it gets the bits it gets alone.  Returns each row's best ``x`` and
    value, whether its bracket closed, and its steps.
    """
    with np.errstate(all="ignore"):
        first = int(np.isinf(grid[0]))
        x, fx, closed, steps = _sections(objective, *_brackets(values[:, first:], grid[first:]), cfg)
        if first:
            x = np.hstack([np.full((len(x), 1), grid[0]), x])
            fx = np.hstack([values[:, :1], fx])
        at = (np.arange(len(x)), fx.argmin(1))
        return x[at], fx[at], closed, steps


def _brackets(values, cells):
    """Brackets ``(lo, x, hi)``, of shape ``(rows, 1)``, between the
    neighbours of each row's best cell by ``values`` (NaN counts as
    infinite)."""
    i = np.where(np.isnan(values), np.inf, values).argmin(1)[:, None]
    return cells[np.maximum(i - 1, 0)], cells[i], cells[np.minimum(i + 1, len(cells) - 1)]


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


def _size_sum(a):
    """The sum of ``a`` over its first axis in the pairwise order (Higham,
    SIAM J. Sci. Comput. 14, 1993) of numpy's sum over a contiguous last axis,
    so with its bits but for the sign of a NaN, which IEEE 754 leaves open:
    left to right below 8 terms; up to 128, eight running sums combined
    pairwise, then the rest; above, split at half rounded down to a multiple
    of 8.  numpy starts from +0.0, so -0.0 alone sums to +0.0."""
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _size_sum(a[:half]) + _size_sum(a[half:])
    k = 1 if n < 8 else 8  # running sums
    r = a[:k]
    for i in range(k, n - n % k, k):
        r = r + a[i : i + k]
    while len(r) > 1:
        r = r[::2] + r[1::2]
    s = r[0] + 0.0
    for v in a[n - n % k :]:
        s += v
    return s


def _log_parts(inv_d, ln_c, out=(None, None, None)):
    """What the log-space objective takes of the sizes and of ``c``, for each
    ``ln c``: ``ln u = ln(1/d + c)`` with the points on the first axis (that
    of ``inv_d``, which broadcasts against ``ln_c``), its centred form ``x``
    and ``sxx``, the sum of the squares of ``x``.  ``out`` may give three
    arrays of the shape of ``ln u`` to hold ``ln u``, ``x`` and the squares."""
    ln_u = np.add(inv_d, np.exp(ln_c), out=out[0])
    np.log(ln_u, out=ln_u)
    x = np.subtract(ln_u, _size_sum(ln_u) / len(ln_u), out=out[1])
    return ln_u, x, _size_sum(np.square(x, out=out[2]))


def _centred_sums(ln_y, parts):
    """The sums ``(sxy, sxx, syy)`` for each row of ``ln_y`` and each ``ln c``
    of :func:`_log_parts` ``parts`` (axes: points, ``ln_y``'s rows, cells),
    over the points of products of the centred ``x`` and ``ln y``: the
    least-squares slope of ``ln y`` on ``x`` is ``sxy / sxx``, and at slope
    ``p`` the objective is ``syy - 2 p sxy + p**2 sxx``."""
    _, x, sxx = parts
    ln_y = ln_y - ln_y.mean(-1, keepdims=True)
    return _size_sum(x * ln_y.T[..., None]), sxx, (ln_y * ln_y).sum(-1)


def _log_line(ln_y, parts, out=None):
    """Least-squares ``ln y = ln alpha + p * ln(1/d + c)`` for each row of
    ``ln_y`` and each ``ln c`` of ``parts`` as in :func:`_centred_sums`, ``p``
    clipped to ``[1e-12, 2]``: ``(p, ln alpha, objective)``, a NaN objective
    as inf.  The arithmetic of :func:`_centred_sums` and :func:`_log_alpha`
    at weight 1, in one array of shape ``(points, rows, cells)``: ``out``,
    if given."""
    ln_u, x, sxx = parts
    r = np.multiply(x, (ln_y - ln_y.mean(-1, keepdims=True)).T[..., None], out=out)
    p = np.clip(_size_sum(r) / sxx, _P_MIN, 2.0)
    np.subtract(ln_y.T[..., None], np.multiply(p, ln_u, out=r), out=r)
    ln_alpha = _size_sum(r) / len(r)
    objective = _size_sum(np.square(np.subtract(r, ln_alpha, out=r), out=r))
    objective[np.isnan(objective)] = np.inf
    return p, ln_alpha, objective


def _log_fits(d, y, cfg: FitConfig):
    """Log-space fits of ``alpha * (1/d + c)**p`` to each row of losses ``y``
    at sizes ``d``, each with the bits of a lone fit: a search over ``ln c``
    (:func:`_minimize`) with ``p`` the clipped slope of :func:`_log_line`,
    ``_BLOCK`` rows at a time, sharing the grid's :func:`_log_parts`.
    Returns each row's ``p``, ``alpha``, ``ln c``, whether its bracket
    closed, and its steps."""
    inv_d = (1.0 / d)[:, None, None]
    p, ln_alpha, ln_c = np.empty(len(y)), np.empty(len(y)), np.empty(len(y))
    closed, steps = np.empty(len(y), bool), np.empty(len(y), int)
    work = [np.empty(0)] * 3

    def objective(rows, points):
        """The objectives of the block's rows ``rows`` at ``points``, in three arrays that every step reuses."""
        nonlocal work
        size = points.size * len(d)
        if work[0].size < size:
            work = [np.empty(size) for _ in range(3)]
        u, x, r = (w[:size].reshape(len(d), *points.shape) for w in work)
        return _log_line(ln_y[rows], _log_parts(inv_d, points, (u, x, r)), r)[2]

    with np.errstate(all="ignore"):
        grid = _log_parts(inv_d, _LN_C_GRID[None])
        chunk = max(1, _CHUNK // grid[0].size)  # rows of one grid table
        for start in range(0, len(y), _BLOCK):
            block = slice(start, start + _BLOCK)
            ln_y = np.log(y[block])
            values = np.concatenate([_log_line(ln_y[i : i + chunk], grid)[2] for i in range(0, len(ln_y), chunk)])
            ln_c[block], _, closed[block], steps[block] = _minimize(values, _LN_C_GRID, objective, cfg)
            p[block], ln_alpha[block], _ = (v[:, 0] for v in _log_line(ln_y, _log_parts(inv_d, ln_c[block, None])))
    return p, np.exp(ln_alpha), ln_c, closed, steps


def _profiled(grid, best, values, span, search, whole, cfg: FitConfig):
    """The nested search of the module docstring over an exponent ``x`` and
    each group's offset ``z`` in ``span`` or ``-inf``, from a grid stage that
    gives every group's ``best`` ``z`` at each cell of ``grid``, shape
    ``(cells, groups)``, and the pooled ``values``.  ``search(x, lo, z, hi, cfg)``
    refines the groups' brackets, given as lists (cheaper than numpy calls for
    a few groups, with the same bits): their ``z`` as a list, objectives as an
    array, and whether all closed.  ``whole(x, cfg, bound)`` searches the
    whole span from the best cells of its grid, unless ``bound``, the
    objectives, is given and no cell beats it by 1e-9 relative (None).
    Returns ``x``, the groups' ``z`` and objectives, whether every final
    bracket closed, and the steps over ``x``."""
    lo_end, hi_end = float(span[0]), float(span[1])
    inner = replace(cfg, rel_tol=cfg.rel_tol ** (2.0 / 3.0))
    # each x searched: every group's z (-inf followed from the span's low end), and its error
    optima = {x: (z, _COARSE) for x, z in zip(grid.tolist(), np.maximum(best, lo_end).tolist())}
    searched = sorted(optima)  # the keys of optima
    rank = {x: i for i, x in enumerate(optima)}  # the order of the keys, which breaks ties in distance

    def refine(x, start, width, cfg):
        """Search each group's z within ``width`` of ``start`` and the span; and whether an
        optimum reached an edge inside the span, beyond which it may lie."""
        lo = [max(s - w, lo_end) for s, w in zip(start, width)]
        hi = [min(s + w, hi_end) for s, w in zip(start, width)]
        z, fz, closed = search(x, lo, start, hi, cfg)
        edge = any(v < a + 0.1 * w and a > lo_end or v > b - 0.1 * w and b < hi_end
                   for v, a, b, w in zip(z, lo, hi, width))
        return z, fz, closed, edge

    def profile(x):
        """The pooled objective at ``x``."""
        i = bisect.bisect_left(searched, x)  # the two nearest lie among the two each side
        x1, x2 = sorted(searched[max(i - 2, 0) : i + 2], key=lambda v: (abs(v - x), rank[v]))[:2]
        (z1, e1), (z2, e2) = optima[x1], optima[x2]
        t = (x - x1) / (x1 - x2)
        moves = [t * (a - b) for a, b in zip(z1, z2)]
        start = [min(max(a + m, lo_end), hi_end) for a, m in zip(z1, moves)]
        width = [min(_WARM, e1 + abs(t) * (e1 + e2) + 0.5 * abs(m) + _SLOPE * abs(x - x1)) for m in moves]
        z, fz, _, edge = refine(x, start, width, inner)
        while edge and min(width) < _WARM:
            width = [min(_WARM, 32.0 * w) for w in width]
            z, fz, _, edge = refine(x, start, width, inner)
        if edge:
            z, fz, _ = whole(x, inner, None)
        if x not in rank:
            bisect.insort(searched, x)
            rank[x] = len(rank)
        optima[x] = ([max(v, lo_end) for v in z], 0.0)
        return fz.sum()

    a, x, b = (float(v[0, 0]) for v in _brackets(values[None], grid))
    x, _, x_closed, steps = _brent(profile, a, x, b, cfg)
    start = optima[x][0]  # within its bracket's width, inner.rel_tol * (1 + |z|), of the optimum
    z, fz, closed, edge = refine(x, start, [4.0 * inner.rel_tol * (1.0 + abs(v)) for v in start], cfg)
    z, fz, closed = whole(x, cfg, None if edge else fz) or (z, fz, closed)
    return x, z, fz, closed and x_closed, steps


def _shared_exponent(arrays, cfg: FitConfig):
    """Least-squares ``p`` shared by the groups ``arrays`` of ``(d, y)``, by
    the nested search over ``p`` and every group's ``ln c``, batched: ``p``,
    the groups' ``alpha`` and ``c``, whether it converged, and its steps."""
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
        sums = [_centred_sums(np.log(y), _log_parts((1.0 / d)[:, None], _LN_C_GRID)) for d, y in arrays]
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

    def sections(rows, p, lo, x, hi, cfg):
        """Refine the brackets of the groups ``rows`` at ``p`` together, to one stopping step: their
        best ``ln c`` and values, and whether every bracket closed."""
        def f(_, ln_c):
            u = inv_d[rows, None] + np.exp(ln_c[0])[..., None]
            return _fit_alpha(u, p, target[rows, None], weight[rows, None], log_space)[1][None]

        (x,), (fx,), (closed,), _ = _sections(f, lo[None], x[None], hi[None], cfg)
        return x[:, 0], fx[:, 0], bool(closed)

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
        ln_c, values = np.empty(len(rows)), np.empty(len(rows))
        closed = True
        for r in np.array_split(np.arange(len(rows)), -(-len(rows) * 5 * n // _CHUNK)):  # 5 points at least
            lo = _LN_C_GRID[np.maximum(i[r] - 1, 1), None]
            x = _LN_C_GRID[i[r], None]
            hi = _LN_C_GRID[np.minimum(i[r] + 1, len(_LN_C_GRID) - 1), None]
            ln_c[r], values[r], done = sections(rows[r], p[r], lo, x, hi, cfg)
            closed = closed and done
        at_zero = zero <= values
        ln_c[at_zero] = -np.inf
        values[at_zero] = zero[at_zero]
        return ln_c, values, closed

    def search(p, lo, ln_c, hi, cfg):
        ln_c, fx, closed = sections(slice(None), p, *(np.array(v)[:, None] for v in (lo, ln_c, hi)), cfg)
        return ln_c.tolist(), fx, closed

    def whole(p, cfg, bound):
        if bound is None or (on_grid(np.array([p]))[0, :, 1:].min(1) < bound * (1.0 - 1e-9)).any():
            ln_c, fx, closed = grid_search(np.array([p]), cfg)
            return ln_c.tolist(), fx, closed

    with np.errstate(all="ignore"):
        ln_c, values, _ = grid_search(_P_GRID, replace(cfg, rel_tol=_COARSE))
        p, ln_c, fx, converged, steps = _profiled(_P_GRID, ln_c.reshape(-1, k), values.reshape(-1, k).sum(1),
                                                  _LN_C_GRID[[1, -1]], search, whole, cfg)
        ln_c = np.array(ln_c)
        ln_c[_fit_alpha(inv_d, p, target, weight, log_space)[1] <= fx] = -np.inf
        alpha, _ = _fit_alpha(inv_d + np.exp(ln_c)[:, None], p, target, weight, log_space)
    return p, alpha.tolist(), np.exp(ln_c).tolist(), converged, steps


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


# ---------------------------------------------------------------------------
# Power-law fits
# ---------------------------------------------------------------------------


def _residuals(m, y, loss_space: str) -> np.ndarray:
    """Residuals of losses ``y`` against model values ``m`` in ``loss_space``:
    ``ln y - ln m`` or ``y - m``."""
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
    r = _residuals(eval_law(law, d), y, cfg.loss_space)
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
        yield _power_law(alpha, c, p), converged, n_iters


def _power_law(alpha: float, c: float, p: float) -> PowerLaw:
    """The fitted law, with ``c`` below ``ZERO_CAPACITY`` reported as zero.

    Raises:
        DomainError: ``alpha`` underflowed to zero, as it can for losses
            near the bottom of the float range.
    """
    if alpha == 0:
        raise DomainError(
            "the fitted alpha underflows to 0: the losses lie too close to the "
            "bottom of the float range; rescale them"
        )
    return PowerLaw(alpha, 0.0 if c < ZERO_CAPACITY else c, p)


def fit_shared(
    groups: dict[str, list[Observation]], cfg: FitConfig = FitConfig()
) -> SharedFitResult:
    """Fit all conditions jointly with one common exponent.

    Minimizes the pooled squared residual over ``p`` plus a per-condition
    ``(alpha, c)`` pair: a search over ``p`` around one batched search over
    every condition's ``c``, with each ``alpha`` in closed form.  The
    residuals and objective are recomputed from the final laws.  With
    exactly one group the optimum agrees with :func:`fit_single` up to the
    search tolerance, not bit for bit.

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
    laws = {label: _power_law(a, c, p) for label, a, c in zip(labels, alphas, cs)}
    r = np.concatenate([_residuals(eval_law(law, d), y, cfg.loss_space)
                        for law, (d, y) in zip(laws.values(), arrays)])
    per_condition = {label: (law.alpha, law.c) for label, law in laws.items()}
    return SharedFitResult(p, per_condition, float((r * r).sum()), r.tolist(), converged)


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
    quartet = JointLawParams(1.0, 1.0, beta, p_e, p_d, l_inf)  # validates it
    for o in obs:
        if o.shape is None:
            raise SchemaError(f"observation at d={o.d_millions} lacks parameter counts")

    held = set((int(a), int(b)) for a, b in hold_out)
    fit_obs = [o for o in obs if o.shape not in held]
    out_obs = [o for o in obs if o.shape in held]
    if len(fit_obs) < 4:
        raise InsufficientDataError(f"need at least 4 observations to fit, got {len(fit_obs)}")

    d, y = _arrays(fit_obs, cfg.loss_space)
    g = count_term(quartet, *np.array([o.shape for o in fit_obs], dtype=float).T)
    log_space = cfg.loss_space == "log"
    target = np.log(y) if log_space else y

    def fit_alpha(p):
        u = 1.0 / d + beta * g ** (1.0 / p[..., None])
        return _fit_alpha(u, p[..., None], target, np.ones(len(d)), log_space)

    with np.errstate(all="ignore"):
        values = fit_alpha(_P_GRID[None])[1]
    (p,), _, (converged,), (n_iters,) = _minimize(values, _P_GRID, lambda _, x: fit_alpha(x)[1], cfg)
    alpha = float(fit_alpha(np.array([p]))[0][0])
    p = float(p)
    params = JointLawParams(alpha=alpha, p=p, beta=beta, p_e=p_e, p_d=p_d, l_inf=l_inf)

    def law_residuals(subset):
        """Residuals of ``subset`` under ``params``, with each shape's sizes
        evaluated in one array: an element's bits do not depend on the
        array it is in (see :func:`eval_law`)."""
        rows = {}  # each shape's positions in subset
        for i, o in enumerate(subset):
            rows.setdefault(o.shape, []).append(i)
        d, y = _arrays(subset, cfg.loss_space)
        m = np.empty(len(subset))
        for shape, at in rows.items():
            m[at] = eval_joint_law(params, *shape, d[at])
        return _residuals(m, y, cfg.loss_space)

    r = law_residuals(fit_obs)
    return JointFitResult(
        params=params,
        objective=float((r * r).sum()),
        residuals=r.tolist(),
        holdout_residuals=law_residuals(out_obs).tolist(),
        converged=bool(converged),
        n_iters=int(n_iters),
    )


# ---------------------------------------------------------------------------
# Tail law fit
# ---------------------------------------------------------------------------


def fit_tail(obs: list[Observation], d_min: float, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit ``gamma * (1/d)**q + b`` to observations with ``d >= d_min``.

    The search is over ``G * (d/d0)**-q + b`` (see the module docstring).
    A constant fit, ``G = 0``, is reported as ``q = 1`` and ``gamma = b *
    2**-64 * d0``, whose term lies below the rounding of ``b`` at every
    fitted size; where that ``gamma`` underflows, as for a subnormal ``b``,
    it is the least positive float instead.

    Raises:
        InsufficientDataError: Fewer than 3 qualifying observations.
        DomainError: ``gamma`` overflows or underflows to 0, or in log space
            the fitted law underflows to 0 at a size, as they can for losses
            or sizes near the edge of the float range.
    """
    subset = [o for o in obs if o.d_millions >= d_min]
    if len(subset) < 3:
        raise InsufficientDataError(
            f"need at least 3 observations with d >= {d_min}, got {len(subset)}"
        )
    d, y = _arrays(subset, cfg.loss_space)
    d0 = float(d.min())
    grid = np.linspace(-12.0, 8.0 if d0 == 1.0 else min(8.0, math.log(300.0 / abs(math.log(d0)))), _LN_Q_CELLS)
    with np.errstate(all="ignore"):
        fit = _tail_interpolation(d, y, grid, cfg) if len(d) == 3 else None
        if fit is None:
            search = _tail_log if cfg.loss_space == "log" else _tail_linear
            g, q, b, converged, n_iters = search(np.log(d / d0), y, grid, cfg)
            constant = (max(b * 2.0**-64 * d0, math.ulp(0.0)), 1.0, b)
            fit = ((g * d0**q, q, b) if g > 0 else constant), converged, n_iters
        (gamma, q, b), converged, n_iters = fit
    if not 0.0 < gamma < math.inf:
        raise DomainError(
            f"the fitted tail law's gamma {'overflows' if gamma == math.inf else 'underflows to 0'}: "
            "the losses or sizes lie too close to the edge of the float range; rescale them"
        )
    law = TailLaw(gamma=gamma, q=q, b=b)
    m = eval_tail_law(law, d)
    if cfg.loss_space == "log" and not m.all():
        raise DomainError(
            f"the fitted tail law underflows to 0 at d = {d[m == 0].min():g}: its gamma * d**-q "
            "lies below the float range; rescale the losses or sizes"
        )
    r = _residuals(m, y, cfg.loss_space)
    return FitResult(law, float((r * r).sum()), r.tolist(), converged, n_iters)


def _tail_linear(t, y, grid, cfg: FitConfig):
    """Linear-space tail fit at offsets ``t = ln(d/d0)``, a search over the
    ``ln q`` of ``grid`` (:func:`_minimize`): ``(G, q, b, converged, steps)``.
    For each ``q`` the best ``(G, b) >= 0`` is the unconstrained line, or else
    the better of the faces ``b = 0`` and ``G = 0``, each scored by its
    residuals."""

    def best(ln_q):
        x = np.exp(-np.exp(ln_q)[:, None] * t)
        xc = x - x.mean(-1, keepdims=True)
        slope = (xc * (y - y.mean())).sum(-1) / (xc * xc).sum(-1)
        zero = np.zeros(len(x))
        g = np.stack([slope, (x * y).sum(-1) / (x * x).sum(-1), zero])
        b = np.stack([y.mean() - slope * x.mean(-1), zero, zero + y.mean()])
        objective = _squares(y - g[..., None] * x - b[..., None])
        objective[0, (slope < 0) | (b[0] < 0)] = np.inf
        at = (objective.argmin(0), np.arange(len(x)))
        return g[at], b[at], objective[at]

    (ln_q,), _, (closed,), (steps,) = _minimize(best(grid)[2][None], grid, lambda _, v: best(v[0])[2][None], cfg)
    (g,), (b,), _ = best(np.array([ln_q]))
    return float(g), math.exp(ln_q), float(b), bool(closed), int(steps)


def _tail_log(t, y, grid, cfg: FitConfig):
    """Log-space tail fit at offsets ``t = ln(d/d0)`` of ``G * (x + rho)``, by
    the nested search over ``ln q`` and ``ln rho``, each inner search Brent's
    method on plain floats compared with ``rho = 0``, a power law in ``d``:
    ``(G, q, b, converged, steps)``.  The constant law (``q -> 0`` or ``rho ->
    inf``) is the last candidate, and stands in for a law whose ``G``
    underflows to 0."""
    ln_y = np.log(y)
    ts, ln_ys = t.tolist(), ln_y.tolist()

    def table(x, ln_rho):
        """The objective at ``x`` (the first axis) for each ``ln rho``, NaN as inf."""
        sxy, sxx, syy = _centred_sums(ln_y[None], _log_parts(x, ln_rho))
        v = syy - 2.0 * sxy + sxx
        return np.where(np.isnan(v), np.inf, v)

    def squares(z):
        mean = sum(z) / len(z)
        return sum([(v - mean) * (v - mean) for v in z])

    def search(ln_q, lo, ln_rho, hi, cfg):
        q = math.exp(ln_q)
        xs = [math.exp(-q * v) for v in ts]

        def f(ln_rho):
            rho = math.exp(ln_rho)
            return squares([u - math.log(w + rho) for u, w in zip(ln_ys, xs)])

        ln_rho, fx, closed, _ = _brent(f, lo[0], ln_rho[0], hi[0], cfg)
        f0 = squares([u + q * v for u, v in zip(ln_ys, ts)])
        return [-math.inf if f0 <= fx else ln_rho], np.float64(min(fx, f0)), closed

    def whole(ln_q, cfg, bound):
        v = table(np.exp(-math.exp(ln_q) * t)[:, None, None], _LN_RHO[1:])
        if bound is None or v.min() < bound * (1.0 - 1e-9):
            return search(ln_q, *(c[0].tolist() for c in _brackets(v, _LN_RHO[1:])), cfg)

    x = np.exp(-np.exp(grid) * t[:, None])[..., None]
    ln_rho, values, _, _ = _minimize(table(x, _LN_RHO), _LN_RHO, lambda rows, v: table(x[:, rows], v),
                                     replace(cfg, rel_tol=_COARSE))
    ln_q, (ln_rho,), fx, converged, steps = _profiled(grid, ln_rho[:, None], values, _LN_RHO[[1, -1]], search,
                                                      whole, cfg)
    q = math.exp(ln_q)
    g = math.exp((ln_y - np.logaddexp(-q * t, ln_rho)).mean())
    if g == 0.0 or _squares(ln_y - ln_y.mean()) <= fx:  # the constant law
        return 0.0, q, math.exp(ln_y.mean()), converged, steps
    return g, q, g * math.exp(ln_rho), converged, steps


def _tail_interpolation(d, y, grid, cfg: FitConfig):
    """The tail law through three points, ``((gamma, q, b), converged,
    steps)``, or None where none with ``G > 0``, ``b >= 0`` and ``ln q`` on
    ``grid``'s range does.  Over the points sorted by size, ``q`` solves ``(1
    - x1) / (1 - x2) = (y0 - y1) / (y0 - y2)`` by bisection in ``ln q``, and
    ``G`` and ``b`` follow; 8 Newton steps on ``(ln gamma, q, b)`` in the form
    ``y - m``, then 8 in ``ln y - ln m``, polish it to the least objective."""
    order = np.argsort(d)
    (d0, d1, d2), (y0, y1, y2) = d[order].tolist(), y[order].tolist()
    if not (d0 < d1 < d2 and y0 > max(y1, y2)):
        return None
    t1, t2, ratio = math.log(d1 / d0), math.log(d2 / d0), (y0 - y1) / (y0 - y2)

    def excess(ln_q):
        return math.expm1(-math.exp(ln_q) * t1) / math.expm1(-math.exp(ln_q) * t2) - ratio

    def objective(gamma, q, b):
        valid = gamma > 0 and q > 0 and b >= 0
        return _squares(_residuals(gamma * d**-q + b, y, cfg.loss_space)) if valid else np.inf

    lo, hi = grid[[0, -1]].tolist()
    if not excess(lo) < 0.0 < excess(hi):
        return None
    for steps in range(cfg.max_iters + 1):
        ln_q = 0.5 * (lo + hi)
        closed = hi - lo <= max(cfg.rel_tol, 1e-15) * (1.0 + abs(ln_q))
        if closed or steps == cfg.max_iters:
            break
        lo, hi = (ln_q, hi) if excess(ln_q) < 0.0 else (lo, ln_q)
    q = math.exp(ln_q)
    g = (y1 - y0) / math.expm1(-q * t1)
    if g > y0:
        return None
    theta = (g * d0**q, q, y0 - g)
    f_best = objective(*theta)
    for space in ("linear", "log"):
        gamma, q, b = theta
        for _ in range(8):
            decay = d**-q
            m = gamma * decay + b
            J = np.stack([gamma * decay, -gamma * np.log(d) * decay, np.ones(3)], 1)
            try:
                step = np.linalg.solve(J / m[:, None] if space == "log" else J, _residuals(m, y, space)).tolist()
            except np.linalg.LinAlgError:
                break
            gamma, q, b = gamma * float(np.exp(step[0])), q + step[1], b + step[2]
            f = objective(gamma, q, b)
            if f < f_best:
                theta, f_best = (gamma, q, b), f
    return theta, closed, steps


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
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0:
        raise RankError("all x values are identical")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return LinearFit(slope=slope, intercept=intercept, r2=r2)
