"""Nonlinear least-squares estimation of scaling laws.

All fitters minimize squared residuals either in log-loss space (default;
residuals are relative errors, appropriate when losses span a large range)
or in linear space.  Positivity and range constraints are enforced through
smooth reparameterizations:

* ``alpha = exp(a)`` and ``c = exp(cc)``, so both stay positive with ``c``
  able to approach zero in the limit (a fitted ``c`` below 1e-12 is
  reported as exactly zero);
* ``p = 2 * sigmoid(t)``, confining the exponent to (0, 2].

The optimizer is a damped Gauss-Newton loop with adaptive (Marquardt-style)
damping, driven by analytic Jacobians.  Each fit runs from a data-driven
seed plus log-normally perturbed restarts (:func:`_restart_points`); the
lowest objective wins, ties broken by lowest restart index, so results are
bit-reproducible for a fixed :class:`FitConfig`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

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

# Internal-parameter box keeping exp/sigmoid maps numerically safe.
_LOG_BOX = 300.0
_LOGIT_BOX = 60.0


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the nonlinear least-squares fitters.

    Args:
        loss_space: ``"log"`` (default) fits squared differences of log
            losses; ``"linear"`` fits plain squared differences.
        max_iters: Iteration cap per restart.
        rel_tol: Relative objective decrease between accepted steps below
            which the fit is declared converged.
        n_restarts: Number of initializations tried (the first is the
            data-driven seed, the rest are log-normal perturbations of it).
        seed: Seed for the restart perturbations; fixes the result exactly.
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
# Parameter transforms
# ---------------------------------------------------------------------------


def _sigmoid(t: np.ndarray | float):
    t = np.clip(t, -_LOGIT_BOX, _LOGIT_BOX)
    return 1.0 / (1.0 + np.exp(-t))


def _logit(p: float) -> float:
    """Inverse of ``p = 2 * sigmoid(t)``."""
    return math.log((p / 2.0) / (1.0 - p / 2.0))


def _law_to_internal(alpha: float, c: float, p: float) -> np.ndarray:
    return np.array([math.log(alpha), math.log(c), _logit(p)])


def _law_from_internal(theta: np.ndarray) -> tuple[float, float, float]:
    a, cc, t = theta
    alpha = math.exp(min(max(a, -_LOG_BOX), _LOG_BOX))
    c = math.exp(min(max(cc, -_LOG_BOX), _LOG_BOX))
    p = 2.0 * float(_sigmoid(t))
    return alpha, c, p


def _dp_dt(p: float) -> float:
    # derivative of p = 2*sigmoid(t) expressed through p itself
    return p * (1.0 - p / 2.0)


# ---------------------------------------------------------------------------
# Damped Gauss-Newton engine
# ---------------------------------------------------------------------------


def _gauss_newton(residual, jacobian, theta0, max_iters, rel_tol):
    """Minimize ``sum(residual(theta)**2)`` from ``theta0``.

    Returns ``(theta, objective, converged, n_iters)``.  Convergence means
    either an accepted step decreased the objective by a relative amount at
    most ``rel_tol``, the gradient vanished, or no damping level could find
    a downhill step (numerical stationarity).  Exhausting ``max_iters``
    leaves ``converged`` False.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r = residual(theta)
    f = float(r @ r)
    if not np.isfinite(f):
        return theta, f, False, 0
    lam = 1e-3
    converged = False
    n_iters = 0
    for n_iters in range(1, max_iters + 1):
        J = jacobian(theta)
        g = J.T @ r
        if float(np.max(np.abs(g))) <= 1e-14 * max(1.0, f):
            converged = True
            break
        A = J.T @ J
        diag = np.maximum(np.diag(A), 1e-12)
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(A + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            theta_new = theta + step
            r_new = residual(theta_new)
            f_new = float(r_new @ r_new)
            if np.isfinite(f_new) and f_new <= f:
                rel_dec = (f - f_new) / max(f, 1e-300)
                theta, r, f = theta_new, r_new, f_new
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if rel_dec <= rel_tol:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e15:
                break
        if not accepted:
            # no downhill step at any damping: numerically stationary
            converged = True
            break
        if converged:
            break
    return theta, f, converged, n_iters


def _run_restarts(residual, jacobian, seeds, cfg: FitConfig):
    """Run the optimizer from each seed; lowest objective wins, ties go to
    the earliest restart."""
    best = None
    for theta0 in seeds:
        theta, f, converged, n_iters = _gauss_newton(
            residual, jacobian, theta0, cfg.max_iters, cfg.rel_tol
        )
        if best is None or f < best[1]:
            best = (theta, f, converged, n_iters)
    return best


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


def _arrays(obs: list[Observation]) -> tuple[np.ndarray, np.ndarray]:
    """Sizes and losses of ``obs``.  Only log-perplexities are accepted:
    every law fitted here decreases with data, while BLEU rises, and an
    :class:`Observation` of log-perplexity already holds a positive loss."""
    for o in obs:
        if o.metric != "log_perplexity":
            raise SchemaError(
                f"condition {o.condition!r} holds {o.metric} scores, which rise with "
                "data; only log_perplexity can be fitted with a decreasing law"
            )
    d = np.array([o.d_millions for o in obs], dtype=float)
    y = np.array([o.loss for o in obs], dtype=float)
    return d, y


def _single_group_arrays(obs: list[Observation]) -> tuple[np.ndarray, np.ndarray]:
    if len(obs) < 4:
        raise InsufficientDataError(f"need at least 4 observations, got {len(obs)}")
    conditions = {o.condition for o in obs}
    if len(conditions) > 1:
        raise SchemaError(f"observations span multiple conditions: {sorted(conditions)}")
    d, y = _arrays(obs)
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


# Restart boxes of alpha, c and p for the power-law fitters.
_ALPHA_BOX = (1e-8, 1e8)
_C_BOX = (ZERO_CAPACITY, 1e6)
_P_BOX = (1e-3, 1.999)


def _seed_power_law(d: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Data-driven seed: OLS of log loss on log 1/d over the smallest half of
    the sizes (where the 1/d term dominates), then the capacity implied by
    the smallest observed loss."""
    order = np.argsort(d)
    k = max(2, len(d) // 2)
    idx = order[:k]
    x_small = -np.log(d[idx])
    y_small = np.log(y[idx])
    slope, intercept = _ols(x_small, y_small) or (0.3, float(y_small.mean()))
    p0 = min(max(slope, 0.01), 1.99)
    alpha0 = min(max(math.exp(intercept), 1e-8), 1e8)
    c0 = min(max((float(y.min()) / alpha0) ** (1.0 / p0), ZERO_CAPACITY), 1e6)
    return alpha0, c0, p0


# ---------------------------------------------------------------------------
# Single-condition fit
# ---------------------------------------------------------------------------


def _power_law_residual_fns(d, y, loss_space):
    ln_y = np.log(y)

    def residual(theta):
        alpha, c, p = _law_from_internal(theta)
        m = alpha * (1.0 / d + c) ** p
        if loss_space == "log":
            return ln_y - np.log(m)
        return y - m

    def jacobian(theta):
        # Columns: dm/d(internal) = (dm/dalpha * alpha, dm/dc * c, dm/dp * dp/dt)
        # with dm/dalpha = base**p, dm/dc = alpha * p * base**(p-1) and
        # dm/dp = alpha * base**p * ln(base), where base = 1/d + c.
        alpha, c, p = _law_from_internal(theta)
        base = 1.0 / d + c
        pow_p = base**p
        cols = np.stack(
            [
                pow_p * alpha,
                alpha * p * base ** (p - 1.0) * c,
                alpha * pow_p * np.log(base) * _dp_dt(p),
            ],
            axis=1,
        )
        if loss_space == "log":
            cols = cols / (alpha * pow_p)[:, None]
        return -cols

    return residual, jacobian


def _residuals_for_law(law: PowerLaw, d, y, loss_space) -> np.ndarray:
    m = eval_law(law, d)
    if loss_space == "log":
        return np.log(y) - np.log(m)
    return y - m


def fit_single(obs: list[Observation], cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit one power law to observations of a single condition.

    Args:
        obs: At least 4 observations of one condition with distinct sizes.
        cfg: Fit configuration; the seed fixes the result exactly.

    Returns:
        The best law over all restarts.  ``converged`` is False when the
        winning restart exhausted its iteration budget; the result is still
        returned so callers can inspect it.

    Raises:
        InsufficientDataError: Fewer than 4 observations.
        DuplicateAbscissaError: Two observations share a size.
    """
    d, y = _single_group_arrays(obs)
    residual, jacobian = _power_law_residual_fns(d, y, cfg.loss_space)

    lower, upper = zip(_ALPHA_BOX, _C_BOX, _P_BOX)
    points = _restart_points(_seed_power_law(d, y), lower, upper, cfg)
    seeds = [_law_to_internal(*point) for point in points]

    theta, _, converged, n_iters = _run_restarts(residual, jacobian, seeds, cfg)
    alpha, c, p = _law_from_internal(theta)
    if c < ZERO_CAPACITY:
        c = 0.0
    law = PowerLaw(alpha, c, p)
    r = _residuals_for_law(law, d, y, cfg.loss_space)
    return FitResult(
        law=law,
        objective=float(r @ r),
        residuals=[float(v) for v in r],
        converged=converged,
        n_iters=n_iters,
    )


# ---------------------------------------------------------------------------
# Shared-exponent fit
# ---------------------------------------------------------------------------


def fit_shared(
    groups: dict[str, list[Observation]], cfg: FitConfig = FitConfig()
) -> SharedFitResult:
    """Fit all conditions jointly with one common exponent.

    Minimizes the pooled squared residual over ``{p}`` plus a per-condition
    ``(alpha, c)`` pair, a single optimization over ``1 + 2k`` parameters.
    The first start takes each condition's own :func:`fit_single` seed for
    ``(alpha, c)`` and the mean of their exponent seeds for ``p``; every
    restart perturbs all ``1 + 2k`` values.  The reported objective is
    recomputed condition by condition from the final laws.  With exactly
    one group the optimum agrees with :func:`fit_single` up to optimizer
    tolerance, not bit for bit.

    Args:
        groups: Map from condition label to that condition's observations;
            every group must satisfy the :func:`fit_single` preconditions.
        cfg: Fit configuration.
    """
    if not groups:
        raise InsufficientDataError("no condition groups given")
    labels = sorted(groups)
    arrays = {}
    for label in labels:
        d, y = _single_group_arrays(groups[label])
        arrays[label] = (d, y)

    d_all = np.concatenate([arrays[label][0] for label in labels])
    y_all = np.concatenate([arrays[label][1] for label in labels])
    ln_y = np.log(y_all)
    slices = []
    start = 0
    for label in labels:
        n = len(arrays[label][0])
        slices.append(slice(start, start + n))
        start += n
    k = len(labels)
    log_space = cfg.loss_space == "log"

    def unpack(theta):
        p = 2.0 * float(_sigmoid(theta[0]))
        alphas = np.exp(np.clip(theta[1 : 1 + 2 * k : 2], -_LOG_BOX, _LOG_BOX))
        cs = np.exp(np.clip(theta[2 : 2 + 2 * k : 2], -_LOG_BOX, _LOG_BOX))
        return p, alphas, cs

    def model(theta):
        p, alphas, cs = unpack(theta)
        m = np.empty_like(d_all)
        for i, sl in enumerate(slices):
            m[sl] = alphas[i] * (1.0 / d_all[sl] + cs[i]) ** p
        return m, p, alphas, cs

    def residual(theta):
        m, _, _, _ = model(theta)
        return (ln_y - np.log(m)) if log_space else (y_all - m)

    def jacobian(theta):
        m, p, alphas, cs = model(theta)
        J = np.zeros((len(d_all), 1 + 2 * k))
        dpdt = _dp_dt(p)
        for i, sl in enumerate(slices):
            base = 1.0 / d_all[sl] + cs[i]
            mi = m[sl]
            J[sl, 0] = mi * np.log(base) * dpdt
            J[sl, 1 + 2 * i] = mi
            J[sl, 2 + 2 * i] = alphas[i] * p * base ** (p - 1.0) * cs[i]
        if log_space:
            J = J / m[:, None]
        return -J

    # Seed: every condition's own (alpha, c) seed under the mean of their p seeds.
    group_seeds = [_seed_power_law(*arrays[label]) for label in labels]
    base = [np.mean([seed[2] for seed in group_seeds])]
    for alpha, c, _ in group_seeds:
        base += [alpha, c]
    lower, upper = zip(_P_BOX, *[_ALPHA_BOX, _C_BOX] * k)
    seeds = [
        np.array([_logit(point[0]), *map(math.log, point[1:])])
        for point in _restart_points(base, lower, upper, cfg)
    ]

    theta, _, converged, _ = _run_restarts(residual, jacobian, seeds, cfg)
    p, alphas, cs = unpack(theta)
    per_condition = {}
    for i, label in enumerate(labels):
        c = 0.0 if cs[i] < ZERO_CAPACITY else float(cs[i])
        per_condition[label] = (float(alphas[i]), c)

    objective = 0.0
    for label in labels:
        alpha, c = per_condition[label]
        d, y = arrays[label]
        r = _residuals_for_law(PowerLaw(alpha, c, p), d, y, cfg.loss_space)
        objective += float(r @ r)
    return SharedFitResult(
        p=p, per_condition=per_condition, objective=objective, converged=converged
    )


# ---------------------------------------------------------------------------
# Joint data/parameter law fit
# ---------------------------------------------------------------------------


def fit_joint(
    obs: list[Observation],
    fixed: tuple[float, float, float, float],
    cfg: FitConfig = FitConfig(),
    hold_out: Sequence[tuple[int, int]] = (),
) -> JointFitResult:
    """Fit (alpha, p) of the joint law with the quartet ``fixed`` supplied.

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

    _arrays(out_obs)  # held-out rows get residuals too
    d, y = _arrays(fit_obs)
    ln_g = np.array(
        [
            np.logaddexp(-p_e * np.log(o.n_enc) - p_d * np.log(o.n_dec), np.log(l_inf))
            if l_inf > 0
            else -p_e * np.log(o.n_enc) - p_d * np.log(o.n_dec)
            for o in fit_obs
        ]
    )
    ln_y = np.log(y)
    log_space = cfg.loss_space == "log"
    ln_beta = math.log(beta)

    def model(theta):
        a, t = theta
        alpha = math.exp(min(max(a, -_LOG_BOX), _LOG_BOX))
        p = 2.0 * float(_sigmoid(t))
        c = np.exp(ln_beta + ln_g / p)
        u = 1.0 / d + c
        m = alpha * u**p
        return m, alpha, p, c, u

    def residual(theta):
        m, _, _, _, _ = model(theta)
        return (ln_y - np.log(m)) if log_space else (y - m)

    def jacobian(theta):
        m, alpha, p, c, u = model(theta)
        dlnm_dp = np.log(u) - c * ln_g / (u * p)
        J = np.empty((len(d), 2))
        dpdt = _dp_dt(p)
        if log_space:
            J[:, 0] = 1.0
            J[:, 1] = dlnm_dp * dpdt
        else:
            J[:, 0] = m
            J[:, 1] = m * dlnm_dp * dpdt
        return -J

    alpha0, _, p0 = _seed_power_law(d, y)
    lower, upper = zip(_ALPHA_BOX, _P_BOX)
    points = _restart_points([alpha0, p0], lower, upper, cfg)
    seeds = [np.array([math.log(alpha), _logit(p)]) for alpha, p in points]

    theta, _, converged, n_iters = _run_restarts(residual, jacobian, seeds, cfg)
    _, alpha, p, _, _ = model(theta)
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
        converged=converged,
        n_iters=n_iters,
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
    d, y = _arrays(subset)
    ln_y = np.log(y)
    log_space = cfg.loss_space == "log"

    def unpack(theta):
        g, h, bb = np.clip(theta, -_LOG_BOX, _LOG_BOX)
        return math.exp(g), math.exp(h), math.exp(bb)

    def residual(theta):
        gamma, q, b = unpack(theta)
        m = gamma * d**-q + b
        return (ln_y - np.log(m)) if log_space else (y - m)

    def jacobian(theta):
        gamma, q, b = unpack(theta)
        decay = gamma * d**-q
        m = decay + b
        J = np.stack([decay, -decay * np.log(d) * q, np.full_like(d, b)], axis=1)
        if log_space:
            J = J / m[:, None]
        return -J

    # Seed by OLS of loss on 1/d (exact for q = 1), clipped into the
    # (gamma, q, b) box that the perturbed restarts are clipped to as well.
    inv_d = 1.0 / d
    slope, intercept = _ols(inv_d, y) or (1.0, float(y.mean() - inv_d.mean()))
    lower, upper = (1e-8, 1e-3, ZERO_CAPACITY), (1e8, 10.0, 1e8)
    seed = np.clip([slope, 1.0, intercept], lower, upper)
    seeds = [np.log(point) for point in _restart_points(seed, lower, upper, cfg)]

    theta, _, converged, n_iters = _run_restarts(residual, jacobian, seeds, cfg)
    gamma, q, b = unpack(theta)
    if b < ZERO_CAPACITY:
        b = 0.0
    law = TailLaw(gamma=gamma, q=q, b=b)
    m = gamma * d**-q + b
    r = (ln_y - np.log(m)) if log_space else (y - m)
    return FitResult(
        law=law,
        objective=float(r @ r),
        residuals=[float(v) for v in r],
        converged=converged,
        n_iters=n_iters,
    )


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
