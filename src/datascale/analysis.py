"""Quantities derived from a fitted scaling law.

Covers the two operating regimes of the saturating power law (the loss
floor and the transition size ``1/c`` where the data-limited and
capacity-limited approximations steepen equally), the marginal value of
additional data, the data-equivalence factor between two conditions sharing
an exponent, and Monte Carlo estimation of the exponent's sampling
variability under multiplicative loss noise.

Monte Carlo draws every replicate first, then fits them as the rows of one
batched search in blocks of bounded size (``fitting._fit_laws``).  Each row
gets the bits that :func:`~datascale.fitting.fit_single` gives that
replicate alone, so the summary does not depend on how the replicates are
batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Observation, PowerLaw, _as_positive_d
from .errors import DomainError, ExponentMismatchError, MonteCarloError
from .fitting import FitConfig, _fit_laws, _single_group_arrays

# Replicate losses are redrawn while non-positive, up to this many attempts
# per observation; a replicate that exhausts them is dropped as unusable.
MAX_REDRAWS = 100


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings for exponent-uncertainty estimation.

    Args:
        noise_frac: Relative noise level; replicate losses are drawn from
            ``Normal(loss, noise_frac * loss)`` per observation.
        n_reps: Number of replicates.
        seed: Master seed; replicate ``r`` draws from a stream derived from
            ``(seed, r)`` so results do not depend on evaluation order.
    """

    noise_frac: float = 0.02
    n_reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.noise_frac > 0:
            raise DomainError("noise_frac must be positive")
        if self.n_reps < 2:
            raise DomainError("n_reps must be at least 2")


@dataclass(frozen=True)
class McSummary:
    """Distribution summary of the fitted exponent over replicates."""

    mean_p: float
    std_p: float
    quantiles: tuple[float, float, float]
    n_converged: int

    def __post_init__(self):
        q05, q50, q95 = self.quantiles
        if not (q05 <= q50 <= q95):
            raise DomainError(f"quantiles out of order: {self.quantiles}")


def asymptotic_loss(law: PowerLaw) -> float:
    """Loss floor ``alpha * c ** p`` reached as the dataset grows without
    bound; zero when ``c`` is zero."""
    if law.c == 0:
        return 0.0
    return float(law.alpha * law.c**law.p)


def transition_point(law: PowerLaw) -> float | None:
    """Dataset size ``1/c`` where the curve crosses from the data-limited
    into the capacity-limited regime; None when ``c`` is zero (the curve
    never saturates).  There the data-limited approximation ``alpha*d**-p``
    and the capacity-limited linearization ``alpha*c**p + alpha*p*c**(p-1)/d``
    have slopes of equal magnitude, ``(c*d)**(p-1) = 1``, for every ``p``."""
    if law.c == 0:
        return None
    return 1.0 / law.c


def marginal_value(law: PowerLaw, d_millions) -> float:
    """Instantaneous loss improvement per additional million pairs.

    Returns ``-dL/dD = alpha * p * d**-2 * (1/d + c)**(p-1)``, which scales
    as ``d**-(1+p)`` deep in the data-limited regime and as ``d**-2`` in the
    capacity-limited regime.
    """
    d = _as_positive_d(d_millions)
    out = law.alpha * law.p * d**-2.0 * (1.0 / d + law.c) ** (law.p - 1.0)
    return float(out) if np.isscalar(d_millions) else out


def data_equivalence_factor(law1: PowerLaw, law2: PowerLaw) -> float:
    """Constant data multiplier equating two conditions with a shared exponent.

    In the data-limited regime, condition 1 needs ``(alpha1/alpha2)**(1/p)``
    times the data of condition 2 to reach the same loss.  Only defined when
    the exponents agree.

    Raises:
        ExponentMismatchError: ``|p1 - p2|`` exceeds 1e-9.
    """
    if abs(law1.p - law2.p) > 1e-9:
        raise ExponentMismatchError(
            f"exponents differ ({law1.p} vs {law2.p}); factor requires a shared exponent"
        )
    return float((law1.alpha / law2.alpha) ** (1.0 / law1.p))


# ---------------------------------------------------------------------------
# Monte Carlo exponent uncertainty
# ---------------------------------------------------------------------------


def _replicate_losses(losses, noise_frac, rng) -> np.ndarray | None:
    """Draw one noisy replicate, redrawing non-positive values per point."""
    out = np.empty(len(losses))
    for i, loss in enumerate(losses):
        for _ in range(MAX_REDRAWS):
            draw = rng.normal(loss, noise_frac * loss)
            if draw > 0:
                out[i] = draw
                break
        else:
            return None
    return out


def _replicate_draws(losses: np.ndarray, cfg_mc: McConfig) -> np.ndarray:
    """Every usable replicate's losses, one row each in replicate order.

    Replicate ``r`` is one ``normal(losses, noise_frac * losses)`` draw from
    the stream ``(seed, r)``, which gives the numbers of a draw point by
    point; only a replicate holding a non-positive draw is drawn again by
    :func:`_replicate_losses`, from the start of its stream, and left out if
    that runs out of redraws.
    """
    with np.errstate(over="ignore"):
        scale = cfg_mc.noise_frac * losses
    if not np.isfinite(scale).all():
        raise DomainError(
            f"--noise-frac {cfg_mc.noise_frac:g} times losses up to {losses.max():g} overflows a float"
        )
    draws = np.empty((cfg_mc.n_reps, len(losses)))
    kept = 0
    for rep in range(cfg_mc.n_reps):
        draw = np.random.default_rng([cfg_mc.seed, rep]).normal(losses, scale)
        if not (draw > 0).all():
            draw = _replicate_losses(losses, cfg_mc.noise_frac, np.random.default_rng([cfg_mc.seed, rep]))
        if draw is not None:
            draws[kept] = draw
            kept += 1
    return draws[:kept]


def mc_uncertainty(
    obs: list[Observation], cfg_fit: FitConfig, cfg_mc: McConfig
) -> McSummary:
    """Estimate the sampling variability of the fitted exponent.

    Each replicate perturbs every observed loss independently with
    ``Normal(loss, noise_frac * loss)`` noise and refits the power law;
    the summary is taken over replicates whose fit converged.  Replicate
    ``r`` uses a dedicated stream seeded by ``(seed, r)``, so any subset of
    replicates can be reproduced independently.

    Raises:
        MonteCarloError: No replicate produced a converged fit.
        DataScaleError: ``obs`` fails the checks of :func:`fit_single`, or
            ``noise_frac`` times a loss overflows; raised before any draw.
            A replicate holding an infinite draw, or one ``fit_single``
            rejects, raises once the replicates before it are fitted.
    """
    d, losses = _single_group_arrays(obs, cfg_fit.loss_space)
    draws = _replicate_draws(losses, cfg_mc)
    finite = np.isfinite(draws).all(1)
    n = len(draws) if finite.all() else int(finite.argmin())
    ps = [law.p for law, converged, _ in _fit_laws(d, draws[:n], cfg_fit) if converged]
    if n < len(draws):  # the finite-loss check of an Observation
        raise DomainError(f"loss must be finite, got {draws[n].max()}")
    if not ps:
        raise MonteCarloError("no Monte Carlo replicate converged")
    arr = np.array(ps)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    q05, q50, q95 = (float(q) for q in np.quantile(arr, [0.05, 0.5, 0.95]))
    return McSummary(
        mean_p=float(arr.mean()),
        std_p=std,
        quantiles=(q05, q50, q95),
        n_converged=len(arr),
    )
