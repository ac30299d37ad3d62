"""Domain types and closed-form evaluators for data scaling curves.

The central object is :class:`PowerLaw`, the triple ``(alpha, c, p)`` of the
saturating power law

    loss(d) = alpha * (1/d + c) ** p

with ``d`` the dataset size in millions of sentence pairs.  The law is
strictly decreasing in ``d`` and approaches the floor ``alpha * c**p`` as
``d`` grows.  :class:`JointLawParams` extends it by deriving the capacity
constant ``c`` from encoder/decoder parameter counts instead of fitting it.

Everything in this module is a pure function of its arguments; evaluators
accept scalars or numpy arrays for the dataset size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

METRICS = ("log_perplexity", "bleu")

# Fitted capacity constants below this are reported as zero: the power-law
# searches start their ln c grid here, with c = 0 as an endpoint below it.
ZERO_CAPACITY = 1e-12


@dataclass(frozen=True)
class Observation:
    """One measured point on a data scaling curve.

    Args:
        condition: Label of the training setup the point belongs to.
        d_millions: Dataset size in millions of sentence pairs (> 0 and
            finite).
        loss: Measured value (finite); test log-perplexity in nats/token
            for the default metric, or a BLEU score.
        n_enc: Encoder parameter count, if known.
        n_dec: Decoder parameter count, if known.  Must be given together
            with ``n_enc`` or not at all.
        metric: Either ``"log_perplexity"`` (default) or ``"bleu"``.
    """

    condition: str
    d_millions: float
    loss: float
    n_enc: int | None = None
    n_dec: int | None = None
    metric: str = "log_perplexity"

    def __post_init__(self):
        check_observation(self.d_millions, self.loss, self.n_enc, self.n_dec, self.metric)

    @property
    def shape(self) -> tuple[int, int] | None:
        """The (encoder, decoder) parameter-count pair, if present."""
        if self.n_enc is None:
            return None
        return (self.n_enc, self.n_dec)


def check_observation(d_millions, loss, n_enc, n_dec, metric) -> None:
    """The checks of an :class:`Observation`'s fields, without building one:
    a DomainError naming the first field that fails."""
    if metric not in METRICS:
        raise DomainError(f"unknown metric {metric!r}")
    if not (d_millions > 0 and math.isfinite(d_millions)):
        raise DomainError(f"d_millions must be positive and finite, got {d_millions}")
    if not math.isfinite(loss):
        raise DomainError(f"loss must be finite, got {loss}")
    if metric == "log_perplexity" and not loss > 0:
        raise DomainError(f"loss must be positive, got {loss}")
    if (n_enc is None) != (n_dec is None):
        raise DomainError("n_enc and n_dec must be given together or not at all")
    if n_enc is not None and (n_enc <= 0 or n_dec <= 0):
        raise DomainError("parameter counts must be positive")


@dataclass(frozen=True)
class PowerLaw:
    """Coefficients of the saturating power law ``alpha * (1/d + c) ** p``.

    Args:
        alpha: Multiplicative constant (> 0).
        c: Capacity constant (>= 0); ``1/c`` marks the crossover from the
            data-limited to the capacity-limited regime.
        p: Scaling exponent, constrained to (0, 2].
    """

    alpha: float
    c: float
    p: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.c >= 0:
            raise DomainError(f"c must be non-negative, got {self.c}")
        if not 0 < self.p <= 2:
            raise DomainError(f"p must lie in (0, 2], got {self.p}")


@dataclass(frozen=True)
class TailLaw:
    """Coefficients of the large-data tail law ``gamma * (1/d) ** q + b``.

    Args:
        gamma: Multiplicative constant (> 0).
        q: Tail exponent (> 0); near 1 when the data comes from a saturating
            power law evaluated deep in its capacity-limited regime.
        b: Additive asymptote (>= 0).
    """

    gamma: float
    q: float
    b: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if not self.q > 0:
            raise DomainError(f"q must be positive, got {self.q}")
        if not self.b >= 0:
            raise DomainError(f"b must be non-negative, got {self.b}")


@dataclass(frozen=True)
class JointLawParams:
    """Parameters of the joint data/parameter-count scaling law.

    The capacity constant is derived from the encoder and decoder parameter
    counts as ``c = beta * (n_enc**-p_e * n_dec**-p_d + l_inf) ** (1/p)``;
    the loss is then ``alpha * (1/d + c) ** p``.  Only ``alpha`` and ``p``
    are ever fitted; the quartet ``(beta, p_e, p_d, l_inf)`` comes from an
    externally supplied parameter scaling law.
    """

    alpha: float
    p: float
    beta: float
    p_e: float
    p_d: float
    l_inf: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not 0 < self.p <= 2:
            raise DomainError(f"p must lie in (0, 2], got {self.p}")
        for name in ("beta", "p_e", "p_d"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.l_inf >= 0:
            raise DomainError(f"l_inf must be non-negative, got {self.l_inf}")


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares line with its coefficient of determination."""

    slope: float
    intercept: float
    r2: float

    def __post_init__(self):
        if not 0 <= self.r2 <= 1:
            raise DomainError(f"r2 must lie in [0, 1], got {self.r2}")


def _as_positive_d(d_millions):
    """Validate dataset sizes: a Python float is returned as it is, anything
    else as a float array."""
    if type(d_millions) is float:
        if not 0 < d_millions < math.inf:
            raise DomainError(f"dataset size must be positive and finite, got {d_millions}")
        return d_millions
    d = np.asarray(d_millions, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise DomainError(f"dataset size must be positive and finite, got {d_millions}")
    return d


def eval_law(law: PowerLaw, d_millions):
    """Evaluate ``alpha * (1/d + c) ** p`` at one or more dataset sizes.

    Args:
        law: Law to evaluate.
        d_millions: Scalar or array of dataset sizes in millions of pairs.

    Returns:
        The loss, as a float for scalar input or an ndarray otherwise.
        Values are strictly decreasing in ``d`` and bounded below by
        ``alpha * c ** p``.  A float ``d`` is computed with plain float
        operators, which give the bits of numpy's scalar ones; ``simulate``
        draws on this path.  An array goes through numpy's array ``power``,
        which differs from libm's ``pow`` in the last bit for about 5 % of
        sizes.  An element of an array gets the same bits whatever the
        array's length or its position in it, so the fitters and the tables
        of :mod:`datascale.reports`, all on arrays, agree bit for bit.

    Raises:
        DomainError: A size is invalid, or the law overflows at a size.
    """
    d = _as_positive_d(d_millions)
    out = _finite(lambda: law.alpha * (1.0 / d + law.c) ** law.p, d, f"(1/d + c) ** p overflows at d = {{}}, "
                  f"c = {law.c}, p = {law.p}")
    return float(out) if np.isscalar(d_millions) else out


def eval_tail_law(law: TailLaw, d_millions):
    """Evaluate ``gamma * d**-q + b``, the tail law, at sizes checked as
    :func:`eval_law` checks them: a float ``d`` gives a float, an array gives
    an array, and a law that overflows at a size raises DomainError."""
    d = _as_positive_d(d_millions)
    return _finite(lambda: law.gamma * d**-law.q + law.b, d, f"gamma * d ** -q overflows at d = {{}}, "
                   f"gamma = {law.gamma}, q = {law.q}")


def _finite(evaluate, d, message):
    """``evaluate()``, a law at sizes ``d``, unless it overflows: float ``**``
    raises where numpy's power gives inf, and either is a DomainError whose
    ``message`` names the smallest size that overflows."""
    try:
        with np.errstate(over="ignore"):
            out = evaluate()
    except OverflowError:
        out = math.inf
    overflows = np.isinf(out)
    if np.any(overflows):
        raise DomainError(message.format(d if np.isscalar(d) else d[overflows].min().item()))
    return out


def count_term(params: JointLawParams, n_e, n_d):
    """``n_e**-p_e * n_d**-p_d + l_inf`` for scalar or array counts, taken in
    log space so that billion-parameter counts do not underflow.  Counts are
    cast to float first, as numpy cannot take the log of an int of 2⁶⁴ or more."""
    n_e, n_d = np.asarray(n_e, dtype=float), np.asarray(n_d, dtype=float)
    return np.exp(-params.p_e * np.log(n_e) - params.p_d * np.log(n_d)) + params.l_inf


def capacity_constant(params: JointLawParams, n_e: int, n_d: int) -> float:
    """Capacity constant ``beta * g ** (1/p)`` implied by the parameter counts
    under ``params``, with ``g`` the :func:`count_term`."""
    if n_e <= 0 or n_d <= 0:
        raise DomainError(f"parameter counts must be positive, got ({n_e}, {n_d})")
    return float(params.beta * count_term(params, n_e, n_d) ** (1.0 / params.p))


def eval_joint_law(params: JointLawParams, n_e: int, n_d: int, d_millions):
    """Evaluate the joint data/parameter law at given counts and sizes.

    Equivalent to ``eval_law(PowerLaw(alpha, capacity, p), d)`` with the
    capacity from :func:`capacity_constant`; as ``d`` grows the value
    approaches ``alpha * beta**p * (n_e**-p_e * n_d**-p_d + l_inf)``, the
    underlying parameter scaling law.
    """
    c = capacity_constant(params, n_e, n_d)
    return eval_law(PowerLaw(params.alpha, c, params.p), d_millions)
