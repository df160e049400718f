"""Thermal independent-kink model for antiferromagnetic chains and
success-vs-length curve fits.

For an N-spin chain at coupling scale alpha and temperature T (same units),
a kink is one violated nearest-neighbour bond, costing 2*alpha.  With N-1
independent bond variables the partition function is
(2*cosh(alpha/T))^(N-1), the per-bond kink probability is
p = 1/(1 + exp(2*alpha/T)), and the no-kink probability is (1-p)^(N-1).
These forms satisfy p -> 0 and P_N(0) -> 1 as T -> 0 and coincide with the
exact Gibbs weight of the two degenerate ground states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ValidationError

__all__ = [
    "KinkModel",
    "flip_probability",
    "no_kink_probability",
    "FitResult",
    "LorentzianFit",
    "ExponentialFit",
    "lorentzian_fit",
    "exponential_fit",
]


@dataclass(frozen=True)
class KinkModel:
    alpha: float
    temperature: float

    def __post_init__(self) -> None:
        if not -np.inf < self.alpha < np.inf:
            raise ValidationError("alpha must be finite")
        if not 0 < self.temperature < np.inf:
            raise ValidationError("temperature must be finite and positive")


def flip_probability(model: KinkModel) -> float:
    """Thermal probability of a single bond hosting a kink."""
    return 1.0 / (1.0 + np.exp(2.0 * model.alpha / model.temperature))


def no_kink_probability(model: KinkModel, N: int) -> float:
    """Probability of a kink-free chain of N spins: (1-p)^(N-1)."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    return float((1.0 / (1.0 + np.exp(-2.0 * model.alpha / model.temperature))) ** (N - 1))


# ---------------------------------------------------------------------------
# success-curve fits


@dataclass(frozen=True)
class FitResult:
    p: float
    residual: float
    degenerate: bool = False

    def predict(self, N):
        raise NotImplementedError


@dataclass(frozen=True)
class LorentzianFit(FitResult):
    def predict(self, N):
        return 1.0 / (1.0 + self.p * np.asarray(N, dtype=float) ** 2)


@dataclass(frozen=True)
class ExponentialFit(FitResult):
    def predict(self, N):
        return (1.0 - self.p) ** (np.asarray(N, dtype=float) - 1.0)


def _validate_curve(data):
    data = [(int(n), float(prob)) for n, prob in data]
    if len(data) < 3:
        raise ValidationError("need at least 3 points to fit")
    for n, prob in data:
        if not 0.0 < prob <= 1.0:
            raise ValidationError(f"probability {prob} at N={n} outside (0, 1]")
    ns = np.array([n for n, _ in data], dtype=float)
    ps = np.array([prob for _, prob in data])
    return ns, ps


def lorentzian_fit(data) -> LorentzianFit:
    """Least-squares fit of P(N) = 1/(1 + p N^2) with p >= 0.

    Fitted in probability space with uniform weights; the 1-d minimization is
    bracketed and refined to an absolute tolerance of 1e-10 (relative to the
    curvature scale), so results are deterministic.  All-ones data yields the
    degenerate p = 0 answer, flagged.
    """
    ns, probs = _validate_curve(data)
    if np.all(probs == 1.0):
        return LorentzianFit(0.0, 0.0, degenerate=True)

    def loss(p):
        return float(np.sum((probs - 1.0 / (1.0 + p * ns**2)) ** 2))

    # moment-based starting scale: P = 1/(1+pN^2) -> p ~ (1/P - 1)/N^2
    p0 = float(np.median((1.0 / probs - 1.0) / ns**2))
    hi = max(p0 * 10.0, 1e-6)
    while loss(hi) < loss(hi * 10.0) and hi < 1e8:
        hi *= 10.0
    res = minimize_scalar(loss, bounds=(0.0, hi * 10.0), method="bounded", options={"xatol": 1e-14})
    p_hat = max(0.0, float(res.x))
    return LorentzianFit(p_hat, loss(p_hat))


def exponential_fit(data) -> ExponentialFit:
    """Least-squares fit of the independent-errors form P(N) = (1-p)^(N-1)."""
    ns, probs = _validate_curve(data)
    if np.all(probs == 1.0):
        return ExponentialFit(0.0, 0.0, degenerate=True)

    def loss(p):
        return float(np.sum((probs - (1.0 - p) ** (ns - 1.0)) ** 2))

    res = minimize_scalar(loss, bounds=(0.0, 1.0 - 1e-12), method="bounded", options={"xatol": 1e-14})
    p_hat = float(res.x)
    return ExponentialFit(p_hat, loss(p_hat))
