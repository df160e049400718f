"""Adiabatic Markovian master equation with independent dephasing baths.

Each physical qubit couples through sigma^z to its own Ohmic oscillator bath.
The time-dependent Lindblad operators are built from the instantaneous
eigenbasis of H(s), grouping transition frequencies that agree within a
binning tolerance (exact Kronecker-delta matching is meaningless in floating
point).  Rates are

    gamma(omega) = 2 pi kappa omega exp(-omega/omega_c) / (1 - exp(-omega/T))

with kappa the effective system-bath coupling, omega_c the UV cutoff and T
the bath temperature (all in rad/ns).  gamma(0) is the analytic limit
2 pi kappa T.  The exponential cutoff is applied to signed omega by default
("printed" mode); "absolute" mode uses exp(-|omega|/omega_c) instead, which
makes the gamma(-omega)/gamma(omega) ratio exactly thermal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integrator import FrameEvolver
from .dynamics import QuantumState, Trajectory
from .errors import NumericalError, ResourceLimitError, ValidationError
from .problem import AnnealSchedule, EncodedProblem

__all__ = ["BathSpec", "bath_rate", "lamb_shift_rate", "evolve_open", "DEFAULT_OPEN_QUBIT_CAP"]

DEFAULT_OPEN_QUBIT_CAP = 8


@dataclass(frozen=True)
class BathSpec:
    """Ohmic dephasing-bath parameters shared by every qubit."""

    kappa: float
    omega_c: float = 8.0 * np.pi
    temperature: float = 2.2
    cutoff_mode: str = "printed"
    lamb_shift: bool = False
    lamb_cutoff_factor: float = 10.0
    lamb_points: int = 4001

    def __post_init__(self) -> None:
        if self.kappa < 0:
            raise ValidationError("kappa must be >= 0")
        if self.omega_c <= 0 or self.temperature <= 0:
            raise ValidationError("omega_c and temperature must be positive")
        if self.cutoff_mode not in ("printed", "absolute"):
            raise ValidationError("cutoff_mode must be 'printed' or 'absolute'")

    def rate(self, omega):
        return bath_rate(omega, self)

    def lamb_shift_rate(self, omega):
        return lamb_shift_rate(omega, self)


def bath_rate(omega, bath: BathSpec):
    """Ohmic spectral rate gamma(omega); accepts scalars or arrays."""
    w = np.asarray(omega, dtype=float)
    T = bath.temperature
    x = w / T
    cut_arg = np.abs(w) if bath.cutoff_mode == "absolute" else w
    # omega / (1 - exp(-omega/T)) evaluated stably on both signs
    small = np.abs(x) < 1e-8
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pos = w / (1.0 - np.exp(-np.clip(x, 0.0, None)))
        neg = -w * np.exp(np.clip(x, None, 0.0)) / (1.0 - np.exp(np.clip(x, None, 0.0)))
    body = np.where(small, T + 0.5 * w, np.where(x > 0, pos, neg))
    out = 2.0 * np.pi * bath.kappa * body * np.exp(-cut_arg / bath.omega_c)
    return float(out) if np.isscalar(omega) else out


def lamb_shift_rate(omega, bath: BathSpec):
    """Principal-value transform S(omega) = PV integral gamma(w')/(omega-w') dw'.

    Integrates over [-L, L] with L = lamb_cutoff_factor * omega_c using
    singularity subtraction: the subtracted integrand is smooth and handled
    by a uniform Simpson rule, the subtracted pole integrates to
    gamma(omega) * log|(L+omega)/(L-omega)|.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    L = bath.lamb_cutoff_factor * bath.omega_c
    if np.any(np.abs(w) >= L):
        raise ValidationError("evaluation frequency outside the principal-value window")
    npts = bath.lamb_points | 1  # Simpson needs an odd count
    grid = np.linspace(-L, L, npts)
    gamma_grid = bath_rate(grid, bath)
    gamma_w = bath_rate(w, bath)
    out = np.empty_like(w)
    chunk = max(1, int(2e6) // npts)
    for lo in range(0, len(w), chunk):
        sel = slice(lo, min(lo + chunk, len(w)))
        diff = w[sel, None] - grid[None, :]
        integrand = np.where(
            np.abs(diff) < 1e-12,
            0.0,
            (gamma_grid[None, :] - gamma_w[sel, None]) / np.where(np.abs(diff) < 1e-12, 1.0, diff),
        )
        out[sel] = _simpson(integrand, grid)
    out += gamma_w * np.log(np.abs((w + L) / np.where(np.abs(w - L) < 1e-300, 1e-300, w - L)))
    return float(out[0]) if np.isscalar(omega) else out


def _simpson(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    weights = np.ones_like(grid)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (h / 3.0) * (values * weights).sum(axis=-1)


def evolve_open(
    problem: EncodedProblem,
    schedule: AnnealSchedule,
    bath: BathSpec,
    initial: QuantumState | None = None,
    levels: int | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    snapshots: int = 9,
    bin_tol: float = 1e-6,
    qubit_cap: int = DEFAULT_OPEN_QUBIT_CAP,
    trace_tol: float = 1e-8,
) -> Trajectory:
    """Integrate the adiabatic master equation across the anneal.

    The density matrix is propagated in the instantaneous eigenbasis (see
    :mod:`qacsim._integrator`), optionally truncated to the lowest ``levels``
    instantaneous states; the Lamb shift enters when ``bath.lamb_shift`` is
    set.  Trace preservation is checked against ``trace_tol`` at every
    snapshot and Hermiticity is enforced by symmetrization.

    The returned trajectory's ``report`` (an ``IntegratorReport``) gives the
    accepted and rejected steps, the node builds (one eigensolve each, two a
    step), the smallest accepted step in ns and, under truncation, the
    truncation margin: the smallest gap between the last kept and the first
    dropped level for 0 < s < 1.  A margin near zero means ``levels`` cuts a
    degenerate cluster, where the step size collapses and the answer moves.
    """
    n = problem.num_physical
    if n > qubit_cap:
        raise ResourceLimitError(f"{n} qubits exceeds the density-matrix cap of {qubit_cap}")
    if initial is None:
        initial = QuantumState.transverse_ground(n)
    if initial.data.shape[0] != (1 << n):
        raise ValidationError("initial state dimension does not match the problem")
    rho0 = initial.as_density()
    if abs(np.trace(rho0).real - 1.0) > QuantumState.TRACE_TOL:
        raise ValidationError("initial density matrix must have unit trace")

    evolver = FrameEvolver(
        problem, schedule, bath=bath, levels=levels, rtol=rtol, atol=atol, bin_tol=bin_tol
    )
    s_points, raw = evolver.run(rho0, snapshots=snapshots)
    states = []
    for rho in raw:
        rho = 0.5 * (rho + rho.conj().T)
        trace = float(np.real(np.trace(rho)))
        if abs(trace - 1.0) > trace_tol:
            raise NumericalError(f"trace drifted to {trace}; tighten rtol or raise levels")
        states.append(QuantumState.density(rho))
    return Trajectory(np.asarray(s_points), tuple(states), evolver.report)
