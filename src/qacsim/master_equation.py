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
makes the gamma(-omega)/gamma(omega) ratio exactly thermal.  The
principal-value (Lamb-shift) part of the bath correlation is not modelled.

Both integrators live in :mod:`qacsim._integrator`, and each hands one step
function to its step controller: at kappa = 0 the anneal is unitary and runs
on the matrix-free split-operator integrator behind
:func:`qacsim.dynamics.evolve_closed`; with a bath it runs on the eigenbasis
integrator ``frame_run``, whose sub-steps are one coherent propagator matrix
each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integrator import frame_run, split_operator_run, tracked_levels
from .dynamics import QuantumState, Trajectory
from .errors import NumericalError, ResourceLimitError, ValidationError
from .problem import AnnealSchedule, EncodedProblem

__all__ = ["BathSpec", "bath_rate", "evolve_open", "DEFAULT_OPEN_QUBIT_CAP"]

DEFAULT_OPEN_QUBIT_CAP = 8


@dataclass(frozen=True)
class BathSpec:
    """Ohmic dephasing-bath parameters shared by every qubit."""

    kappa: float
    omega_c: float = 8.0 * np.pi
    temperature: float = 2.2
    cutoff_mode: str = "printed"

    def __post_init__(self) -> None:
        if self.kappa < 0:
            raise ValidationError("kappa must be >= 0")
        if self.omega_c <= 0 or self.temperature <= 0:
            raise ValidationError("omega_c and temperature must be positive")
        if self.cutoff_mode not in ("printed", "absolute"):
            raise ValidationError("cutoff_mode must be 'printed' or 'absolute'")

    def rate(self, omega):
        return bath_rate(omega, self)


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


def evolve_open(
    problem: EncodedProblem,
    schedule: AnnealSchedule,
    bath: BathSpec,
    initial: QuantumState | None = None,
    levels: int | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    snapshots: int = 9,
) -> Trajectory:
    """Integrate the adiabatic master equation across the anneal.

    With a bath (kappa > 0) the density matrix is propagated in the
    instantaneous eigenbasis (see :mod:`qacsim._integrator`), optionally
    truncated to the lowest ``levels`` instantaneous states.  At kappa = 0
    the anneal is unitary: a factor W of rho0 = W W^dagger (the state itself
    when pure, sqrt(p)-scaled eigenvectors when mixed) runs on the
    matrix-free integrator behind :func:`qacsim.dynamics.evolve_closed`, every
    level is tracked and ``levels`` is range-checked but otherwise ignored.
    Trace preservation is checked to 1e-8 at every snapshot and Hermiticity
    is enforced by symmetrization.

    The returned trajectory's ``report`` (an ``IntegratorReport``) gives the
    accepted and rejected steps, the node builds (one eigensolve each, two a
    step with a bath, none at kappa = 0), the smallest step the error
    control chose, in ns, and, under truncation, the truncation margin: the
    smallest gap between the last kept and the first dropped level for
    0 < s < 1.  A margin near zero means ``levels`` cuts a degenerate
    cluster, where the step size collapses and the answer moves.
    """
    n = problem.num_physical
    if n > DEFAULT_OPEN_QUBIT_CAP:
        raise ResourceLimitError(f"{n} qubits exceeds the density-matrix cap of {DEFAULT_OPEN_QUBIT_CAP}")
    if initial is None:
        initial = QuantumState.transverse_ground(n)
    if initial.data.shape[0] != (1 << n):
        raise ValidationError("initial state dimension does not match the problem")
    rho0 = initial.as_density()
    if abs(np.trace(rho0).real - 1.0) > QuantumState.TRACE_TOL:
        raise ValidationError("initial density matrix must have unit trace")

    if bath.kappa == 0.0:
        tracked_levels(levels, n)
        if initial.kind == "pure":
            W0 = initial.data
        else:
            p, V = np.linalg.eigh(rho0)
            W0 = V[:, p > 0] * np.sqrt(p[p > 0])
        s_points, factors, report = split_operator_run(problem, schedule, W0, snapshots, rtol, atol)
        raw = [W @ W.conj().T for W in (F.reshape(1 << n, -1) for F in factors)]
    else:
        s_points, raw, report = frame_run(problem, schedule, bath, rho0, levels, snapshots, rtol, atol)
    states = []
    for rho in raw:
        rho = 0.5 * (rho + rho.conj().T)
        trace = float(np.real(np.trace(rho)))
        if abs(trace - 1.0) > 1e-8:
            raise NumericalError(f"trace drifted to {trace}; tighten rtol or raise levels")
        states.append(QuantumState.density(rho))
    return Trajectory(np.asarray(s_points), tuple(states), report)
