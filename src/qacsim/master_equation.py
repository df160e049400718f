"""Adiabatic Markovian master equation with independent dephasing baths.

Each physical qubit couples through sigma^z to its own Ohmic oscillator bath.
The time-dependent Lindblad operators are built from the instantaneous
eigenbasis of H(s), grouping transition frequencies that agree within a
binning tolerance (exact Kronecker-delta matching is meaningless in floating
point).  Rates are

    gamma(omega) = 2 pi kappa omega exp(-omega/omega_c) / (1 - exp(-omega/T))

with kappa the effective system-bath coupling, omega_c the UV cutoff and T
the bath temperature (all in rad/ns).  omega / (1 - exp(-omega/T)) is
evaluated as omega / -expm1(-omega/T), accurate to rounding on both signs
and down to omega -> 0, where gamma(0) is the analytic limit 2 pi kappa T.
The exponential cutoff acts on signed omega, so the ratio
gamma(-omega)/gamma(omega) = exp(-omega/T) exp(2 omega/omega_c) is not
exactly thermal.  The principal-value (Lamb-shift) part of the bath
correlation is not modelled.

Both integrators live in :mod:`qacsim._integrator`, and each hands one step
function to its step controller: at kappa = 0 the anneal is unitary and runs
on the matrix-free split-operator integrator behind
:func:`qacsim.dynamics.evolve_closed`; with a bath it runs on the eigenbasis
integrator ``frame_run``, whose frame splits into the two parity sectors of
the global flip when no qubit has a local field.  Every anneal starts in
the ground state of the transverse field.  That start commutes with the
flip, and every sigma^z Lindblad operator maps sector σ to -σ and so keeps
that symmetry: the density matrix is carried as its two diagonal sector
blocks, or as the one whole-space block under a field.  A sub-step's
coherent propagator is one matrix per sector, exponentiated on its own.
Both integrators run once per distinct connected component of the
physical problem: a qubit's sigma^z Lindblad operators act on its own
component alone, so C's three uncoupled copies cost one U anneal.  Such a
factored anneal keeps every level, so ``levels`` is only range-checked
against 2^n, and ``DEFAULT_OPEN_QUBIT_CAP`` still bounds the returned
2^n x 2^n state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integrator import anneal_components, frame_run, split_operator_run, tracked_levels
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

    def __post_init__(self) -> None:
        if not 0 <= self.kappa < np.inf:
            raise ValidationError("kappa must be finite and >= 0")
        if not (0 < self.omega_c < np.inf and 0 < self.temperature < np.inf):
            raise ValidationError("omega_c and temperature must be finite and positive")

    def rate(self, omega):
        """:func:`bath_rate` for this bath; ``_integrator`` cannot import this module."""
        return bath_rate(omega, self)


def bath_rate(omega, bath: BathSpec):
    """Ohmic spectral rate gamma(omega); accepts scalars or arrays."""
    w = np.asarray(omega, dtype=float)
    T = bath.temperature
    x = -w / T
    # omega / (1 - exp(-omega/T)), with the limit T where x underflows to 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        body = np.where(x == 0.0, T, w / -np.expm1(x))
    out = 2.0 * np.pi * bath.kappa * body * np.exp(-w / bath.omega_c)
    return float(out) if np.isscalar(omega) else out


def evolve_open(
    problem: EncodedProblem,
    schedule: AnnealSchedule,
    bath: BathSpec,
    levels: int | None = None,
    rtol: float = 1e-8,
    snapshots: int = 9,
) -> Trajectory:
    """Integrate the adiabatic master equation across the anneal from the
    transverse-field ground state.

    Each distinct connected component of the physical problem (every listed
    coupling joins its two qubits) is annealed once on its own 2^k space,
    from its own transverse-field ground state, and every snapshot is the
    tensor product of the components' states, permuted to the problem's
    qubit order: C's three uncoupled copies run as one U copy.

    With a bath (kappa > 0) the density matrix is propagated in the
    instantaneous eigenbasis (see :mod:`qacsim._integrator`).  A problem
    annealed as one component is optionally truncated to the lowest
    ``levels`` instantaneous states.  When no physical qubit has a local
    field, H(s) commutes with the global flip prod_q sigma^x_q and the
    eigenbasis is built in its two parity sectors: ``levels`` is then split
    evenly between them and must be even (ValidationError otherwise), so the
    frame keeps the lowest levels/2 of each sector.  The start commutes with
    the flip and stays so, and only the density matrix's two diagonal sector
    blocks are integrated.  A problem of several components keeps every
    level of each: ``levels`` must lie in [1, 2^n] but is otherwise ignored.
    At kappa = 0 the anneal is unitary: the state vector runs on the
    matrix-free integrator behind :func:`qacsim.dynamics.evolve_closed`,
    every level is tracked and ``levels`` is range-checked but otherwise
    ignored.  ``levels`` must be an integer or None and ``snapshots`` an
    integer >= 2 (ValidationError otherwise).  A trace off 1 by more than
    ``QuantumState.TRACE_TOL`` at any snapshot raises NumericalError;
    Hermiticity is enforced by symmetrization.  ``DEFAULT_OPEN_QUBIT_CAP``
    bounds the qubits of the returned 2^n x 2^n density matrices, however
    small the components.

    The returned trajectory's ``report`` (an ``IntegratorReport``) gives the
    accepted and rejected steps, the node builds (each solves every sector,
    two a step with a bath, none at kappa = 0), the smallest step the
    error control chose, in ns, and, under truncation, the truncation
    margin: the smallest gap between the last kept and the first dropped
    level of one sector for 0 < s < 1.  A margin near zero means ``levels``
    cuts a degenerate cluster, where the step size collapses and the answer
    moves.  A factored anneal reports its one run when every component is
    equal, as under C; distinct components add up their steps and node
    builds and keep the smallest step.
    """
    n = problem.num_physical
    if n > DEFAULT_OPEN_QUBIT_CAP:
        raise ResourceLimitError(f"{n} qubits exceeds the density-matrix cap of {DEFAULT_OPEN_QUBIT_CAP}")
    if not 0.0 <= rtol < np.inf:
        raise ValidationError(f"rtol must be finite and >= 0, got {rtol}")
    tracked_levels(levels, n)

    def run(physical):
        """Anneal ``physical`` from its transverse-field ground state: state
        vectors at kappa = 0, else density matrices."""
        psi0 = QuantumState.transverse_ground(physical.num_spins).data
        if bath.kappa > 0.0:
            # a component narrower than the problem keeps every level
            return frame_run(physical, schedule, bath, psi0, levels if physical.num_spins == n else None,
                             snapshots, rtol)
        return split_operator_run(physical, schedule, psi0, snapshots, rtol)

    s_points, raw, report = anneal_components(problem.physical, run)
    if bath.kappa == 0.0:
        raw = [psi[:, None] @ psi[None, :].conj() for psi in raw]
    states = []
    for rho in raw:
        rho = 0.5 * (rho + rho.conj().T)
        trace = float(np.real(np.trace(rho)))
        if abs(trace - 1.0) > QuantumState.TRACE_TOL:
            raise NumericalError(f"trace drifted to {trace}; tighten rtol or raise levels")
        states.append(QuantumState.density(rho))
    return Trajectory(np.asarray(s_points), tuple(states), report)
