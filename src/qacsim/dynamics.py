"""Annealing Hamiltonians, spectra, gap profiles, and closed evolution.

Conventions: hbar = 1, energies and the schedule curves A(s), B(s) in rad/ns,
times in ns.  The transverse-field term enters with a positive coefficient,
so the anneal starts in its lowest eigenstate: the uniform-magnitude
superposition with alternating signs, ``2^(-n/2) * sum_x (-1)^popcount(x)
|x>``.  All observables reported here are invariant under that sign
convention.

The annealing Hamiltonian is ``H(s) = A(s) * sum_i sigma^x_i + B(s) * H_z``
with ``H_z`` the diagonal physical Ising operator of an encoded problem
(problem scale alpha and penalty scale beta are already folded into the
physical couplings).  Gap profiles and unitary evolution both work on the
connected components of the physical problem, split by the one rule of
:func:`qacsim._integrator.connected_components`:

* :func:`gap_profile` diagonalizes each distinct component densely in the
  sector blocks of :func:`qacsim._integrator.sector_blocks` (the two parity
  sectors of the global flip, or the whole component under a field), the
  blocks the master-equation frame is built in, and combines the
  components' levels exactly;
* :func:`evolve_closed` runs the matrix-free split-operator integrator of
  :mod:`qacsim._integrator` under the step controller every anneal shares,
  once for each distinct component: the returned state is the product of
  the components' states.

``DEFAULT_QUBIT_CAP`` still bounds the n physical qubits of both, as it
bounds the 2^n amplitudes of a returned state, although their cost is now
set by the components.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg

from ._integrator import (
    IntegratorReport,
    anneal_components,
    annealing_hamiltonian,
    connected_components,
    pauli_x_sum,
    sector_blocks,
    split_operator_run,
    tracked_levels,
    transverse_ground,
)
from .decode import SampleRecord, SampleSet, decodable_mask, ground_indices
from .errors import NumericalError, ResourceLimitError, ValidationError
from .problem import AnnealSchedule, EncodedProblem, all_config_energies, config_from_index

__all__ = [
    "DEFAULT_QUBIT_CAP",
    "QuantumState",
    "GapProfile",
    "pauli_x_sum",
    "ising_diagonal",
    "gap_profile",
    "relevant_level_index",
    "evolve_closed",
    "success_probabilities",
    "sample_readout",
    "Trajectory",
]

DEFAULT_QUBIT_CAP = 12


# ---------------------------------------------------------------------------
# operators


def ising_diagonal(problem: EncodedProblem) -> np.ndarray:
    """Diagonal of the physical Ising operator over the computational basis."""
    return all_config_energies(problem.physical)


# ---------------------------------------------------------------------------
# quantum states


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density matrix over the computational basis."""

    kind: str
    data: np.ndarray

    PURE_NORM_TOL = 1e-9
    TRACE_TOL = 1e-9
    EIG_FLOOR = -1e-7

    def __post_init__(self) -> None:
        # every check is written so that NaN fails it
        if self.kind == "pure":
            if self.data.ndim != 1:
                raise ValidationError("pure state data must be a vector")
            if not abs(np.linalg.norm(self.data) - 1.0) <= self.PURE_NORM_TOL:
                raise ValidationError("pure state is not normalized")
        elif self.kind == "density":
            if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
                raise ValidationError("density matrix must be square")
            if not np.linalg.norm(self.data - self.data.conj().T) <= 1e-9 * max(1.0, np.linalg.norm(self.data)):
                raise ValidationError("density matrix is not Hermitian")
            if not abs(np.trace(self.data).real - 1.0) <= self.TRACE_TOL:
                raise ValidationError("density matrix trace differs from 1")
            # the factorization exists exactly when every eigenvalue exceeds
            # EIG_FLOOR (the Hermiticity check has already rejected NaN); it
            # runs in place on one copy of the matrix
            shifted = np.array(self.data, dtype=complex, order="F")
            shifted.flat[:: len(shifted) + 1] -= self.EIG_FLOOR
            try:
                scipy.linalg.cholesky(shifted, lower=True, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError:
                raise ValidationError("density matrix has a significantly negative eigenvalue") from None
        else:
            raise ValidationError(f"unknown state kind {self.kind!r}")
        dim = self.data.shape[0]
        if dim & (dim - 1):
            raise ValidationError("state dimension must be a power of two")

    @classmethod
    def pure(cls, vec) -> "QuantumState":
        return cls("pure", np.asarray(vec, dtype=complex))

    @classmethod
    def density(cls, mat) -> "QuantumState":
        return cls("density", np.asarray(mat, dtype=complex))

    @classmethod
    def transverse_ground(cls, num_qubits: int) -> "QuantumState":
        """Ground state of +sum sigma^x, where every anneal starts (see
        :func:`qacsim._integrator.transverse_ground`)."""
        return cls.pure(transverse_ground(num_qubits))

    @property
    def num_qubits(self) -> int:
        return int(self.data.shape[0]).bit_length() - 1

    def populations(self) -> np.ndarray:
        if self.kind == "pure":
            return np.abs(self.data) ** 2
        return np.real(np.diag(self.data))


# ---------------------------------------------------------------------------
# gap profiles


@dataclass(frozen=True)
class GapProfile:
    """Gap from the ground level to a chosen excited level along the anneal."""

    s: np.ndarray
    gap: np.ndarray
    level_index: int
    s_min: float
    delta_min: float


def relevant_level_index(problem: EncodedProblem, schedule: AnnealSchedule) -> int:
    """Smallest level index whose end-of-anneal energy exceeds the ground
    manifold: population reaching the degenerate final ground states is not
    an error, so the relevant excitations start above them."""
    diag = float(schedule.B_of(1.0)) * ising_diagonal(problem)
    diag = np.sort(diag)
    tol = 1e-9 * max(1.0, abs(diag[0]))
    return int(np.searchsorted(diag, diag[0] + tol, side="left"))


def gap_profile(
    problem: EncodedProblem,
    schedule: AnnealSchedule,
    grid_points: int = 201,
) -> GapProfile:
    """Gap to the relevant excited level (see :func:`relevant_level_index`)
    on a uniform s-grid; ValidationError when no level lies above the final
    ground manifold.

    The gap is the whole space's: level k of H(s) over all 2^n physical
    qubits.  It is computed from small spectra.  The physical problem splits
    into the connected components of
    :func:`qacsim._integrator.connected_components`, whose spectra add: the
    whole space's levels are every sum of one level per component.  Each
    distinct component is diagonalized once a grid point, block by block,
    in the sectors of :func:`qacsim._integrator.sector_blocks` (two parity
    sectors when its E_z is flip-symmetric, else the whole component), and
    its levels are the sectors' merged.  The components' levels are then
    combined by pairwise sums, an equal component once per copy (C: three).
    Only the lowest k + 1 levels are kept at every stage, which is exact: a
    sum using a component's level j > k has at least k + 1 sums at or below
    it.  Every block, of whatever size, takes one full ``eigvalsh``.
    ``DEFAULT_QUBIT_CAP`` bounds the n physical qubits as before, although
    the cost is now set by the largest component's blocks.
    """
    n = problem.num_physical
    if n > DEFAULT_QUBIT_CAP:
        raise ResourceLimitError(f"{n} qubits exceeds the dense-operator cap of {DEFAULT_QUBIT_CAP}")
    if not isinstance(grid_points, numbers.Integral) or grid_points < 2:
        raise ValidationError(f"grid_points must be an integer >= 2, got {grid_points!r}")
    k = relevant_level_index(problem, schedule)
    if k >= 1 << n:
        raise ValidationError(f"all {1 << n} levels end in the ground manifold: no gap to profile")

    _, distinct, which = connected_components(problem.physical)
    blocks = [sector_blocks(sub) for sub in distinct]
    grid = np.linspace(0.0, 1.0, grid_points)
    gaps = np.empty(grid_points)
    for i, (A, B) in enumerate(zip(schedule.A_of(grid), schedule.B_of(grid))):
        # each distinct component's lowest k + 1 levels, its sectors merged
        own = [np.sort(np.linalg.eigvalsh(annealing_hamiltonian(X_sectors, Ez, A, B))[:, :k + 1], axis=None)[:k + 1]
               for _, X_sectors, Ez in blocks]
        vals = reduce(lambda low, w: np.sort(np.add.outer(low, own[w]), axis=None)[:k + 1],
                      which[1:], own[which[0]])
        gaps[i] = vals[k] - vals[0]
    imin = int(np.argmin(gaps))
    return GapProfile(grid, gaps, k, float(grid[imin]), float(gaps[imin]))


# ---------------------------------------------------------------------------
# unitary evolution


@dataclass(frozen=True)
class Trajectory:
    """States recorded along an anneal, in the computational basis, and the
    report of the integrator that ran it."""

    s: np.ndarray
    states: tuple[QuantumState, ...]
    report: IntegratorReport

    @property
    def final(self) -> QuantumState:
        return self.states[-1]


def evolve_closed(
    problem: EncodedProblem,
    schedule: AnnealSchedule,
    rtol: float = 1e-8,
    snapshots: int = 9,
    levels: int | None = None,
) -> Trajectory:
    """Integrate the Schroedinger equation from the transverse-field ground state.

    Uses the matrix-free split-operator integrator in the computational
    basis (see :func:`qacsim._integrator.split_operator_run`): every factor
    of a step is an exact exponential, so the integrator is unitary by
    construction and renormalizes nothing; a norm off 1 by more than
    ``QuantumState.PURE_NORM_TOL`` raises NumericalError.  The physical
    problem is split into its connected components (every listed coupling
    joins its two qubits), each distinct component is annealed once from its
    own transverse-field ground state, and every snapshot is the tensor
    product of the components' vectors, permuted to the problem's qubit
    order: C's three uncoupled copies run as one U copy.  Every level is
    tracked: ``levels`` must be None or an integer in [1, 2^n] but is
    otherwise ignored.  ``snapshots`` must be an integer >= 2
    (ValidationError otherwise).  ``DEFAULT_QUBIT_CAP`` bounds the qubits
    of the returned 2^n-entry vectors, however small the components.  The trajectory's ``report``
    gives the accepted and rejected steps and the smallest step the error
    control chose, in ns: the one run's when every component is equal, and
    otherwise the runs' steps added up and their smallest step.  The
    integrator builds no eigenbasis, so ``node_builds`` is 0 and the
    truncation margin None.
    """
    n = problem.num_physical
    if n > DEFAULT_QUBIT_CAP:
        raise ResourceLimitError(f"{n} qubits exceeds the state-vector cap of {DEFAULT_QUBIT_CAP}")
    if not 0.0 <= rtol < np.inf:
        raise ValidationError(f"rtol must be finite and >= 0, got {rtol}")
    tracked_levels(levels, n)
    s_points, raw, report = anneal_components(problem.physical,
                                              lambda part: split_operator_run(part, schedule, snapshots, rtol))
    for vec in raw:
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= QuantumState.PURE_NORM_TOL:
            raise NumericalError(f"norm drifted to {norm}; tighten rtol")
    states = [QuantumState.pure(vec) for vec in raw]
    return Trajectory(np.asarray(s_points), tuple(states), report)


# ---------------------------------------------------------------------------
# readout


def success_probabilities(final: QuantumState, problem: EncodedProblem) -> tuple[float, float]:
    """(P_GS, P_S): population on the exact ground configurations of the
    physical Hamiltonian, and population on configurations that
    majority-decode to a logical ground.  P_GS counts every physical ground
    configuration, code state or not: under C, whose copies are uncoupled,
    the L = 2 chain has 8 of them (each of 3 copies in either ground state),
    against 2 code states (compare :func:`qacsim.decode.empirical_success`)."""
    pops = final.populations()
    if len(pops) != 1 << problem.num_physical:
        raise ValidationError("state dimension does not match the problem")
    gidx = ground_indices(problem)
    p_gs = float(pops[gidx].sum())
    mask = decodable_mask(problem)
    p_s = float(pops[mask].sum())
    return p_gs, p_s


def sample_readout(final: QuantumState, shots: int, rng_seed: int = 0):
    """Draw seeded i.i.d. computational-basis samples from the final state."""
    if not isinstance(shots, numbers.Integral) or shots < 1:
        raise ValidationError(f"shots must be an integer >= 1, got {shots!r}")
    pops = final.populations().clip(min=0.0)
    pops = pops / pops.sum()
    rng = np.random.default_rng(rng_seed)
    counts = rng.multinomial(shots, pops)
    hits = np.flatnonzero(counts)
    configs = config_from_index(hits[:, None], final.num_qubits).tolist()
    return SampleSet(tuple(
        SampleRecord(tuple(bits), int(c)) for bits, c in zip(configs, counts[hits])
    ))
