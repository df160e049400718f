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
physical couplings).  Hamiltonians and gap profiles are dense; closed
evolution is matrix-free in the computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._integrator import (
    IntegratorReport,
    annealing_hamiltonian,
    flip_indices,
    ising_diagonal,
    pauli_x_sum,
    step_boundaries,
)
from .decode import SampleRecord, SampleSet, decodable_mask, ground_indices
from .errors import NumericalError, ResourceLimitError, ValidationError
from .problem import AnnealSchedule, EncodedProblem, config_from_index

__all__ = [
    "DEFAULT_QUBIT_CAP",
    "QuantumState",
    "GapProfile",
    "pauli_x_sum",
    "ising_diagonal",
    "hamiltonian_at",
    "spectrum",
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


def hamiltonian_at(
    problem: EncodedProblem,
    schedule: AnnealSchedule,
    s: float,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Dense annealing Hamiltonian A(s)*H_X + B(s)*H_z at one anneal fraction."""
    n = problem.num_physical
    if n > qubit_cap:
        raise ResourceLimitError(f"{n} qubits exceeds the dense-operator cap of {qubit_cap}")
    if not 0.0 <= s <= 1.0:
        raise ValidationError("s must lie in [0, 1]")
    return annealing_hamiltonian(pauli_x_sum(n), ising_diagonal(problem), schedule, s).astype(complex)


def spectrum(op: np.ndarray, levels: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian operator.

    Raises ValidationError for non-Hermitian input and NumericalError if any
    residual ||H v - e v|| exceeds 1e-8 * ||H||.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValidationError("operator must be a square matrix")
    scale = np.linalg.norm(op)
    if np.linalg.norm(op - op.conj().T) > 1e-12 * max(scale, 1e-300):
        raise ValidationError("operator is not Hermitian")
    eigvals, eigvecs = np.linalg.eigh(op)
    if levels is not None:
        eigvals, eigvecs = eigvals[:levels], eigvecs[:, :levels]
    residual = np.linalg.norm(op @ eigvecs - eigvecs * eigvals, axis=0).max()
    if residual > 1e-8 * max(scale, 1e-300):
        raise NumericalError(f"eigenpair residual {residual} exceeds 1e-8 * ||H||")
    return eigvals, eigvecs


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
        if self.kind == "pure":
            if self.data.ndim != 1:
                raise ValidationError("pure state data must be a vector")
            if abs(np.linalg.norm(self.data) - 1.0) > self.PURE_NORM_TOL:
                raise ValidationError("pure state is not normalized")
        elif self.kind == "density":
            if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
                raise ValidationError("density matrix must be square")
            if np.linalg.norm(self.data - self.data.conj().T) > 1e-9 * max(1.0, np.linalg.norm(self.data)):
                raise ValidationError("density matrix is not Hermitian")
            if abs(np.trace(self.data).real - 1.0) > self.TRACE_TOL:
                raise ValidationError("density matrix trace differs from 1")
            if np.linalg.eigvalsh(self.data).min() < self.EIG_FLOOR:
                raise ValidationError("density matrix has a significantly negative eigenvalue")
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
        """Ground state of +sum sigma^x: the alternating-sign uniform superposition."""
        dim = 1 << num_qubits
        signs = config_from_index(np.arange(dim)[:, None], num_qubits).prod(axis=1)
        return cls.pure(signs / np.sqrt(dim))

    @property
    def num_qubits(self) -> int:
        return int(self.data.shape[0]).bit_length() - 1

    def populations(self) -> np.ndarray:
        if self.kind == "pure":
            return np.abs(self.data) ** 2
        return np.real(np.diag(self.data))

    def as_density(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data

    def purity(self) -> float:
        rho = self.as_density()
        return float(np.real(np.trace(rho @ rho)))

    def fidelity_with_pure(self, other: "QuantumState") -> float:
        """<psi| rho |psi> against a pure reference state."""
        if other.kind != "pure":
            raise ValidationError("reference state must be pure")
        psi = other.data
        if self.kind == "pure":
            return float(abs(np.vdot(psi, self.data)) ** 2)
        return float(np.real(np.vdot(psi, self.data @ psi)))


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


def relevant_level_index(problem: EncodedProblem, schedule: AnnealSchedule, degeneracy_tol: float = 1e-9) -> int:
    """Smallest level index whose end-of-anneal energy exceeds the ground
    manifold: population reaching the degenerate final ground states is not
    an error, so the relevant excitations start above them."""
    diag = float(schedule.B_of(1.0)) * ising_diagonal(problem)
    diag = np.sort(diag)
    tol = degeneracy_tol * max(1.0, abs(diag[0]))
    return int(np.searchsorted(diag, diag[0] + tol, side="left"))


def gap_profile(
    problem: EncodedProblem,
    schedule: AnnealSchedule,
    grid_points: int = 201,
    level_policy: str | int = "relevant",
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> GapProfile:
    """Gap to the relevant excited level on a uniform s-grid.

    ``level_policy`` is "relevant" (skip the degenerate final ground
    manifold), "first" (always level 1), or an explicit level index.
    """
    n = problem.num_physical
    if n > qubit_cap:
        raise ResourceLimitError(f"{n} qubits exceeds the dense-operator cap of {qubit_cap}")
    if grid_points < 2:
        raise ValidationError("grid_points must be >= 2")
    if level_policy == "relevant":
        k = relevant_level_index(problem, schedule)
    elif level_policy == "first":
        k = 1
    elif isinstance(level_policy, int) and level_policy >= 1:
        k = level_policy
    else:
        raise ValidationError(f"bad level policy {level_policy!r}")

    X = pauli_x_sum(n)
    Ez = ising_diagonal(problem)
    grid = np.linspace(0.0, 1.0, grid_points)
    gaps = np.empty(grid_points)
    for i, s in enumerate(grid):
        H = annealing_hamiltonian(X, Ez, schedule, s)
        vals = scipy.linalg.eigh(H, subset_by_index=(0, k), eigvals_only=True)
        gaps[i] = vals[k] - vals[0]
    imin = int(np.argmin(gaps))
    return GapProfile(grid, gaps, k, float(grid[imin]), float(gaps[imin]))


# ---------------------------------------------------------------------------
# closed evolution


@dataclass(frozen=True)
class Trajectory:
    """States recorded along an anneal, in the computational basis, and the
    eigenbasis integrator's report where one ran (open anneals)."""

    s: np.ndarray
    states: tuple[QuantumState, ...]
    report: IntegratorReport | None = None

    @property
    def final(self) -> QuantumState:
        return self.states[-1]


# Yoshida's triple jump (Phys. Lett. A 150, 262 (1990)): symmetric
# second-order steps of w*h, (1 - 2w)*h and w*h compose to fourth order
_W = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_TRIPLE_JUMP = np.array([_W, 1.0 - 2.0 * _W, _W])
_TRIPLE_JUMP_MIDPOINTS = np.cumsum(_TRIPLE_JUMP) - 0.5 * _TRIPLE_JUMP


def _split_operator_run(problem, schedule, psi0, snapshots, rtol, atol):
    """Unitary fourth-order splitting of H(s) = A(s) * sum_q sigma^x_q + B(s) * diag(E_z).

    A Strang step over [t, t+h] takes A and B at its midpoint and applies
    exp(-i h/2 B E_z), then exp(-i h A sigma^x_q) for every qubit q, then
    exp(-i h/2 B E_z) again; three Strang steps make a triple-jump step.
    Step doubling estimates the error as |full - halves| / 15, which must
    stay within atol + rtol; the two half steps are kept.  Steps end on the
    snapshots and on the schedule's knots.  Returns (s values, states).
    """
    Ez = ising_diagonal(problem)
    flips = flip_indices(problem.num_physical)
    t_f = schedule.t_f_ns

    def fourth_order(psi, t, h):
        s = (t + _TRIPLE_JUMP_MIDPOINTS * h) / t_f
        half_phases = np.exp(np.outer(-0.5j * h * _TRIPLE_JUMP * schedule.B_of(s), Ez))
        theta = h * _TRIPLE_JUMP * schedule.A_of(s)
        for half_phase, cos, minus_i_sin in zip(half_phases, np.cos(theta), -1j * np.sin(theta)):
            psi = half_phase * psi
            for row in flips:
                psi = cos * psi + minus_i_sin * psi[row]
            psi = half_phase * psi
        return psi

    boundaries, snapshot = step_boundaries(schedule, snapshots)
    psi = psi0.astype(complex)
    out = [psi]
    h = t_f / 400
    for left, right, keep in zip(boundaries[:-1], boundaries[1:], snapshot[1:]):
        t, t_end = left * t_f, right * t_f
        while t < t_end - 1e-9 * t_f:
            h = min(h, t_end - t)
            for _ in range(60):
                full = fourth_order(psi, t, h)
                halves = fourth_order(fourth_order(psi, t, 0.5 * h), t + 0.5 * h, 0.5 * h)
                err = float(np.linalg.norm(full - halves)) / (15.0 * (atol + rtol))
                if err <= 1.0:
                    break
                h *= max(0.1, 0.9 * err ** (-0.2))
            else:
                raise NumericalError(f"step size underflow at t={t} ns (err={err:.3e})")
            psi, t = halves, t + h
            h *= 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** (-0.2)))
        if keep:
            out.append(psi)
    return boundaries[snapshot], out


def evolve_closed(
    problem: EncodedProblem,
    schedule: AnnealSchedule,
    initial: QuantumState | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    snapshots: int = 9,
    levels: int | None = None,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> Trajectory:
    """Integrate the Schroedinger equation across the anneal.

    Uses the matrix-free split-operator integrator in the computational
    basis (see :func:`_split_operator_run`): every factor of a step is an
    exact exponential, so the integrator is unitary by construction and
    renormalizes nothing; the norm is checked to 1e-8 or a NumericalError
    is raised.  Every level is tracked: ``levels`` must lie in [1, 2^n] but
    is otherwise ignored.
    """
    n = problem.num_physical
    if n > qubit_cap:
        raise ResourceLimitError(f"{n} qubits exceeds the state-vector cap of {qubit_cap}")
    if levels is not None and not 1 <= levels <= 1 << n:
        raise ValidationError(f"levels must lie in [1, {1 << n}]")
    if initial is None:
        initial = QuantumState.transverse_ground(n)
    if initial.kind != "pure":
        raise ValidationError("closed evolution requires a pure initial state")
    if initial.data.shape[0] != (1 << n):
        raise ValidationError("initial state dimension does not match the problem")

    s_points, raw = _split_operator_run(problem, schedule, initial.data, snapshots, rtol, atol)
    states = []
    for vec in raw:
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-8:
            raise NumericalError(f"norm drifted to {norm}; tighten rtol")
        states.append(QuantumState.pure(vec / norm if abs(norm - 1) > QuantumState.PURE_NORM_TOL else vec))
    return Trajectory(np.asarray(s_points), tuple(states))


# ---------------------------------------------------------------------------
# readout


def success_probabilities(
    final: QuantumState,
    problem: EncodedProblem,
    encoding=None,
) -> tuple[float, float]:
    """(P_GS, P_S): population on exact physical ground configurations, and
    population on configurations that majority-decode to a logical ground."""
    pops = final.populations()
    if len(pops) != 1 << problem.num_physical:
        raise ValidationError("state dimension does not match the problem")
    gidx = ground_indices(problem)
    p_gs = float(pops[gidx].sum())
    mask = decodable_mask(problem, encoding)
    p_s = float(pops[mask].sum())
    return p_gs, p_s


def sample_readout(final: QuantumState, shots: int, rng_seed: int = 0, embedding_id: int = 0):
    """Draw seeded i.i.d. computational-basis samples from the final state."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    pops = final.populations().clip(min=0.0)
    pops = pops / pops.sum()
    rng = np.random.default_rng(rng_seed)
    counts = rng.multinomial(shots, pops)
    hits = np.flatnonzero(counts)
    configs = config_from_index(hits[:, None], final.num_qubits).tolist()
    return SampleSet(tuple(
        SampleRecord(tuple(bits), int(c), embedding_id) for bits, c in zip(configs, counts[hits])
    ))
