"""Closed-form gap analytics for penalty-coupled model systems.

Covers two tractable models under the linear schedule A0(1-s), A0*s:

* one logical qubit: three field-split problem qubits plus a penalty qubit,
  with the ferromagnetic penalty treated in first-order perturbation theory;
* three antiferromagnetic pairs sharing a penalty qubit on their first
  physical qubits, where the first-order shift vanishes by symmetry and the
  gap is corrected at second order.

Both formulas rest on one two-level eigensystem (:func:`single_qubit_eigs`),
that of A0 (1-s) sigma^x + A0 s (omega/2) sigma^z: levels -+A0 lambda/2,
lambda = sqrt(4(1-s)^2 + s^2 omega^2), eigenvectors at the half angle of
theta = atan2(2(1-s), s omega), and sigma^z matrix elements -+s omega/lambda
on the diagonal and -2(1-s)/lambda off it.  On (|00>+|11>)/sqrt2 and
(|01>+|10>)/sqrt2 an AF pair is twice the omega = 1 qubit.

Each perturbative formula has an exact dense-model companion
(:func:`single_logical_model`, :func:`coupled_pairs_model`) so truncation
errors can be measured directly.  Both are built as
A0 [(1-s) sum_q sigma^x_q + s diag(E_z)] by the package's one dense H
builder (:func:`qacsim._integrator.annealing_hamiltonian`) from its one
transverse operator (:func:`qacsim._integrator.pauli_x_sum`) and one Ising
energy (:func:`qacsim.problem.all_config_energies`), with E_z summed from
unit-weight Ising problems, each scaled like the problem and penalty parts
of an encoded problem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._integrator import annealing_hamiltonian, pauli_x_sum
from .errors import NumericalError, ValidationError
from .problem import IsingProblem, all_config_energies

__all__ = [
    "PerturbParams",
    "SingleQubitEigs",
    "single_qubit_eigs",
    "logical_qubit_perturbed_gap",
    "coupled_pairs_perturbed_gap",
    "single_logical_model",
    "coupled_pairs_model",
    "exact_relevant_gap",
    "single_logical_excited_manifold",
    "coupled_pairs_excited_manifold",
]


@dataclass(frozen=True)
class PerturbParams:
    """Model parameters: overall scale A0, problem splitting omega, penalty
    splitting omega0 and penalty strength beta."""

    A0: float = 1.0
    omega: float = 1.0
    omega0: float = 0.01
    beta: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.A0 < np.inf:
            raise ValidationError("A0 must be finite and positive")
        if not all(-np.inf < v < np.inf for v in (self.omega, self.omega0, self.beta)):
            raise ValidationError("omega, omega0 and beta must be finite")
        if abs(self.omega0) > 0.5 * abs(self.omega):
            warnings.warn("omega0 is not small against omega; perturbative formulas assume |omega0| << |omega|", stacklevel=2)


# ---------------------------------------------------------------------------
# single field-split qubit


def _splitting(omega: float, s) -> tuple[np.ndarray, np.ndarray]:
    """(s, lambda) with lambda = sqrt(4(1-s)^2 + s^2 omega^2), the level
    splitting of the omega-split qubit in units of A0.  Raises
    ValidationError unless s lies in [0, 1] and NumericalError at the
    degenerate endpoint s = 1 with omega = 0."""
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0) & (s <= 1)):
        raise ValidationError("s must lie in [0, 1]")
    if np.any(s == 1.0) and omega == 0.0:
        raise NumericalError("degenerate endpoint: s = 1 with omega = 0")
    return s, np.sqrt(4.0 * (1.0 - s) ** 2 + s**2 * omega**2)


@dataclass(frozen=True)
class SingleQubitEigs:
    eps_minus: np.ndarray
    eps_plus: np.ndarray
    vec_minus: np.ndarray  # (..., 2), normalized
    vec_plus: np.ndarray


def single_qubit_eigs(omega: float, s, A0: float = 1.0) -> SingleQubitEigs:
    """Eigensystem of A0 (1-s) sigma^x + A0 s (omega/2) sigma^z.

    Eigenvalues are -+(A0/2) lambda with lambda = sqrt(4(1-s)^2 + s^2 w^2);
    with theta = atan2(2(1-s), s w) the eigenvectors are
    (-sin(theta/2), cos(theta/2)) and (cos(theta/2), sin(theta/2)), finite
    for every s in [0, 1] and either sign of w.
    """
    s, lam = _splitting(omega, s)
    half = 0.5 * np.arctan2(2.0 * (1.0 - s), s * omega)
    cos, sin = np.cos(half), np.sin(half)
    return SingleQubitEigs(-0.5 * A0 * lam, 0.5 * A0 * lam, np.stack([-sin, cos], axis=-1), np.stack([cos, sin], axis=-1))


def logical_qubit_perturbed_gap(params: PerturbParams, s) -> np.ndarray:
    """First-order gap of the single-logical-qubit model,

        A0 [ lambda + 2 beta s (s omega/lambda) (s omega0/lambda0) ].

    The ferromagnetic penalty -A0 s beta sum_i sigma^z_i sigma^z_4 shifts the
    ground state and the (still degenerate) single-flip triplet by the
    diagonal sigma^z elements -+s omega/lambda of the problem qubits times
    -s omega0/lambda0 of the penalty qubit; flipping one problem qubit
    changes their sum by 2 s omega/lambda.  The beta term is nonnegative
    when beta >= 0 and omega, omega0 share their sign.
    """
    s, lam = _splitting(params.omega, s)
    _, lam0 = _splitting(params.omega0, s)
    return params.A0 * (lam + 2.0 * params.beta * s * (s * params.omega / lam) * (s * params.omega0 / lam0))


# ---------------------------------------------------------------------------
# three AF pairs sharing a penalty qubit


def coupled_pairs_perturbed_gap(params: PerturbParams, s) -> np.ndarray:
    """Second-order gap of the three-AF-pairs model, from the ground level
    -lambda of each pair to the triplet with one pair at its level +s.

    The penalty acts through sigma^z of the first qubit of each pair, whose
    squared elements are (1 - s/lambda)/2 from the ground level to +s and
    (1 + s/lambda)/2 from the ground level to -s and from +s to +lambda; its
    first-order expectation vanishes by the pairs' spin-flip symmetry.  The
    penalty qubit stays, with squared element (s omega0/lambda0)^2, or flips,
    with (2(1-s)/lambda0)^2 and lambda0 more in the denominator.  The two
    unexcited pairs shift the triplet and the ground level alike, so the
    gap correction is one pair's shift from +s minus its shift from the
    ground level.  Denominators below 1e-9 * A0 raise NumericalError
    (accidental degeneracy) rather than being regularized silently.
    """
    s, lam = _splitting(1.0, s)
    _, lam0 = _splitting(params.omega0, s)
    stay = (s * params.omega0 / lam0) ** 2
    flip = (2.0 * (1.0 - s) / lam0) ** 2
    to_plus_s, to_other = 0.5 * (1.0 - s / lam), 0.5 * (1.0 + s / lam)

    def shift(den):
        # one pair excitation of energy -den (units of A0), penalty staying or flipping
        if np.any(np.abs(den) < 1e-9) or np.any(np.abs(den - lam0) < 1e-9):
            raise NumericalError("vanishing second-order denominator")
        return stay / den + flip / (den - lam0)

    from_ground = to_plus_s * shift(-s - lam) + to_other * shift(s - lam)
    from_plus_s = to_plus_s * shift(s + lam) + to_other * shift(s - lam)
    # second-order shifts carry (A0 s beta)^2 over A0-scaled denominators
    return params.A0 * ((s + lam) + (params.beta * s) ** 2 * (from_plus_s - from_ground))


# ---------------------------------------------------------------------------
# exact dense models


def _dense_model(A0: float, s: float, num_qubits: int, parts) -> np.ndarray:
    """A0 [(1-s) sum_q sigma^x_q + s diag(E_z)], E_z the sum of weight times
    the energies of the unit-weight Ising problem (fields, couplings) over
    the (weight, fields, couplings) ``parts``: weights such as omega/2 never
    meet IsingProblem's |h|, |J| <= 1 bound."""
    Ez = sum(w * all_config_energies(IsingProblem(num_qubits, h, J)) for w, h, J in parts)
    return annealing_hamiltonian(pauli_x_sum(num_qubits), Ez, A0 * (1.0 - s), A0 * s)


def single_logical_model(params: PerturbParams, s: float) -> np.ndarray:
    """Dense 16x16 Hamiltonian: three omega-split qubits, one omega0 penalty
    qubit, ferromagnetic penalty coupling of strength A0 s beta."""
    return _dense_model(params.A0, float(s), 4, [
        (0.5 * params.omega, {0: 1.0, 1: 1.0, 2: 1.0}, {}),
        (0.5 * params.omega0, {3: 1.0}, {}),
        (-params.beta, {}, {(0, 3): 1.0, (1, 3): 1.0, (2, 3): 1.0}),
    ])


def coupled_pairs_model(params: PerturbParams, s: float) -> np.ndarray:
    """Dense 128-dim Hamiltonian: three AF pairs (coupling 1) plus an omega0
    penalty qubit attached to the first qubit of each pair."""
    return _dense_model(params.A0, float(s), 7, [
        (1.0, {}, {(0, 1): 1.0, (2, 3): 1.0, (4, 5): 1.0}),
        (0.5 * params.omega0, {6: 1.0}, {}),
        (-params.beta, {}, {(0, 6): 1.0, (2, 6): 1.0, (4, 6): 1.0}),
    ])


def single_logical_excited_manifold(params: PerturbParams, s: float) -> np.ndarray:
    """Unperturbed single-flip triplet of the single-logical-qubit model."""
    s = float(s)
    eig = single_qubit_eigs(params.omega, s)
    pen = single_qubit_eigs(params.omega0, s)
    vm, vp, pm = eig.vec_minus, eig.vec_plus, pen.vec_minus
    cols = [reduce(np.kron, [vp if q == flipped else vm for q in range(3)] + [pm]) for flipped in range(3)]
    return np.stack(cols, axis=1)


def coupled_pairs_excited_manifold(params: PerturbParams, s: float) -> np.ndarray:
    """Unperturbed triple with one pair at its level +s, (|11>-|00>)/sqrt2
    (the lowest level whose decoded value is wrong)."""
    s = float(s)
    even, odd = single_qubit_eigs(1.0, s).vec_minus  # on (|00>+|11>)/sqrt2, (|01>+|10>)/sqrt2
    ground = np.array([even, odd, odd, even]) / np.sqrt(2.0)
    plus_s = np.array([-1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    pm = single_qubit_eigs(params.omega0, s).vec_minus
    cols = [reduce(np.kron, [plus_s if pair == which else ground for pair in range(3)] + [pm]) for which in range(3)]
    return np.stack(cols, axis=1)


def exact_relevant_gap(H: np.ndarray, manifold: np.ndarray) -> float:
    """Gap from the exact ground level to the mean of the eigenlevels with
    the largest projections onto the given unperturbed manifold."""
    vals, vecs = np.linalg.eigh(H)
    weights = np.sum(np.abs(manifold.conj().T @ vecs) ** 2, axis=0)
    k = manifold.shape[1]
    matched = np.sort(np.argsort(weights)[-k:])
    return float(vals[matched].mean() - vals[0])
