"""Closed-form gap analytics for penalty-coupled model systems.

Covers two tractable models under the linear schedule A0(1-s), A0*s:

* one logical qubit: three field-split problem qubits plus a penalty qubit,
  with the ferromagnetic penalty treated in first-order perturbation theory;
* three antiferromagnetic pairs sharing a penalty qubit on their first
  physical qubits, where the first-order shift vanishes by symmetry and the
  gap is corrected at second order.

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
        if self.omega0 > 0.5 * self.omega:
            warnings.warn("omega0 is not small against omega; perturbative formulas assume omega0 << omega", stacklevel=2)


# ---------------------------------------------------------------------------
# single field-split qubit


@dataclass(frozen=True)
class SingleQubitEigs:
    eps_minus: np.ndarray
    eps_plus: np.ndarray
    vec_minus: np.ndarray  # (..., 2), normalized
    vec_plus: np.ndarray
    c_minus: np.ndarray
    c_plus: np.ndarray


def single_qubit_eigs(omega: float, s, A0: float = 1.0) -> SingleQubitEigs:
    """Eigensystem of A0 (1-s) sigma^x + A0 s (omega/2) sigma^z.

    Eigenvalues are +-(A0/2) lambda with lambda = sqrt(4(1-s)^2 + s^2 w^2);
    eigenvector components follow the unnormalized forms
    ((s w - lambda)/(2(1-s)), 1) and ((s w + lambda)/2, 1-s), with the
    normalization constants c_-(s), c_+(s) exposed because the perturbative
    gap formula is written in terms of them.
    """
    s = np.asarray(s, dtype=float)
    if np.any((s < 0) | (s > 1)):
        raise ValidationError("s must lie in [0, 1]")
    if np.any(s == 1.0) and omega == 0.0:
        raise NumericalError("degenerate endpoint: s = 1 with omega = 0")
    lam = np.sqrt(4.0 * (1.0 - s) ** 2 + s**2 * omega**2)
    one_minus = np.where(s == 1.0, 1.0, 1.0 - s)  # placeholder, fixed below
    u_minus = (s * omega - lam) / (2.0 * one_minus)
    u_minus = np.where(s == 1.0, 0.0, u_minus)  # limit: ground is spin-down at s=1
    c_minus = np.sqrt(u_minus**2 + 1.0)
    u_plus = (s * omega + lam) / 2.0
    c_plus = np.sqrt(u_plus**2 + (1.0 - s) ** 2)
    vec_minus = np.stack([u_minus / c_minus, np.ones_like(lam) / c_minus], axis=-1)
    vec_plus = np.stack([u_plus / c_plus, (1.0 - s) / c_plus], axis=-1)
    return SingleQubitEigs(
        eps_minus=-0.5 * A0 * lam,
        eps_plus=+0.5 * A0 * lam,
        vec_minus=vec_minus,
        vec_plus=vec_plus,
        c_minus=c_minus,
        c_plus=c_plus,
    )


def logical_qubit_perturbed_gap(params: PerturbParams, s) -> np.ndarray:
    """First-order gap of the single-logical-qubit model.

    The ferromagnetic penalty -A0 s beta sum_i sigma^z_i sigma^z_4 shifts the
    ground state and the (still degenerate) single-flip triplet through the
    diagonal sigma^z expectation values; the gap becomes

        A0 [ lambda + beta s (F_plus + F_minus) G_tilde ]

    with F_plus = (c_+^2 - 2(1-s)^2)/c_+^2, F_minus = (2 - c_-^2)/c_-^2 from
    the problem qubits and G_tilde = (2 - ctilde_-^2)/ctilde_-^2 from the
    penalty qubit (its c_- at splitting omega0).  The beta contribution is
    nonnegative on s in (0, 1) for positive omega0.
    """
    s = np.asarray(s, dtype=float)
    eig = single_qubit_eigs(params.omega, s)
    pen = single_qubit_eigs(params.omega0, s)
    f_plus = (eig.c_plus**2 - 2.0 * (1.0 - s) ** 2) / eig.c_plus**2
    f_minus = (2.0 - eig.c_minus**2) / eig.c_minus**2
    g_tilde = (2.0 - pen.c_minus**2) / pen.c_minus**2
    lam = 2.0 * eig.eps_plus  # eps_plus = lambda / 2 at A0 = 1
    return params.A0 * (lam + params.beta * s * (f_plus + f_minus) * g_tilde)


# ---------------------------------------------------------------------------
# three AF pairs sharing a penalty qubit


def _two_site_data(s):
    """Eigen-data of A0(1-s)(sx1+sx2) + A0 s sz1 sz2 (A0 = 1 units).

    The extremal eigenvectors are (1-s, -+(s+lam)/2, -+(s+lam)/2, 1-s)/c_-+
    up to the sign pattern, giving the three nonzero sigma^z_1 elements used
    by the second-order sums; each reproduces dense-diagonalization elements
    to machine precision.  m32 = -sqrt(2)(1-s)/c_+ is written with
    (lam - s)(lam + s) = 4(1-s)^2, so it stays finite (-1) at s = 1.
    Returns (lam, c_minus, m02, m32, m01).
    """
    lam = np.sqrt(4.0 * (1.0 - s) ** 2 + s**2)
    c_minus = np.sqrt(2.0 * (1.0 - s) ** 2 + 0.5 * (s + lam) ** 2)
    m02 = -np.sqrt(2.0) * (1.0 - s) / c_minus
    m32 = -np.sqrt(2.0) / np.sqrt(2.0 + 8.0 * (1.0 - s) ** 2 / (lam + s) ** 2)
    m01 = (s + lam) / (np.sqrt(2.0) * c_minus)
    return lam, c_minus, m02, m32, m01


def coupled_pairs_perturbed_gap(params: PerturbParams, s) -> np.ndarray:
    """Second-order gap of the three-AF-pairs model.

    The penalty acts on the first qubit of each pair, so its first-order
    expectation vanishes by the pairs' spin-flip symmetry; the second-order
    sums run over single-pair excitations combined with the penalty qubit
    staying or flipping.  Denominators below 1e-9 * A0 raise NumericalError
    (accidental degeneracy) rather than being regularized silently.
    """
    s = np.asarray(s, dtype=float)
    A0 = params.A0
    lam, _, m02, m32, m01 = _two_site_data(s)
    eps0, eps1, eps2, eps3 = -lam, -s, s, lam
    pen = single_qubit_eigs(params.omega0, s)
    lam_t = 2.0 * pen.eps_plus
    d_mm = (pen.c_minus**2 - 2.0) / pen.c_minus**2
    d_mp = -2.0 * (1.0 - s) / (pen.c_minus * pen.c_plus)

    def inv(name, den):
        if np.any(np.abs(den) < 1e-9):
            raise NumericalError(f"vanishing denominator in term {name}")
        return 1.0 / den

    dE0 = (
        3.0 * m02**2 * d_mm**2 * inv("0:02,stay", eps0 - eps2)
        + 3.0 * m02**2 * d_mp**2 * inv("0:02,flip", eps0 - eps2 - lam_t)
        + 3.0 * m01**2 * d_mm**2 * inv("0:01,stay", eps0 - eps1)
        + 3.0 * m01**2 * d_mp**2 * inv("0:01,flip", eps0 - eps1 - lam_t)
    )
    dE2 = (
        m02**2 * d_mm**2 * inv("2:20,stay", eps2 - eps0)
        + m02**2 * d_mp**2 * inv("2:20,flip", eps2 - eps0 - lam_t)
        + 2.0 * m02**2 * d_mm**2 * inv("2:02,stay", eps0 - eps2)
        + 2.0 * m02**2 * d_mp**2 * inv("2:02,flip", eps0 - eps2 - lam_t)
        + m32**2 * d_mm**2 * inv("2:23,stay", eps2 - eps3)
        + m32**2 * d_mp**2 * inv("2:23,flip", eps2 - eps3 - lam_t)
        + 2.0 * m01**2 * d_mm**2 * inv("2:01,stay", eps0 - eps1)
        + 2.0 * m01**2 * d_mp**2 * inv("2:01,flip", eps0 - eps1 - lam_t)
    )
    # second-order shifts carry (A0 s beta)^2 over A0-scaled denominators
    return A0 * (eps2 - eps0) + A0 * (params.beta * s) ** 2 * (dE2 - dE0)


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
    """Unperturbed triple with one pair in its eps_2 state (the lowest level
    whose decoded value is wrong)."""
    s = float(s)
    lam, c_minus, *_ = _two_site_data(s)
    ground = np.array([1.0 - s, -(s + lam) / 2.0, -(s + lam) / 2.0, 1.0 - s]) / c_minus
    eps2_vec = np.array([-1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    pm = single_qubit_eigs(params.omega0, s).vec_minus
    cols = [reduce(np.kron, [eps2_vec if pair == which else ground for pair in range(3)] + [pm]) for which in range(3)]
    return np.stack(cols, axis=1)


def exact_relevant_gap(H: np.ndarray, manifold: np.ndarray) -> float:
    """Gap from the exact ground level to the mean of the eigenlevels with
    the largest projections onto the given unperturbed manifold."""
    vals, vecs = np.linalg.eigh(H)
    weights = np.sum(np.abs(manifold.conj().T @ vecs) ** 2, axis=0)
    k = manifold.shape[1]
    matched = np.sort(np.argsort(weights)[-k:])
    return float(vals[matched].mean() - vals[0])
