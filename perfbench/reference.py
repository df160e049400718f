"""Reference computations made apart from qacsim.

Nothing here imports qacsim.  Each function is written from the conventions
the package documents, with the plainest method available, so that the
benchmark can check the package's outputs against it:

* spin +1 is bit 0, qubit 0 is the leftmost Kronecker factor (the most
  significant bit of a basis index);
* the annealing Hamiltonian is ``A(s) * sum_i X_i + B(s) * H_z`` with hbar = 1,
  energies in rad/ns and times in ns;
* the master equation uses one sigma^z bath per qubit with Lindblad operators
  binned by Bohr frequency and the Ohmic rate of ``qacsim.master_equation``.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.integrate

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


# ---------------------------------------------------------------------------
# majority votes over readouts


def vote_counts(bits, counts, problem_idx, grounds, code_grounds) -> tuple[int, int]:
    """(ground-state count, decoded-success count) over (bits, count) records.

    ``bits`` is (records, qubits) of +-1, ``problem_idx`` is (blocks, n) with the
    qubits that vote for each logical spin, ``grounds`` is (G, blocks) of the
    logical ground configurations and ``code_grounds`` (G, qubits) the physical
    code states that embed them.
    """
    bits = np.asarray(bits)
    counts = np.asarray(counts, dtype=np.int64)
    logical = np.where(bits[:, problem_idx].sum(axis=2) > 0, 1, -1)
    decoded = (logical[:, None, :] == np.asarray(grounds)[None, :, :]).all(axis=2).any(axis=1)
    exact = (bits[:, None, :] == np.asarray(code_grounds)[None, :, :]).all(axis=2).any(axis=1)
    return int(counts[exact].sum()), int(counts[decoded].sum())


# ---------------------------------------------------------------------------
# Kronecker-product operators and spectra


def kron_op(num_qubits: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    out = np.array([[1.0]])
    for q in range(num_qubits):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def transverse_sum(num_qubits: int) -> np.ndarray:
    return sum(kron_op(num_qubits, {q: SX}) for q in range(num_qubits))


def ising_diagonal(num_qubits: int, fields: dict, couplings: dict) -> np.ndarray:
    """Diagonal of sum h_i Z_i + sum J_ij Z_i Z_j built from Kronecker products."""
    diag = np.zeros(1 << num_qubits)
    for i, h in fields.items():
        diag += h * np.diag(kron_op(num_qubits, {i: SZ}))
    for (i, j), v in couplings.items():
        diag += v * np.diag(kron_op(num_qubits, {i: SZ, j: SZ}))
    return diag


def anneal_gap(hx: np.ndarray, hz: np.ndarray, a: float, b: float, level: int) -> float:
    """E_level - E_0 of a*hx + b*diag(hz) by a full dense eigvalsh."""
    vals = np.linalg.eigvalsh(a * hx + np.diag(b * hz))
    return float(vals[level] - vals[0])


def brute_force_energies(num_spins: int, fields: dict, couplings: dict) -> np.ndarray:
    """Ising energies of every configuration in basis-index order, by plain loops."""
    out = []
    for config in itertools.product((1, -1), repeat=num_spins):
        e = sum(h * config[i] for i, h in fields.items())
        e += sum(v * config[i] * config[j] for (i, j), v in couplings.items())
        out.append(e)
    return np.array(out, dtype=float)


def classical_levels(u: np.ndarray, v: np.ndarray, alpha: float, beta: float) -> list[tuple[float, float, int]]:
    """Excitation levels of alpha*u + beta*v grouped by the exact (u, v) pair.

    The ground group is the lowest energy, ties broken by the smaller u then v.
    Returns sorted (problem weight, penalty weight, degeneracy) of the others.
    """
    groups: dict[tuple[float, float], int] = {}
    for a, b in zip(u.tolist(), v.tolist()):
        groups[(a, b)] = groups.get((a, b), 0) + 1
    ground = min(groups, key=lambda k: (alpha * k[0] + beta * k[1], k[0], k[1]))
    return sorted((a - ground[0], b - ground[1], deg) for (a, b), deg in groups.items() if (a, b) != ground)


# ---------------------------------------------------------------------------
# time evolution in the computational basis


def transverse_ground(num_qubits: int) -> np.ndarray:
    """Lowest eigenvector of +sum X_i: the product of (|0> - |1>)/sqrt(2)."""
    vec = np.array([1.0])
    for _ in range(num_qubits):
        vec = np.kron(vec, np.array([1.0, -1.0]) / np.sqrt(2.0))
    return vec.astype(complex)


def schrodinger(hx, hz, a_of_s, b_of_s, t_f, psi0, rtol=1e-10, atol=1e-12) -> np.ndarray:
    """Final state of i d psi/dt = (A(t/t_f) hx + B(t/t_f) diag(hz)) psi (DOP853)."""

    def rhs(t, psi):
        s = t / t_f
        return -1j * (a_of_s(s) * (hx @ psi) + b_of_s(s) * (hz * psi))

    sol = scipy.integrate.solve_ivp(rhs, (0.0, t_f), psi0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference Schroedinger integration failed: {sol.message}")
    return sol.y[:, -1]


def ohmic_rate(omega: float, kappa: float, omega_c: float, temperature: float) -> float:
    """gamma(omega) = 2 pi kappa omega exp(-omega/omega_c) / (1 - exp(-omega/T)),
    with the limit 2 pi kappa T at omega = 0."""
    if abs(omega) < 1e-12:
        return 2.0 * np.pi * kappa * temperature
    return 2.0 * np.pi * kappa * omega * np.exp(-omega / omega_c) / (-np.expm1(-omega / temperature))


def master_equation(hx, hz, a_of_s, b_of_s, t_f, rho0, kappa, omega_c, temperature,
                    bin_tol=1e-6, rtol=1e-10, atol=1e-12) -> np.ndarray:
    """Final density matrix of the adiabatic master equation, integrated in
    the computational basis.

    At every evaluation H(s) is diagonalized; for each qubit q and each Bohr
    frequency omega (transitions b -> a with E_b - E_a = omega, binned to
    ``bin_tol``) the Lindblad operator is sum <a|Z_q|b> |a><b| and enters as
    gamma(omega) (L rho L^+ - {L^+ L, rho}/2).
    """
    dim = hx.shape[0]
    num_qubits = dim.bit_length() - 1
    zs = [np.diag(kron_op(num_qubits, {q: SZ})) for q in range(num_qubits)]

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        s = t / t_f
        H = a_of_s(s) * hx + np.diag(b_of_s(s) * hz)
        eps, V = np.linalg.eigh(H)
        omega = eps[None, :] - eps[:, None]  # omega[a, b] = E_b - E_a
        keys = np.rint(omega / bin_tol).astype(np.int64)
        bins, first = np.unique(keys, return_index=True)
        gamma = np.array([ohmic_rate(float(omega.flat[i]), kappa, omega_c, temperature) for i in first])
        # L[k, q] = sqrt(gamma_k) V (<a|Z_q|b> kept in bin k) V^T, all at once
        z_eigen = np.stack([V.T @ (z[:, None] * V) for z in zs])
        in_bin = keys[None] == bins[:, None, None]
        L = np.sqrt(gamma)[:, None, None, None] * (V @ (in_bin[:, None] * z_eigen[None]) @ V.T)
        Lt = np.swapaxes(L, -1, -2)
        LdL = (Lt @ L).sum(axis=(0, 1))
        out = -1j * (H @ rho - rho @ H) + (L @ rho @ Lt).sum(axis=(0, 1)) - 0.5 * (LdL @ rho + rho @ LdL)
        return out.ravel()

    sol = scipy.integrate.solve_ivp(rhs, (0.0, t_f), np.asarray(rho0, dtype=complex).ravel(),
                                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference master-equation integration failed: {sol.message}")
    return sol.y[:, -1].reshape(dim, dim)
