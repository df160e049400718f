"""Adaptive master-equation integrator working in the instantaneous eigenbasis of H(s).

:class:`FrameEvolver` integrates the adiabatic master equation for
:mod:`qacsim.master_equation`, with or without a bath (closed anneals of
pure states run matrix-free in :mod:`qacsim.dynamics`).  The density matrix
is tracked in the frame of the instantaneous eigenvectors.
Within each step the coherent part of the frame equation (dynamical phases
plus the non-adiabatic coupling K) is applied as a unitary built from a
phased Magnus term: the phases come from a cubic Hermite model of the
eigenvalue curves and the oscillatory integrals of K are evaluated
analytically, so steps are never limited by the fastest Bohr frequency.
The remaining generator - the Lindblad dissipator expressed in the
instantaneous eigenbasis, which is non-oscillatory in this frame because
its terms pair equal Bohr frequencies - is integrated with classical RK4
on the three nodes the coherent step already builds (its start, midpoint
and end), with Kutta's third-order rule on the same nodes as the embedded
estimate, so a step builds two nodes.  Step control combines that estimate
with a Richardson (step-doubling) estimate of the coherent model.  Each run
leaves an :class:`IntegratorReport` of what it did.

Eigenbasis continuity between nodes is enforced by overlap matching:
columns are permuted to follow state identity through crossings, and
near-degenerate clusters are aligned with the previous node's gauge by a
polar rotation.

The operators behind H(s) = A(s) * sum_i sigma^x_i + B(s) * H_z, and the
anneal fractions where steps must end, are defined here, once, for this
integrator and for :mod:`qacsim.dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .problem import EncodedProblem, _bit_position, all_config_energies, config_from_index

_PIECES = 4  # sub-intervals for the piecewise-linear phase model inside K integrals


def flip_indices(num_qubits: int) -> np.ndarray:
    """Row q maps every basis index to the index with qubit q flipped."""
    idx = np.arange(1 << num_qubits)
    return idx ^ (1 << _bit_position(np.arange(num_qubits), num_qubits))[:, None]


def pauli_x_sum(num_qubits: int) -> np.ndarray:
    """Dense sum of single-qubit sigma^x operators (real symmetric)."""
    dim = 1 << num_qubits
    out = np.zeros((dim, dim))
    out[np.arange(dim), flip_indices(num_qubits)] = 1.0
    return out


def ising_diagonal(problem: EncodedProblem) -> np.ndarray:
    """Diagonal of the physical Ising operator over the computational basis."""
    return all_config_energies(problem.physical)


def annealing_hamiltonian(X: np.ndarray, Ez: np.ndarray, schedule, s: float) -> np.ndarray:
    """Dense real H(s) = A(s) * X + B(s) * diag(Ez)."""
    H = float(schedule.A_of(s)) * X
    H[np.diag_indices_from(H)] += float(schedule.B_of(s)) * Ez
    return H


def step_boundaries(schedule, snapshots: int) -> tuple[np.ndarray, np.ndarray]:
    """Anneal fractions where steps must end - ``snapshots`` evenly spaced
    points from 0 to 1 and the schedule's interior knots, where dA/ds and
    dB/ds jump - and a mask of the ones that are snapshots."""
    s_points = np.linspace(0.0, 1.0, max(2, snapshots))
    knots = np.asarray(schedule.s, dtype=float)
    bounds = np.unique(np.concatenate([s_points, knots[(knots > 0) & (knots < 1)]]))
    return bounds, np.isin(bounds, s_points)


@dataclass(frozen=True)
class IntegratorReport:
    """What one :class:`FrameEvolver` run did.

    ``node_builds`` counts eigensolves; ``min_step_ns`` is the smallest
    accepted step.  ``truncation_margin`` is the smallest gap between the
    last kept and the first dropped level over the nodes with 0 < s < 1, or
    None when every level is kept: near zero, the truncation cuts a
    (near-)degenerate cluster.
    """

    accepted: int
    rejected: int
    node_builds: int
    min_step_ns: float
    truncation_margin: float | None


@dataclass
class _Node:
    t: float
    eps: np.ndarray
    V: np.ndarray
    eps_dot: np.ndarray
    K: np.ndarray
    dissipator: "_DissipatorProgram | None"


@dataclass
class _DissipatorProgram:
    # per bin-size class: (prefactors, gather indices, scatter indices)
    classes: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    M: np.ndarray
    H_LS: np.ndarray | None


class FrameEvolver:
    """Drives one anneal for a fixed problem, schedule and optional bath."""

    def __init__(
        self,
        problem,
        schedule,
        bath=None,
        levels: int | None = None,
        rtol: float = 1e-8,
        atol: float = 1e-10,
        bin_tol: float = 1e-6,
        max_step_fraction: float = 0.02,
    ):
        self.problem = problem
        self.schedule = schedule
        self.bath = bath
        self.rtol = rtol
        self.atol = atol
        self.bin_tol = bin_tol
        n = problem.num_physical
        self.num_qubits = n
        self.dim = 1 << n
        self.m = self.dim if levels is None else int(levels)
        if not 1 <= self.m <= self.dim:
            raise ValidationError(f"levels must lie in [1, {self.dim}]")
        self.X = pauli_x_sum(n)
        self.Ez = ising_diagonal(problem)
        self.t_f = schedule.t_f_ns
        self.h_max = max_step_fraction * self.t_f
        self.flip_idx = flip_indices(n)
        self.zdiags = np.ascontiguousarray(config_from_index(np.arange(self.dim)[:, None], n).T, dtype=float)
        self._dissipative = bath is not None and bath.kappa > 0.0

    def _reset_counts(self) -> None:
        self.accepted = 0
        self.rejected = 0
        self.node_builds = 0
        self.min_step = np.inf
        self.margin = None if self.m == self.dim else np.inf

    @property
    def report(self) -> IntegratorReport:
        return IntegratorReport(self.accepted, self.rejected, self.node_builds, float(self.min_step), self.margin)

    # -- node construction ----------------------------------------------------

    def _build_node(self, t: float, prev: _Node | None) -> _Node:
        s = t / self.t_f
        H = annealing_hamiltonian(self.X, self.Ez, self.schedule, s)
        self.node_builds += 1
        if self.m < self.dim and self.dim > 1024:
            eps, V = scipy.linalg.eigh(H, subset_by_index=(0, self.m))
        else:
            eps, V = np.linalg.eigh(H)
        if self.m < self.dim and 0.0 < s < 1.0:
            self.margin = min(self.margin, float(eps[self.m] - eps[self.m - 1]))
        eps, V = eps[: self.m], V[:, : self.m]
        M_dot = self._m_dot(s, V)

        # Within each (near-)degenerate cluster the eigensolver basis is
        # arbitrary; rotate to the basis diagonalizing dH/dt (degenerate
        # perturbation theory), which is the correct adiabatic continuation
        # and removes spurious couplings over vanishing denominators.
        scale = max(1.0, float(np.abs(eps).max()))
        for cluster in _degenerate_clusters(eps, 1e-6 * scale):
            if len(cluster) > 1:
                ix = np.ix_(cluster, cluster)
                dots, rot = np.linalg.eigh(0.5 * (M_dot[ix] + M_dot[ix].T))
                V[:, cluster] = V[:, cluster] @ rot
                M_dot[cluster, :] = rot.T @ M_dot[cluster, :]
                M_dot[:, cluster] = M_dot[:, cluster] @ rot

        eps, V, M_dot = self._align(prev, eps, V, M_dot)
        eps_dot = np.diag(M_dot).copy()
        denom = eps[None, :] - eps[:, None]
        guard = 1e-9 * scale
        safe = np.where(np.abs(denom) > guard, denom, np.inf)
        K = M_dot / safe
        np.fill_diagonal(K, 0.0)

        program = self._build_dissipator(eps, V) if self._dissipative else None
        return _Node(t, eps, V, eps_dot, K, program)

    def _m_dot(self, s: float, V: np.ndarray) -> np.ndarray:
        dA, dB = self.schedule.derivatives_of(s)
        Y = np.zeros_like(V)
        for fi in self.flip_idx:
            Y += V[fi, :]
        Y *= float(dA)
        Y += float(dB) * (self.Ez[:, None] * V)
        return (V.T @ Y) / self.t_f

    def _align(self, prev: _Node | None, eps: np.ndarray, V: np.ndarray, M_dot: np.ndarray):
        m = len(eps)
        if prev is None:
            lead = np.argmax(np.abs(V), axis=0)
            signs = np.sign(V[lead, np.arange(m)])
            signs[signs == 0] = 1.0
            V = V * signs
            M_dot = signs[:, None] * M_dot * signs[None, :]
            return eps, V, M_dot
        overlap = prev.V.T @ V
        perm = _greedy_match(np.abs(overlap))
        eps = eps[perm]
        V = V[:, perm]
        M_dot = M_dot[np.ix_(perm, perm)]
        overlap = overlap[:, perm]
        # per-level sign gauge; polar alignment only where both the energy
        # and its slope coincide (the dH/dt basis is then still arbitrary)
        scale = max(1.0, float(np.abs(eps).max()))
        eps_dot = np.diag(M_dot)
        dot_tol = 1e-9 * max(1.0, float(np.abs(eps_dot).max()))
        for cluster in _degenerate_clusters(eps, 1e-6 * scale):
            subs = _degenerate_clusters(eps_dot[cluster], dot_tol) if len(cluster) > 1 else [[0]]
            for sub in subs:
                idx = [cluster[i] for i in sub]
                if len(idx) == 1:
                    i = idx[0]
                    if overlap[i, i] < 0:
                        V[:, i] = -V[:, i]
                        M_dot[i, :] = -M_dot[i, :]
                        M_dot[:, i] = -M_dot[:, i]
                else:
                    block = V[:, idx].T @ prev.V[:, idx]
                    u, _, vt = np.linalg.svd(block)
                    rot = u @ vt
                    V[:, idx] = V[:, idx] @ rot
                    M_dot[idx, :] = rot.T @ M_dot[idx, :]
                    M_dot[:, idx] = M_dot[:, idx] @ rot
        return eps, V, M_dot

    # -- dissipator program -----------------------------------------------------

    def _build_dissipator(self, eps: np.ndarray, V: np.ndarray) -> _DissipatorProgram:
        m = len(eps)
        gaps = (eps[None, :] - eps[:, None]).ravel()
        key = np.rint(gaps / self.bin_tol).astype(np.int64)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
        lengths = np.diff(np.r_[starts, len(sorted_key)])
        omegas = gaps[order[starts]]
        rates = self.bath.rate(omegas)
        s_rates = self.bath.lamb_shift_rate(omegas) if self.bath.lamb_shift else None

        # all W_q = V^T (z_q * V) via one batched product
        nq = self.num_qubits
        Vz = (self.zdiags[:, :, None] * V[None, :, :]).transpose(1, 0, 2).reshape(self.dim, nq * m)
        w_flat = np.ascontiguousarray(
            (V.T @ Vz).reshape(m, nq, m).transpose(1, 0, 2)
        ).reshape(nq, m * m)  # (n_qubits, m*m)

        classes = []
        M = np.zeros(m * m)
        H_LS = np.zeros(m * m) if s_rates is not None else None
        for c in np.unique(lengths):
            bins_c = np.flatnonzero(lengths == c)
            members = order[starts[bins_c][:, None] + np.arange(c)[None, :]]  # (nb, c)
            a_idx = members // m
            b_idx = members % m
            outer = np.einsum("qki,qkj->kij", w_flat[:, members], w_flat[:, members])
            pref = rates[bins_c][:, None, None] * outer
            gather = (b_idx[:, :, None] * m + b_idx[:, None, :]).ravel()
            scatter = (a_idx[:, :, None] * m + a_idx[:, None, :]).ravel()
            classes.append((pref.ravel(), gather, scatter))
            same_a = a_idx[:, :, None] == a_idx[:, None, :]
            M += np.bincount(gather, weights=(pref * same_a).ravel(), minlength=m * m)
            if H_LS is not None:
                pref_s = s_rates[bins_c][:, None, None] * outer
                H_LS += np.bincount(gather, weights=(pref_s * same_a).ravel(), minlength=m * m)
        return _DissipatorProgram(
            classes,
            M.reshape(m, m),
            H_LS.reshape(m, m) if H_LS is not None else None,
        )

    def _dissipator_rhs(self, node: _Node, rho: np.ndarray) -> np.ndarray:
        program = node.dissipator
        m = rho.shape[0]
        out = np.zeros_like(rho)
        if program is None:
            return out
        acc = np.zeros(m * m, dtype=complex)
        flat = rho.ravel()
        for pref, gather, scatter in program.classes:
            vals = pref * flat[gather]
            acc += np.bincount(scatter, weights=vals.real, minlength=m * m)
            acc += 1j * np.bincount(scatter, weights=vals.imag, minlength=m * m)
        out += acc.reshape(m, m)
        out -= 0.5 * (program.M @ rho + rho @ program.M)
        if program.H_LS is not None:
            out += -1j * (program.H_LS @ rho - rho @ program.H_LS)
        return out

    # -- coherent propagator ------------------------------------------------------

    @staticmethod
    def _phases(n0: _Node, n1: _Node, h: float, theta: float) -> np.ndarray:
        """integral of eps(t) over [n0.t, n0.t + theta*h], cubic Hermite model."""
        i00 = theta**4 / 2 - theta**3 + theta
        i10 = theta**4 / 4 - 2 * theta**3 / 3 + theta**2 / 2
        i01 = -(theta**4) / 2 + theta**3
        i11 = theta**4 / 4 - theta**3 / 3
        return h * (n0.eps * i00 + h * n0.eps_dot * i10 + n1.eps * i01 + h * n1.eps_dot * i11)

    def _coherent_unitary(self, n0: _Node, n1: _Node, h: float, theta: float):
        """Magnus term of the non-adiabatic coupling over [0, theta*h].

        The coupling element (a, b) oscillates at the accumulated phase
        difference; its integral is taken with a piecewise-linear phase and a
        linearly interpolated K envelope over _PIECES sub-intervals.
        """
        m = len(n0.eps)
        if m == 1:
            return np.ones((1, 1), dtype=complex)
        omega = np.zeros((m, m), dtype=complex)
        knots = np.linspace(0.0, theta, _PIECES + 1)
        phis = [self._phases(n0, n1, h, c) for c in knots]
        for j in range(_PIECES):
            dphi0 = phis[j][:, None] - phis[j][None, :]
            dphi1 = phis[j + 1][:, None] - phis[j + 1][None, :]
            x = dphi1 - dphi0
            shape = np.where(np.abs(x) < 1e-8, 1.0 + 0.5j * x, (np.exp(1j * x) - 1.0) / np.where(np.abs(x) < 1e-8, 1.0, 1j * x))
            c_mid = 0.5 * (knots[j] + knots[j + 1])
            K_mid = n0.K + (n1.K - n0.K) * c_mid
            dtau = (knots[j + 1] - knots[j]) * h
            omega -= K_mid * np.exp(1j * dphi0) * shape * dtau
        # omega is anti-Hermitian, so exponentiate through the Hermitian 1j*omega
        evals, U = np.linalg.eigh(1j * omega)
        return (U * np.exp(-1j * evals)) @ U.conj().T

    def _dress(self, y: np.ndarray, phi: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Lawson variable -> frame components at the stage time."""
        p = np.exp(-1j * phi)
        return (p[:, None] * p.conj()[None, :]) * (W @ y @ W.conj().T)

    def _undress(self, k: np.ndarray, phi: np.ndarray, W: np.ndarray) -> np.ndarray:
        p = np.exp(1j * phi)
        return W.conj().T @ ((p[:, None] * p.conj()[None, :]) * k) @ W

    def _dressed_dissipator_rhs(self, node: _Node, u: np.ndarray, phi: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Dissipator at ``node`` acting on the Lawson variable ``u``."""
        return self._undress(self._dissipator_rhs(node, self._dress(u, phi, W)), phi, W)

    # -- driver -----------------------------------------------------------------

    def run(self, rho0: np.ndarray, snapshots: int = 9):
        """Integrate a density matrix from s=0 to s=1; returns (s values,
        density matrices in the computational basis) at the snapshots."""
        self._reset_counts()
        node = self._build_node(0.0, None)
        y = node.V.T @ rho0.astype(complex) @ node.V
        captured = float(np.real(np.trace(y)))
        if captured < 1.0 - 1e-9:
            raise ValidationError(
                f"initial state has weight {1 - captured:.2e} outside the {self.m} tracked levels"
            )

        boundaries, snapshot = step_boundaries(self.schedule, snapshots)
        out_states = [node.V @ y @ node.V.T]
        h = min(self.h_max, self.t_f / 400)
        for left, right, keep in zip(boundaries[:-1], boundaries[1:], snapshot[1:]):
            t_end = right * self.t_f
            t = left * self.t_f
            while t < t_end - 1e-9 * self.t_f:
                h = min(h, t_end - t)
                node, y, t, h = self._step(node, y, t, h)
            if keep:
                out_states.append(node.V @ y @ node.V.T)
        return boundaries[snapshot], out_states

    def _step(self, node0: _Node, y: np.ndarray, t: float, h: float):
        """One adaptive step: phased-Magnus coherent propagator with a
        Richardson estimate, plus classical RK4 for the dissipator on the same
        three nodes (c = 0, 1/2, 1), with Kutta's third-order rule on those
        nodes as its embedded error estimate."""
        for _ in range(60):
            node_mid = self._build_node(t + 0.5 * h, node0)
            node1 = self._build_node(t + h, node_mid)

            # coherent model error: full step vs two half steps
            phi_full = self._phases(node0, node1, h, 1.0)
            W_full = self._coherent_unitary(node0, node1, h, 1.0)
            phi_h1 = self._phases(node0, node_mid, 0.5 * h, 1.0)
            W_h1 = self._coherent_unitary(node0, node_mid, 0.5 * h, 1.0)
            phi_h2 = self._phases(node_mid, node1, 0.5 * h, 1.0)
            W_h2 = self._coherent_unitary(node_mid, node1, 0.5 * h, 1.0)
            y_full = self._dress(y, phi_full, W_full)
            y_halves = self._dress(self._dress(y, phi_h1, W_h1), phi_h2, W_h2)
            scale = self.atol + self.rtol * float(np.linalg.norm(y))
            err = float(np.linalg.norm(y_full - y_halves)) / (3.0 * scale)

            if not self._dissipative:
                y_new = y_halves
            else:
                phi_mid = self._phases(node0, node1, h, 0.5)
                W_mid = self._coherent_unitary(node0, node1, h, 0.5)
                rhs = self._dressed_dissipator_rhs
                k1 = self._dissipator_rhs(node0, y)
                k2 = rhs(node_mid, y + 0.5 * h * k1, phi_mid, W_mid)
                k3 = rhs(node_mid, y + 0.5 * h * k2, phi_mid, W_mid)
                k4 = rhs(node1, y + h * k3, phi_full, W_full)
                k3_kutta = rhs(node1, y + h * (2.0 * k2 - k1), phi_full, W_full)
                u4 = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                u3 = y + (h / 6.0) * (k1 + 4.0 * k2 + k3_kutta)
                err = max(err, float(np.linalg.norm(u4 - u3)) / scale)
                y_new = self._dress(u4, phi_full, W_full)

            if err <= 1.0:
                y_new = 0.5 * (y_new + y_new.conj().T)
                grow = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** (-0.2)))
                self.accepted += 1
                self.min_step = min(self.min_step, h)
                return node1, y_new, t + h, min(self.h_max, h * grow)
            self.rejected += 1
            h *= max(0.1, 0.9 * err ** (-0.25))
        raise NumericalError(f"step size underflow at t={t} ns (err={err:.3e})")


def _greedy_match(weights: np.ndarray) -> np.ndarray:
    """Permutation perm with perm[i] = new column continuing previous label i."""
    m = weights.shape[0]
    perm = np.full(m, -1)
    taken = np.zeros(m, dtype=bool)
    order = np.argsort(weights.ravel())[::-1]
    assigned = 0
    for flat in order:
        i, j = divmod(int(flat), m)
        if perm[i] < 0 and not taken[j]:
            perm[i] = j
            taken[j] = True
            assigned += 1
            if assigned == m:
                break
    return perm


def _degenerate_clusters(eps: np.ndarray, tol: float) -> list[list[int]]:
    order = np.argsort(eps)
    clusters: list[list[int]] = []
    current = [int(order[0])]
    for prev, nxt in zip(order[:-1], order[1:]):
        if eps[nxt] - eps[prev] < tol:
            current.append(int(nxt))
        else:
            clusters.append(current)
            current = [int(nxt)]
    clusters.append(current)
    return clusters
