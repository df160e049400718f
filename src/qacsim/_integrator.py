"""The anneal integrators, their shared step controller, and the operators behind H(s).

Every anneal runs under one adaptive step controller, :func:`adaptive_run`,
which also counts what it did into an :class:`IntegratorReport`.  An
integrator supplies one step attempt, ``step(state, t, h) -> (state, err)``.
There are two:

* :func:`split_operator_run`, the unitary anneal (closed, or open at kappa =
  0): a matrix-free fourth-order splitting in the computational basis that
  evolves a state vector or a factor W of rho0 = W W^dagger;
* :func:`frame_run`, the adiabatic master equation for
  :mod:`qacsim.master_equation` when a bath is coupled (kappa > 0).  The
  density matrix is tracked in the frame of the instantaneous eigenvectors.
  Over a sub-step the coherent part of the frame equation (dynamical phases
  plus the non-adiabatic coupling K) is one propagator P = diag(e^{-i phi}) W:
  phi comes from a cubic Hermite model of the eigenvalue curves, and W is a
  Magnus exponential whose oscillatory integrals of K are taken
  analytically, so steps are never limited by the fastest Bohr frequency.
  The dissipator, non-oscillatory in this frame because its terms pair equal
  Bohr frequencies, runs as classical RK4 in the interaction picture of P on
  the step's start, midpoint and end nodes, with Kutta's third-order rule as
  the embedded estimate, so a step builds two nodes.  The step keeps its two
  half-step propagators; the one-step propagator only gives a Richardson
  estimate of the coherent error.  Overlap matching keeps the eigenbasis
  continuous from node to node: columns are permuted to follow each level
  through crossings, and near-degenerate clusters are rotated onto the
  previous node's gauge.

The operators behind H(s) = A(s) * sum_i sigma^x_i + B(s) * H_z, the anneal
fractions where steps must end and the level-count check are defined here,
once, for both integrators, :mod:`qacsim.dynamics` and :mod:`qacsim.perturb`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NumericalError, ValidationError
from .problem import EncodedProblem, _bit_position, all_config_energies, config_from_index

_PIECES = 4  # sub-intervals for the piecewise-linear phase model inside K integrals
_BIN_TOL = 1e-6  # Bohr frequencies closer than this share a Lindblad operator
_MAX_STEP_FRACTION = 0.02  # largest step as a fraction of the anneal time


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


def tracked_levels(levels: int | None, num_qubits: int) -> int:
    """Instantaneous levels an anneal tracks: all 2^n when ``levels`` is
    None; ValidationError outside [1, 2^n]."""
    dim = 1 << num_qubits
    m = dim if levels is None else int(levels)
    if not 1 <= m <= dim:
        raise ValidationError(f"levels must lie in [1, {dim}]")
    return m


@dataclass(frozen=True)
class IntegratorReport:
    """What one anneal's integrator did.

    ``accepted`` and ``rejected`` count steps; ``min_step_ns`` is the
    smallest step the error control chose: a step cut short to land on a
    snapshot or a schedule knot counts at the length it was cut from, so
    ``min_step_ns`` lies in (0, t_f].  ``node_builds`` counts eigensolves: 0
    for the matrix-free :func:`split_operator_run`, two a step for
    :func:`frame_run`.  ``truncation_margin`` is the smallest gap
    between the last kept and the first dropped level over the nodes with
    0 < s < 1, or None when every level is kept: near zero, the truncation
    cuts a (near-)degenerate cluster.
    """

    accepted: int
    rejected: int
    node_builds: int
    min_step_ns: float
    truncation_margin: float | None


def adaptive_run(step, state, schedule, snapshots: int, order: int, record):
    """Drive ``step(state, t, h) -> (new_state, err)`` from s = 0 to s = 1,
    keeping ``record(state)`` at each snapshot (a frame state holds its
    node's dissipator program, too large to keep nine of).

    A step is accepted when err <= 1.  Steps end on the anneal fractions of
    :func:`step_boundaries` and never exceed 2% of the anneal time; a
    rejected step shrinks by 0.9 err^(-1/order) (at least to a tenth), an
    accepted one grows by 0.9 err^(-1/5), within [0.2, 5].  A proposal cut
    short to land on a boundary is resumed after the landing rather than
    grown from the cut step.  Sixty rejections in a row raise
    NumericalError.  Returns (s values, states at the snapshots,
    IntegratorReport with no node builds and no margin).
    """
    t_f = schedule.t_f_ns
    h_max = _MAX_STEP_FRACTION * t_f
    accepted = rejected = 0
    min_step = np.inf
    boundaries, snapshot = step_boundaries(schedule, snapshots)
    out = [record(state)]
    h = t_f / 400
    for left, right, keep in zip(boundaries[:-1], boundaries[1:], snapshot[1:]):
        t, t_end = left * t_f, right * t_f
        while t < t_end - 1e-9 * t_f:
            # a proposal longer than the rest of the segment is cut to land
            trial, landing = min(h, t_end - t), h > t_end - t
            for _ in range(60):
                new_state, err = step(state, t, trial)
                if err <= 1.0:
                    break
                rejected += 1
                landing = False
                trial *= max(0.1, 0.9 * err ** (-1.0 / order))
            else:
                raise NumericalError(f"step size underflow at t={t} ns (err={err:.3e})")
            accepted += 1
            state, t = new_state, t + trial
            min_step = min(min_step, h if landing else trial)
            if not landing:  # a landing keeps the proposal it was cut from
                h = min(h_max, trial * (5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** (-0.2)))))
        if keep:
            out.append(record(state))
    return boundaries[snapshot], out, IntegratorReport(accepted, rejected, 0, float(min_step), None)


# Yoshida's triple jump (Phys. Lett. A 150, 262 (1990)): symmetric
# second-order steps of w*h, (1 - 2w)*h and w*h compose to fourth order
_W = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_TRIPLE_JUMP = np.array([_W, 1.0 - 2.0 * _W, _W])
_TRIPLE_JUMP_MIDPOINTS = np.cumsum(_TRIPLE_JUMP) - 0.5 * _TRIPLE_JUMP


def split_operator_run(problem, schedule, W0, snapshots, rtol, atol):
    """Unitary fourth-order splitting of H(s) = A(s) * sum_q sigma^x_q + B(s) * diag(E_z).

    Evolves a state vector W0, or the columns of a (2^n, r) factor W0 of a
    density matrix rho0 = W0 W0^dagger.  A Strang step over
    [t, t+h] takes A and B at its midpoint and applies exp(-i h/2 B E_z),
    then exp(-i h A sigma^x_q) for every qubit q, then exp(-i h/2 B E_z)
    again; three Strang steps make a triple-jump step.  Step doubling
    estimates the error as |full - halves| / 15 (Frobenius norm), which must
    stay within atol + rtol; the two half steps are kept.  Runs under
    :func:`adaptive_run` at order 5; returns (s values, factors,
    IntegratorReport).
    """
    Ez = ising_diagonal(problem)
    flips = flip_indices(problem.num_physical)
    t_f = schedule.t_f_ns
    columns = (1,) * (W0.ndim - 1)  # the diagonal phases act on every column alike

    def fourth_order(W, t, h):
        s = (t + _TRIPLE_JUMP_MIDPOINTS * h) / t_f
        half_phases = np.exp(np.outer(-0.5j * h * _TRIPLE_JUMP * schedule.B_of(s), Ez)).reshape(3, -1, *columns)
        theta = h * _TRIPLE_JUMP * schedule.A_of(s)
        for half_phase, cos, minus_i_sin in zip(half_phases, np.cos(theta), -1j * np.sin(theta)):
            W = half_phase * W
            for row in flips:
                W = cos * W + minus_i_sin * W[row]
            W = half_phase * W
        return W

    def step(W, t, h):
        full = fourth_order(W, t, h)
        halves = fourth_order(fourth_order(W, t, 0.5 * h), t + 0.5 * h, 0.5 * h)
        return halves, float(np.linalg.norm(full - halves)) / (15.0 * (atol + rtol))

    return adaptive_run(step, W0.astype(complex), schedule, snapshots, 5, lambda W: W)


@dataclass
class _Node:
    t: float
    eps: np.ndarray
    V: np.ndarray
    eps_dot: np.ndarray
    K: np.ndarray
    dissipator: "_DissipatorProgram"


@dataclass
class _DissipatorProgram:
    # per bin-size class: (prefactors, gather indices, scatter indices)
    classes: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    M: np.ndarray


def frame_run(problem, schedule, bath, rho0, levels, snapshots, rtol, atol):
    """Adiabatic master equation (kappa > 0) from the density matrix rho0,
    tracking the lowest ``levels`` instantaneous levels (all when None).  A
    step attempt builds the frame nodes (eigensolve, alignment, dissipator
    program) at its midpoint and end.  Runs under :func:`adaptive_run` at
    order 4; returns (s values, density matrices in the computational basis
    at the snapshots, IntegratorReport)."""
    n = problem.num_physical
    dim = 1 << n
    m = tracked_levels(levels, n)
    X = pauli_x_sum(n)
    Ez = ising_diagonal(problem)
    t_f = schedule.t_f_ns
    flips = flip_indices(n)
    zdiags = np.ascontiguousarray(config_from_index(np.arange(dim)[:, None], n).T, dtype=float)
    node_builds = 0
    margin = None if m == dim else np.inf

    def m_dot(s: float, V: np.ndarray) -> np.ndarray:
        dA, dB = schedule.derivatives_of(s)
        Y = np.zeros_like(V)
        for fi in flips:
            Y += V[fi, :]
        Y *= float(dA)
        Y += float(dB) * (Ez[:, None] * V)
        return (V.T @ Y) / t_f

    def build_node(t: float, prev: _Node | None) -> _Node:
        nonlocal node_builds, margin
        s = t / t_f
        H = annealing_hamiltonian(X, Ez, schedule, s)
        node_builds += 1
        eps, V = np.linalg.eigh(H)
        if m < dim and 0.0 < s < 1.0:
            margin = min(margin, float(eps[m] - eps[m - 1]))
        eps, V = eps[:m], V[:, :m]
        M_dot = m_dot(s, V)

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

        eps, V, M_dot = _align(prev, eps, V, M_dot)
        eps_dot = np.diag(M_dot).copy()
        denom = eps[None, :] - eps[:, None]
        guard = 1e-9 * scale
        safe = np.where(np.abs(denom) > guard, denom, np.inf)
        K = M_dot / safe
        np.fill_diagonal(K, 0.0)

        return _Node(t, eps, V, eps_dot, K, _build_dissipator(eps, V, zdiags, bath))

    def start():
        """The state at s = 0: its node, and rho0 in that node's frame."""
        node = build_node(0.0, None)
        y = node.V.T @ rho0.astype(complex) @ node.V
        captured = float(np.real(np.trace(y)))
        if captured < 1.0 - 1e-9:
            raise ValidationError(f"initial state has weight {1 - captured:.2e} outside the {m} tracked levels")
        return node, y

    def step(state, t: float, h: float):
        """One attempt from ``state`` = (node, frame density matrix); returns
        ((end node, frame density matrix there), err)."""
        node0, y = state
        node_mid = build_node(t + 0.5 * h, node0)
        node1 = build_node(t + h, node_mid)
        # P1 and P = P2 P1 propagate the frame over [t, t+h/2] and [t, t+h];
        # the one-step P_full only measures the coherent model's error
        P1 = _propagator(node0, node_mid, 0.5 * h)
        P = _propagator(node_mid, node1, 0.5 * h) @ P1
        P_full = _propagator(node0, node1, h)
        scale = atol + rtol * float(np.linalg.norm(y))
        err = float(np.linalg.norm(P_full @ y @ P_full.conj().T - P @ y @ P.conj().T)) / (3.0 * scale)

        def rhs(node, prop, u):
            """The dissipator at ``node`` acting on the interaction-picture ``u``."""
            return prop.conj().T @ _dissipator_rhs(node.dissipator, prop @ u @ prop.conj().T) @ prop

        k1 = _dissipator_rhs(node0.dissipator, y)
        k2 = rhs(node_mid, P1, y + 0.5 * h * k1)
        k3 = rhs(node_mid, P1, y + 0.5 * h * k2)
        k4 = rhs(node1, P, y + h * k3)
        k3_kutta = rhs(node1, P, y + h * (2.0 * k2 - k1))
        u4 = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        u3 = y + (h / 6.0) * (k1 + 4.0 * k2 + k3_kutta)
        err = max(err, float(np.linalg.norm(u4 - u3)) / scale)
        y_new = P @ u4 @ P.conj().T
        return (node1, 0.5 * (y_new + y_new.conj().T)), err

    # no local holds the start state: its node, at the most degenerate
    # point, has the largest dissipator program and is freed after one step
    s_points, rhos, report = adaptive_run(step, start(), schedule, snapshots, 4,
                                          lambda state: state[0].V @ state[1] @ state[0].V.T)
    return s_points, rhos, replace(report, node_builds=node_builds, truncation_margin=margin)


def _align(prev: _Node | None, eps: np.ndarray, V: np.ndarray, M_dot: np.ndarray):
    """Follow the previous node's levels: permute columns by overlap, fix
    each level's sign, and rotate clusters where both the energy and its
    slope coincide onto the previous gauge.  At the first node, make each
    column's largest component positive."""
    m = len(eps)
    if prev is None:
        lead = np.argmax(np.abs(V), axis=0)
        signs = np.sign(V[lead, np.arange(m)])
        signs[signs == 0] = 1.0
        V = V * signs
        M_dot = signs[:, None] * M_dot * signs[None, :]
        return eps, V, M_dot
    overlap = prev.V.T @ V
    perm = linear_sum_assignment(np.abs(overlap), maximize=True)[1]
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


def _build_dissipator(eps: np.ndarray, V: np.ndarray, zdiags: np.ndarray, bath) -> _DissipatorProgram:
    """The dissipator in the frame of the columns of V (energies eps), for
    sigma^z couplings with the (qubits, 2^n) diagonals ``zdiags``."""
    m = len(eps)
    gaps = (eps[None, :] - eps[:, None]).ravel()
    key = np.rint(gaps / _BIN_TOL).astype(np.int64)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    lengths = np.diff(np.r_[starts, len(sorted_key)])
    rates = bath.rate(gaps[order[starts]])

    # all W_q = V^T (z_q * V) via one batched product
    nq, dim = zdiags.shape
    Vz = (zdiags[:, :, None] * V[None, :, :]).transpose(1, 0, 2).reshape(dim, nq * m)
    w_flat = np.ascontiguousarray(
        (V.T @ Vz).reshape(m, nq, m).transpose(1, 0, 2)
    ).reshape(nq, m * m)  # (n_qubits, m*m)

    classes = []
    M = np.zeros(m * m)
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
    return _DissipatorProgram(classes, M.reshape(m, m))


def _dissipator_rhs(program: _DissipatorProgram, rho: np.ndarray) -> np.ndarray:
    """The dissipator acting on a frame density matrix."""
    m = rho.shape[0]
    out = np.zeros_like(rho)
    acc = np.zeros(m * m, dtype=complex)
    flat = rho.ravel()
    for pref, gather, scatter in program.classes:
        vals = pref * flat[gather]
        acc += np.bincount(scatter, weights=vals.real, minlength=m * m)
        acc += 1j * np.bincount(scatter, weights=vals.imag, minlength=m * m)
    out += acc.reshape(m, m)
    out -= 0.5 * (program.M @ rho + rho @ program.M)
    return out


def _phases(n0: _Node, n1: _Node, h: float, theta: float) -> np.ndarray:
    """integral of eps(t) over [n0.t, n0.t + theta*h], cubic Hermite model."""
    i00 = theta**4 / 2 - theta**3 + theta
    i10 = theta**4 / 4 - 2 * theta**3 / 3 + theta**2 / 2
    i01 = -(theta**4) / 2 + theta**3
    i11 = theta**4 / 4 - theta**3 / 3
    return h * (n0.eps * i00 + h * n0.eps_dot * i10 + n1.eps * i01 + h * n1.eps_dot * i11)


def _propagator(n0: _Node, n1: _Node, h: float) -> np.ndarray:
    """The frame's coherent propagator P = diag(exp(-i phi)) W from n0.t to
    n0.t + h, with phi the accumulated phases and W the Magnus exponential of
    the non-adiabatic coupling K.

    The coupling element (a, b) oscillates at the accumulated phase
    difference; its integral is taken with a piecewise-linear phase and a
    linearly interpolated K envelope over _PIECES sub-intervals.
    """
    knots = np.linspace(0.0, 1.0, _PIECES + 1)
    phis = [_phases(n0, n1, h, c) for c in knots]
    omega = np.zeros((len(n0.eps),) * 2, dtype=complex)
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
    return np.exp(-1j * phis[-1])[:, None] * ((U * np.exp(-1j * evals)) @ U.conj().T)


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
