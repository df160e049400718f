"""The anneal integrators, their shared step controller, and the operators behind H(s).

Every anneal runs under one adaptive step controller, :func:`adaptive_run`,
which also counts what it did into an :class:`IntegratorReport`.  An
integrator supplies one step attempt, ``step(state, t, h) -> (state, err)``.
There are two:

* :func:`split_operator_run`, the unitary anneal (closed, or open at kappa =
  0): a matrix-free fourth-order splitting in the computational basis that
  evolves a state vector;
* :func:`frame_run`, the adiabatic master equation for
  :mod:`qacsim.master_equation` when a bath is coupled (kappa > 0).  The
  density matrix is tracked in the frame of the instantaneous eigenvectors.
  When no qubit has a local field, H(s) commutes with the global flip
  prod_q sigma^x_q, and the frame is built in its two parity sectors: one
  stacked eigensolve of the two half-size blocks a node (one subset solve
  per sector when truncated), levels split evenly between the sectors, and
  a dissipator that skips the sigma^z elements the symmetry makes zero.
  Otherwise the frame is the one whole-space sector.  Every frame quantity
  is a stack of sector blocks, and so is the frame density matrix, one
  block per sector: the transverse-field start commutes with the flip, and
  the Lindbladian keeps that, since each sigma^z jump swaps both sectors,
  so the blocks between the sectors stay zero.  Over a sub-step the coherent
  part of the frame equation (dynamical phases plus the non-adiabatic
  coupling K) is one propagator P = diag(e^{-i phi}) W: phi comes from a
  cubic Hermite model of the eigenvalue curves, and W is a Magnus
  exponential whose oscillatory integrals of K are taken analytically, so
  steps are never limited by the fastest Bohr frequency.  K keeps the
  sector, so each sector's W is exponentiated on its own, and a step's
  three propagators in one stacked eigensolve.  The dissipator,
  non-oscillatory in this frame because its terms pair Bohr frequencies
  that agree in value and slope at every node, runs as classical RK4 in
  the interaction picture of P on the step's start, midpoint and end
  nodes, with Kutta's third-order rule as the embedded estimate, so a step
  builds two nodes.  The step keeps its two half-step propagators; the
  one-step propagator only gives a Richardson estimate of the coherent
  error.  Overlap matching keeps the eigenbasis continuous from node to
  node, within each sector: columns are permuted to follow each level
  through crossings, and near-degenerate clusters are rotated onto the
  previous node's gauge.

Both integrators take an :class:`~qacsim.problem.IsingProblem` and make
their own start, :func:`transverse_ground`, the ground state of the
transverse field, and :func:`anneal_components` runs them once per
distinct connected component of a problem: components share no coupling
and each qubit has its own bath, so from that product start the state
stays the product of the components' states.  U, EP and QAC are one
component; C's uncoupled copies anneal as one U copy.  Components run
untruncated; a factored run's report adds up its runs' counts (see
:func:`anneal_components`), and the callers' qubit caps bound the returned
2^n state, not the components.

Two splittings of H(s) are defined here once each, for every user:

* :func:`connected_components`, the components of a problem and which of
  them are equal: :func:`anneal_components` (so ``evolve_closed`` and
  ``evolve_open``) and :func:`qacsim.dynamics.gap_profile`;
* :func:`sector_blocks`, the parity-sector blocks of H(s), or its one
  whole-space block: :func:`frame_run` and
  :func:`qacsim.dynamics.gap_profile`.

The operators behind H(s) = A(s) * sum_i sigma^x_i + B(s) * H_z, the anneal
fractions where steps must end and the level-count check are defined here,
once, for both integrators, :mod:`qacsim.dynamics` and :mod:`qacsim.perturb`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .errors import NumericalError, ValidationError
from .problem import IsingProblem, _bit_position, all_config_energies, config_from_index

_PIECES = 4  # sub-intervals for the piecewise-linear phase model inside K integrals
_BIN_TOL = 1e-6  # Bohr frequencies closer than this share a Lindblad operator
_MAX_STEP_FRACTION = 0.02  # largest step as a fraction of the anneal time
_ATOL = 1e-10  # absolute floor of every step's error tolerance


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


def transverse_ground(num_qubits: int) -> np.ndarray:
    """Ground state of +sum sigma^x, where every anneal starts: the
    alternating-sign uniform superposition 2^(-n/2) sum_x (-1)^popcount(x) |x>."""
    dim = 1 << num_qubits
    return config_from_index(np.arange(dim)[:, None], num_qubits).prod(axis=1) / np.sqrt(dim)


def annealing_hamiltonian(X: np.ndarray, Ez: np.ndarray, A: float, B: float) -> np.ndarray:
    """Dense real H = A * X + B * diag(Ez); at anneal fraction s the
    coefficients are the schedule's A(s) and B(s).  A stack of X blocks
    gives the stack of their H blocks, each with the same diag(Ez)."""
    H = float(A) * X
    diag = np.arange(len(Ez))
    H[..., diag, diag] += float(B) * Ez
    return H


def step_boundaries(schedule, snapshots: int) -> tuple[np.ndarray, np.ndarray]:
    """Anneal fractions where steps must end - ``snapshots`` evenly spaced
    points from 0 to 1 and the schedule's interior knots, where dA/ds and
    dB/ds jump - and a mask of the ones that are snapshots.  ValidationError
    unless ``snapshots`` is an integer >= 2."""
    if not isinstance(snapshots, numbers.Integral) or snapshots < 2:
        raise ValidationError(f"snapshots must be an integer >= 2, got {snapshots!r}")
    s_points = np.linspace(0.0, 1.0, snapshots)
    knots = np.asarray(schedule.s, dtype=float)
    bounds = np.unique(np.concatenate([s_points, knots[(knots > 0) & (knots < 1)]]))
    return bounds, np.isin(bounds, s_points)


def tracked_levels(levels: int | None, num_qubits: int) -> int:
    """Instantaneous levels an anneal tracks: all 2^n when ``levels`` is
    None; ValidationError for a non-integer or outside [1, 2^n]."""
    dim = 1 << num_qubits
    if levels is not None and not isinstance(levels, numbers.Integral):
        raise ValidationError(f"levels must be an integer or None, got {levels!r}")
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
    :func:`frame_run` (a node's sector eigensolves count once).
    ``truncation_margin`` is the smallest gap between the last kept and the
    first dropped level of one frame sector over the nodes with 0 < s < 1,
    or None when every level is kept: near zero, the truncation cuts a
    (near-)degenerate cluster.  Levels of different flip sectors cross
    exactly and do not narrow it.
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


def connected_components(problem: IsingProblem):
    """Split ``problem`` into its connected components: every listed
    coupling joins its two qubits.

    Returns (parts, distinct, which): ``parts`` lists each component's
    qubits in increasing order, components ordered by their smallest qubit;
    ``distinct`` holds the k-spin IsingProblems of the distinct components,
    their qubits relabelled 0..k-1 in increasing order, two components being
    equal when their fields and couplings are; ``which[c]`` indexes the
    problem of component c in ``distinct``.
    """
    n = problem.num_spins
    group = list(range(n))  # each qubit's component, named by its smallest qubit
    for i, j in problem.couplings:
        keep, merge = sorted((group[i], group[j]))
        group = [keep if g == merge else g for g in group]
    parts = [[q for q in range(n) if group[q] == g] for g in dict.fromkeys(group)]
    subs = []
    for qubits in parts:
        label = {q: k for k, q in enumerate(qubits)}
        subs.append(IsingProblem(
            len(qubits),
            {label[q]: h for q, h in problem.local_fields.items() if q in label},
            {(label[i], label[j]): v for (i, j), v in problem.couplings.items() if i in label},
        ))
    distinct = [sub for k, sub in enumerate(subs) if sub not in subs[:k]]
    return parts, distinct, [distinct.index(sub) for sub in subs]


def sector_blocks(problem: IsingProblem):
    """The blocks of H(s) = A(s) * sum_q sigma^x_q + B(s) * diag(E_z) of
    ``problem``, one per sector: (signs, X blocks, E_z block).

    Sector sign σ of dimension d is spanned by (|x> + σ|x'>) / sqrt(1 + σ^2)
    for x < d, with x' = x XOR (2^n - 1) the global flip of x.  When E_z is
    flip-symmetric, H(s) commutes with the product of all sigma^x, and the
    sectors are σ = ±1 of dimension 2^(n-1); otherwise there is the one
    whole-space sector σ = 0.  Over sector σ the transverse term is the X
    block of that sign, the blocks stacked (sectors, d, d) in the order of
    ``signs``, and the Ising term is diag(E_z block), the same in both ±1
    sectors.  The sectors' spectra together are H(s)'s.
    """
    n = problem.num_spins
    Ez = all_config_energies(problem)
    signs = (1.0, -1.0) if np.array_equal(Ez, Ez[::-1]) else (0.0,)
    d = len(Ez) // len(signs)
    X = pauli_x_sum(n)
    X_sectors = np.stack([X[:d, :d] + sign * X[:d, ::-1][:, :d] for sign in signs])
    return signs, X_sectors, Ez[:d]  # the flip leaves E_z unchanged wherever there are two sectors


def anneal_components(problem: IsingProblem, run):
    """Anneal ``problem`` one connected component at a time.

    The components are those of :func:`connected_components`, and
    ``run(component) -> (s values, states, IntegratorReport)`` is called once
    for each distinct one.  Each integrator starts a component in its own
    :func:`transverse_ground`, so the whole start is their product, the
    problem's transverse ground state.  A snapshot is the tensor product of
    the components' states at it (vectors, or density matrices when 2-d),
    permuted to the problem's qubit order.  A problem of one component is
    handed to ``run`` as it is, and its result returned unchanged.  The
    report of a factored run adds up the runs' steps and node builds and
    keeps their smallest ``min_step_ns``, so it is the one run's report
    when every component is equal; its margin is None, since the callers
    run every component untruncated.
    """
    parts, distinct, which = connected_components(problem)
    if len(parts) == 1:
        return run(problem)
    runs = [run(sub) for sub in distinct]

    # the product's qubit axes run part by part; put them in problem order
    n = problem.num_spins
    axes = np.argsort([q for qubits in parts for q in qubits])

    def product(k: int) -> np.ndarray:
        state = reduce(np.kron, [runs[w][1][k] for w in which])
        order = np.concatenate([axes + n * d for d in range(state.ndim)])  # rows, then columns
        return state.reshape((2,) * (n * state.ndim)).transpose(order).reshape(state.shape)

    reports = [report for _, _, report in runs]
    report = IntegratorReport(sum(r.accepted for r in reports), sum(r.rejected for r in reports),
                              sum(r.node_builds for r in reports), min(r.min_step_ns for r in reports), None)
    s_points = runs[0][0]
    return s_points, [product(k) for k in range(len(s_points))], report


# Yoshida's triple jump (Phys. Lett. A 150, 262 (1990)): symmetric
# second-order steps of w*h, (1 - 2w)*h and w*h compose to fourth order
_W = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_TRIPLE_JUMP = np.array([_W, 1.0 - 2.0 * _W, _W])
_TRIPLE_JUMP_MIDPOINTS = np.cumsum(_TRIPLE_JUMP) - 0.5 * _TRIPLE_JUMP


def split_operator_run(problem: IsingProblem, schedule, snapshots, rtol):
    """Unitary fourth-order splitting of H(s) = A(s) * sum_q sigma^x_q + B(s) * diag(E_z),
    with E_z the energies of ``problem``.

    Evolves the state vector from :func:`transverse_ground`.  A Strang
    step over [t, t+h] takes A and B at its midpoint and applies exp(-i h/2 B E_z),
    then exp(-i h A sigma^x_q) for every qubit q, then exp(-i h/2 B E_z)
    again; three Strang steps make a triple-jump step.  Step doubling
    estimates the error as |full - halves| / 15 (Frobenius norm), which must
    stay within _ATOL + rtol; the two half steps are kept.  Runs under
    :func:`adaptive_run` at order 5; returns (s values, state vectors,
    IntegratorReport).
    """
    Ez = all_config_energies(problem)
    flips = flip_indices(problem.num_spins)
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

    def step(psi, t, h):
        full = fourth_order(psi, t, h)
        halves = fourth_order(fourth_order(psi, t, 0.5 * h), t + 0.5 * h, 0.5 * h)
        return halves, float(np.linalg.norm(full - halves)) / (15.0 * (_ATOL + rtol))

    psi0 = transverse_ground(problem.num_spins).astype(complex)
    return adaptive_run(step, psi0, schedule, snapshots, 5, lambda psi: psi)


@dataclass
class _Node:
    t: float
    eps: np.ndarray  # (sectors, levels per sector): frame energies
    U: np.ndarray  # (sectors, d, levels per sector): each sector's eigenvectors in its own basis
    eps_dot: np.ndarray  # (sectors, levels per sector)
    K: np.ndarray  # (sectors, levels per sector, levels per sector): dH/dt keeps the sector
    dissipator: "_DissipatorProgram"


@dataclass
class _DissipatorProgram:
    # the jump terms: out.flat[scatter] += pref * y.flat[gather], over the
    # sector blocks, with complex y and out viewed as float arrays
    pref: np.ndarray
    gather: np.ndarray
    scatter: np.ndarray
    M: np.ndarray  # sum gamma L^dagger L, one block per sector


@dataclass(frozen=True)
class _Layout:
    """Where a frame density matrix's elements sit in its sector blocks, and
    the sigma^z transitions (a, b) its dissipator is built from."""

    position: np.ndarray  # (levels, levels): flat index in the blocks of element (a, a'), a and a' of one sector
    pair_a: np.ndarray  # the levels a and b of each transition, (+, -) then (-, +)
    pair_b: np.ndarray
    split: np.ndarray  # per transition: a's sector


def _layout(signs, per: int) -> _Layout:
    """The layout of ``per`` levels in each sector of ``signs`` (sector by
    sector, levels in frame order), one block per sector.  sigma^z
    anticommutes with the global flip, so it couples sector sign σ only to
    sector sign -σ: the transitions between the two ±1 sectors, or all of
    the whole-space sector."""
    levels = np.arange(len(signs) * per)
    sector, local = np.divmod(levels, per)
    level_sign = np.repeat(signs, per)
    pair_a, pair_b = np.nonzero(level_sign[:, None] == -level_sign[None, :])
    return _Layout(levels[:, None] * per + local[None, :], pair_a, pair_b, sector[pair_a])


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _conjugation(P: np.ndarray):
    """The maps y -> P y P^dagger and y -> P^dagger y P, for P and y stacks of sector blocks."""
    P_h = _dagger(P)
    return (lambda y: P @ y @ P_h), (lambda y: P_h @ y @ P)


def _sector_eigh(H: np.ndarray, signs, keep: int, where: str):
    """Eigenpairs of the stacked sector blocks H (..., sectors, d, d): all of
    them, or, when keep < d, the lowest ``keep`` of each sector and one more,
    so the gap at the cut is exact.  A failed eigensolve raises
    NumericalError naming ``where`` and the sector."""
    d = H.shape[-1]
    if keep >= d:
        try:
            return np.linalg.eigh(H)
        except np.linalg.LinAlgError:
            pass  # solved again below, one sector at a time, to name the one that fails
    solved = []
    for k, sign in enumerate(signs):
        try:
            if keep < d:
                solved.append(scipy.linalg.eigh(H[k], subset_by_index=(0, keep), driver="evx"))
            else:
                solved.append(np.linalg.eigh(H[..., k, :, :]))
        except np.linalg.LinAlgError as exc:
            sector = "whole-space" if sign == 0 else f"{sign:+g}"
            raise NumericalError(f"{where} in the {sector} sector: {exc}") from exc
    e, u = zip(*solved)
    return np.stack(e, axis=-2), np.stack(u, axis=-3)


def frame_run(problem: IsingProblem, schedule, bath, levels, snapshots, rtol):
    """Adiabatic master equation (kappa > 0) of ``problem`` from
    :func:`transverse_ground`, tracking the lowest ``levels`` instantaneous
    levels (all when None).

    The frame is built in the sectors of :func:`sector_blocks`: the two
    sectors σ = ±1 of dimension 2^(n-1) when E_z is flip-symmetric, with
    ``levels`` split evenly between them (an odd count raises
    ValidationError), and otherwise the one whole-space sector σ = 0.  Each
    sector takes its own eigensolve, its own gauge fixes and its own level
    matching, so every frame column stays a parity eigenvector and no level
    crosses the cut at an exact crossing between sectors.  Untruncated
    sectors are solved in one stacked eigensolve.

    The frame density matrix y is carried as a stack of its blocks, one per
    sector.  It starts as the projector on the lowest level of the s = 0
    node: H = A(0) sum_q sigma^x_q with A(0) > 0 there, whose unique ground
    state is :func:`transverse_ground`, and no truncation drops it.  That
    start commutes with the global flip, and so does rho(t): the
    Lindbladian keeps that symmetry, since every sigma^z jump maps sector
    block (σ, σ') to (-σ, -σ'), so the blocks between the two ±1 sectors
    stay zero.  The coherent propagators, the dissipator, the error norms
    and the Hermitian clean-up act block by block, and the step's three
    propagators are exponentiated together, each sector on its own.  A step
    attempt builds the frame nodes (eigensolves, alignment, dissipator
    program) at its midpoint and end.
    Runs under :func:`adaptive_run` at order 4; returns (s values, density
    matrices in the computational basis at the snapshots,
    IntegratorReport)."""
    n = problem.num_spins
    dim = 1 << n
    m = tracked_levels(levels, n)
    signs, X_sectors, Ez_sector = sector_blocks(problem)
    sectors = len(signs)
    if m % sectors:
        raise ValidationError("levels must be even: the flip-symmetric frame splits them between two sectors")
    d, per = dim // sectors, m // sectors
    t_f = schedule.t_f_ns
    zdiags = np.ascontiguousarray(config_from_index(np.arange(d)[:, None], n).T, dtype=float)
    node_builds = 0
    margin = None if per == d else np.inf
    layout = _layout(signs, per)

    def build_node(t: float, prev: _Node | None) -> _Node:
        nonlocal node_builds, margin
        s = t / t_f
        A, B = schedule.A_of(s), schedule.B_of(s)
        dA, dB = schedule.derivatives_of(s)
        node_builds += 1
        e, u = _sector_eigh(annealing_hamiltonian(X_sectors, Ez_sector, A, B), signs, per,
                            f"eigensolve failed at t={t} ns")
        if per < d and 0.0 < s < 1.0:
            margin = min(margin, float((e[:, per] - e[:, per - 1]).min()))
        e, u = e[:, :per], u[:, :, :per]
        scale = max(1.0, float(np.abs(e).max()))
        M_dot = u.swapaxes(1, 2) @ (float(dA) * (X_sectors @ u) + float(dB) * (Ez_sector[:, None] * u)) / t_f
        for k in range(sectors):
            uk, Mk = u[k], M_dot[k]
            # Within each (near-)degenerate cluster the eigensolver basis is
            # arbitrary; rotate to the basis diagonalizing dH/dt (degenerate
            # perturbation theory), which is the correct adiabatic continuation
            # and removes spurious couplings over vanishing denominators.
            for cluster in _degenerate_clusters(e[k], 1e-6 * scale):
                ix = np.ix_(cluster, cluster)
                _, rot = np.linalg.eigh(0.5 * (Mk[ix] + Mk[ix].T))
                uk[:, cluster] = uk[:, cluster] @ rot
                Mk[cluster, :] = rot.T @ Mk[cluster, :]
                Mk[:, cluster] = Mk[:, cluster] @ rot
            if prev is not None:  # the first node keeps the eigensolver's gauge
                e[k], u[k], M_dot[k] = _align(prev.U[k], e[k], uk, Mk)
        # contiguous copies of the kept levels: products of strided views round differently
        eps, U = np.ascontiguousarray(e), np.ascontiguousarray(u)
        guard = 1e-9 * scale
        denom = eps[:, None, :] - eps[:, :, None]
        K = M_dot / np.where(np.abs(denom) > guard, denom, np.inf)
        diag = np.arange(per)
        K[:, diag, diag] = 0.0
        eps_dot = M_dot[:, diag, diag]
        return _Node(t, eps, U, eps_dot, K, _build_dissipator(eps, U, zdiags, bath, layout, eps_dot))

    def start():
        """The state at s = 0: its node, and the projector on its lowest level."""
        node = build_node(0.0, None)
        y = np.zeros((sectors, per, per), dtype=complex)
        y[np.argmin(node.eps[:, 0]), 0, 0] = 1.0
        return node, y

    def step(state, t: float, h: float):
        """One attempt from ``state`` = (node, sector blocks of the frame
        density matrix); returns ((end node, blocks there), err)."""
        node0, y = state
        node_mid = build_node(t + 0.5 * h, node0)
        node1 = build_node(t + h, node_mid)
        # P1 and P = P2 P1 propagate the frame over [t, t+h/2] and [t, t+h];
        # the one-step P_full only measures the coherent model's error
        P1, P2, P_full = _propagators(node0, node_mid, node1, h, signs)
        half, whole = _conjugation(P1), _conjugation(P2 @ P1)
        scale = _ATOL + rtol * float(np.linalg.norm(y))
        err = float(np.linalg.norm(_conjugation(P_full)[0](y) - whole[0](y))) / (3.0 * scale)

        def rhs(node, prop, u):
            """The dissipator at ``node`` acting on the interaction-picture ``u``."""
            forward, back = prop
            return back(_dissipator_rhs(node.dissipator, forward(u)))

        k1 = _dissipator_rhs(node0.dissipator, y)
        k2 = rhs(node_mid, half, y + 0.5 * h * k1)
        k3 = rhs(node_mid, half, y + 0.5 * h * k2)
        k4 = rhs(node1, whole, y + h * k3)
        k3_kutta = rhs(node1, whole, y + h * (2.0 * k2 - k1))
        u4 = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        u3 = y + (h / 6.0) * (k1 + 4.0 * k2 + k3_kutta)
        err = max(err, float(np.linalg.norm(u4 - u3)) / scale)
        y_new = whole[0](u4)
        return (node1, 0.5 * (y_new + _dagger(y_new))), err

    def record(state):
        """The density matrix in the computational basis: the sum of the
        blocks lifted by each sector's frame columns V (2^n, levels per
        sector), as one product of the blocks side by side."""
        node, y = state
        V = np.zeros((sectors, dim, per))
        V[:, :d] = node.U
        V[:, dim - d:] += np.reshape(signs, (-1, 1, 1)) * node.U[:, ::-1]
        V /= np.sqrt(1.0 + signs[0] ** 2)
        return np.concatenate(V @ y, axis=1) @ np.concatenate(V, axis=1).T

    # no local holds the start state: its node, at the most degenerate
    # point, has the largest dissipator program and is freed after one step
    s_points, rhos, report = adaptive_run(step, start(), schedule, snapshots, 4, record)
    return s_points, rhos, replace(report, node_builds=node_builds, truncation_margin=margin)


def _align(prev_U: np.ndarray, eps: np.ndarray, U: np.ndarray, M_dot: np.ndarray):
    """Follow the previous node's levels within one sector: permute columns
    by overlap with ``prev_U``, fix each level's sign, and rotate clusters
    where both the energy and its slope coincide onto the previous gauge."""
    overlap = prev_U.T @ U
    perm = linear_sum_assignment(np.abs(overlap), maximize=True)[1]
    eps = eps[perm]
    U = U[:, perm]
    M_dot = M_dot[perm][:, perm]
    # per-level sign gauge; polar alignment only where both the energy
    # and its slope coincide (the dH/dt basis is then still arbitrary)
    flip = overlap[:, perm].diagonal() < 0
    eps_dot = M_dot.diagonal()
    dot_tol = 1e-9 * max(1.0, float(np.abs(eps_dot).max()))
    for cluster in _degenerate_clusters(eps, 1e-6 * max(1.0, float(np.abs(eps).max()))):
        for sub in _degenerate_clusters(eps_dot[cluster], dot_tol):
            idx = cluster[sub]
            flip[idx] = False
            u, _, vt = np.linalg.svd(U[:, idx].T @ prev_U[:, idx])
            rot = u @ vt
            U[:, idx] = U[:, idx] @ rot
            M_dot[idx, :] = rot.T @ M_dot[idx, :]
            M_dot[:, idx] = M_dot[:, idx] @ rot
    signs = np.where(flip, -1.0, 1.0)
    return eps, U * signs, signs[:, None] * M_dot * signs[None, :]


def _build_dissipator(eps: np.ndarray, U: np.ndarray, zdiags: np.ndarray, bath, layout: _Layout,
                      slopes: np.ndarray) -> _DissipatorProgram:
    """The dissipator in the frame of the sectors' eigenvectors ``U``
    (sectors, d, levels per sector), with energies ``eps`` (sectors, levels
    per sector), for sigma^z couplings with the (qubits, d) diagonals
    ``zdiags`` over a sector's d basis states, acting on the sector blocks
    of ``layout``.

    sigma^z anticommutes with the global flip, so its element between two
    levels of one ±1 sector is exactly zero, and only the transitions of
    ``layout`` enter.  Between the two ±1 sectors the element of qubit q is
    U_+^T diag(z_q) U_-, and the (-, +) elements are its transpose; within
    the whole-space sector it is U^T diag(z_q) U.  So a jump term maps block
    (σ, σ') to block (-σ, -σ').

    Bohr frequencies share a Lindblad operator when they lie within
    _BIN_TOL and so do their slopes, taken from the levels' ``slopes``
    d(eps)/dt, per ns: the adiabatic master equation pairs frequencies equal
    as functions of time, and two that coincide only at this instant, as the
    transverse field's multiplets do at s = 0, part in the step.  Each
    bin's transitions are grouped by sector, and the terms between the
    groups, which read and write the blocks between the two ±1 sectors that
    stay zero, are left out.
    """
    per = eps.shape[1]
    W = U[0].T @ (zdiags[:, :, None] * U[-1])  # all W_q of the (+, -) or whole-space block via one batched product
    w = W.reshape(len(zdiags), -1)
    if len(U) == 2:
        w = np.concatenate([w, W.swapaxes(1, 2).reshape(len(zdiags), -1)], axis=1)
    levels = eps.ravel()
    gaps = levels[layout.pair_b] - levels[layout.pair_a]
    keys = np.zeros((3, len(gaps)), dtype=np.int64)  # sort by frequency, then slope difference, then sector
    keys[0] = layout.split
    keys[1] = np.rint((slopes.ravel()[layout.pair_b] - slopes.ravel()[layout.pair_a]) / _BIN_TOL)
    keys[2] = np.rint(gaps / _BIN_TOL)
    order = np.lexsort(keys)
    ordered = keys[:, order]
    new = np.ones((2, len(order)), dtype=bool)  # where a sector group starts, and where its bin does
    new[0, 1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    new[1, 1:] = (ordered[1:, 1:] != ordered[1:, :-1]).any(axis=0)
    starts = np.flatnonzero(new[0])
    lengths = np.bincount(np.cumsum(new[0]) - 1)
    # a bin's groups share its Lindblad operator, at the bin's first frequency
    rates = bath.rate(gaps[order[new[1]]])[np.cumsum(new[1])[starts] - 1]

    prefs, gathers, scatters = [], [], []
    M = np.zeros(len(levels) * per)
    for c in np.flatnonzero(np.bincount(lengths)):
        bins_c = np.flatnonzero(lengths == c)
        members = order[starts[bins_c][:, None] + np.arange(c)[None, :]]  # (nb, c)
        a, b = layout.pair_a[members], layout.pair_b[members]
        pref = rates[bins_c][:, None, None] * np.einsum("qki,qkj->kij", w[:, members], w[:, members])
        gather = layout.position[b[:, :, None], b[:, None, :]].ravel()
        prefs.append(pref.ravel())
        gathers.append(gather)
        scatters.append(layout.position[a[:, :, None], a[:, None, :]].ravel())
        # L^dagger L pairs two levels b, b' below one level a, so of one sector
        same_a = a[:, :, None] == a[:, None, :]
        M += np.bincount(gather, weights=(pref * same_a).ravel(), minlength=len(M))
    M = M.reshape(-1, per, per).astype(complex)
    # the jump terms act on a complex y viewed as floats: real, imaginary, real, ...
    parts = np.arange(2)
    return _DissipatorProgram(np.repeat(np.concatenate(prefs), 2),
                              (2 * np.concatenate(gathers)[:, None] + parts).ravel(),
                              (2 * np.concatenate(scatters)[:, None] + parts).ravel(), M)


def _dissipator_rhs(program: _DissipatorProgram, y: np.ndarray) -> np.ndarray:
    """The dissipator acting on the sector blocks y of a frame density matrix."""
    flat = np.ascontiguousarray(y).view(np.float64).ravel()
    out = np.bincount(program.scatter, program.pref * flat[program.gather], 2 * y.size).view(complex)
    return out.reshape(y.shape) - 0.5 * (program.M @ y + y @ program.M)


_KNOTS = np.linspace(0.0, 1.0, _PIECES + 1)
# integrals over [0, c] of the cubic Hermite basis, at each knot c: the
# weights of eps(t0), h eps_dot(t0), eps(t1) and h eps_dot(t1) in the phase
_PHASE_WEIGHTS = np.stack([
    _KNOTS**4 / 2 - _KNOTS**3 + _KNOTS,
    _KNOTS**4 / 4 - 2 * _KNOTS**3 / 3 + _KNOTS**2 / 2,
    -(_KNOTS**4) / 2 + _KNOTS**3,
    _KNOTS**4 / 4 - _KNOTS**3 / 3,
])[:, :, None, None, None]
_PIECE_MIDPOINTS = (0.5 * (_KNOTS[:-1] + _KNOTS[1:]))[:, None, None, None, None]
_PIECE_WIDTHS = np.diff(_KNOTS)[:, None, None, None, None]


def _propagators(n0: _Node, n_mid: _Node, n1: _Node, h: float, signs) -> np.ndarray:
    """The frame's coherent propagators P = diag(exp(-i phi)) W over the
    half steps n0 -> n_mid and n_mid -> n1 and the whole step n0 -> n1, of
    length h, stacked (3, sectors, levels per sector, levels per sector):
    phi are the accumulated phases and W the Magnus exponential of the
    non-adiabatic coupling K.

    The phases at the _PIECES + 1 knots integrate a cubic Hermite model of
    eps(t).  The coupling element (a, b) oscillates at the accumulated phase
    difference; its integral is taken with a piecewise-linear phase and a
    linearly interpolated K envelope over the _PIECES sub-intervals.  The
    Magnus exponent is block-diagonal, so each sector's W is exponentiated
    on its own; a failed eigensolve raises NumericalError naming the step
    and the sector.
    """
    starts, ends = (n0, n_mid, n0), (n_mid, n1, n1)
    eps0, dot0, K0 = (np.array([getattr(node, name) for node in starts]) for name in ("eps", "eps_dot", "K"))
    eps1, dot1, K1 = (np.array([getattr(node, name) for node in ends]) for name in ("eps", "eps_dot", "K"))
    hs = np.array([0.5 * h, 0.5 * h, h])[:, None, None]
    i00, i10, i01, i11 = _PHASE_WEIGHTS
    phis = hs * (eps0 * i00 + hs * dot0 * i10 + eps1 * i01 + hs * dot1 * i11)  # (knots, 3, sectors, levels)
    dphi = phis[..., :, None] - phis[..., None, :]
    x = dphi[1:] - dphi[:-1]
    small = np.abs(x) < 1e-8
    shape = np.where(small, 1.0 + 0.5j * x, (np.exp(1j * x) - 1.0) / np.where(small, 1.0, 1j * x))
    K_mid = K0 + (K1 - K0) * _PIECE_MIDPOINTS
    omega = -(K_mid * np.exp(1j * dphi[:-1]) * shape * (_PIECE_WIDTHS * hs[..., None])).sum(axis=0)
    # omega is anti-Hermitian, so exponentiate through the Hermitian 1j*omega
    generator = 1j * omega
    evals, V = _sector_eigh(0.5 * (generator + _dagger(generator)), signs, omega.shape[-1],
                            f"propagator eigensolve failed from t={n0.t} ns to t={n1.t} ns")
    return np.exp(-1j * phis[-1])[..., :, None] * ((V * np.exp(-1j * evals)[..., None, :]) @ _dagger(V))


def _degenerate_clusters(eps: np.ndarray, tol: float) -> list[np.ndarray]:
    """The runs of two or more indices of eps whose consecutive sorted values
    lie within tol."""
    order = np.argsort(eps)
    ordered = eps[order]
    close = ordered[1:] - ordered[:-1] < tol
    if not close.any():
        return []
    runs = np.split(order, np.flatnonzero(~close) + 1)
    return [run for run in runs if len(run) > 1]
