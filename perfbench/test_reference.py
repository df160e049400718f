"""Hand-checked cases for the benchmark's reference computations."""

import numpy as np
import pytest

import reference as ref


def test_vote_counts_two_blocks():
    # blocks (0,1,2) and (3,4,5); grounds (+1,-1) and (-1,+1)
    bits = np.array([
        [1, 1, 1, -1, -1, -1],   # exact code ground
        [1, -1, 1, -1, 1, -1],   # one flip per block: decodes, not exact
        [1, -1, -1, -1, -1, -1], # block 0 votes -1: (-1,-1) is no ground
    ])
    counts = np.array([5, 3, 2])
    grounds = np.array([[1, -1], [-1, 1]])
    code = np.repeat(grounds, 3, axis=1)
    n_gs, n_s = ref.vote_counts(bits, counts, np.arange(6).reshape(2, 3), grounds, code)
    assert (n_gs, n_s) == (5, 8)


def test_operators_and_energies():
    assert np.array_equal(ref.transverse_sum(1), ref.SX)
    assert np.array_equal(ref.ising_diagonal(2, {}, {(0, 1): 1.0}), [1, -1, -1, 1])
    assert np.array_equal(ref.ising_diagonal(2, {0: 0.5}, {}), [0.5, 0.5, -0.5, -0.5])
    assert np.array_equal(ref.brute_force_energies(2, {}, {(0, 1): 1.0}), [1, -1, -1, 1])
    assert np.array_equal(ref.brute_force_energies(2, {1: 1.0}, {}), [1, -1, 1, -1])


def test_anneal_gap_single_qubit():
    # a X + b Z has eigenvalues +-sqrt(a^2 + b^2)
    assert ref.anneal_gap(ref.SX, np.array([1.0, -1.0]), 3.0, 4.0, 1) == pytest.approx(10.0)


def test_classical_levels_chain_and_penalty():
    # two-spin AF chain: ground (-1) twice, excited (+1) twice -> gap 2 alpha
    u = ref.brute_force_energies(2, {}, {(0, 1): 1.0})
    assert ref.classical_levels(u, np.zeros(4), 0.3, 0.0) == [(2.0, 0.0, 2)]
    # ferromagnetic penalty pair: weights separate problem and penalty parts
    v = ref.brute_force_energies(2, {}, {(0, 1): -1.0})
    assert ref.classical_levels(np.zeros(4), v, 0.3, 0.2) == [(0.0, 2.0, 2)]


def test_transverse_ground_is_lowest():
    psi = ref.transverse_ground(3)
    hx = ref.transverse_sum(3)
    assert np.allclose(hx @ psi, -3.0 * psi)
    assert np.linalg.norm(psi) == pytest.approx(1.0)


def test_schrodinger_rabi_and_phase():
    up = np.array([1.0, 0.0], dtype=complex)
    # constant a X from |0>: population sin^2(a t) moves to |1>
    psi = ref.schrodinger(ref.SX, np.zeros(2), lambda s: 0.7, lambda s: 0.0, 2.0, up)
    assert abs(psi[1]) ** 2 == pytest.approx(np.sin(1.4) ** 2, abs=1e-9)
    # constant b Z on |+>: relative phase exp(-2 i b t)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    psi = ref.schrodinger(ref.SX, np.array([1.0, -1.0]), lambda s: 0.0, lambda s: 0.5, 3.0, plus)
    assert psi[1] / psi[0] == pytest.approx(np.exp(2j * 0.5 * 3.0), abs=1e-9)


def test_ohmic_rate_limits_and_balance():
    kappa, wc, T = 1e-3, 8 * np.pi, 2.2
    assert ref.ohmic_rate(0.0, kappa, wc, T) == pytest.approx(2 * np.pi * kappa * T)
    assert ref.ohmic_rate(1e-9, kappa, wc, T) == pytest.approx(2 * np.pi * kappa * T, rel=1e-6)
    w = 1.3
    ratio = ref.ohmic_rate(w, kappa, wc, T) / ref.ohmic_rate(-w, kappa, wc, T)
    assert ratio == pytest.approx(np.exp(w / T - 2 * w / wc))


def test_master_equation_pure_dephasing():
    # H = b Z with a Z bath: coherence decays as exp(-2 gamma(0) t) and
    # turns at the Bohr frequency 2 b; populations stay put
    kappa, wc, T, b, t = 2e-3, 8 * np.pi, 2.2, 0.5, 4.0
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    rho = ref.master_equation(ref.SX, np.array([1.0, -1.0]), lambda s: 0.0, lambda s: b, t, rho0, kappa, wc, T)
    gamma0 = 2 * np.pi * kappa * T
    assert rho[0, 0].real == pytest.approx(0.5, abs=1e-9)
    assert rho[0, 1] == pytest.approx(0.5 * np.exp(-2j * b * t - 2 * gamma0 * t), abs=1e-8)
