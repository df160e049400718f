import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qacsim.dynamics import QuantumState, evolve_closed
from qacsim.errors import ValidationError
from qacsim.master_equation import BathSpec, bath_rate, evolve_open
from qacsim.problem import encode_problem, make_af_chain, schedule_linear

OMEGAS = np.array([1e-3, 0.1, 1.0, 5.0, 40.0])


def ohmic(omega, kappa, omega_c, temperature):
    """The Ohmic rate for omega > 0, written out."""
    return 2.0 * np.pi * kappa * omega * np.exp(-omega / omega_c) / (1.0 - np.exp(-omega / temperature))


@pytest.mark.parametrize("mode", ["printed", "absolute"])
def test_bath_rate_zero_frequency_limit(mode):
    bath = BathSpec(kappa=2e-3, temperature=1.7, cutoff_mode=mode)
    assert bath_rate(0.0, bath) == pytest.approx(2.0 * np.pi * 2e-3 * 1.7, rel=1e-14)


def test_bath_rate_detailed_balance_absolute():
    bath = BathSpec(kappa=1e-3, cutoff_mode="absolute")
    up = bath_rate(OMEGAS, bath)
    np.testing.assert_allclose(up, ohmic(OMEGAS, 1e-3, bath.omega_c, bath.temperature), rtol=1e-12)
    np.testing.assert_allclose(bath_rate(-OMEGAS, bath), up * np.exp(-OMEGAS / bath.temperature), rtol=1e-12)


@pytest.mark.parametrize("mode", ["printed", "absolute"])
def test_bath_rate_vanishes_without_coupling(mode):
    bath = BathSpec(kappa=0.0, cutoff_mode=mode)
    assert not np.any(bath_rate(np.concatenate([-OMEGAS, [0.0], OMEGAS]), bath))


def test_open_anneal_without_coupling_matches_closed():
    # at kappa = 0 both anneals run the same unitary integrator
    problem = encode_problem(make_af_chain(2), "C", 0.4)
    schedule = schedule_linear(1.0, 0.01)
    closed = evolve_closed(problem, schedule, rtol=1e-6, snapshots=3)
    opened = evolve_open(problem, schedule, BathSpec(kappa=0.0), rtol=1e-6, snapshots=3, levels=8)
    assert np.array_equal(opened.s, closed.s)
    for rho, psi in zip(opened.states, closed.states, strict=True):
        column = psi.data[:, None]
        assert np.array_equal(rho.data, column @ column.conj().T)
    assert opened.report == closed.report
    with pytest.raises(ValidationError):
        evolve_open(problem, schedule, BathSpec(kappa=0.0), levels=65)


# ---------------------------------------------------------------------------
# kappa > 0 against a Lindblad integration in the computational basis

A0, T_F_US, ALPHA, BIN_TOL = 2.0 * np.pi, 0.01, 0.3, 1e-6
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])
I2 = np.eye(2)
HX = np.kron(SX, I2) + np.kron(I2, SX)
HZ = ALPHA * np.kron(SZ, SZ)  # the U two-spin antiferromagnetic chain
ZS = np.stack([np.diag(np.kron(SZ, I2)), np.diag(np.kron(I2, SZ))])
ORACLE_KAPPAS = (1e-3, 8e-3, 0.0)
# the mixed kappa = 0 input carries coherences between levels, whose phase
# errors make its error about 20x the pure state's at one rtol (2e-5 at
# rtol 1e-6 for the split operator and for the eigenbasis integrator alike)
ORACLE_RTOLS = (1e-6, 1e-6, 1e-7)


def lindblad_rhs(t, y, baths):
    """d(rho)/dt of the adiabatic master equation for one rho per bath.

    H(s) is diagonalized at every call; for each qubit q and each Bohr
    frequency omega = E_b - E_a (binned to BIN_TOL) the Lindblad operator
    L = sum <a|Z_q|b> |a><b| enters with weight bath_rate(omega).
    """
    t_f = T_F_US * 1e3
    s = t / t_f
    H = 2.0 * A0 * (1.0 - s) * HX + 2.0 * A0 * s * HZ
    eps, V = np.linalg.eigh(H)
    omega = eps[None, :] - eps[:, None]
    bins, first, inverse = np.unique(np.rint(omega / BIN_TOL), return_index=True, return_inverse=True)
    in_bin = inverse.reshape(omega.shape) == np.arange(len(bins))[:, None, None]
    z_eigen = V.T @ (ZS[:, :, None] * V)
    L = (V @ (in_bin[:, None] * z_eigen) @ V.T).reshape(-1, 4, 4)  # (bin, qubit) pairs
    Lt = np.swapaxes(L, -1, -2)
    rho = y.reshape(len(baths), 4, 4)
    out = -1j * (H @ rho - rho @ H)
    for k, bath in enumerate(baths):
        gamma = np.repeat(bath_rate(omega.ravel()[first], bath), len(ZS))
        LdL = np.tensordot(gamma, Lt @ L, axes=1)
        out[k] += np.tensordot(gamma, L @ rho[k] @ Lt, axes=1) - 0.5 * (LdL @ rho[k] + rho[k] @ LdL)
    return out.ravel()


def oracle_initial_states():
    """The ground state of +sum sigma^x for each kappa > 0, and a mixed state
    of rank 3 (a random unitary applied to populations 0.5, 0.3, 0.2, 0) for
    kappa = 0."""
    psi0 = 0.5 * np.array([1.0, -1.0, -1.0, 1.0])
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    mixed = (q * np.array([0.5, 0.3, 0.2, 0.0])) @ q.conj().T
    return [np.outer(psi0, psi0).astype(complex) if kappa > 0 else 0.5 * (mixed + mixed.conj().T)
            for kappa in ORACLE_KAPPAS]


@pytest.fixture(scope="module")
def u_oracle_runs():
    """(final rho of evolve_open, final rho of the oracle, trajectory) per kappa."""
    problem = encode_problem(make_af_chain(2), "U", ALPHA)
    schedule = schedule_linear(A0, T_F_US)
    baths = [BathSpec(kappa) for kappa in ORACLE_KAPPAS]
    rho0s = oracle_initial_states()
    sol = solve_ivp(lindblad_rhs, (0.0, T_F_US * 1e3), np.concatenate([r.ravel() for r in rho0s]), method="DOP853",
                    rtol=1e-10, atol=1e-12, args=(baths,))
    assert sol.success
    expected = sol.y[:, -1].reshape(len(baths), 4, 4)
    runs = []
    for bath, rho0, rtol, rho_ref in zip(baths, rho0s, ORACLE_RTOLS, expected):
        traj = evolve_open(problem, schedule, bath, initial=QuantumState.density(rho0), rtol=rtol, snapshots=2)
        runs.append((traj.final.data, rho_ref, traj))
    return runs


@pytest.mark.parametrize("which", range(len(ORACLE_KAPPAS)))
def test_open_anneal_matches_lindblad_oracle(u_oracle_runs, which):
    rho, rho_ref, _ = u_oracle_runs[which]
    assert np.abs(rho - rho_ref).max() < 1e-5
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# integrator report


def _check_counts(report):
    # the start node, then a midpoint and an end node per attempted step
    assert report.node_builds == 2 * (report.accepted + report.rejected) + 1
    assert report.accepted > 0 and 0.0 < report.min_step_ns <= T_F_US * 1e3


def _check_unitary_report(report):
    # the split-operator integrator builds no eigenbasis and truncates nothing
    assert report.accepted > 0 and report.rejected >= 0
    assert report.node_builds == 0 and report.truncation_margin is None
    assert 0.0 < report.min_step_ns <= T_F_US * 1e3


def test_report_untruncated_u_chain(u_oracle_runs):
    for kappa, (_, _, traj) in zip(ORACLE_KAPPAS, u_oracle_runs):
        if kappa == 0.0:
            _check_unitary_report(traj.report)
        else:
            _check_counts(traj.report)
            assert traj.report.node_builds > 0 and traj.report.truncation_margin is None


def test_report_c_chain_truncation_keeps_clusters():
    problem = encode_problem(make_af_chain(2), "C", ALPHA)
    traj = evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(1e-3), levels=32, rtol=1e-4, snapshots=2)
    _check_counts(traj.report)
    assert traj.report.truncation_margin > 1e-3


def test_report_ep_chain_truncation_cuts_a_cluster():
    # levels 7 and 8 of the EP two-spin chain stay degenerate over s ~ 0.62-0.72
    problem = encode_problem(make_af_chain(2), "EP", ALPHA, 0.2)
    traj = evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(1e-3), levels=8, rtol=1e-4, snapshots=2)
    _check_counts(traj.report)
    assert traj.report.truncation_margin < 1e-9


def test_closed_anneal_report():
    for strategy, beta in (("U", 0.0), ("EP", 0.2)):
        problem = encode_problem(make_af_chain(2), strategy, ALPHA, beta)
        _check_unitary_report(evolve_closed(problem, schedule_linear(A0, T_F_US), rtol=1e-6).report)
