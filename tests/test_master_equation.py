import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qacsim.dynamics import evolve_closed
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
    problem = encode_problem(make_af_chain(2), "C", 0.4)
    schedule = schedule_linear(1.0, 0.01)
    psi = evolve_closed(problem, schedule, rtol=1e-8).final.data
    rho = evolve_open(problem, schedule, BathSpec(kappa=0.0), rtol=1e-6, snapshots=2).final.data
    assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-6


# ---------------------------------------------------------------------------
# kappa > 0 against a Lindblad integration in the computational basis

A0, T_F_US, ALPHA, BIN_TOL = 2.0 * np.pi, 0.01, 0.3, 1e-6
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])
I2 = np.eye(2)
HX = np.kron(SX, I2) + np.kron(I2, SX)
HZ = ALPHA * np.kron(SZ, SZ)  # the U two-spin antiferromagnetic chain
ZS = np.stack([np.diag(np.kron(SZ, I2)), np.diag(np.kron(I2, SZ))])
ORACLE_KAPPAS = (1e-3, 8e-3)


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


@pytest.fixture(scope="module")
def u_oracle_runs():
    """(final rho of evolve_open, final rho of the oracle, trajectory) per kappa."""
    problem = encode_problem(make_af_chain(2), "U", ALPHA)
    schedule = schedule_linear(A0, T_F_US)
    baths = [BathSpec(kappa) for kappa in ORACLE_KAPPAS]
    psi0 = 0.5 * np.array([1.0, -1.0, -1.0, 1.0])  # ground state of +sum sigma^x
    rho0 = np.outer(psi0, psi0).astype(complex)
    sol = solve_ivp(lindblad_rhs, (0.0, T_F_US * 1e3), np.tile(rho0.ravel(), len(baths)), method="DOP853",
                    rtol=1e-10, atol=1e-12, args=(baths,))
    assert sol.success
    expected = sol.y[:, -1].reshape(len(baths), 4, 4)
    runs = []
    for bath, rho_ref in zip(baths, expected):
        traj = evolve_open(problem, schedule, bath, rtol=1e-6, snapshots=2)
        runs.append((traj.final.data, rho_ref, traj))
    return runs


@pytest.mark.parametrize("which", range(len(ORACLE_KAPPAS)))
def test_open_anneal_matches_lindblad_oracle(u_oracle_runs, which):
    rho, rho_ref, _ = u_oracle_runs[which]
    assert np.abs(rho - rho_ref).max() < 2e-5
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# integrator report


def _check_counts(report):
    # the start node, then a midpoint and an end node per attempted step
    assert report.node_builds <= 2 * (report.accepted + report.rejected) + 1
    assert report.accepted > 0 and 0.0 < report.min_step_ns <= T_F_US * 1e3


def test_report_untruncated_u_chain(u_oracle_runs):
    for _, _, traj in u_oracle_runs:
        _check_counts(traj.report)
        assert traj.report.truncation_margin is None


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


def test_trajectory_report_is_empty_for_closed_anneals():
    problem = encode_problem(make_af_chain(2), "U", ALPHA)
    assert evolve_closed(problem, schedule_linear(A0, T_F_US), rtol=1e-6).report is None
