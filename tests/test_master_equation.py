from functools import cache, reduce

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from qacsim import _integrator, dynamics, master_equation
from qacsim.dynamics import evolve_closed
from qacsim.errors import NumericalError, ResourceLimitError, ValidationError
from qacsim.master_equation import BathSpec, bath_rate, evolve_open
from qacsim.problem import IsingProblem, encode_problem, make_af_chain, schedule_linear

OMEGAS = np.array([1e-3, 0.1, 1.0, 5.0, 40.0])


def ohmic(omega, kappa, omega_c, temperature):
    """The Ohmic rate for omega > 0, written out."""
    return 2.0 * np.pi * kappa * omega * np.exp(-omega / omega_c) / (1.0 - np.exp(-omega / temperature))


def test_bath_rate_zero_frequency_limit():
    bath = BathSpec(kappa=2e-3, temperature=1.7)
    assert bath_rate(0.0, bath) == pytest.approx(2.0 * np.pi * 2e-3 * 1.7, rel=1e-14)


def test_bath_rate_signed_cutoff():
    # the cutoff exp(-omega/omega_c) acts on signed omega, so the ratio of
    # the two branches is thermal times exp(2 omega/omega_c)
    bath = BathSpec(kappa=1e-3)
    up = bath_rate(OMEGAS, bath)
    np.testing.assert_allclose(up, ohmic(OMEGAS, 1e-3, bath.omega_c, bath.temperature), rtol=1e-12)
    ratio = np.exp(-OMEGAS / bath.temperature) * np.exp(2.0 * OMEGAS / bath.omega_c)
    np.testing.assert_allclose(bath_rate(-OMEGAS, bath), up * ratio, rtol=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bath_rate_near_zero_frequency_matches_series(sign):
    # omega / (1 - exp(-x)) = T (1 + x/2 + x^2/12 - x^4/720 + ...) with x =
    # omega/T: the next term, x^6/30240, is below 1e-22 at |x| <= 1e-3
    bath = BathSpec(kappa=1e-3)
    T = bath.temperature
    x = sign * np.geomspace(1e-12, 1e-3, 91)
    series = T * (1.0 + x / 2.0 + x**2 / 12.0 - x**4 / 720.0)
    expected = 2.0 * np.pi * bath.kappa * series * np.exp(-x * T / bath.omega_c)
    np.testing.assert_allclose(bath_rate(x * T, bath), expected, rtol=1e-14, atol=0.0)


def test_bath_rate_vanishes_without_coupling():
    bath = BathSpec(kappa=0.0)
    assert not np.any(bath_rate(np.concatenate([-OMEGAS, [0.0], OMEGAS]), bath))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["kappa", "omega_c", "temperature"])
def test_bath_spec_rejects_non_finite_parameters(name, value):
    with pytest.raises(ValidationError):
        BathSpec(**{"kappa": 1e-3, name: value})


@pytest.mark.parametrize("rtol", [-1.0, -1e-10, np.nan, np.inf])
@pytest.mark.parametrize("kappa", [None, 0.0, 1e-3])
def test_anneals_reject_bad_rtol(kappa, rtol):
    # kappa None is the closed anneal; a bad rtol must not reach a step
    problem = encode_problem(make_af_chain(2), "U", 0.4)
    schedule = schedule_linear(2.0 * np.pi, 0.01)
    with pytest.raises(ValidationError, match="rtol"):
        if kappa is None:
            evolve_closed(problem, schedule, rtol=rtol)
        else:
            evolve_open(problem, schedule, BathSpec(kappa), rtol=rtol)


@pytest.mark.parametrize("snapshots", [0, 1, -3, 2.5])
@pytest.mark.parametrize("kappa", [None, 0.0, 1e-3])
def test_anneals_reject_bad_snapshots(kappa, snapshots):
    # kappa None is the closed anneal; fewer than two snapshots used to return two
    problem = encode_problem(make_af_chain(2), "U", ALPHA)
    with pytest.raises(ValidationError, match="snapshots"):
        if kappa is None:
            evolve_closed(problem, schedule_linear(A0, T_F_US), snapshots=snapshots)
        else:
            evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(kappa), snapshots=snapshots)


@pytest.mark.parametrize("kappa", [None, 0.0, 1e-3])
def test_anneals_reject_non_integer_levels(kappa):
    # on the field chain at kappa > 0, levels=3.7 used to run 3 levels
    problem = encode_problem(IsingProblem(2, {0: FIELD}, {(0, 1): 1.0}), "U", ALPHA)
    with pytest.raises(ValidationError, match="levels"):
        if kappa is None:
            evolve_closed(problem, schedule_linear(A0, T_F_US), levels=3.7)
        else:
            evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(kappa), levels=3.7)


def test_anneals_take_numpy_integers():
    problem = encode_problem(make_af_chain(2), "EP", ALPHA, 0.2)
    schedule, bath = schedule_linear(A0, T_F_US), BathSpec(1e-3)
    numpy_ints = evolve_open(problem, schedule, bath, levels=np.int64(8), rtol=1e-4, snapshots=np.int32(3))
    python_ints = evolve_open(problem, schedule, bath, levels=8, rtol=1e-4, snapshots=3)
    assert numpy_ints.report == python_ints.report
    assert np.array_equal(numpy_ints.final.data, python_ints.final.data)
    closed = evolve_closed(problem, schedule, rtol=1e-4, snapshots=np.int64(3), levels=np.int64(8))
    assert len(closed.states) == 3


def test_open_anneal_trace_drift_is_a_numerical_error(monkeypatch):
    problem = encode_problem(make_af_chain(2), "U", 0.4)
    for factor in (1.0 + 5e-9, np.nan):
        def drifted(problem, schedule, bath, *rest):
            return [0.0, 1.0], [factor * transverse_ground_density(problem.num_spins)] * 2, None

        monkeypatch.setattr("qacsim.master_equation.frame_run", drifted)
        with pytest.raises(NumericalError):
            evolve_open(problem, schedule_linear(2.0 * np.pi, 0.01), BathSpec(kappa=1e-3))


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


@cache
def spin_operators(n):
    """(sum_q sigma^x_q, the diagonals of every sigma^z_q) on n spins, spin 0 the left Kronecker factor."""
    def single(op, q):
        return reduce(np.kron, [op if k == q else I2 for k in range(n)])

    return sum(single(SX, q) for q in range(n)), np.stack([np.diag(single(SZ, q)) for q in range(n)])


ZS = spin_operators(2)[1]
HZ = ALPHA * np.diag(ZS[0] * ZS[1])  # the U two-spin antiferromagnetic chain
Z3 = spin_operators(3)[1]
HZ3 = ALPHA * np.diag(Z3[0] * Z3[1] + Z3[1] * Z3[2])  # the U three-spin chain
FIELD = 0.4  # a local field on spin 0 breaks the global flip symmetry
HZ_FIELD = HZ + ALPHA * FIELD * np.diag(ZS[0])
ORACLE_KAPPAS = (1e-3, 8e-3, 0.0)
# from the transverse-field start, rtol 1e-6 leaves every oracle case below
# 1e-5: about 5e-6 and 8e-6 for U at kappa 1e-3 and 8e-3, 2e-7 at kappa 0,
# 4e-6 with a field and 3e-6 for the three-spin chain
ORACLE_RTOL = 1e-6


def binned_lindblad_operators(eps, z_eigen, slopes=None):
    """For levels ``eps`` and the (qubit, a, b) elements <a|Z_q|b> in their
    eigenbasis: the Lindblad operators L = sum <a|Z_q|b> |a><b| of every Bohr
    frequency omega = eps_b - eps_a (binned to BIN_TOL) and qubit q, as
    (bins, qubits, levels, levels), and each bin's omega.  Given the levels'
    ``slopes``, a bin also holds one slope eps_b' - eps_a' (binned to BIN_TOL
    per ns)."""
    omega = eps[None, :] - eps[:, None]
    keys = [np.rint(omega / BIN_TOL).ravel()]
    if slopes is not None:
        keys.append(np.rint((slopes[None, :] - slopes[:, None]) / BIN_TOL).ravel())
    bins, first, inverse = np.unique(np.stack(keys, axis=1), axis=0, return_index=True, return_inverse=True)
    in_bin = inverse.reshape(omega.shape) == np.arange(len(bins))[:, None, None]
    return in_bin[:, None] * z_eigen, omega.ravel()[first]


def dense_dissipator(L, gamma, rho):
    """sum gamma (L rho L^dagger - {L^dagger L, rho} / 2) over the (bin, qubit)
    operators L of ``binned_lindblad_operators``, gamma given per bin."""
    L = L.reshape(-1, *rho.shape)
    gamma = np.repeat(gamma, len(L) // len(gamma))
    Lt = np.swapaxes(L, -1, -2)
    LdL = np.tensordot(gamma, Lt @ L, axes=1)
    return np.tensordot(gamma, L @ rho @ Lt, axes=1) - 0.5 * (LdL @ rho + rho @ LdL)


def lindblad_rhs(t, y, baths, hz=HZ):
    """d(rho)/dt of the adiabatic master equation for one rho per bath,
    with the diagonal problem Hamiltonian ``hz`` on 2^n levels (spin 0 is
    the left Kronecker factor).

    H(s) is diagonalized at every call; for each qubit q and each Bohr
    frequency omega = E_b - E_a (binned to BIN_TOL) the Lindblad operator
    L = sum <a|Z_q|b> |a><b| enters with weight bath_rate(omega).  The bins
    ignore slopes, which the eigensolver's arbitrary basis of a degenerate
    level would set; frequencies that coincide with different slopes do so
    only at isolated instants.
    """
    dim = len(hz)
    hx, zs = spin_operators(dim.bit_length() - 1)
    t_f = T_F_US * 1e3
    s = t / t_f
    H = 2.0 * A0 * (1.0 - s) * hx + 2.0 * A0 * s * hz
    eps, V = np.linalg.eigh(H)
    L, omega = binned_lindblad_operators(eps, V.T @ (zs[:, :, None] * V))
    L = V @ L @ V.T
    rho = y.reshape(len(baths), dim, dim)
    out = -1j * (H @ rho - rho @ H)
    for k, bath in enumerate(baths):
        out[k] += dense_dissipator(L, bath_rate(omega, bath), rho[k])
    return out.ravel()


def transverse_ground(n):
    """The ground state of +sum sigma^x on n spins, |-->^n."""
    return reduce(np.kron, [np.array([1.0, -1.0]) / np.sqrt(2.0)] * n)


def transverse_ground_density(n):
    """:func:`transverse_ground` as a density matrix."""
    psi = transverse_ground(n)
    return np.outer(psi, psi).astype(complex)


@pytest.fixture(scope="module")
def u_oracle_runs():
    """(final rho of evolve_open, final rho of the oracle, trajectory) per kappa."""
    problem = encode_problem(make_af_chain(2), "U", ALPHA)
    schedule = schedule_linear(A0, T_F_US)
    baths = [BathSpec(kappa) for kappa in ORACLE_KAPPAS]
    rho0 = transverse_ground_density(2)
    sol = solve_ivp(lindblad_rhs, (0.0, T_F_US * 1e3), np.tile(rho0.ravel(), len(baths)), method="DOP853",
                    rtol=1e-10, atol=1e-12, args=(baths,))
    assert sol.success
    expected = sol.y[:, -1].reshape(len(baths), 4, 4)
    runs = []
    for bath, rho_ref in zip(baths, expected):
        traj = evolve_open(problem, schedule, bath, rtol=ORACLE_RTOL, snapshots=2)
        runs.append((traj.final.data, rho_ref, traj))
    return runs


@pytest.mark.parametrize("which", range(len(ORACLE_KAPPAS)))
def test_open_anneal_matches_lindblad_oracle(u_oracle_runs, which):
    rho, rho_ref, _ = u_oracle_runs[which]
    assert np.abs(rho - rho_ref).max() < 1e-5
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-10


def _oracle_final(rho0, bath, hz):
    sol = solve_ivp(lindblad_rhs, (0.0, T_F_US * 1e3), rho0.ravel(), method="DOP853", rtol=1e-10, atol=1e-12,
                    args=([bath], hz))
    assert sol.success
    return sol.y[:, -1].reshape(rho0.shape)


@pytest.mark.parametrize("case", ["field, one sector", "three spins, -1 sector"])
def test_open_anneal_sector_frames_match_lindblad_oracle(case):
    # with a local field the frame is the one whole-space sector; without
    # one it is the two flip sectors, and the three-spin transverse start
    # lies in the -1 sector
    bath = BathSpec(1e-3)
    if case.startswith("field"):
        logical, hz, n = IsingProblem(2, {0: FIELD}, {(0, 1): 1.0}), HZ_FIELD, 2
    else:
        logical, hz, n = make_af_chain(3), HZ3, 3
    problem = encode_problem(logical, "U", ALPHA)
    traj = evolve_open(problem, schedule_linear(A0, T_F_US), bath, rtol=ORACLE_RTOL, snapshots=2)
    rho = traj.final.data
    assert np.abs(rho - _oracle_final(transverse_ground_density(n), bath, hz)).max() < 1e-5
    assert abs(np.trace(rho) - 1.0) < 1e-10
    _check_counts(traj.report)


# (logical chain, strategy, beta, levels) of frame anneals at kappa = 1e-3
FRAME_CASES = {
    "U two-spin, +1 sector": (make_af_chain(2), "U", 0.0, None),
    "U three-spin, -1 sector": (make_af_chain(3), "U", 0.0, None),
    "field, whole space, 1 level": (IsingProblem(2, {0: FIELD}, {(0, 1): 1.0}), "U", 0.0, 1),
    "field, whole space, 3 levels": (IsingProblem(2, {0: FIELD}, {(0, 1): 1.0}), "U", 0.0, 3),
    "EP, 8 levels": (make_af_chain(2), "EP", 0.2, 8),
}


def _frame_anneal(case, snapshots=3):
    logical, strategy, beta, levels = FRAME_CASES[case]
    problem = encode_problem(logical, strategy, ALPHA, beta)
    return evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(1e-3), levels=levels, rtol=1e-4,
                       snapshots=snapshots)


@pytest.mark.parametrize("case", ["U two-spin, +1 sector", "U three-spin, -1 sector",
                                  "field, whole space, 1 level", "EP, 8 levels"])
def test_frame_starts_in_the_transverse_ground_state(case):
    # the frame starts as the projector on the lowest level of its s = 0 node
    traj = _frame_anneal(case, snapshots=2)
    psi = transverse_ground(traj.states[0].num_qubits)
    assert np.abs(traj.states[0].data - np.outer(psi, psi)).max() < 1e-14


@pytest.mark.parametrize("case", ["U two-spin, +1 sector", "EP, 8 levels", "field, whole space, 3 levels"])
def test_frame_ignores_eigenvector_signs(monkeypatch, case):
    # every eigensolve's columns carry an arbitrary sign, the first node's
    # too: negating every other one changes no snapshot and no report.  EP
    # is held to its rtol of 1e-4 instead: its degenerate clusters are
    # rotated by eigensolves and SVDs of sign-flipped blocks, which round
    # differently, and near s = 1 that can change the step sequence
    plain = _frame_anneal(case)

    def negating(real):
        def eigh(*args, **kwargs):
            values, vectors = real(*args, **kwargs)
            vectors = vectors.copy()
            vectors[..., 1::2] *= -1.0
            return values, vectors
        return eigh

    monkeypatch.setattr(np.linalg, "eigh", negating(np.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "eigh", negating(scipy.linalg.eigh))
    negated = _frame_anneal(case)
    exact = not case.startswith("EP")
    if exact:
        assert negated.report == plain.report
    for a, b in zip(negated.states, plain.states, strict=True):
        assert np.array_equal(a.data, b.data) if exact else np.abs(a.data - b.data).max() < 1e-4


@pytest.mark.parametrize("levels", [1, 3])
def test_truncated_whole_space_frame_keeps_the_start(levels):
    # a local field leaves the one whole-space sector, cut here to 1 or 3
    # levels: the transverse start is level 0 of the s = 0 frame, so no
    # weight is lost however few levels are kept
    problem = encode_problem(IsingProblem(2, {0: FIELD}, {(0, 1): 1.0}), "U", ALPHA)
    traj = evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(1e-3), levels=levels, rtol=1e-6, snapshots=3)
    for state in traj.states:
        assert abs(np.trace(state.data) - 1.0) < 1e-12
    _check_counts(traj.report)
    assert traj.report.truncation_margin is not None


@pytest.mark.parametrize("case", ["flip-symmetric, diagonal blocks", "field, one block",
                                  "flip-symmetric, diagonal blocks, s = 0", "field, one block, s = 0"])
def test_dissipator_program_matches_dense_lindblad_operators(case):
    # one frame node at s = 0.4 or 0: the program acting on the sector
    # blocks of a random Hermitian frame density matrix, against the dense
    # dissipator of explicit L operators in the frame of all levels, binned
    # on frequency and slope; at s = 0 the transverse field's multiplets
    # give equal frequencies of different slopes
    field = {0: FIELD} if case.startswith("field") else {}
    problem = encode_problem(IsingProblem(2, field, {(0, 1): 1.0}), "U", ALPHA).physical
    signs, X, Ez = _integrator.sector_blocks(problem)
    s, bath = (0.0 if case.endswith("s = 0") else 0.4), BathSpec(8e-3)
    eps, U = np.linalg.eigh(_integrator.annealing_hamiltonian(X, Ez, 2.0 * A0 * (1.0 - s), 2.0 * A0 * s))
    # the levels' slopes d(eps)/dt = <a|dH/dt|a>, dH/dt = 2 A0 (diag(E_z) - X) / t_f
    H_dot = 2.0 * A0 * _integrator.annealing_hamiltonian(-X, Ez, 1.0, 1.0) / (T_F_US * 1e3)
    slopes = np.einsum("kia,kij,kja->ka", U, H_dot, U)
    sectors, d = eps.shape
    per, m = d, 4
    layout = _integrator._layout(signs, per)
    program = _integrator._build_dissipator(eps, U, ZS[:, :d], bath, layout, slopes)

    # frame columns (|x> + sign |x'>) / sqrt(1 + sign^2), x' = 3 - x, sector by sector
    V = np.zeros((4, m))
    for k, sign in enumerate(signs):
        V[:d, k * per:(k + 1) * per] = U[k]
        V[4 - d:, k * per:(k + 1) * per] += sign * U[k][::-1]
    V /= np.sqrt(1.0 + signs[0] ** 2)
    rng = np.random.default_rng(5)
    rho = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    rho = rho + rho.conj().T
    if sectors == 2:
        rho[:per, per:] = rho[per:, :per] = 0.0
    L, omega = binned_lindblad_operators(eps.ravel(), V.T @ (ZS[:, :, None] * V), slopes.ravel())
    expected = dense_dissipator(L, bath_rate(omega, bath), rho)

    def block(a, b):
        return (slice(a * per, (a + 1) * per), slice(b * per, (b + 1) * per))

    y = np.array([rho[block(k, k)] for k in range(sectors)])
    out = _integrator._dissipator_rhs(program, y)
    got = np.zeros_like(rho)
    for k, values in enumerate(out):
        got[block(k, k)] = values
    assert np.abs(expected).max() > 1e-3
    assert np.abs(got - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# uncoupled components anneal once each


@pytest.mark.parametrize("fields", [(0.5, 0.5), (0.5, -0.8)], ids=["equal", "distinct"])
def test_uncoupled_qubits_match_lindblad_oracle(fields):
    # no coupling: each qubit is a component; the oracle integrates the whole 4 x 4 rho
    h0, h1 = fields
    bath = BathSpec(1e-3)
    problem = encode_problem(IsingProblem(2, {0: h0, 1: h1}), "U", ALPHA)
    traj = evolve_open(problem, schedule_linear(A0, T_F_US), bath, rtol=1e-6, snapshots=2)
    hz = ALPHA * (h0 * np.kron(SZ, I2) + h1 * np.kron(I2, SZ))
    assert np.abs(traj.final.data - _oracle_final(transverse_ground_density(2), bath, hz)).max() < 1e-5


def test_c_chain_matches_permuted_oracle_product(u_oracle_runs):
    # C's copies are the qubit pairs {k, 3 + k}: rho_C is rho_U (x) rho_U (x) rho_U
    # with its qubits 0, 3, 1, 4, 2, 5 put back in order
    problem = encode_problem(make_af_chain(2), "C", ALPHA)
    traj = evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(ORACLE_KAPPAS[0]), rtol=1e-6, snapshots=2)
    rho_u = u_oracle_runs[0][1]
    order = [0, 3, 1, 4, 2, 5]
    axes = [order.index(q) for q in range(6)]
    product = np.kron(np.kron(rho_u, rho_u), rho_u).reshape((2,) * 12)
    expected = product.transpose(axes + [6 + a for a in axes]).reshape(64, 64)
    assert np.abs(traj.final.data - expected).max() < 1e-5


def test_c_chain_whole_space_matches_factored():
    # the split-operator integrator run on the whole 64-dimensional space
    problem = encode_problem(make_af_chain(2), "C", ALPHA)
    schedule = schedule_linear(A0, T_F_US)
    _, whole, _ = _integrator.split_operator_run(problem.physical, schedule, 3, 1e-7)
    factored = evolve_open(problem, schedule, BathSpec(0.0), rtol=1e-7, snapshots=3)
    for psi, b in zip(whole, factored.states, strict=True):
        assert np.abs(np.outer(psi, psi.conj()) - b.data).max() < 1e-7


@pytest.mark.parametrize("kappa", [None, 1e-3])
def test_each_distinct_component_anneals_once(monkeypatch, kappa):
    # kappa None is the closed anneal
    module, name = (dynamics, "split_operator_run") if kappa is None else (master_equation, "frame_run")
    real = getattr(module, name)
    calls = []

    def counted(problem, *args):
        calls.append(problem)
        return real(problem, *args)

    monkeypatch.setattr(module, name, counted)
    schedule = schedule_linear(A0, T_F_US)
    # C: three equal two-qubit copies; U without couplings: two one-qubit components
    for logical, strategy, widths in ((make_af_chain(2), "C", [2]), (IsingProblem(2, {0: 0.5, 1: -0.8}), "U", [1, 1])):
        calls.clear()
        problem = encode_problem(logical, strategy, ALPHA)
        if kappa is None:
            traj = evolve_closed(problem, schedule, rtol=1e-4, snapshots=2)
        else:
            traj = evolve_open(problem, schedule, BathSpec(kappa), rtol=1e-4, snapshots=2)
        assert [part.num_spins for part in calls] == widths
        assert traj.final.data.shape[0] == 1 << problem.num_physical


def test_open_anneal_caps_the_whole_state():
    # the cap bounds the returned 2^9 x 2^9 rho, though C's copies have 3 qubits each
    problem = encode_problem(make_af_chain(3), "C", ALPHA)
    with pytest.raises(ResourceLimitError):
        evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(1e-3))


# ---------------------------------------------------------------------------
# eigensolver failures


@pytest.mark.parametrize("case,match", [
    ("field", r"t=0\.0 ns in the whole-space sector"),
    ("truncated", r"t=0\.0 ns in the \+1 sector"),
    ("propagator", r"propagator eigensolve failed from t=0\.0 ns to t=\S+ ns in the \+1 sector"),
])
def test_failed_eigensolve_is_a_numerical_error(monkeypatch, case, match):
    # the frame blocks are real and the propagator's exponent complex:
    # make the solver fail on one of them, as LAPACK does when it does not converge
    fail_complex = case == "propagator"

    def failing(real):
        def eigh(a, *args, **kwargs):
            if np.iscomplexobj(a) == fail_complex:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a, *args, **kwargs)
        return eigh

    monkeypatch.setattr(np.linalg, "eigh", failing(np.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "eigh", failing(scipy.linalg.eigh))
    if case == "field":
        problem, levels = encode_problem(IsingProblem(2, {0: FIELD}, {(0, 1): 1.0}), "U", ALPHA), None
    elif case == "truncated":
        problem, levels = encode_problem(make_af_chain(2), "EP", ALPHA, 0.2), 8
    else:
        problem, levels = encode_problem(make_af_chain(2), "U", ALPHA), None
    with pytest.raises(NumericalError, match=match):
        evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(1e-3), levels=levels)


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


def test_report_c_chain_keeps_every_level():
    # C's uncoupled copies anneal as one untruncated U copy: levels is
    # range-checked against 2^6, then ignored, and the report is the U run's
    problem = encode_problem(make_af_chain(2), "C", ALPHA)
    schedule, bath = schedule_linear(A0, T_F_US), BathSpec(1e-3)
    cut = evolve_open(problem, schedule, bath, levels=32, rtol=1e-4, snapshots=2)
    full = evolve_open(problem, schedule, bath, rtol=1e-4, snapshots=2)
    for a, b in zip(cut.states, full.states, strict=True):
        assert np.array_equal(a.data, b.data)
    assert cut.report == full.report and cut.report.truncation_margin is None
    _check_counts(cut.report)
    for bad in (0, 65):
        with pytest.raises(ValidationError):
            evolve_open(problem, schedule, bath, levels=bad)


@pytest.fixture(scope="module")
def ep_chain_run():
    problem = encode_problem(make_af_chain(2), "EP", ALPHA, 0.2)
    return evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(1e-3), levels=8, rtol=1e-4, snapshots=2)


def test_report_ep_chain_truncation_keeps_clusters(ep_chain_run):
    # levels 7 and 8 of the whole EP two-spin spectrum cross over s ~ 0.62-0.72,
    # but they lie in different flip sectors: 4 + 4 levels cut no cluster
    _check_counts(ep_chain_run.report)
    assert ep_chain_run.report.truncation_margin > 1e-6


def test_ep_chain_state_keeps_flip_symmetry(ep_chain_run):
    # rho0 and H(s) commute with the global flip x -> x XOR (2^n - 1), which reverses the basis
    rho = ep_chain_run.final.data
    assert np.abs(rho - rho[::-1, ::-1]).max() < 1e-12


def test_flip_symmetric_frame_needs_even_levels():
    problem = encode_problem(make_af_chain(2), "EP", ALPHA, 0.2)
    with pytest.raises(ValidationError, match="even"):
        evolve_open(problem, schedule_linear(A0, T_F_US), BathSpec(1e-3), levels=7)


def test_closed_anneal_report():
    for strategy, beta in (("U", 0.0), ("EP", 0.2)):
        problem = encode_problem(make_af_chain(2), strategy, ALPHA, beta)
        _check_unitary_report(evolve_closed(problem, schedule_linear(A0, T_F_US), rtol=1e-6).report)
