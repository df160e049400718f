import itertools
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qacsim._integrator import annealing_hamiltonian, connected_components, sector_blocks
from qacsim.dynamics import (
    QuantumState,
    evolve_closed,
    gap_profile,
    ising_diagonal,
    pauli_x_sum,
    sample_readout,
)
from qacsim.errors import NumericalError, ValidationError
from qacsim.problem import (
    STRATEGIES,
    AnnealSchedule,
    IsingProblem,
    config_from_index,
    encode_problem,
    make_af_chain,
    schedule_linear,
)

# independent oracles: Kronecker products with qubit 0 as the leftmost factor

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def kron_x_sum(num_qubits):
    total = np.zeros((1 << num_qubits, 1 << num_qubits))
    for q in range(num_qubits):
        factors = [SIGMA_X if k == q else np.eye(2) for k in range(num_qubits)]
        total += reduce(np.kron, factors)
    return total


def naive_diagonal(problem):
    out = []
    for config in itertools.product((1, -1), repeat=problem.num_spins):
        e = 0.0
        for i, h in problem.local_fields.items():
            e += h * config[i]
        for (i, j), v in problem.couplings.items():
            e += v * config[i] * config[j]
        out.append(e)
    return np.array(out)


def kron_hamiltonian(problem, schedule, s):
    return float(schedule.A_of(s)) * kron_x_sum(problem.num_physical) + float(schedule.B_of(s)) * np.diag(
        naive_diagonal(problem.physical)
    )


def encoded(strategy, length=2):
    """The AF chain of ``length`` encoded, or ``length`` itself when it is a logical IsingProblem."""
    beta = 0.3 if strategy in ("EP", "QAC") else 0.0
    logical = length if isinstance(length, IsingProblem) else make_af_chain(length)
    return encode_problem(logical, strategy, 0.4, beta)


SCHEDULE = schedule_linear(1.0, 0.01)
# a local field breaks the flip symmetry; qubit 2 of LONE_QUBIT is a component of its own
FIELD = IsingProblem(2, {0: 0.5}, {(0, 1): 1.0})
LONE_QUBIT = IsingProblem(3, {}, {(0, 1): 1.0})
# dA/ds and dB/ds jump at s = 0.3, which is not a snapshot
KNOTTED = AnnealSchedule(0.01, np.array([0.0, 0.3, 1.0]), np.array([2.0, 0.6, 0.0]), np.array([0.0, 1.1, 2.0]))


def schroedinger_reference(problem, schedule, s_values):
    """States at s_values under the Kronecker H(s), integrated by DOP853
    at rtol 1e-10 from knot to knot."""
    n = problem.num_physical
    X, Ez, t_f = kron_x_sum(n), naive_diagonal(problem.physical), schedule.t_f_ns

    def rhs(t, psi):
        s = t / t_f
        return -1j * (float(schedule.A_of(s)) * (X @ psi) + float(schedule.B_of(s)) * (Ez * psi))

    psi = reduce(np.kron, [np.array([1.0, -1.0]) / np.sqrt(2.0)] * n).astype(complex)
    states = {0.0: psi}
    bounds = np.union1d(s_values, schedule.s)
    for left, right in zip(bounds[:-1], bounds[1:]):
        psi = solve_ivp(rhs, (left * t_f, right * t_f), psi, method="DOP853", rtol=1e-10, atol=1e-12).y[:, -1]
        states[right] = psi
    return [states[s] for s in s_values]


@pytest.mark.parametrize("kind, data, match", [
    ("pure", np.full((2, 2), 0.5), "vector"),
    ("pure", [1.0, 1.0, 0.0, 0.0], "normalized"),
    ("pure", [np.nan, 0.0, 0.0, 0.0], "normalized"),
    ("pure", [1.0, 0.0, 0.0], "power of two"),
    ("density", np.full((2, 4), 0.25), "square"),
    ("density", [[0.5, 0.5], [0.0, 0.5]], "Hermitian"),
    ("density", np.diag([np.nan, 1.0, 0.0, 0.0]), "Hermitian"),
    ("density", np.diag([0.5, 0.4]), "trace"),
    ("density", [[0.5, 0.6], [0.6, 0.5]], "negative eigenvalue"),
    ("density", np.diag([1.0, 0.0, 0.0]), "power of two"),
    ("mixed", [1.0, 0.0], "unknown state kind"),
], ids=["not a vector", "not normalized", "NaN amplitude", "pure dimension 3", "not square", "not Hermitian",
        "NaN population", "trace off 1", "negative eigenvalue", "density dimension 3", "unknown kind"])
def test_quantum_state_rejects_bad_data(kind, data, match):
    # NaN passed every check written as abs(x - 1) > tol, so success
    # probabilities came out (0, 0) or (1, 1)
    with pytest.raises(ValidationError, match=match):
        QuantumState(kind, np.asarray(data, dtype=complex))


@pytest.mark.parametrize("lowest, accepted", [(-5e-8, True), (-2e-7, False)])
def test_quantum_state_eigenvalue_floor(lowest, accepted):
    # QuantumState.EIG_FLOOR is -1e-7; rotate so the check sees a full matrix
    U = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
    rho = U @ np.diag([0.6 - lowest, 0.3, 0.1, lowest]) @ U.T
    if accepted:
        QuantumState.density(rho)
    else:
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            QuantumState.density(rho)


@pytest.mark.parametrize("num_qubits", range(1, 9))
def test_transverse_ground_popcount(num_qubits):
    dim = 1 << num_qubits
    expected = np.array([(-1.0) ** bin(x).count("1") for x in range(dim)]) / np.sqrt(dim)
    assert np.array_equal(QuantumState.transverse_ground(num_qubits).data, expected)


@pytest.mark.parametrize("num_qubits", range(1, 8))
def test_pauli_x_sum_kronecker(num_qubits):
    assert np.array_equal(pauli_x_sum(num_qubits), kron_x_sum(num_qubits))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ising_diagonal_enumeration(strategy):
    problem = encoded(strategy)
    assert np.allclose(ising_diagonal(problem), naive_diagonal(problem.physical), rtol=0, atol=1e-12)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("s", [0.0, 0.37, 1.0, pytest.param(np.array([0.0, 0.37, 1.0]), id="stacked")])
def test_annealing_hamiltonian_kronecker(strategy, s):
    # arrays of A and B stack one H a node: the scalar calls, bit for bit,
    # for the whole space and for a stack of sector blocks
    problem = encoded(strategy)
    _, X_sectors, Ez_sector = sector_blocks(problem.physical)
    for X, Ez in ((X_sectors, Ez_sector), (pauli_x_sum(problem.num_physical), ising_diagonal(problem))):
        H = annealing_hamiltonian(X, Ez, SCHEDULE.A_of(s), SCHEDULE.B_of(s))
        alone = [annealing_hamiltonian(X, Ez, SCHEDULE.A_of(x), SCHEDULE.B_of(x)) for x in np.atleast_1d(s)]
        assert np.array_equal(H, alone if np.ndim(s) else alone[0])
    for x, H_whole in zip(np.atleast_1d(s), alone):
        assert np.allclose(H_whole, kron_hamiltonian(problem, SCHEDULE, x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("strategy,length", [
    ("U", 2), ("U", 4), ("C", 2), ("EP", 2), ("QAC", 2),
    # three equal 3-qubit components, whose 2^3 ground states make level 8 the relevant one
    ("C", 3),
    # one whole-space block of 8 qubits
    pytest.param("EP", FIELD, id="EP-field"),
    # two distinct components, the lone qubit's two 1-dimensional sectors
    # holding fewer than k + 1 = 5 levels
    pytest.param("U", LONE_QUBIT, id="U-lone-qubit"),
])
def test_gap_profile_dense_eigvalsh(strategy, length):
    problem = encoded(strategy, length)
    profile = gap_profile(problem, SCHEDULE, grid_points=9)
    final = np.sort(naive_diagonal(problem.physical))
    # the relevant level is the first above the degenerate final ground manifold
    assert profile.level_index == int(np.sum(np.isclose(final, final[0])))
    for s, gap in zip(profile.s, profile.gap):
        vals = np.linalg.eigvalsh(kron_hamiltonian(problem, SCHEDULE, s))
        assert gap == pytest.approx(vals[profile.level_index] - vals[0], rel=1e-9, abs=1e-9)
    assert profile.delta_min == profile.gap.min()


def test_gap_profile_blocks_of_the_cases():
    # C splits into its three equal copies, each in two parity sectors
    parts, distinct, which = connected_components(encoded("C", 3).physical)
    assert parts == [[0, 3, 6], [1, 4, 7], [2, 5, 8]] and which == [0, 0, 0]
    assert sector_blocks(distinct[0])[0] == (1.0, -1.0)
    # a field leaves one component and one whole-space sector
    field = encoded("EP", FIELD).physical
    assert len(connected_components(field)[0]) == 1 and sector_blocks(field)[0] == (0.0,)
    parts, distinct, which = connected_components(encoded("U", LONE_QUBIT).physical)
    assert parts == [[0, 1], [2]] and which == [0, 1] and distinct[1] == IsingProblem(1)


@pytest.mark.parametrize("strategy,length", [
    ("U", 3), ("EP", 2), pytest.param("EP", FIELD, id="EP-field"),
])
def test_sector_blocks_hold_the_kronecker_spectrum(strategy, length):
    problem = encoded(strategy, length)
    signs, X_sectors, Ez = sector_blocks(problem.physical)
    assert X_sectors.shape == (len(signs), len(Ez), len(Ez))
    A, B = float(SCHEDULE.A_of(0.4)), float(SCHEDULE.B_of(0.4))
    blocks = np.linalg.eigvalsh(A * X_sectors + B * np.diag(Ez))
    kron = np.linalg.eigvalsh(kron_hamiltonian(problem, SCHEDULE, 0.4))
    assert np.allclose(np.sort(blocks, axis=None), kron, rtol=0, atol=1e-12)


def test_gap_profile_without_a_level_above_the_ground_manifold():
    # no couplings: all four levels end degenerate, so the relevant level is 4 of 4
    with pytest.raises(ValidationError):
        gap_profile(encode_problem(IsingProblem(2), "U", 0.3), SCHEDULE, grid_points=3)


@pytest.mark.parametrize("num_qubits", [1, 3, 6])
def test_sample_readout_records(num_qubits):
    rng = np.random.default_rng(num_qubits)
    amps = rng.normal(size=1 << num_qubits)
    state = QuantumState.pure(amps / np.linalg.norm(amps))
    samples = sample_readout(state, 300, rng_seed=9)
    counts = np.random.default_rng(9).multinomial(300, np.abs(state.data) ** 2 / np.sum(np.abs(state.data) ** 2))
    expected = [(tuple(int(b) for b in config_from_index(x, num_qubits)), int(c)) for x, c in enumerate(counts) if c]
    assert [(rec.bits, rec.count) for rec in samples.records] == expected
    assert samples.total_count == 300


@pytest.mark.parametrize(
    "problem,schedule",
    [
        (encoded("U"), SCHEDULE),
        (encoded("C"), SCHEDULE),
        (encode_problem(IsingProblem(1, {0: 1.0}), "EP", 0.4, 0.3), SCHEDULE),
        (encoded("C"), KNOTTED),
    ],
    ids=["U", "C", "EP-one-block", "C-knotted"],
)
def test_evolve_closed_schroedinger_reference(problem, schedule):
    traj = evolve_closed(problem, schedule, rtol=1e-6, snapshots=4)
    assert np.array_equal(traj.s, np.linspace(0.0, 1.0, 4))
    for state, want in zip(traj.states, schroedinger_reference(problem, schedule, traj.s), strict=True):
        assert abs(np.linalg.norm(state.data) - 1.0) < 1e-12
        assert abs(np.vdot(want, state.data)) ** 2 >= 1.0 - 1e-6


def test_evolve_closed_norm_drift_is_a_numerical_error(monkeypatch):
    for factor in (1.0 + 5e-9, np.nan):
        def drifted(problem, schedule, *rest):
            return [0.0, 1.0], [factor * QuantumState.transverse_ground(problem.num_spins).data] * 2, None

        monkeypatch.setattr("qacsim.dynamics.split_operator_run", drifted)
        with pytest.raises(NumericalError):
            evolve_closed(encoded("U"), SCHEDULE)


def test_evolve_closed_levels_checked_then_ignored():
    problem = encoded("C")
    for bad in (0, 65):
        with pytest.raises(ValidationError):
            evolve_closed(problem, SCHEDULE, levels=bad)
    full = evolve_closed(problem, SCHEDULE, rtol=1e-6).final.data
    assert np.array_equal(evolve_closed(problem, SCHEDULE, rtol=1e-6, levels=8).final.data, full)


def test_readout_and_profile_counts_must_be_integers():
    # 2.5 shots used to draw 2; 2.5 grid points raised a bare TypeError
    state = QuantumState.transverse_ground(2)
    with pytest.raises(ValidationError, match="integer"):
        sample_readout(state, 2.5)
    with pytest.raises(ValidationError, match="integer"):
        gap_profile(encoded("U"), SCHEDULE, grid_points=2.5)
    assert sample_readout(state, np.int64(5)) == sample_readout(state, 5)
    assert np.array_equal(gap_profile(encoded("U"), SCHEDULE, grid_points=np.int64(5)).gap,
                          gap_profile(encoded("U"), SCHEDULE, grid_points=5).gap)
