import dataclasses

import numpy as np
import pytest

from qacsim import perturb
from qacsim.errors import ValidationError
from qacsim.perturb import PerturbParams

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


def op(num_qubits, factors):
    """Kronecker product with the given single-qubit factors, identity elsewhere."""
    out = np.ones((1, 1))
    for q in range(num_qubits):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def single_logical_kron(p, s):
    """Three omega-split qubits and an omega0 penalty qubit (qubit 3), coupled
    ferromagnetically to it with strength A0 s beta."""
    H = sum(p.A0 * (1 - s) * op(4, {q: SX}) for q in range(4))
    H = H + sum(p.A0 * s * 0.5 * p.omega * op(4, {q: SZ}) for q in range(3))
    H = H + p.A0 * s * 0.5 * p.omega0 * op(4, {3: SZ})
    return H - sum(p.A0 * s * p.beta * op(4, {q: SZ, 3: SZ}) for q in range(3))


def coupled_pairs_kron(p, s):
    """Pairs (0, 1), (2, 3), (4, 5) with unit AF coupling; penalty qubit 6
    attached to the first qubit of each pair."""
    H = sum(p.A0 * (1 - s) * op(7, {q: SX}) for q in range(7))
    H = H + sum(p.A0 * s * op(7, {a: SZ, a + 1: SZ}) for a in (0, 2, 4))
    H = H + p.A0 * s * 0.5 * p.omega0 * op(7, {6: SZ})
    return H - sum(p.A0 * s * p.beta * op(7, {a: SZ, 6: SZ}) for a in (0, 2, 4))


PARAMS = PerturbParams(A0=1.3, omega=0.9, omega0=0.02, beta=0.07)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["A0", "omega", "omega0", "beta"])
def test_params_reject_non_finite_fields(name, value):
    with pytest.raises(ValidationError):
        PerturbParams(**{name: value})


@pytest.mark.parametrize("s", [0.0, 0.3, 0.77, 1.0])
def test_models_equal_kronecker_builds(s):
    # omega = 3 puts omega/2 above the |h| <= 1 bound of an Ising problem
    for p in (PARAMS, PerturbParams(A0=1.3, omega=3.0, omega0=0.02, beta=0.07)):
        assert np.abs(perturb.single_logical_model(p, s) - single_logical_kron(p, s)).max() < 1e-12
        assert np.abs(perturb.coupled_pairs_model(p, s) - coupled_pairs_kron(p, s)).max() < 1e-12


@pytest.mark.parametrize("omega", [1.0, 0.01, -0.5])
def test_single_qubit_eigs_against_eigh(omega):
    grid = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    A0 = 1.7
    eig = perturb.single_qubit_eigs(omega, grid, A0=A0)
    for i, s in enumerate(grid):
        H = A0 * (1 - s) * SX + A0 * s * 0.5 * omega * SZ
        vals, vecs = np.linalg.eigh(H)
        assert eig.eps_minus[i] == pytest.approx(vals[0], abs=1e-12)
        assert eig.eps_plus[i] == pytest.approx(vals[1], abs=1e-12)
        for vec, ref in ((eig.vec_minus[i], vecs[:, 0]), (eig.vec_plus[i], vecs[:, 1])):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            assert abs(vec @ ref) == pytest.approx(1.0, abs=1e-12)


def perturbation_coefficients(model, manifold, p, s):
    """Gap shifts per beta and per beta^2 by numerical perturbation theory
    on the dense model: V = model(beta=1) - model(beta=0) in the eigenbasis
    of model(beta=0), from the non-degenerate ground level to the mean over
    the three-fold level that holds ``manifold``."""
    H0 = model(dataclasses.replace(p, beta=0.0), s)
    vals, vecs = np.linalg.eigh(H0)
    V = vecs.T @ (model(dataclasses.replace(p, beta=1.0), s) - H0) @ vecs
    cols = manifold(p, s)
    level = vals[np.argmax(np.sum((cols.T @ vecs) ** 2, axis=0))]
    triplet = np.abs(vals - level) < 1e-9
    ground = np.arange(len(vals)) == 0
    assert triplet.sum() == 3 and vals[1] - vals[0] > 1e-9
    span = vecs[:, triplet]
    assert np.abs(span @ (span.T @ cols) - cols).max() < 1e-10

    def orders(rows, energy):
        first = np.trace(V[np.ix_(rows, rows)]) / rows.sum()
        out = ~rows
        second = np.sum(V[np.ix_(out, rows)] ** 2 / (energy - vals[out])[:, None]) / rows.sum()
        return np.array([first, second])

    return orders(triplet, level) - orders(ground, vals[0])


@pytest.mark.parametrize("omega", [1.0, -1.0])
@pytest.mark.parametrize("s", [0.2, 0.5, 0.8, 1.0])
def test_logical_gap_is_first_order_perturbation_theory(s, omega):
    p = PerturbParams(A0=1.3, omega=omega, omega0=0.2, beta=0.07)
    first, _ = perturbation_coefficients(perturb.single_logical_model, perturb.single_logical_excited_manifold, p, s)
    gap = [perturb.logical_qubit_perturbed_gap(dataclasses.replace(p, beta=b), s) for b in (0.0, 1.0)]
    assert abs((gap[1] - gap[0]) - first) < 1e-10


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_pairs_gap_is_second_order_perturbation_theory(s):
    p = PerturbParams(A0=1.3, omega=1.0, omega0=0.2, beta=0.07)
    first, second = perturbation_coefficients(perturb.coupled_pairs_model, perturb.coupled_pairs_excited_manifold, p, s)
    gap = [perturb.coupled_pairs_perturbed_gap(dataclasses.replace(p, beta=b), s) for b in (0.0, 1.0)]
    assert abs(first) < 1e-10
    assert abs((gap[1] - gap[0]) - second) < 1e-10


@pytest.mark.parametrize(
    "gap, model, manifold, lo, hi",
    [
        # a first-order formula leaves an error of order beta^2
        (perturb.logical_qubit_perturbed_gap, perturb.single_logical_model,
         perturb.single_logical_excited_manifold, 3.0, 5.0),
        # odd orders vanish by symmetry, so the second-order one leaves beta^4
        (perturb.coupled_pairs_perturbed_gap, perturb.coupled_pairs_model,
         perturb.coupled_pairs_excited_manifold, 12.0, 20.0),
    ],
)
def test_perturbative_error_scaling_in_beta(gap, model, manifold, lo, hi):
    grid = np.linspace(0.1, 0.85, 16)
    errors = []
    for beta in (0.05, 0.025):
        p = PerturbParams(A0=1.0, omega=1.0, omega0=0.01, beta=beta)
        exact = np.array([perturb.exact_relevant_gap(model(p, s), manifold(p, s)) for s in grid])
        errors.append(np.abs(gap(p, grid) - exact).max())
    assert lo <= errors[0] / errors[1] <= hi


@pytest.mark.parametrize("manifold", [perturb.single_logical_excited_manifold, perturb.coupled_pairs_excited_manifold])
def test_excited_manifolds_orthonormal_at_the_end_of_the_anneal(manifold):
    # at s = 1 the pairs' (1-s) components vanish; no 0/0 may appear
    cols = manifold(PARAMS, 1.0)
    assert np.all(np.isfinite(cols))
    assert np.abs(cols.T @ cols - np.eye(cols.shape[1])).max() < 1e-12
