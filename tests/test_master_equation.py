import numpy as np
import pytest

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
