import numpy as np
import pytest

from qacsim.classical import KinkModel, exponential_fit, flip_probability, lorentzian_fit, no_kink_probability
from qacsim.errors import ValidationError

NS = np.arange(2, 40, 3)


@pytest.mark.parametrize("p", [1e-3, 0.03, 0.2])
def test_fits_recover_noise_free_curves(p):
    exp_fit = exponential_fit([(n, (1.0 - p) ** (n - 1)) for n in NS])
    lor_fit = lorentzian_fit([(n, 1.0 / (1.0 + p * n * n)) for n in NS])
    for fit in (exp_fit, lor_fit):
        assert fit.p == pytest.approx(p, abs=1e-8)
        assert not fit.degenerate
    np.testing.assert_allclose(exp_fit.predict(NS), (1.0 - exp_fit.p) ** (NS - 1.0), rtol=1e-15)
    np.testing.assert_allclose(lor_fit.predict(NS), 1.0 / (1.0 + lor_fit.p * NS**2.0), rtol=1e-15)


@pytest.mark.parametrize("p", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_lorentzian_fit_recovers_noise_free_curves_over_fifteen_decades(p):
    fit = lorentzian_fit([(n, 1.0 / (1.0 + p * n * n)) for n in NS])
    assert fit.p == pytest.approx(p, rel=1e-6)


@pytest.mark.parametrize("fit", [exponential_fit, lorentzian_fit])
def test_fits_flag_all_ones_as_degenerate(fit):
    result = fit([(2, 1.0), (5, 1.0), (9, 1.0)])
    assert result.degenerate and result.p == 0.0 and result.residual == 0.0


@pytest.mark.parametrize("alpha, temperature", [(1.0, 0.5), (0.3, 2.0), (2.0, 0.1)])
def test_no_kink_probability_is_independent_bonds(alpha, temperature):
    model = KinkModel(alpha, temperature)
    p = flip_probability(model)
    assert p == pytest.approx(1.0 / (1.0 + np.exp(2.0 * alpha / temperature)), rel=1e-14)
    for N in (1, 2, 7, 40):
        assert no_kink_probability(model, N) == pytest.approx((1.0 - p) ** (N - 1), rel=1e-12)


@pytest.mark.parametrize("temperature", [0.0, -1.0])
def test_kink_model_rejects_non_positive_temperature(temperature):
    with pytest.raises(ValidationError):
        KinkModel(1.0, temperature)


@pytest.mark.parametrize("alpha, temperature", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
def test_kink_model_rejects_non_finite_fields(alpha, temperature):
    with pytest.raises(ValidationError):
        KinkModel(alpha, temperature)


def test_no_kink_probability_rejects_empty_chain():
    with pytest.raises(ValidationError):
        no_kink_probability(KinkModel(1.0, 1.0), 0)


@pytest.mark.parametrize("fit", [exponential_fit, lorentzian_fit])
@pytest.mark.parametrize(
    "data",
    [
        [(2, 0.9), (3, 0.8)],  # fewer than three points
        [(2, 0.9), (3, 0.0), (4, 0.7)],  # probability 0
        [(2, 0.9), (3, 1.2), (4, 0.7)],  # probability above 1
        [(2, 0.9), (3, -0.1), (4, 0.7)],
        [(0, 0.9), (3, 0.8), (4, 0.7)],  # no chain
        [(2, 0.9), (2.5, 0.8), (4, 0.7)],  # not a chain length; used to be truncated to 2
    ],
)
def test_fits_reject_bad_curves(fit, data):
    with pytest.raises(ValidationError):
        fit(data)


def test_no_kink_probability_rejects_non_integer_length():
    # N = 2.5 used to give (1 - p)^1.5
    with pytest.raises(ValidationError, match="integer"):
        no_kink_probability(KinkModel(1.0, 1.0), 2.5)
    assert no_kink_probability(KinkModel(1.0, 1.0), np.int64(3)) == no_kink_probability(KinkModel(1.0, 1.0), 3)
