import math

import numpy as np
import pytest
from scipy import integrate

from mbb_sdp import gaussian as gaussian_module
from mbb_sdp.gaussian import pcg64_states, seeded_normals
from mbb_sdp import (
    TailBounds,
    bivariate_tail_lower,
    bivariate_tail_upper,
    sample_correlated_pairs,
    sample_standard_vector,
    std_normal_pdf,
    std_normal_tail,
    univariate_tail_bounds,
)

# Frozen from an mpmath session at 30 significant digits.
PDF_AT = {
    0.0: 0.398942280401432677939946059934,
    2.0: 0.0539909665131880519505642004107,
    3.0: 0.00443184841193800717560235269612,
}
TAIL_AT = {
    2.0: 0.0227501319481792072002826371665,
    3.0: 0.00134989803163009452665181476759,
    10.0: 7.61985302416052606597334325163e-24,
}
UNI_BOUNDS = {
    2.0: (0.0134977416282970129876410501027, 0.0269954832565940259752821002054),
    3.0: (0.00073864140198966786260039211602, 0.00147728280397933572520078423204),
}
BIV_LOWER = {
    2.0: 1.8218902906426209951876671970e-4,
    3.0: 5.45591120733262115091100749717e-7,
}
BIV_UPPER = {
    (2.0, -1.0 / 16.0): 0.00201193304718651839552465853212,
    (2.0, -0.5): 0.00034962153956787179434540623953,
}


def test_pdf_matches_frozen_values():
    for x, want in PDF_AT.items():
        assert abs(std_normal_pdf(x) - want) < 1e-16


def test_pdf_accepts_arrays():
    xs = np.array([0.0, 2.0, 3.0])
    got = std_normal_pdf(xs)
    assert got.shape == (3,)
    for value, x in zip(got, xs):
        assert abs(value - PDF_AT[float(x)]) < 1e-16


def test_tail_matches_frozen_values():
    for x, want in TAIL_AT.items():
        assert abs(std_normal_tail(x) - want) < 1e-15 * max(1.0, want)


def test_tail_matches_quadrature():
    # independent route: numerically integrate the density
    for tau in (0.0, 1.0, 2.0, 3.5, 5.0):
        integral, err = integrate.quad(std_normal_pdf, tau, np.inf)
        assert abs(std_normal_tail(tau) - integral) < 1e-12


def test_univariate_bounds_frozen_and_bracketing():
    for tau, (lo, hi) in UNI_BOUNDS.items():
        bounds = univariate_tail_bounds(tau)
        assert abs(bounds.lower - lo) < 1e-16
        assert abs(bounds.upper - hi) < 1e-16
    for tau in (2.0, 2.5, 3.0, 3.5, 10.0):
        bounds = univariate_tail_bounds(tau)
        tail = std_normal_tail(tau)
        assert bounds.lower < tail < bounds.upper


def test_bounds_require_tau_at_least_two():
    for bad in (0.0, 1.0, 1.999):
        with pytest.raises(ValueError):
            univariate_tail_bounds(bad)
        with pytest.raises(ValueError):
            bivariate_tail_lower(bad)
        with pytest.raises(ValueError):
            bivariate_tail_upper(bad, -0.5)


def test_bivariate_lower_frozen():
    for tau, want in BIV_LOWER.items():
        assert abs(bivariate_tail_lower(tau) - want) < 1e-16


def test_bivariate_upper_frozen_and_domain():
    for (tau, rho), want in BIV_UPPER.items():
        assert abs(bivariate_tail_upper(tau, rho) - want) < 1e-16
    for bad_rho in (0.0, 0.3, -1.0, -1.5):
        with pytest.raises(ValueError):
            bivariate_tail_upper(2.0, bad_rho)


def test_tail_bounds_type_validates():
    with pytest.raises(ValueError):
        TailBounds(lower=0.5, upper=0.4)
    with pytest.raises(ValueError):
        TailBounds(lower=-0.1, upper=0.4)
    b = TailBounds(lower=0.1, upper=0.2)
    assert b.lower == 0.1 and b.upper == 0.2


def test_correlated_pairs_have_requested_correlation():
    rng = np.random.default_rng(2024)
    for rho in (-0.8, -0.3, 0.0, 0.5, 0.9):
        x, y = sample_correlated_pairs(rho, 200_000, rng)
        assert x.shape == y.shape == (200_000,)
        empirical = np.corrcoef(x, y)[0, 1]
        assert abs(empirical - rho) < 0.01
        assert abs(x.mean()) < 0.01 and abs(y.std() - 1.0) < 0.01


def test_standard_vector_is_deterministic_per_seed():
    a = sample_standard_vector(32, np.random.default_rng(5))
    b = sample_standard_vector(32, np.random.default_rng(5))
    assert a.shape == (32,)
    assert np.array_equal(a, b)


def test_monte_carlo_brackets_univariate_tail():
    # one cheap stochastic cross-check; the big version lives in acceptance
    rng = np.random.default_rng(7)
    tau = 2.0
    z = rng.standard_normal(2_000_000)
    estimate = float((z >= tau).mean())
    bounds = univariate_tail_bounds(tau)
    se = math.sqrt(estimate * (1 - estimate) / z.size)
    assert bounds.lower - 3 * se <= estimate <= bounds.upper + 3 * se


# 2**32 - 1 and 2**32 straddle the one-word/two-word entropy split of a seed;
# 2**70 + 3 takes three words, and 2**100 + 7 four, which pushes t's word
# past SeedSequence's 4-word pool.
MULTI_WORD_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**70 + 3, 2**100 + 7)


@pytest.mark.parametrize("seed", MULTI_WORD_SEEDS)
def test_pcg64_states_equal_numpy_seeding(seed):
    for start, stop in ((0, 3), (250, 262), (2**32 - 2, 2**32)):
        states = pcg64_states(seed, start, stop)
        assert len(states) == stop - start
        for t, (state, inc) in zip(range(start, stop), states):
            expected = np.random.default_rng((seed, t)).bit_generator.state["state"]
            assert (state, inc) == (expected["state"], expected["inc"])


@pytest.mark.parametrize("seed", MULTI_WORD_SEEDS)
def test_seeded_normals_equal_per_trial_generators_bit_for_bit(seed):
    rows = seeded_normals(seed, 254, 259, 7)
    assert rows.shape == (5, 7)
    for t, row in zip(range(254, 259), rows):
        assert row.tobytes() == np.random.default_rng((seed, t)).standard_normal(7).tobytes()
    assert seeded_normals(seed, 4, 4, 7).shape == (0, 7)


def test_pcg64_states_reject_what_they_cannot_replay():
    with pytest.raises(ValueError, match="seed"):
        pcg64_states(-1, 0, 1)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        pcg64_states(0, 2**32 - 1, 2**32 + 1)
    with pytest.raises(ValueError):
        pcg64_states(0, 5, 4)


def test_seeded_normals_raise_when_the_replayed_seeding_drifts(monkeypatch):
    monkeypatch.setattr(gaussian_module, "_PCG64_MULT", gaussian_module._PCG64_MULT + 2)
    with pytest.raises(RuntimeError, match="seed=3, t=256"):
        seeded_normals(3, 256, 300, 4)
