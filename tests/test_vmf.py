"""von Mises-Fisher density, Bessel ratio, estimator, and sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from taxoforge.vmf import KAPPA_MAX, bessel_ratio, estimate_vmf, sample_vmf


def log_bessel_iv(nu: float, x: float) -> float:
    """log I_nu(x), stable for small x where iv underflows."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 0.0 if nu == 0 else -np.inf
    val = special.ive(nu, x)
    if val > 0:
        return float(np.log(val) + x)
    # leading term of the small-x series with first-order correction
    return float(nu * np.log(x / 2.0) - special.gammaln(nu + 1.0)
                 + np.log1p(x * x / (4.0 * (nu + 1.0))))


def log_norm_const(kappa: float, dim: int) -> float:
    """log C_d(kappa) of the vMF density on S^{dim-1}."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if kappa < 1e-10:
        # uniform limit: 1 / area(S^{d-1})
        return float(special.gammaln(dim / 2.0) - np.log(2.0)
                     - (dim / 2.0) * np.log(np.pi))
    nu = dim / 2.0 - 1.0
    return float(nu * np.log(kappa) - (dim / 2.0) * np.log(2.0 * np.pi)
                 - log_bessel_iv(nu, kappa))


def vmf_log_density(t: np.ndarray, mu: np.ndarray, kappa: float, dim: int) -> float:
    """log vMF(t; mu, kappa) for unit vectors t and mu."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return log_norm_const(kappa, dim) + kappa * float(np.dot(t, mu))


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def numpy_bessel_ratio(kappa, dim):
    """The continued fraction as one numpy pass per level over all kappas."""
    kappa = np.asarray(kappa, dtype=np.float64)
    nu = dim / 2.0 - 1.0
    kmax = float(np.max(kappa, initial=0.0))
    depth = int(kmax + nu) + 64
    with np.errstate(divide="ignore"):
        r = np.zeros_like(kappa)
        for n in range(depth, 0, -1):
            r = np.where(kappa > 0, 1.0 / (2.0 * (nu + n) / np.where(kappa > 0, kappa, 1.0) + r), 0.0)
    return r if r.ndim else float(r)


def test_negative_kappa_rejected():
    with pytest.raises(ValueError):
        vmf_log_density(np.array([1.0, 0.0]), np.array([1.0, 0.0]), -1.0, 2)
    with pytest.raises(ValueError):
        log_norm_const(-0.5, 3)


def test_uniform_limit_is_inverse_sphere_area():
    # [TRIVIAL] kappa=0 density is 1/area(S^{d-1}), independent of direction
    for dim in (2, 3, 5, 10):
        area = 2.0 * np.pi ** (dim / 2.0) / special.gamma(dim / 2.0)
        assert log_norm_const(0.0, dim) == pytest.approx(-np.log(area), abs=1e-12)
        mu = unit(np.arange(1, dim + 1))
        t1 = unit(np.ones(dim))
        t2 = unit(np.r_[1.0, -np.ones(dim - 1)])
        assert vmf_log_density(t1, mu, 0.0, dim) == pytest.approx(
            vmf_log_density(t2, mu, 0.0, dim), abs=1e-12)


def test_mode_at_mean_direction():
    # [TRIVIAL] density at t=mu is maximal for every kappa > 0
    rng = np.random.default_rng(0)
    for kappa in (0.5, 5.0, 80.0):
        mu = unit(rng.standard_normal(6))
        at_mode = vmf_log_density(mu, mu, kappa, 6)
        for _ in range(20):
            t = unit(rng.standard_normal(6))
            assert vmf_log_density(t, mu, kappa, 6) <= at_mode + 1e-12


def test_density_integrates_to_one_d3():
    # [DERIVED] quadrature oracle on S^2 at kappa=2: integral = 1 +- 1e-4
    dim, kappa = 3, 2.0
    mu = np.array([0.0, 0.0, 1.0])

    def integrand(theta, phi):
        t = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
        return np.exp(vmf_log_density(t, mu, kappa, dim)) * np.sin(theta)

    total, _ = integrate.dblquad(integrand, 0.0, 2.0 * np.pi,
                                 0.0, np.pi, epsabs=1e-9)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_log_norm_const_continuous_at_zero():
    # the uniform branch must agree with the small-kappa Bessel branch
    for dim in (3, 8, 50):
        assert log_norm_const(1e-9, dim) == pytest.approx(
            log_norm_const(0.0, dim), abs=1e-6)


def test_bessel_ratio_against_scipy():
    # [DERIVED] direct iv-quotient oracle in the non-overflow regime
    for dim in (3, 10, 64):
        nu = dim / 2.0 - 1.0
        for kappa in (0.1, 1.0, 10.0, 100.0):
            expected = special.iv(nu + 1.0, kappa) / special.iv(nu, kappa)
            assert bessel_ratio(kappa, dim) == pytest.approx(expected, rel=1e-10)


def test_bessel_ratio_large_kappa_finite_and_bounded():
    # iv overflows near kappa ~ 700; the continued fraction must not
    for kappa in (800.0, 5000.0):
        r = bessel_ratio(kappa, 100)
        assert 0.0 < r < 1.0


def test_bessel_ratio_vectorized_matches_scalar():
    ks = np.array([0.0, 0.5, 3.0, 42.0])
    vec = bessel_ratio(ks, 10)
    for k, v in zip(ks, vec):
        assert v == pytest.approx(bessel_ratio(float(k), 10), abs=1e-14)


BESSEL_KAPPAS = (0.0, 1e-3, 30.0, 900.0, KAPPA_MAX)
BESSEL_DIMS = (*range(2, 300, 7), 300)


def test_bessel_ratio_scalar_bit_equal_to_numpy_oracle():
    for dim in BESSEL_DIMS:
        for kappa in BESSEL_KAPPAS:
            got = bessel_ratio(kappa, dim)
            assert isinstance(got, float)
            assert got == numpy_bessel_ratio(kappa, dim), (kappa, dim)


def test_bessel_ratio_vector_bit_equal_to_numpy_oracle():
    # the depth is shared across the vector, so a small kappa's value
    # depends on its neighbours; the oracle must match that too
    ks = np.array(BESSEL_KAPPAS)
    for dim in BESSEL_DIMS:
        for sub in (ks, ks[:3], ks[::-1], ks.reshape(1, -1)):
            got = bessel_ratio(sub, dim)
            assert got.shape == sub.shape
            assert np.array_equal(got, numpy_bessel_ratio(sub, dim)), dim


@given(st.floats(0.01, 500.0), st.integers(3, 40))
@settings(max_examples=60, deadline=None)
def test_bessel_ratio_in_unit_interval(kappa, dim):
    r = bessel_ratio(kappa, dim)
    assert 0.0 < r < 1.0


# --- estimator ---


def test_estimator_recovers_planted_kappa():
    # [DERIVED] sampler oracle: 10k samples from vMF(d=10, kappa=50), +-10%
    rng = np.random.default_rng(42)
    mu = unit(np.arange(1.0, 11.0))
    x = sample_vmf(mu, 50.0, 10_000, rng)
    kappa = estimate_vmf(x)
    assert isinstance(kappa, float)
    assert kappa == pytest.approx(50.0, rel=0.10)


def test_estimator_single_vector_saturates():
    kappa = estimate_vmf(unit([3.0, 4.0])[None, :])
    assert isinstance(kappa, float)
    assert kappa == KAPPA_MAX


def test_estimator_zero_resultant_degenerate():
    for x in (np.array([[1.0, 0.0], [-1.0, 0.0]]),
              np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])):
        kappa = estimate_vmf(x)
        assert isinstance(kappa, float)
        assert kappa == 0.0


def test_estimator_kappa_clamped():
    # rbar = cos(0.005) < 1: the moment formula gives ~8e4, clipped
    x = np.array([[1.0, 0.0, 0.0], [np.cos(0.01), np.sin(0.01), 0.0]])
    assert estimate_vmf(x) == KAPPA_MAX


def test_estimator_moment_formula_exact():
    # hand-check: kappa = rbar (d - rbar^2) / (1 - rbar^2), d the row length
    for x in (np.array([[1.0, 0.0], [0.0, 1.0]]),
              np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])):
        rbar = np.linalg.norm(x.mean(axis=0))
        d = x.shape[1]
        expected = rbar * (d - rbar ** 2) / (1 - rbar ** 2)
        assert estimate_vmf(x) == pytest.approx(expected, rel=1e-12)


def moment_estimate_with_mean_direction(vectors):
    """The estimator as it read while it also returned the mean direction:
    (mu, kappa), mu = e_0 for a zero resultant."""
    vectors = np.asarray(vectors, dtype=np.float64)
    dim = vectors.shape[1]
    mean = vectors.mean(axis=0)
    rbar = float(np.linalg.norm(mean))
    if rbar < 1e-12:
        mu = np.zeros(dim)
        mu[0] = 1.0
        return mu, 0.0
    mu = mean / rbar
    if rbar >= 1.0 - 1e-12:
        kappa = KAPPA_MAX
    else:
        kappa = min(rbar * (dim - rbar ** 2) / (1.0 - rbar ** 2), KAPPA_MAX)
    return mu, kappa


def test_estimator_bit_equal_to_mean_direction_oracle():
    # random unit-row pools as the K* search draws them, plus pools that
    # take the zero-resultant and the saturated branches
    rng = np.random.default_rng(7)
    pools = []
    for _ in range(300):
        n, dim = int(rng.integers(1, 40)), int(rng.integers(2, 65))
        pools.append(rng.standard_normal((n, dim)))
        pools[-1] /= np.linalg.norm(pools[-1], axis=1, keepdims=True)
        mu = unit(rng.standard_normal(dim))
        pools.append(sample_vmf(mu, float(rng.choice([0.5, 20.0, 400.0])), n, rng))
        pools.append(np.vstack([pools[-2], -pools[-2]]))       # zero resultant
        pools.append(np.tile(mu, (n, 1)))                       # saturated
    branches = {"zero": 0, "saturated": 0, "formula": 0}
    for x in pools:
        got = estimate_vmf(x)
        want = moment_estimate_with_mean_direction(x)[1]
        assert isinstance(got, float)
        assert got == want
        branches["zero" if want == 0.0 else
                 "saturated" if want == KAPPA_MAX else "formula"] += 1
    assert min(branches.values()) >= 100, branches


# --- sampler ---


def test_sampler_outputs_unit_norm():
    rng = np.random.default_rng(3)
    x = sample_vmf(unit(np.ones(7)), 12.0, 200, rng)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-9)


def test_sampler_mean_cosine_matches_bessel_ratio():
    # E[t . mu] = A_d(kappa); Monte Carlo check with generous tolerance
    rng = np.random.default_rng(11)
    mu = unit(np.arange(1.0, 6.0))
    kappa, dim = 20.0, 5
    x = sample_vmf(mu, kappa, 8000, rng)
    assert float((x @ mu).mean()) == pytest.approx(
        bessel_ratio(kappa, dim), abs=0.01)


def test_sampler_kappa_zero_is_uniform_unit():
    rng = np.random.default_rng(5)
    x = sample_vmf(unit([1.0, 0.0, 0.0]), 0.0, 2000, rng)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-9)
    assert abs(float(x.mean(axis=0) @ [1.0, 0.0, 0.0])) < 0.1
