"""von Mises-Fisher distribution utilities on the unit hypersphere."""

import numpy as np

KAPPA_MAX = 1000.0


def bessel_ratio(kappa, dim: int):
    """A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa).

    Evaluated by a truncated continued fraction (backward recurrence on the
    Bessel ratio), which stays finite for large kappa where iv overflows.
    Accepts scalars or arrays; every entry shares the depth set by the
    largest kappa.

    The recurrence runs on Python floats, one kappa at a time: the trainer's
    topic step calls this with a handful of kappas, lazily at the first open
    keyword gate of a step (most steps open none), where a numpy pass per
    level costs far more than the arithmetic. It is kept instead of
    the closed form ive(nu + 1, kappa) / ive(nu, kappa), which differs in the
    last bits and gives NaN at small kappa in high dimension (ive underflows);
    the trainer's kappa trajectories, and so its outputs, follow these bits.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    nu = dim / 2.0 - 1.0
    depth = int(float(np.max(kappa, initial=0.0)) + nu) + 64
    coefs = [2.0 * (nu + n) for n in range(depth, 0, -1)]
    out = np.zeros(kappa.size)
    for i, k in enumerate(kappa.ravel().tolist()):
        if k > 0.0:
            r = 0.0
            for c in coefs:
                r = 1.0 / (c / k + r)
            out[i] = r
    return out.reshape(kappa.shape) if kappa.ndim else float(out[0])


def estimate_vmf(vectors: np.ndarray) -> float:
    """Moment estimate of kappa, rbar(d - rbar^2)/(1 - rbar^2) for mean-row length
    rbar and row length d, clipped to KAPPA_MAX; a zero resultant gives 0.
    Needs at least one row."""
    vectors = np.asarray(vectors, dtype=np.float64)
    dim = vectors.shape[1]
    rbar = float(np.linalg.norm(vectors.mean(axis=0)))
    if rbar < 1e-12:
        return 0.0
    if rbar >= 1.0 - 1e-12:
        return KAPPA_MAX
    return min(rbar * (dim - rbar ** 2) / (1.0 - rbar ** 2), KAPPA_MAX)


def sample_vmf(mu: np.ndarray, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from vMF(mu, kappa) by Wood's rejection scheme.

    At kappa = 0 the scheme accepts every draw and gives uniform directions.
    """
    mu = np.asarray(mu, dtype=np.float64)
    dim = mu.shape[0]
    out = np.empty((n, dim))
    for i in range(n):
        w = _sample_radial(kappa, dim, rng)
        v = _sample_orthonormal_to(mu, rng)
        out[i] = v * np.sqrt(max(0.0, 1.0 - w * w)) + w * mu
    return out


def _sample_radial(kappa: float, dim: int, rng: np.random.Generator) -> float:
    d = dim - 1
    b = d / (np.sqrt(4.0 * kappa ** 2 + d ** 2) + 2.0 * kappa)
    x = (1.0 - b) / (1.0 + b)
    c = kappa * x + d * np.log(1.0 - x ** 2)
    while True:
        z = rng.beta(d / 2.0, d / 2.0)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        if kappa * w + d * np.log(1.0 - x * w) - c >= np.log(rng.uniform()):
            return float(w)


def _sample_orthonormal_to(mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(mu.shape[0])
    v = v - mu * np.dot(mu, v)
    return v / np.linalg.norm(v)
