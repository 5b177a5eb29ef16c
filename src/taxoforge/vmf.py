"""von Mises-Fisher distribution utilities on the unit hypersphere."""

from dataclasses import dataclass

import numpy as np

KAPPA_MAX = 1000.0


@dataclass
class VmfParams:
    """Mean direction and concentration of one vMF cluster."""

    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        if self.kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {self.kappa}")


def log_bessel_iv(nu: float, x: float) -> float:
    """log I_nu(x), stable for small x where iv underflows."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 0.0 if nu == 0 else -np.inf
    from scipy import special  # here: a pipeline run never loads scipy
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
    from scipy import special  # here: a pipeline run never loads scipy
    if kappa < 1e-10:
        # uniform limit: 1 / area(S^{d-1})
        return float(special.gammaln(dim / 2.0) - np.log(2.0)
                     - (dim / 2.0) * np.log(np.pi))
    nu = dim / 2.0 - 1.0
    return float(nu * np.log(kappa) - (dim / 2.0) * np.log(2.0 * np.pi)
                 - log_bessel_iv(nu, kappa))


def bessel_ratio(kappa, dim: int):
    """A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa).

    Evaluated by a truncated continued fraction (backward recurrence on the
    Bessel ratio), which stays finite for large kappa where iv overflows.
    Accepts scalars or arrays; every entry shares the depth set by the
    largest kappa.

    The recurrence runs on Python floats, one kappa at a time: the trainer
    calls this once per SGD batch with a handful of kappas, where a numpy
    pass per level costs far more than the arithmetic. It is kept instead of
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


def estimate_vmf(vectors: np.ndarray, dim: int) -> VmfParams:
    """Moment estimator: mu = normalized mean, kappa = rbar(d - rbar^2)/(1 - rbar^2).

    kappa is clipped to KAPPA_MAX; a zero resultant gives kappa 0 and mu e_0.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValueError("need at least one vector")
    mean = vectors.mean(axis=0)
    rbar = float(np.linalg.norm(mean))
    if rbar < 1e-12:
        mu = np.zeros(dim)
        mu[0] = 1.0
        return VmfParams(mu=mu, kappa=0.0)
    mu = mean / rbar
    if rbar >= 1.0 - 1e-12:
        kappa = KAPPA_MAX
    else:
        kappa = min(rbar * (dim - rbar ** 2) / (1.0 - rbar ** 2), KAPPA_MAX)
    return VmfParams(mu=mu, kappa=kappa)


def sample_vmf(mu: np.ndarray, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from vMF(mu, kappa) by Wood's rejection scheme."""
    mu = np.asarray(mu, dtype=np.float64)
    dim = mu.shape[0]
    if kappa == 0.0:
        x = rng.standard_normal((n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)
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
