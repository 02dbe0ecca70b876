"""Inverse importance sampling: the post-processing stage.

The importance density Q is fitted to the samples that the chain already
produced (Gaussian mixture via EM in low dimensions; in high dimensions a
mixture on the deformed subspace times the prior on its complement), the
normalizing constant of the smoothed target follows from the ratio of the
two densities averaged over those same samples, and the failure probability
estimate re-weights the failing samples by their cached likelihood values.
No stage here evaluates the model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, NumericalError

GMM_DIM_LIMIT = 10     # full mixture fit up to here, subspace density above
THINNING_LOW, THINNING_HIGH = 5, 50
THINNING_DIM_SPLIT = 20


def choose_thinning(d):
    """Blanket thinning lag for the variance estimate: every 5th sample in
    low dimensions, every 50th in high dimensions."""
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    return THINNING_LOW if d < THINNING_DIM_SPLIT else THINNING_HIGH


def estimate_thinning_lag(series, max_lag):
    """Thinning lag from the measured autocorrelation of a sample series.

    Integrated autocorrelation time by Geyer's initial-positive-sequence
    rule, rounded up and clamped to [1, max_lag].  A well-mixed chain then
    gets a much denser thinned subsequence than the blanket 5/50 rule, which
    keeps the variance formula honest instead of conservative.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 4 or x.std() == 0.0:
        return 1
    x = x - x.mean()
    var = float(x @ x) / n
    tau = 1.0
    k = 1
    while k + 1 < n:
        rho1 = float(x[:-k] @ x[k:]) / (n * var)
        rho2 = float(x[:-(k + 1)] @ x[(k + 1):]) / (n * var)
        if rho1 + rho2 <= 0.0:
            break
        tau += 2.0 * (rho1 + rho2)
        k += 2
        if k > max_lag * 4:
            break
    return int(min(max(math.ceil(tau), 1), max_lag))


@dataclass
class SampleSet:
    """Column-oriented store of chain samples with cached model quantities.

    ``log_ell`` and ``log_h`` are always recorded under the final target
    parameters, also for burn-in-phase samples, so downstream estimators can
    treat records uniformly.
    """

    theta: np.ndarray      # (n, d)
    g: np.ndarray          # (n,)
    log_ell: np.ndarray    # (n,) log likelihood value
    log_h: np.ndarray      # (n,) log non-normalized target density
    phase: str = "main"    # "burn-in" | "main"

    def __post_init__(self):
        self.theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        self.g = np.asarray(self.g, dtype=float)
        self.log_ell = np.asarray(self.log_ell, dtype=float)
        self.log_h = np.asarray(self.log_h, dtype=float)
        n = self.theta.shape[0]
        if not (self.g.shape == self.log_ell.shape == self.log_h.shape == (n,)):
            raise InvalidInputError("sample columns have inconsistent lengths")

    @property
    def n(self):
        return self.theta.shape[0]

    @property
    def d(self):
        return self.theta.shape[1]

    @property
    def is_failure(self):
        return self.g <= 0.0

    @property
    def ell(self):
        return np.exp(np.maximum(self.log_ell, -700.0))


@dataclass(frozen=True)
class EstimateReport:
    """Final output of one estimation run."""

    p_hat: float
    c_h: float
    variance: float | None
    cov_analytic: float | None
    n_used: int
    thinning_lag: int
    model_calls: int
    accept_rate: float
    seed: int
    wall_time: float
    method: str = ""
    warnings: tuple = ()

    def to_dict(self):
        return {
            "p_hat": self.p_hat, "c_h": self.c_h, "variance": self.variance,
            "cov_analytic": self.cov_analytic, "n_used": self.n_used,
            "thinning_lag": self.thinning_lag, "model_calls": self.model_calls,
            "accept_rate": self.accept_rate, "seed": self.seed,
            "wall_time": self.wall_time, "method": self.method,
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# importance density
# ---------------------------------------------------------------------------

class GmmModel:
    """Gaussian mixture with cached inverse Cholesky factors for density
    queries.

    The covariance stack is factorised in one batched call and each
    component keeps ``L_k^{-1}``, so its squared Mahalanobis distances are
    one matrix product ``L_k^{-1} (theta - mu_k)^T`` and a column norm.
    """

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=float)
        self.means = np.asarray(means, dtype=float)
        self.covs = np.asarray(covs, dtype=float)
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise InvalidInputError("mixture weights must sum to 1")
        d = self.means.shape[1]
        try:
            chols = np.linalg.cholesky(self.covs)
            self._inv_chol = np.linalg.inv(chols)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular mixture covariance: {exc}") from exc
        self._log_norms = (-0.5 * d * math.log(2.0 * math.pi)
                           - np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1))

    @property
    def n_components(self):
        return self.weights.size

    def component_log_density(self, thetas):
        """(K, n) matrix of per-component log densities.

        A squared distance that overflows gives a log density of -inf.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        # on the contiguous (d, n) transpose the centring, the product and
        # the norm all run along the long sample axis
        theta_t = np.ascontiguousarray(thetas.T)
        out = np.empty((self.n_components, theta_t.shape[1]))
        with np.errstate(over="ignore"):
            for k in range(self.n_components):
                sol = self._inv_chol[k] @ (theta_t - self.means[k][:, None])
                out[k] = self._log_norms[k] - 0.5 * np.einsum("dn,dn->n", sol, sol)
        return out

    def log_density(self, thetas):
        comp = self.component_log_density(thetas)
        return _logsumexp_components(comp + np.log(self.weights)[:, None])

    def n_free_params(self):
        k, d = self.n_components, self.means.shape[1]
        return (k - 1) + k * d + k * d * (d + 1) // 2


def _logsumexp_components(mat):
    # log-sum-exp over the component axis 0 of a (K, n) array; a column whose
    # entries are all -inf is shifted by 0 and sums to -inf (not
    # -inf - -inf = NaN)
    m = mat.max(axis=0)
    m = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(divide="ignore"):
        return m + np.log(np.exp(mat - m).sum(axis=0))


def _regularize(cov, rel=1e-6):
    # additive diagonal jitter scaled by the mean variance, for one (d, d)
    # matrix or a (K, d, d) stack; a zero-trace (fully degenerate)
    # covariance stays singular on purpose
    d = cov.shape[-1]
    jitter = rel * np.trace(cov, axis1=-2, axis2=-1) / d
    return cov + np.multiply.outer(jitter, np.eye(d))


def fit_single_gaussian(samples):
    """Moment-matched single Gaussian, the fallback when too few samples
    support a mixture."""
    theta = samples.theta if isinstance(samples, SampleSet) else np.atleast_2d(samples)
    n, d = theta.shape
    if n < d + 2:
        raise InvalidInputError(f"need at least d+2={d + 2} samples, got {n}")
    mean = theta.mean(axis=0)
    diff = theta - mean
    cov = _regularize(diff.T @ diff / (n - 1))
    return GmmModel(np.array([1.0]), mean[None, :], cov[None, :, :])


class SubspaceDensity:
    """Importance density of the form q_m(B' theta) * prior(theta_perp).

    The chain deforms the standard normal prior only along a handful of
    directions; everything orthogonal stays prior-distributed.  Fitting a
    full d-dimensional density to a few thousand correlated samples injects
    O(d^2) parameter noise that systematically corrupts the density-ratio
    averages downstream, so instead a mixture is fitted only on the deformed
    subspace and the orthogonal complement keeps the exact prior density.
    """

    def __init__(self, basis, subspace_model):
        self.basis = np.asarray(basis, dtype=float)     # (d, m), orthonormal
        self.subspace_model = subspace_model
        d, m = self.basis.shape
        self._log_norm_perp = -0.5 * (d - m) * math.log(2.0 * math.pi)

    @property
    def n_components(self):
        return self.subspace_model.n_components

    def log_density(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        coords = thetas @ self.basis
        with np.errstate(over="ignore", invalid="ignore"):
            sq_perp = (thetas ** 2).sum(axis=1) - (coords ** 2).sum(axis=1)
        # both squared norms overflow (inf - inf) only far out, where the
        # density vanishes; finite rows are untouched
        sq_perp = np.where(np.isnan(sq_perp), np.inf, sq_perp)
        return self.subspace_model.log_density(coords) \
            + self._log_norm_perp - 0.5 * np.maximum(sq_perp, 0.0)


def deformed_subspace(theta, max_dims=8):
    """Orthonormal basis of the directions where the samples deviate from
    the standard normal prior: covariance eigenvalues outside the sampling
    noise band, plus the mean direction."""
    n, d = theta.shape
    mean = theta.mean(axis=0)
    diff = theta - mean
    cov = diff.T @ diff / max(n - 1, 1)
    lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
    ratio = math.sqrt(d / n)
    lo = 0.9 * (1.0 - ratio) ** 2
    hi = 1.1 * (1.0 + ratio) ** 2
    keep = (lam <= lo) | (lam >= hi)
    order = np.argsort(np.abs(np.log(np.maximum(lam, 1e-12))))[::-1]
    cols = [vec[:, i] for i in order if keep[i]][:max_dims - 1]
    if np.linalg.norm(mean) > 1e-9:
        cols.append(mean / np.linalg.norm(mean))
    if not cols:
        cols.append(np.eye(d)[:, 0])
    return scipy.linalg.orth(np.stack(cols, axis=1))


def fit_subspace_density(samples, seed=0, k_max=3, max_dims=8,
                         defensive_weight=0.02):
    """High-dimensional importance density: mixture on the deformed
    subspace, exact prior on its orthogonal complement."""
    theta = samples.theta if isinstance(samples, SampleSet) else np.atleast_2d(samples)
    n, d = theta.shape
    if n < d + 2:
        raise InvalidInputError(f"need at least d+2={d + 2} samples, got {n}")
    basis = deformed_subspace(theta)
    coords = theta @ basis
    m = coords.shape[1]
    if n >= 10 * m:
        sub = fit_gmm(coords, k_max=k_max, seed=seed)
    else:
        sub = fit_single_gaussian(coords)
    if defensive_weight > 0.0:
        sub = add_defensive_component(sub, coords, weight=defensive_weight)
    return SubspaceDensity(basis, sub)


def _kmeans_init(theta, k, rng, n_rounds=5):
    """k-means++ style seeding plus a few Lloyd rounds."""
    n = theta.shape[0]
    theta_t = np.ascontiguousarray(theta.T)

    def sq_dists(c):
        return ((theta_t - c[:, None]) ** 2).sum(axis=0)

    centers = [theta[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min([sq_dists(c) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(theta[rng.integers(n)])
            continue
        centers.append(theta[rng.choice(n, p=d2 / total)])
    centers = np.array(centers)
    for _ in range(n_rounds):
        labels = np.argmin([sq_dists(c) for c in centers], axis=0)
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = theta[mask].mean(axis=0)
    return centers, labels


def _em_fit(theta, k, rng, max_iter=60, tol=1e-5):
    """One EM run; returns (model, loglik) or raises NumericalError."""
    n, d = theta.shape
    centers, labels = _kmeans_init(theta, k, rng)
    weights = np.full(k, 1.0 / k)
    means = centers.copy()
    covs = np.empty((k, d, d))
    overall = _regularize(np.cov(theta.T, ddof=1).reshape(d, d))
    for j in range(k):
        mask = labels == j
        if mask.sum() > d:
            covs[j] = _regularize(np.cov(theta[mask].T, ddof=1).reshape(d, d))
            weights[j] = mask.mean()
        else:
            covs[j] = overall.copy()
    weights /= weights.sum()

    loglik = -math.inf
    model = GmmModel(weights, means, covs)
    theta_t = np.ascontiguousarray(theta.T)
    for _ in range(max_iter):
        comp = model.component_log_density(theta) + np.log(model.weights)[:, None]
        norm = _logsumexp_components(comp)
        loglik_new = float(norm.sum())
        resp = np.exp(comp - norm)                    # (k, n)
        nk = resp.sum(axis=1)
        if np.any(nk < 1e-10):
            raise NumericalError("empty mixture component")
        weights = nk / n
        means = (resp @ theta) / nk[:, None]
        covs = np.empty((k, d, d))
        for j in range(k):
            diff_t = theta_t - means[j][:, None]
            covs[j] = (diff_t * resp[j]) @ diff_t.T / nk[j]
        model = GmmModel(weights, means, _regularize(covs))
        if abs(loglik_new - loglik) <= tol * max(1.0, abs(loglik_new)):
            loglik = loglik_new
            break
        loglik = loglik_new
    return model, loglik


def fit_gmm(samples, k_max=5, seed=0, n_restarts=3):
    """EM mixture fit with the component count selected by BIC.

    Each candidate K gets ``n_restarts`` seeded restarts; a K whose every
    restart degenerates is dropped (effectively "reduce K and retry"), and
    failure at K = 1 is a hard error.  Deterministic given the seed.
    """
    theta = samples.theta if isinstance(samples, SampleSet) else np.atleast_2d(samples)
    n, d = theta.shape
    if n < 10 * d:
        raise InvalidInputError(f"need at least 10*d={10 * d} samples, got {n}")
    rng = np.random.default_rng(seed)

    best_model, best_bic = None, math.inf
    last_error = None
    n_worse = 0
    for k in range(1, k_max + 1):
        k_best, k_loglik = None, -math.inf
        restarts = n_restarts if k > 1 else 1   # K=1 has a closed-form optimum
        for _ in range(restarts):
            try:
                model, loglik = _em_fit(theta, k, rng)
            except NumericalError as exc:
                last_error = exc
                continue
            if loglik > k_loglik:
                k_best, k_loglik = model, loglik
        if k_best is None:
            if k == 1:
                raise NumericalError(f"single-Gaussian EM failed: {last_error}")
            continue
        bic = -2.0 * k_loglik + k_best.n_free_params() * math.log(n)
        if bic < best_bic:
            best_model, best_bic = k_best, bic
            n_worse = 0
        else:
            n_worse += 1
            if n_worse >= 2:
                break
    if best_model is None:
        raise NumericalError("mixture fitting failed for every component count")
    return best_model


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------

def normalizing_constant(samples, q):
    """Mass of the non-normalized target: mean of h~ / Q over the samples.

    Computed as a max-shifted exponential of log differences.  A sample at
    which Q vanishes (or its log density is not finite at all) makes the
    ratio meaningless and is reported by index.
    """
    log_q = q.log_density(samples.theta)
    bad = np.flatnonzero(~np.isfinite(log_q))
    if bad.size:
        raise NumericalError(
            f"importance density vanishes at sample index {bad[0]} "
            f"(log Q = {log_q[bad[0]]})")
    diff = samples.log_h - log_q
    shift = float(diff.max())
    return math.exp(shift) * float(np.exp(diff - shift).mean())


def estimate_pf(samples, c_h):
    """Failure probability: c_h times the mean of I_F / ell over all samples.

    Safe-domain samples contribute zero; failing samples have likelihood
    values bounded away from zero by construction, so the division is
    stable.  Issues a warning (and returns 0) when no sample failed.
    """
    if c_h <= 0:
        raise InvalidInputError("c_h must be positive")
    fail = samples.is_failure
    if not fail.any():
        warnings.warn("no failure samples: estimate is 0 and uninformative",
                      stacklevel=2)
        return 0.0
    log_terms = math.log(c_h) - samples.log_ell[fail]
    shift = float(log_terms.max())
    return math.exp(shift) * float(np.exp(log_terms - shift).sum()) / samples.n


def cov_analytic(samples, c_h, p_hat, lag):
    """Variance and coefficient of variation over the thinned subsequence.

    Thinning keeps every ``lag``-th sample (N_s = floor(N / lag)); the
    deviations are taken around the full-sample point estimate.
    """
    if lag < 1:
        raise InvalidInputError("thinning lag must be >= 1")
    idx = np.arange(lag - 1, samples.n, lag)
    n_s = idx.size
    if n_s < 2:
        return None, None
    fail = samples.is_failure[idx]
    terms = np.zeros(n_s)
    if fail.any():
        terms[fail] = np.exp(math.log(c_h) - samples.log_ell[idx][fail])
    variance = float(((terms - p_hat) ** 2).sum() / (n_s * (n_s - 1)))
    if p_hat <= 0:
        return variance, None
    return variance, math.sqrt(variance) / p_hat


def add_defensive_component(q, samples, weight=0.02, inflate=4.0):
    """Blend a wide moment-matched Gaussian into Q with small weight.

    A fitted mixture can assign near-zero density to thinly visited stretches
    of the chain, letting single h~/Q ratios dominate the normalizing
    constant.  The wide component bounds those ratios at the cost of an
    O(weight) perturbation of Q where the fit is good.
    """
    theta = samples.theta if isinstance(samples, SampleSet) else np.atleast_2d(samples)
    mean = theta.mean(axis=0)
    diff = theta - mean
    cov = _regularize(inflate * (diff.T @ diff / max(theta.shape[0] - 1, 1)))
    weights = np.concatenate([(1.0 - weight) * q.weights, [weight]])
    means = np.vstack([q.means, mean[None, :]])
    covs = np.concatenate([q.covs, cov[None, :, :]], axis=0)
    return GmmModel(weights, means, covs)

