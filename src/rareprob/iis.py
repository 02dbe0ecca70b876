"""Inverse importance sampling: the post-processing stage.

The importance density Q is fitted to the samples that the chain already
produced (a mixture on B' theta times the exact prior on the complement of
B: the identity when at most ``GMM_DIM_LIMIT`` dimensions have 10 samples
each, the deformed subspace otherwise), the normalizing constant of the
smoothed target follows from the ratio of the two densities averaged over
those same samples, and the failure probability estimate re-weights the
failing samples by their cached likelihood values.  No stage here evaluates
the model.

The mixture's component count K is chosen by BIC in a warm-started sweep:
each K >= 2 runs EM from the K-1 fit with its heaviest component split and
from one k-means++ start.  EM works on the distinct chain states with
integer counts, since a rejected proposal records the previous state again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError

GMM_DIM_LIMIT = 10     # Q's basis can be the identity up to here, deformed above
SUBSPACE_MAX_DIMS = 8  # cap on the deformed subspace, the mean direction included
DEFENSIVE_WEIGHT = 0.02     # mixture weight of the defensive component
DEFENSIVE_INFLATE = 4.0     # its covariance over the sample covariance
THINNING_LOW, THINNING_HIGH = 5, 50
THINNING_DIM_SPLIT = 20
ROW_BLOCK = 1024            # rows per block of a row-wise reduction


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
    """Column-oriented store of chain samples with cached model quantities,
    ``log_ell`` and ``log_h`` under the final target parameters."""

    theta: np.ndarray      # (n, d)
    g: np.ndarray          # (n,)
    log_ell: np.ndarray    # (n,) log likelihood value
    log_h: np.ndarray      # (n,) log non-normalized target density

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


@dataclass(frozen=True)
class EstimateReport:
    """Final output of one estimation run."""

    p_hat: float
    c_h: float
    variance: float | None
    cov_analytic: float | None
    thinning_lag: int
    model_calls: int
    accept_rate: float
    warnings: tuple = ()


# ---------------------------------------------------------------------------
# importance density
# ---------------------------------------------------------------------------

class GmmModel:
    """Gaussian mixture with cached inverse Cholesky factors for density
    queries.

    The covariance stack is factorised in one batched call and each
    component keeps ``L_k^{-1}``, so the squared Mahalanobis distances of
    every component are one stacked matrix product ``L_k^{-1} (theta -
    mu_k)^T`` and one column norm.
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

    def component_log_density(self, theta_t):
        """(K, n) matrix of per-component log densities at the n columns of
        the contiguous (d, n) array ``theta_t``, the transposed sample rows:
        on it the centring, the product and the norm all run along the long
        sample axis.

        A squared distance that overflows gives a log density of -inf.
        """
        with np.errstate(over="ignore"):
            sol = np.matmul(self._inv_chol, theta_t - self.means[:, :, None])
            return self._log_norms[:, None] - 0.5 * np.einsum("kdn,kdn->kn", sol, sol)

    def log_density(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        comp = self.component_log_density(np.ascontiguousarray(thetas.T))
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


def _regularize(cov, rel=1e-6, min_trace=0.0):
    # additive diagonal jitter scaled by the mean variance, for one (d, d)
    # matrix or a (K, d, d) stack; a zero-trace (fully degenerate)
    # covariance stays singular on purpose unless min_trace floors the
    # trace the jitter is scaled by
    d = cov.shape[-1]
    jitter = rel * np.maximum(np.trace(cov, axis1=-2, axis2=-1), min_trace) / d
    return cov + np.multiply.outer(jitter, np.eye(d))


def row_sq_norms(theta):
    """Squared Euclidean norm of each row of a 2-D array, a block of rows
    at a time: no temporary as large as ``theta`` is made, and each row's
    sum is the one ``(theta ** 2).sum(axis=1)`` gives, bit for bit."""
    out = np.empty(theta.shape[0])
    for i in range(0, theta.shape[0], ROW_BLOCK):
        out[i:i + ROW_BLOCK] = (theta[i:i + ROW_BLOCK] ** 2).sum(axis=1)
    return out


def _moments(theta):
    """Sample mean and (n-1)-normalised sample covariance of the rows."""
    mean = theta.mean(axis=0)
    diff = theta - mean
    return mean, diff.T @ diff / max(theta.shape[0] - 1, 1)


def fit_single_gaussian(theta):
    """Moment-matched single Gaussian, the fallback when too few samples
    support a mixture."""
    n, d = theta.shape
    if n < d + 2:
        raise InvalidInputError(f"need at least d+2={d + 2} samples, got {n}")
    mean, cov = _moments(theta)
    return GmmModel(np.array([1.0]), mean[None, :], _regularize(cov)[None, :, :])


class SubspaceDensity:
    """Importance density of the form q_m(B' theta) * prior(theta_perp).

    The chain deforms the standard normal prior only along a handful of
    directions; everything orthogonal stays prior-distributed.  Fitting a
    full d-dimensional density to a few thousand correlated samples injects
    O(d^2) parameter noise that systematically corrupts the density-ratio
    averages downstream, so instead a mixture is fitted only on the deformed
    subspace and the orthogonal complement keeps the exact prior density.
    In low dimensions with enough samples B is the identity (empty
    complement).
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
            sq_perp = row_sq_norms(thetas) - row_sq_norms(coords)
        # both squared norms overflow (inf - inf) only far out, where the
        # density vanishes; finite rows are untouched
        sq_perp = np.where(np.isnan(sq_perp), np.inf, sq_perp)
        return self.subspace_model.log_density(coords) \
            + self._log_norm_perp - 0.5 * np.maximum(sq_perp, 0.0)


def deformed_subspace(theta):
    """Orthonormal basis of the directions where the samples deviate from
    the standard normal prior: covariance eigenvalues outside the sampling
    noise band, plus the mean direction."""
    n, d = theta.shape
    mean, cov = _moments(theta)
    lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
    ratio = math.sqrt(d / n)
    lo = 0.9 * (1.0 - ratio) ** 2
    hi = 1.1 * (1.0 + ratio) ** 2
    keep = (lam <= lo) | (lam >= hi)
    order = np.argsort(np.abs(np.log(np.maximum(lam, 1e-12))))[::-1]
    cols = [vec[:, i] for i in order if keep[i]][:SUBSPACE_MAX_DIMS - 1]
    if (norm := np.linalg.norm(mean)) > 1e-9:
        cols.append(mean / norm)
    if not cols:
        cols.append(np.eye(d)[:, 0])
    # deferred: scipy.linalg takes ~0.3 s to import and only fits above
    # GMM_DIM_LIMIT dimensions get here
    import scipy.linalg
    return scipy.linalg.orth(np.stack(cols, axis=1))


def fit_subspace_density(theta, seed=0):
    """The importance density Q: a mixture on B' theta times the exact prior
    on the complement of B, blended with a wide defensive component.

    With at most ``GMM_DIM_LIMIT`` dimensions and 10 samples per dimension,
    B is the identity (empty complement) and K <= 5; otherwise B is the
    deformed subspace and K <= 3.  With fewer than 10 samples per basis
    dimension the mixture is one Gaussian.
    """
    n, d = theta.shape
    if n < d + 2:
        raise InvalidInputError(f"need at least d+2={d + 2} samples, got {n}")
    if d <= GMM_DIM_LIMIT and n >= 10 * d:
        basis, k_max = np.eye(d), 5
    else:
        basis, k_max = deformed_subspace(theta), 3
    coords = theta @ basis
    if n >= 10 * coords.shape[1]:
        sub = fit_gmm(coords, k_max=k_max, seed=seed)
    else:
        sub = fit_single_gaussian(coords)
    return SubspaceDensity(basis, add_defensive_component(sub, coords))


def _distinct_rows(theta):
    """Fold consecutive repeated rows into one row with an integer count.

    A rejected proposal records the previous state again, so a chain's
    sample array repeats rows.  Only adjacent repeats are folded; the counts
    sum to the number of rows.  Returns (rows, counts).
    """
    new = np.ones(theta.shape[0], dtype=bool)
    new[1:] = np.any(theta[1:] != theta[:-1], axis=1)
    starts = np.flatnonzero(new)
    return theta[starts], np.diff(np.append(starts, theta.shape[0]))


@dataclass(frozen=True)
class _FitRows:
    """The distinct states of one mixture fit with their counts, and what
    every EM start of the fit shares, computed once."""

    rows: np.ndarray        # (m, d) distinct states
    counts: np.ndarray      # (m,) integer counts
    rows_t: np.ndarray      # contiguous (d, m) transpose of rows
    overall: np.ndarray     # regularised count-weighted sample covariance
    # floor on the trace that a component's jitter is scaled by: 1e-6 of the
    # sample trace.  A component that collapses onto one heavily repeated
    # state (a stuck chain) then stays a sharp but non-singular spike,
    # independent of rounding; every other component keeps its own jitter
    min_trace: float

    @classmethod
    def of(cls, rows, counts):
        d = rows.shape[1]
        cov = np.cov(rows.T, fweights=counts).reshape(d, d)
        return cls(rows, counts, np.ascontiguousarray(rows.T), _regularize(cov),
                   1e-6 * float(np.trace(cov)))


def _kmeans_start(fit, k, rng, n_rounds=5):
    """EM start from count-weighted k-means++ seeding plus a few Lloyd
    rounds: the weights, means and covariances of the hard assignment.

    Seeding draws a row with probability proportional to count times squared
    distance.  K = 1 needs no seeding and starts from the sample moments.
    """
    rows, counts, rows_t = fit.rows, fit.counts, fit.rows_t
    m, d = rows.shape
    n = counts.sum()

    def sq_dists(c):
        return ((rows_t - c[:, None]) ** 2).sum(axis=0)

    labels = np.zeros(m, dtype=int)
    centers = np.zeros((k, d))
    if k == 1:
        centers[0] = counts @ rows / n
    else:
        centers[0] = rows[rng.choice(m, p=counts / n)]
        for j in range(1, k):
            d2 = counts * np.min([sq_dists(c) for c in centers[:j]], axis=0)
            total = d2.sum()
            p = d2 / total if total > 0 else counts / n
            centers[j] = rows[rng.choice(m, p=p)]
        for _ in range(n_rounds):
            labels = np.argmin([sq_dists(c) for c in centers], axis=0)
            for j in range(k):
                mask = labels == j
                if mask.any():
                    centers[j] = counts[mask] @ rows[mask] / counts[mask].sum()

    weights = np.full(k, 1.0 / k)
    covs = np.empty((k, d, d))
    for j in range(k):
        mask = labels == j
        n_j = counts[mask].sum()
        if n_j > d:
            covs[j] = _regularize(
                np.cov(rows[mask].T, fweights=counts[mask]).reshape(d, d),
                min_trace=fit.min_trace)
            weights[j] = n_j / n
        else:
            covs[j] = fit.overall
    return GmmModel(weights / weights.sum(), centers, covs)


def _split_start(model):
    """EM start for K+1 components from a K-component fit: its heaviest
    component split along its principal axis into means mu -/+ sqrt(lam1) v1,
    each with half the weight and the same covariance."""
    j = int(np.argmax(model.weights))
    lam, vec = np.linalg.eigh(model.covs[j])
    step = math.sqrt(max(lam[-1], 0.0)) * vec[:, -1]
    weights = np.append(model.weights, 0.5 * model.weights[j])
    weights[j] *= 0.5
    means = np.vstack([model.means, model.means[j] + step])
    means[j] -= step
    covs = np.concatenate([model.covs, model.covs[j][None]])
    return GmmModel(weights, means, covs)


def _em_fit(fit, model, max_iter=60, tol=1e-5):
    """EM from the start ``model`` on the fit's rows weighted by their
    integer counts.

    Same likelihood and fixed point as EM on the rows repeated by their
    counts.  Returns (model, loglik) or raises NumericalError.
    """
    rows, counts, rows_t = fit.rows, fit.counts, fit.rows_t
    n = counts.sum()
    k, d = model.means.shape
    loglik = -math.inf
    for _ in range(max_iter):
        comp = model.component_log_density(rows_t) + np.log(model.weights)[:, None]
        norm = _logsumexp_components(comp)
        loglik_new = float(counts @ norm)
        resp = np.exp(comp - norm) * counts           # (k, m), count-weighted
        nk = resp.sum(axis=1)
        if np.any(nk < 1e-10):
            raise NumericalError("empty mixture component")
        weights = nk / n
        means = (resp @ rows) / nk[:, None]
        covs = np.empty((k, d, d))
        for j in range(k):
            diff_t = rows_t - means[j][:, None]
            covs[j] = (diff_t * resp[j]) @ diff_t.T / nk[j]
        model = GmmModel(weights, means, _regularize(covs, min_trace=fit.min_trace))
        if abs(loglik_new - loglik) <= tol * max(1.0, abs(loglik_new)):
            loglik = loglik_new
            break
        loglik = loglik_new
    return model, loglik


def fit_gmm(theta, k_max=5, seed=0):
    """EM mixture fit with the component count selected by BIC.

    The sweep over K is warm-started.  K = 1 starts from the sample moments.
    Each K >= 2 runs two EM starts and keeps the one with the higher
    log-likelihood: the K-1 optimum with its heaviest component split along
    its principal axis (split initialisation, as in Ueda et al., SMEM,
    Neural Computation 2000), and one seeded k-means++ start.  A K whose
    every start degenerates is dropped (effectively "reduce K and retry"),
    failure at K = 1 is a hard error, and the sweep stops after two K in a
    row that do not improve the BIC.

    EM runs on the distinct chain states: consecutive repeated rows are
    folded into one row with an integer count, which leaves the likelihood,
    the BIC (n is the full sample count) and the EM fixed point unchanged.
    A component that collapses onto one repeated state is held at a trace
    floor of 1e-6 of the sample trace, a sharp spike rather than a failed
    start.  Deterministic given the seed.
    """
    n, d = theta.shape
    if n < 10 * d:
        raise InvalidInputError(f"need at least 10*d={10 * d} samples, got {n}")
    fit = _FitRows.of(*_distinct_rows(theta))
    rng = np.random.default_rng(seed)

    best_model, best_bic = None, math.inf
    prev = None             # the optimum of K-1, when K-1 was kept
    last_error = None
    n_worse = 0
    for k in range(1, k_max + 1):
        k_best, k_loglik = None, -math.inf
        # None stands for the k-means++ start
        for base in ([prev, None] if prev is not None else [None]):
            try:
                start = (_kmeans_start(fit, k, rng) if base is None
                         else _split_start(base))
                model, loglik = _em_fit(fit, start)
            except NumericalError as exc:
                last_error = exc
                continue
            if loglik > k_loglik:
                k_best, k_loglik = model, loglik
        prev = k_best
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


def add_defensive_component(q, theta):
    """Blend a wide moment-matched Gaussian into Q with small weight.

    A fitted mixture can assign near-zero density to thinly visited stretches
    of the chain, letting single h~/Q ratios dominate the normalizing
    constant.  The wide component bounds those ratios at the cost of an
    O(DEFENSIVE_WEIGHT) perturbation of Q where the fit is good.
    """
    mean, cov = _moments(theta)
    cov = _regularize(DEFENSIVE_INFLATE * cov)
    weights = np.append((1.0 - DEFENSIVE_WEIGHT) * q.weights, DEFENSIVE_WEIGHT)
    means = np.vstack([q.means, mean[None, :]])
    covs = np.concatenate([q.covs, cov[None, :, :]], axis=0)
    return GmmModel(weights, means, covs)

