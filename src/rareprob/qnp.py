"""Quasi-Newton mass preconditioning for the Hamiltonian sampler.

During burn-in the chain accumulates a BFGS approximation W of the inverse
Hessian of the log-density.  The trajectory runs on the W of the start of
the iteration; each completed leapfrog step leaves one curvature pair, and
once the trajectory is accepted its pairs are applied in step order, one
rank-two update each.  The pairs of a rejected trajectory are never applied.
After burn-in, W is repaired to positive definiteness if needed and its
inverse becomes the mass matrix of the non-adaptive phase.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .hmc import hmc_transition, jitter_tau, trajectory_discretization

BFGS_GATE = 1e-12        # |y.s| at or below this share of |y||s| is degenerate
BFGS_NORM_CAP = 1e3      # an update whose norm exceeds this is skipped
SPD_EIGEN_FLOOR = 1e-10  # a smallest eigenvalue at or below this needs repair
SPD_MARGIN, SPD_BUMP = 1.01, 1e-8   # repair shift: margin * |lambda_min| + bump
SPD_MAX_ATTEMPTS = 60    # doublings of the shift before giving up
SPD_EXTRA_CAP = 50       # extra burn-in iterations seeking an SPD W


def bfgs_update(w, s, y):
    """Rank-two inverse-Hessian update from the displacement pair (s, y).

    Returns the symmetrized update, or None when the pair is unusable: |y.s|
    below the degeneracy gate, or a near-degenerate pair whose rank-one term
    would blow the matrix up (a chain, unlike a line search, offers no
    curvature guarantee, and one such pair otherwise wrecks the dynamics for
    many iterations).  The secant condition W' y = s holds for every applied
    update.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    ys, degenerate = _curvature(s, y)
    if degenerate:
        return None
    rho = 1.0 / ys
    v = _eye(s.size) - rho * (s[:, None] * y)
    w_new = v @ w @ v.T + rho * (s[:, None] * s)
    if _norm(w_new) > BFGS_NORM_CAP:
        return None
    return 0.5 * (w_new + w_new.T)


def _norm(x):
    """The 2-norm of a vector, Frobenius of a matrix: np.linalg.norm's own
    definition, sqrt(x.dot(x)) over the flattened entries, without its
    dispatch."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


# a pair from a divergent step can overflow here; the infinite norms then
# fail the gate and the pair is skipped
@np.errstate(over="ignore")
def _curvature(s, y):
    """(y.s, whether |y.s| falls below the degeneracy gate)."""
    ys = float(y.dot(s))
    return ys, abs(ys) <= BFGS_GATE * _norm(y) * _norm(s)


@functools.lru_cache(maxsize=16)
def _eye(d):
    """A read-only identity of size d, built once per dimension."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


class BfgsState:
    """Accumulating inverse-Hessian approximation W, plus the curvature pairs
    of the trajectory in flight: ``accept`` applies them in order, ``restore``
    drops them, so W only ever learns from kept trajectories."""

    def __init__(self, dim):
        self.w = np.eye(dim)
        self.n_updates = 0
        self.n_skipped = 0
        self.pending = []       # (s, y) pairs of the trajectory in flight

    def update(self, s, y):
        """Apply one pair to W at once; False when the pair is skipped."""
        w_new = bfgs_update(self.w, s, y)
        if w_new is None:
            self.n_skipped += 1
            return False
        self.w = w_new
        self.n_updates += 1
        return True

    def accept(self):
        for s, y in self.pending:
            self.update(s, y)
        self.pending = []

    def restore(self):
        self.pending = []


def is_spd(w):
    try:
        np.linalg.cholesky(w)
        return True
    except np.linalg.LinAlgError:
        return False


def ensure_spd(w):
    """Shift a symmetric matrix onto the SPD cone by adding delta * I.

    delta slightly exceeds |lambda_min| when the smallest eigenvalue is at or
    below the floor; a clean matrix is returned unchanged with delta = 0.
    Escalates delta by doubling if factorization still fails.
    """
    # deferred: scipy.linalg takes ~0.3 s to import and only QNp runs use it
    import scipy.linalg

    w = 0.5 * (w + w.T)
    try:
        lam_min = float(scipy.linalg.eigvalsh(w, subset_by_index=(0, 0))[0])
    except Exception:
        lam_min = -1.0  # eigen-solver failure: start the escalation path
    if lam_min > SPD_EIGEN_FLOOR and is_spd(w):
        return w, 0.0
    delta = SPD_MARGIN * abs(min(lam_min, 0.0)) + SPD_BUMP
    for _ in range(SPD_MAX_ATTEMPTS):
        w_pd = w + delta * np.eye(w.shape[0])
        if is_spd(w_pd):
            return w_pd, delta
        delta *= 2.0
    raise NumericalError("could not repair matrix to positive definiteness")


@dataclass
class MassState:
    """Frozen preconditioned mass: M = W^-1 with a factor for momentum draws."""

    w: np.ndarray          # SPD inverse-Hessian approximation (velocity map)
    m: np.ndarray          # mass matrix, inverse of w
    chol_m: np.ndarray     # lower triangular, chol_m @ chol_m.T = m
    delta: float = 0.0     # diagonal shift applied during repair
    extra_iterations: int = 0

    @classmethod
    def from_w(cls, w, delta=0.0, extra_iterations=0):
        # deferred as in ensure_spd; numpy's solvers would not give cho_solve's bits
        import scipy.linalg

        w = 0.5 * (w + w.T)
        try:
            cho = scipy.linalg.cho_factor(w, lower=True)
            m = scipy.linalg.cho_solve(cho, np.eye(w.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"mass finalization failed: {exc}") from exc
        m = 0.5 * (m + m.T)
        try:
            chol_m = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"mass factorization failed: {exc}") from exc
        return cls(w=w, m=m, chol_m=chol_m, delta=delta,
                   extra_iterations=extra_iterations)

    def sample_momentum(self, rng):
        return self.chol_m.dot(rng.standard_normal(self.m.shape[0]))

    def kinetic(self, z):
        # 0.5 z' M^-1 z, with M^-1 = W exactly
        return 0.5 * float(z.dot(self.w.dot(z)))

    def velocity(self, z):
        return self.w.dot(z)


def qnp_burnin_iteration(state, logp_grad, eps, tau, rng, bfgs):
    """Adaptive-phase iteration: identity-mass momentum, dynamics driven by
    the W of the iteration's start, one curvature pair per leapfrog step.
    An accepted trajectory's pairs update W in step order; a rejected one's
    are dropped, so W is unchanged."""
    n_steps, eps_eff = trajectory_discretization(jitter_tau(tau, rng), eps)
    # curvature pairs are taken on the potential energy -log p, so that W
    # approximates the local covariance (SPD wherever s'y > 0)
    new_state, info = hmc_transition(state, logp_grad, eps_eff, n_steps, rng,
                                     b_matrix=bfgs.w,
                                     on_step=lambda s, y: bfgs.pending.append((s, -y)))
    if info["accepted"]:
        bfgs.accept()
    else:
        bfgs.restore()
    return new_state, info


def qnp_main_iteration(state, logp_grad, eps, tau, rng, mass):
    """Non-adaptive iteration with momentum ~ N(0, M), M = W^-1."""
    n_steps, eps_eff = trajectory_discretization(jitter_tau(tau, rng), eps)
    return hmc_transition(state, logp_grad, eps_eff, n_steps, rng, mass=mass)


def finalize_mass(bfgs, state, logp_grad, eps, tau, rng, record):
    """Freeze the burn-in W into a mass state.

    If W is not positive definite, keep running burn-in iterations (up to
    ``SPD_EXTRA_CAP``) until an accepted sample leaves behind an SPD W; else
    repair it by a diagonal shift; each extra iteration goes to ``record``.
    Returns (mass, state) since extra iterations may move the chain.
    """
    extra = 0
    while not (spd := is_spd(bfgs.w)) and extra < SPD_EXTRA_CAP:
        state, info = qnp_burnin_iteration(state, logp_grad, eps, tau, rng, bfgs)
        extra += 1
        record(state, info)
    if spd:
        w_pd, delta = bfgs.w, 0.0
    else:
        w_pd, delta = ensure_spd(bfgs.w)
    mass = MassState.from_w(w_pd, delta=delta, extra_iterations=extra)
    return mass, state
