"""Quasi-Newton mass preconditioning for the Hamiltonian sampler.

During burn-in the chain accumulates a BFGS approximation W of the inverse
Hessian of the log-density, one rank-two update per completed leapfrog step,
while the trajectory itself runs on the snapshot taken at the start of the
iteration (rejected iterations roll the accumulated updates back).  After
burn-in, W is repaired to positive definiteness if needed and its inverse
becomes the mass matrix of the non-adaptive phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .hmc import hmc_transition, jitter_tau, trajectory_discretization


def bfgs_update(w, s, y, gate=1e-12, norm_cap=1e3):
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
    # a pair from a divergent step can overflow here; the infinite norms
    # then fail the gate and the pair is skipped
    with np.errstate(over="ignore"):
        ys = float(y @ s)
        degenerate = abs(ys) <= gate * np.linalg.norm(y) * np.linalg.norm(s)
    if degenerate:
        return None
    rho = 1.0 / ys
    v = np.eye(s.size) - rho * np.outer(s, y)
    w_new = v @ w @ v.T + rho * np.outer(s, s)
    if norm_cap is not None and np.linalg.norm(w_new) > norm_cap:
        return None
    return 0.5 * (w_new + w_new.T)


class BfgsState:
    """Accumulating inverse-Hessian approximation with snapshot/rollback."""

    def __init__(self, dim):
        self.w = np.eye(dim)
        self.n_updates = 0
        self.n_skipped = 0

    def update(self, s, y):
        w_new = bfgs_update(self.w, s, y)
        if w_new is None:
            self.n_skipped += 1
            return False
        self.w = w_new
        self.n_updates += 1
        return True

    def snapshot(self):
        return self.w.copy(), self.n_updates, self.n_skipped

    def restore(self, snap):
        self.w, self.n_updates, self.n_skipped = snap[0].copy(), snap[1], snap[2]


def is_spd(w):
    try:
        np.linalg.cholesky(w)
        return True
    except np.linalg.LinAlgError:
        return False


def ensure_spd(w, eigen_floor=1e-10, margin=1.01, bump=1e-8, max_attempts=60):
    """Shift a symmetric matrix onto the SPD cone by adding delta * I.

    delta slightly exceeds |lambda_min| when the smallest eigenvalue is at or
    below the floor; a clean matrix is returned unchanged with delta = 0.
    Escalates delta by doubling if factorization still fails.
    """
    w = 0.5 * (w + w.T)
    try:
        lam_min = float(scipy.linalg.eigvalsh(w, subset_by_index=(0, 0))[0])
    except Exception:
        lam_min = -1.0  # eigen-solver failure: start the escalation path
    if lam_min > eigen_floor and is_spd(w):
        return w, 0.0
    delta = margin * abs(min(lam_min, 0.0)) + bump
    for _ in range(max_attempts):
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
        w = 0.5 * (w + w.T)
        try:
            cho = scipy.linalg.cho_factor(w, lower=True)
            m = scipy.linalg.cho_solve(cho, np.eye(w.shape[0]))
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"mass finalization failed: {exc}") from exc
        m = 0.5 * (m + m.T)
        try:
            chol_m = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"mass factorization failed: {exc}") from exc
        return cls(w=w, m=m, chol_m=chol_m, delta=delta,
                   extra_iterations=extra_iterations)

    @classmethod
    def identity(cls, dim):
        eye = np.eye(dim)
        return cls(w=eye, m=eye.copy(), chol_m=eye.copy())

    def sample_momentum(self, rng):
        return self.chol_m @ rng.standard_normal(self.m.shape[0])

    def kinetic(self, z):
        # 0.5 z' M^-1 z, with M^-1 = W exactly
        return 0.5 * float(z @ (self.w @ z))

    def velocity(self, z):
        return self.w @ z


def qnp_burnin_iteration(state, logp_grad, eps, tau, rng, bfgs,
                         jitter=(0.9, 1.1), max_delta_h=1000.0, max_steps=None):
    """Adaptive-phase iteration: identity-mass momentum, dynamics driven by
    the W snapshot, curvature pairs harvested per leapfrog step, rollback of
    W on rejection."""
    tau_m = jitter_tau(tau, rng, *jitter)
    n_steps, eps_eff = trajectory_discretization(tau_m, eps, max_steps)
    snap = bfgs.snapshot()
    b_matrix = snap[0]

    def on_step(s, y_logp):
        # curvature pairs are taken on the potential energy -log p, so that
        # W approximates the local covariance (SPD wherever s'y > 0)
        bfgs.update(s, -y_logp)

    new_state, info = hmc_transition(state, logp_grad, eps_eff, n_steps, rng,
                                     b_matrix=b_matrix, on_step=on_step,
                                     max_delta_h=max_delta_h)
    if not info["accepted"]:
        bfgs.restore(snap)
    return new_state, info


def qnp_main_iteration(state, logp_grad, eps, tau, rng, mass,
                       jitter=(0.9, 1.1), max_delta_h=1000.0, max_steps=None):
    """Non-adaptive iteration with momentum ~ N(0, M), M = W^-1."""
    tau_m = jitter_tau(tau, rng, *jitter)
    n_steps, eps_eff = trajectory_discretization(tau_m, eps, max_steps)
    return hmc_transition(state, logp_grad, eps_eff, n_steps, rng, mass=mass,
                          max_delta_h=max_delta_h)


def finalize_mass(bfgs, state, logp_grad, eps, tau, rng, extra_cap=50,
                  jitter=(0.9, 1.1), record=None):
    """Freeze the burn-in W into a mass state.

    If W is not positive definite, keep running burn-in iterations (up to
    ``extra_cap``) until an accepted sample leaves behind an SPD W; fall
    back to the diagonal-shift repair when the cap is reached.  Returns
    (mass, state) since extra iterations may move the chain.
    """
    extra = 0
    while not is_spd(bfgs.w) and extra < extra_cap:
        state, info = qnp_burnin_iteration(state, logp_grad, eps, tau, rng,
                                           bfgs, jitter=jitter)
        extra += 1
        if record is not None:
            record(state, info)
    if is_spd(bfgs.w):
        w_pd, delta = bfgs.w, 0.0
    else:
        w_pd, delta = ensure_spd(bfgs.w)
    mass = MassState.from_w(w_pd, delta=delta, extra_iterations=extra)
    return mass, state
