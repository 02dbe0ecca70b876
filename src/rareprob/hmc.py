"""Hamiltonian MCMC: leapfrog integration, Metropolis step, step-size and
trajectory-length tuning.

One integrator and one transition serve the plain sampler and both phases
of the quasi-Newton preconditioned variant.  The only difference between
them is the kinetics, which ``draw_momentum`` returns as one tuple: the
momentum draw, the kinetic energy, and the velocity and force maps that the
leapfrog applies to the momentum and gradient (identity for the plain
sampler, the BFGS matrix B on both during preconditioned burn-in, M^-1 on
the velocity under a frozen mass M).  Random draws always happen in the
same order (trajectory jitter, momentum, accept uniform), so two samplers
fed the same generator and equivalent settings produce identical chains.

No chain array is ever written in place: every position, momentum and
gradient update binds a new array, and the start position is used as given.
A state's theta never changes once created, so recording a chain needs no
copy.  The per-step code keeps the floating-point operations of the plain
forms and only trims call overhead: ``0.5 * eps`` is formed once per
trajectory, products use ``ndarray.dot`` (the BLAS call behind ``@``, with
less dispatch) and finiteness checks count finite entries instead of
calling ``ndarray.all``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TuningError

LOG_HALF = math.log(0.5)
LOG2 = math.log(2.0)
MAX_DELTA_H = 1000.0        # an energy error beyond this counts as divergent
MAX_LEAPFROG_STEPS = 30     # cost guard on every trajectory, in every phase
MAX_DOUBLINGS = 60          # step-size search trials after the first
JITTER_LO, JITTER_HI = 0.9, 1.1   # trajectory-length jitter, as fractions of tau


@dataclass
class ChainState:
    """Position with its cached log-density, gradient and model response."""

    theta: np.ndarray
    logp: float
    grad: np.ndarray
    aux: tuple | None = None      # (g, grad_g) for smoothed targets


def trajectory_discretization(tau_m, eps):
    """Step count and effective step size for one trajectory.

    The step count follows max(1, round(tau/eps)) with the tuned step size
    taken literally, so a step size settling above the trajectory length
    still yields the single full-size jump that mixing wants, and it never
    exceeds ``MAX_LEAPFROG_STEPS``.  The step is only clamped at twice the
    trajectory length: past that point the rounding floor would otherwise
    decouple the move size from tau entirely (a near-zero trajectory length
    must produce a near-zero move).
    """
    eps_eff = min(eps, 2.0 * tau_m)
    n = max(1, int(round(tau_m / eps_eff)))
    return min(n, MAX_LEAPFROG_STEPS), eps_eff


def jitter_tau(tau, rng):
    """Uniform perturbation of the trajectory length to break periodicity."""
    return rng.uniform(JITTER_LO * tau, JITTER_HI * tau)


def leapfrog(theta, z, grad, eps, n_steps, logp_grad, velocity=None, force=None,
             on_step=None):
    """Leapfrog integration: n_steps symmetric steps, one model call each.

    Momentum gains (eps/2) force(grad) per half step and position gains
    eps velocity(z); either map is the identity when None.  ``on_step``
    receives the (theta, grad) displacements of every completed step.
    Returns the final (theta, z, logp, grad, aux) plus a finite-ness flag.
    """
    theta = np.asarray(theta, dtype=float)
    z = np.asarray(z, dtype=float)
    half = 0.5 * eps
    logp = None
    aux = None
    for _ in range(n_steps):
        theta_prev, grad_prev = theta, grad
        z = z + half * (grad if force is None else force(grad))
        theta = theta + eps * (z if velocity is None else velocity(z))
        if np.count_nonzero(np.isfinite(theta)) < theta.size:
            return theta, z, -math.inf, grad, aux, False
        logp, grad, aux = logp_grad(theta)
        if not math.isfinite(logp) or np.count_nonzero(np.isfinite(grad)) < grad.size:
            return theta, z, logp, grad, aux, False
        z = z + half * (grad if force is None else force(grad))
        if on_step is not None:
            on_step(theta - theta_prev, grad - grad_prev)
    return theta, z, logp, grad, aux, True


# the kinetic energy of a runaway momentum may overflow; the non-finite
# delta_h that follows counts it as a divergence
@np.errstate(over="ignore")
def _hamiltonian(logp, kinetic, z):
    return -logp + kinetic(z)


def _unit_kinetic(z):
    return 0.5 * float(z.dot(z))


def draw_momentum(rng, d, mass=None, b_matrix=None):
    """Momentum draw and its kinetics: (z0, kinetic, velocity, force).

    Plain: z0 ~ N(0, I), kinetic 0.5 z'z, identity maps.  Burn-in
    (``b_matrix``): the same momentum and kinetic, with v -> B v as both the
    velocity and the force map.  Mass: z0 ~ N(0, M), kinetic 0.5 z' M^-1 z,
    velocity M^-1 z.
    """
    if mass is not None and b_matrix is None:
        return mass.sample_momentum(rng), mass.kinetic, mass.velocity, None
    z0 = rng.standard_normal(d)
    if b_matrix is None:
        return z0, _unit_kinetic, None, None
    apply_b = b_matrix.dot
    return z0, _unit_kinetic, apply_b, apply_b


def hmc_transition(state, logp_grad, eps, n_steps, rng, *, mass=None,
                   b_matrix=None, on_step=None):
    """One momentum-resample / integrate / Metropolis step.

    ``mass`` and ``b_matrix`` select the kinetics (see draw_momentum).
    Returns (new_state, info) where info carries accepted/alpha/diverged.
    """
    z0, kinetic, velocity, force = draw_momentum(rng, state.theta.size, mass,
                                                 b_matrix)
    h0 = -state.logp + kinetic(z0)
    theta, z, logp, grad, aux, ok = leapfrog(
        state.theta, z0, state.grad, eps, n_steps, logp_grad, velocity, force,
        on_step)

    diverged = not ok
    alpha = 0.0
    if ok:
        delta_h = _hamiltonian(logp, kinetic, z) - h0
        diverged = not math.isfinite(delta_h) or abs(delta_h) > MAX_DELTA_H
        if not diverged:
            alpha = min(1.0, math.exp(min(0.0, -delta_h)))

    u = rng.uniform()  # always drawn, keeps streams aligned across variants
    accepted = (not diverged) and (u < alpha)
    new_state = ChainState(theta, logp, grad, aux) if accepted else state
    info = {"accepted": accepted, "alpha": alpha, "diverged": diverged,
            "n_steps": n_steps}
    return new_state, info


def hmc_iteration(state, target_logp_grad, eps, tau, rng, mass=None):
    """Full iteration: jittered trajectory length, then one transition."""
    n_steps, eps_eff = trajectory_discretization(jitter_tau(tau, rng), eps)
    return hmc_transition(state, target_logp_grad, eps_eff, n_steps, rng, mass=mass)


# ---------------------------------------------------------------------------
# step-size adaptation
# ---------------------------------------------------------------------------

@dataclass
class DualAveraging:
    """Burn-in step-size controller driving acceptance toward a target rate.

    The running statistic pulls log(eps) around the anchor mu; the averaged
    iterate is the frozen step size used after burn-in.  Hyperparameters are
    the published defaults of the scheme (gamma=0.05, t0=10, kappa=0.75).
    """

    GAMMA = 0.05
    T0 = 10.0
    KAPPA = 0.75
    TARGET_ACCEPT = 0.65  # acceptance rate of the generic guidance
    ANCHOR_SCALE = 10.0   # anchor at log(ANCHOR_SCALE * eps0)
    eps0: float
    mu: float = field(init=False)
    log_eps: float = field(init=False)
    log_eps_bar: float = field(init=False)
    h_bar: float = field(init=False, default=0.0)
    t: int = field(init=False, default=0)

    def __post_init__(self):
        self.mu = math.log(self.ANCHOR_SCALE * self.eps0)
        self.log_eps = math.log(self.eps0)
        self.log_eps_bar = math.log(self.eps0)

    def update(self, accept_prob):
        """Feed one acceptance probability; returns the next step size."""
        self.t += 1
        m = self.t
        eta = 1.0 / (m + self.T0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.TARGET_ACCEPT - accept_prob)
        self.log_eps = self.mu - math.sqrt(m) / self.GAMMA * self.h_bar
        w = m ** (-self.KAPPA)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    @property
    def current_eps(self):
        return math.exp(self.log_eps)

    @property
    def frozen_eps(self):
        """Averaged step size, used unchanged after burn-in."""
        return math.exp(self.log_eps_bar)


def find_reasonable_epsilon(state, logp_grad, rng, mass=None):
    """Doubling/halving search for a step size with joint-density ratio ~ 1/2.

    One leapfrog step per trial, so one model call per trial.
    """
    z0, kinetic, velocity, _ = draw_momentum(rng, state.theta.size, mass)
    h0 = -state.logp + kinetic(z0)

    def log_ratio(eps):
        _, z, logp, _, _, ok = leapfrog(state.theta, z0, state.grad, eps, 1,
                                        logp_grad, velocity)
        if not ok:
            return -math.inf
        r = -(-logp + kinetic(z)) + h0
        return r if math.isfinite(r) else -math.inf

    eps = 1.0
    r = log_ratio(eps)
    while not math.isfinite(r) and eps > 1e-8:
        eps *= 0.5
        r = log_ratio(eps)
    a = 1.0 if r > LOG_HALF else -1.0
    for _ in range(MAX_DOUBLINGS):
        if not (a * r > -a * LOG2):
            break
        eps *= 2.0 ** a
        if not 1e-8 < eps < 1e4:
            break
        r = log_ratio(eps)
        if not math.isfinite(r):
            if a > 0:
                eps *= 0.5
                break
            continue
    return eps


# ---------------------------------------------------------------------------
# trajectory-length selection
# ---------------------------------------------------------------------------

def tune_trajectory(target, candidate_taus, pilot_iters, seed):
    """Pick the trajectory length maximizing the normalized expected square
    jumping distance, mean ||theta_{m+1} - theta_m||^2 / sqrt(tau).

    Runs a fresh dual-averaging pilot chain from the origin per candidate,
    under the run's ``MAX_LEAPFROG_STEPS`` cap (``target`` needs ``d`` and
    ``logp_grad``); ties break toward the smaller (cheaper) candidate.
    Returns (tau, eps), eps being the frozen step size of the winning pilot.
    """
    candidates = sorted(set(float(t) for t in candidate_taus))
    if not candidates:
        raise TuningError("empty trajectory candidate list")

    best = None
    best_esjd = -math.inf
    ss = np.random.SeedSequence(seed)
    for tau, child in zip(candidates, ss.spawn(len(candidates))):
        rng = np.random.default_rng(child)
        th0 = np.zeros(target.d)
        logp, grad, aux = target.logp_grad(th0)
        state = ChainState(theta=th0, logp=logp, grad=grad, aux=aux)
        da = DualAveraging(find_reasonable_epsilon(state, target.logp_grad, rng))
        eps = da.current_eps
        total = 0.0
        n_ok = 0
        for _ in range(pilot_iters):
            prev = state.theta
            state, info = hmc_iteration(state, target.logp_grad, eps, tau, rng)
            eps = da.update(info["alpha"])
            if not info["diverged"]:
                n_ok += 1
                jump = state.theta - prev
                total += float(jump @ jump)
        if n_ok == 0:
            continue
        esjd = (total / pilot_iters) / math.sqrt(tau)
        if esjd > best_esjd:
            best_esjd = esjd
            best = (tau, da.frozen_eps)
    if best is None:
        raise TuningError("all trajectory candidates diverged")
    return best
