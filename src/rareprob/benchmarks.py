"""The nine benchmark limit-state problems, with analytic gradients.

All problems live in standard normal space.  The two physical problems
(cantilever beam, multi-story frame) absorb the affine normal-to-standard
transform x = mu + sigma * theta into the evaluator, so the returned models
expose the same g(theta) interface as the synthetic ones.

Each g is written once, on x = theta.T, and serves both a point (the samplers)
and a batch of rows (Subset Simulation, crude Monte Carlo): see ``_model_fns``.

Each benchmark carries its reference failure probability (where one is
known), default sampler settings, and default Subset Simulation settings,
so the experiment harness can run any benchmark by id alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .model import BenchmarkSpec, LimitStateModel

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def _model_fns(f, d):
    """Adapt one shape-generic evaluator to the registry's (func, batch, dim).

    ``f(x)`` takes x = theta.T: a length-d point, or a (d, n) batch whose
    column j is row j of theta.  It returns g (a scalar, or a length-n array)
    and a zero-argument thunk for the gradient at a point.  Only the point
    path calls the thunk, so a batch pays for values alone.
    """
    def func(th):
        g, grad = f(th)
        return g, grad()

    def batch_value(ths):
        return f(ths.T)[0]

    return func, batch_value, d


def _ex1():
    # convex: 4 - (t1 + t2)/sqrt(2) + 2.5 (t1 - t2)^2
    def f(x):
        t = x[0] - x[1]
        g = 4.0 - (x[0] + x[1]) / SQRT2 + 2.5 * t * t
        return g, lambda: np.array([-1.0 / SQRT2 + 5.0 * t, -1.0 / SQRT2 - 5.0 * t])

    return _model_fns(f, 2)


def _ex2(r, kappa, e):
    # concave parabola: r - t2 - kappa (t1 - e)^2, two failure lobes
    def f(x):
        d1 = x[0] - e
        return r - x[1] - kappa * d1 * d1, lambda: np.array([-2.0 * kappa * d1, -1.0])

    return _model_fns(f, 2)


def _ex3():
    # quartic bimodal: 6.5 - (t1 + t2)/sqrt(2) - 2.5 t^2 + t^4, t = t1 - t2
    # far out on a divergent trajectory t ** 4 overflows: g is inf there
    @np.errstate(over="ignore", invalid="ignore")
    def grad(t):
        dt = -5.0 * t + 4.0 * t ** 3
        return np.array([-1.0 / SQRT2 + dt, -1.0 / SQRT2 - dt])

    @np.errstate(over="ignore", invalid="ignore")
    def f(x):
        t = x[0] - x[1]
        g = 6.5 - (x[0] + x[1]) / SQRT2 - 2.5 * t * t + t ** 4
        return g, lambda: grad(t)

    return _model_fns(f, 2)


def _ex4():
    # four-branch series system: two parabolic margins normal to the
    # (1, 1) diagonal plus two linear margins on the (1, -1) diagonal
    c = 7.0 / SQRT2
    r = 1.0 / SQRT2

    def f(x):
        t = x[0] - x[1]
        u = x[0] + x[1]
        vals = np.array((3.0 + 0.1 * t * t - u / SQRT2, 3.0 + 0.1 * t * t + u / SQRT2,
                         c + t, c - t))

        def grad():
            # the gradient of the active (smallest) branch
            return np.array(((0.2 * t - r, -0.2 * t - r), (0.2 * t + r, -0.2 * t + r),
                             (1.0, -1.0), (-1.0, 1.0))[int(np.argmin(vals))])

        return vals.min(axis=0), grad

    return _model_fns(f, 2)


def _ex5(y0):
    # cantilever tip deflection versus allowable value y0 (inches)
    e_mod, length, w, t = 30.0e6, 100.0, 2.0, 4.0
    mu_x, sd_x, mu_y, sd_y = 500.0, 100.0, 1000.0, 100.0
    c = 4.0 * length ** 3 / (e_mod * w * t)

    def f(x):
        a = (mu_y + sd_y * x[1]) / t ** 2
        b = (mu_x + sd_x * x[0]) / w ** 2
        r = np.hypot(a, b)
        return y0 - c * r, lambda: np.array([-c * (b / r) * (sd_x / w ** 2),
                                              -c * (a / r) * (sd_y / t ** 2)])

    return _model_fns(f, 2)


def _ex6(beta, d):
    # linear: beta - sum(theta)/sqrt(d); failure probability Phi(-beta) exactly
    s = 1.0 / math.sqrt(d)
    grad_const = np.full(d, -s)

    def f(x):
        return beta - s * x.sum(axis=0), grad_const.copy

    return _model_fns(f, d)


def _ex7(gamma, d):
    # linear plus one squared linear combination of the first gamma coords
    if not 2 <= gamma <= d:
        raise ConfigurationError(f"gamma must be in [2, d], got {gamma}")
    s = 1.0 / math.sqrt(d)
    v = np.zeros(d)
    v[0] = 1.0
    v[1:gamma] = -1.0

    def f(x):
        q = v @ x
        return 4.0 - s * x.sum(axis=0) + 2.5 * q * q, lambda: -s + 5.0 * q * v

    return _model_fns(f, d)


def _ex8(y0, gamma, delta, lam, d):
    # three stacked even powers on disjoint coordinate blocks
    for lo, hi, nm in ((2, gamma, "gamma"), (5, delta, "delta"), (8, lam, "lambda")):
        if not lo <= hi <= d:
            raise ConfigurationError(f"{nm} must be in [{lo}, d], got {hi}")
    s = 1.0 / math.sqrt(d)
    v1 = np.zeros(d); v1[0] = 1.0; v1[1:gamma] = -1.0
    v4 = np.zeros(d); v4[3] = 1.0; v4[4:delta] = -1.0
    v7 = np.zeros(d); v7[6] = 1.0; v7[7:lam] = -1.0

    # far out on a divergent trajectory q7 ** 8 overflows: g is inf there
    @np.errstate(over="ignore", invalid="ignore")
    def grad(q1, q4, q7):
        return -s + 5.0 * q1 * v1 + 4.0 * q4 ** 3 * v4 + 8.0 * q7 ** 7 * v7

    @np.errstate(over="ignore", invalid="ignore")
    def f(x):
        q1, q4, q7 = v1 @ x, v4 @ x, v7 @ x
        g = y0 - s * x.sum(axis=0) + 2.5 * q1 ** 2 + q4 ** 4 + q7 ** 8
        return g, lambda: grad(q1, q4, q7)

    return _model_fns(f, d)


def _ex9(y0):
    # 34-story shear frame: top displacement from closed-form interstory sums.
    # Loads F_i ~ N(2, 0.8) kN, stiffness pairs EI_k ~ N(20e3, 4e3) kN m^2.
    n_story = 34
    mu_f, sd_f = 2.0, 0.8
    mu_e, sd_e = 20_000.0, 4_000.0
    k = 4.0 ** 3 / 12.0  # H^3 / 12, H = 4 m
    d = 3 * n_story

    def f(x):
        loads = mu_f + sd_f * x[:n_story]
        ei = mu_e + sd_e * x[n_story:]
        s = np.cumsum(loads[::-1], axis=0)[::-1]  # s[i] = sum of loads at story i and above
        dd = ei[0::2] + ei[1::2]                  # stiffness pair sum per story

        # du_i/dF_j is nonzero for i <= j: prefix sums of 1/dd
        return y0 - (k * s / dd).sum(axis=0), lambda: np.concatenate(
            (-sd_f * np.cumsum(k / dd), np.repeat(sd_e * k * s / dd ** 2, 2)))

    return _model_fns(f, d)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# Per-benchmark defaults: likelihood dispersion, trajectory length, burn-in
# iterations, model-call budget for the preconditioned sampler, and samples
# per Subset Simulation level.
_REGISTRY = {
    "example1": {
        "factory": lambda p: _ex1(),
        "params": {},
        "refs": {(): 4.73e-6},
        "astpa": {"sigma": 0.4, "tau": 0.7, "n_burnin": 100, "budget": 600},
        "sus": {"n_s": 1000},
    },
    "example2": {
        "factory": lambda p: _ex2(p["r"], p["kappa"], p["e"]),
        "params": {"r": 6.0, "kappa": 0.3, "e": 0.1},
        "refs": {(6.0, 0.3, 0.1): 3.95e-5},
        "astpa": {"sigma": 0.7, "tau": 1.0, "n_burnin": 200, "budget": 3150},
        "sus": {"n_s": 1000},
    },
    "example3": {
        "factory": lambda p: _ex3(),
        "params": {},
        "refs": {(): 5.90e-8},
        "astpa": {"sigma": 0.5, "tau": 0.7, "n_burnin": 200, "budget": 4000},
        "sus": {"n_s": 1000},
    },
    "example4": {
        "factory": lambda p: _ex4(),
        "params": {},
        "refs": {(): 2.20e-3},
        "astpa": {"sigma": 0.8, "tau": 1.0, "n_burnin": 200, "budget": 2000},
        "sus": {"n_s": 1000},
    },
    "example5": {
        "factory": lambda p: _ex5(p["y0"]),
        "params": {"y0": 4.2},
        "refs": {(4.2,): 1.01e-6, (4.5,): 1.97e-8},
        "astpa": {"sigma": 0.2, "tau": 0.7, "n_burnin": 200, "budget": 2000},
        "sus": {"n_s": 1000},
    },
    "example6": {
        "factory": lambda p: _ex6(p["beta"], int(p["d"])),
        "params": {"beta": 4.0, "d": 100},
        "refs": {},  # analytic_reference: Phi(-beta) exactly
        "astpa": {"sigma": 0.4, "tau": 0.7, "n_burnin": 500, "budget": 6000},
        "sus": {"n_s": 1000},
    },
    "example7": {
        "factory": lambda p: _ex7(int(p["gamma"]), int(p["d"])),
        "params": {"gamma": 2, "d": 100},
        "refs": {
            (2, 100): 4.73e-6,
            (5, 100): 2.54e-6,
            (8, 100): 1.57e-6,
            (10, 100): 1.15e-6,
        },
        "astpa": {"sigma": 0.4, "tau": 0.7, "n_burnin": 500, "budget": 8000},
        "sus": {"n_s": 2000},
    },
    "example8": {
        "factory": lambda p: _ex8(p["y0"], int(p["gamma"]), int(p["delta"]),
                                  int(p["lambda"]), int(p["d"])),
        "params": {"y0": 2.4, "gamma": 3, "delta": 6, "lambda": 9, "d": 100},
        "refs": {
            (2.4, 3, 6, 9, 100): 1.30e-4,
            (3.0, 3, 6, 9, 100): 1.85e-5,
            (4.0, 3, 6, 9, 100): 3.50e-7,
        },
        "astpa": {"sigma": 0.5, "tau": 0.7, "n_burnin": 500, "budget": 7200},
        "sus": {"n_s": 2000},
    },
    "example9": {
        "factory": lambda p: _ex9(p["y0"]),
        "params": {"y0": 0.21},
        "refs": {
            (0.21,): 3.47e-4,
            (0.22,): 2.48e-5,
            (0.23,): 1.26e-6,
            (0.235,): 2.56e-7,
        },
        "astpa": {"sigma": 0.4, "tau": 0.7, "n_burnin": 500, "budget": 6100},
        "sus": {"n_s": 2000},
    },
}

_USER_REGISTRY = {}


def benchmark_ids():
    return sorted(_REGISTRY) + sorted(_USER_REGISTRY)


def register_model(name, dim, func, batch_value=None, p_f_ref=None,
                   astpa_defaults=None, sus_defaults=None):
    """Register a user-defined limit-state problem under the benchmark interface.

    ``func(theta)`` returns a scalar g and a grad of shape (dim,); ``batch_value``
    maps an (n, dim) array to g of shape (n,).  Both are checked per call.
    """
    if name in _REGISTRY or name in _USER_REGISTRY:
        raise ConfigurationError(f"benchmark id already registered: {name}")
    _USER_REGISTRY[name] = {
        "factory": lambda p: (func, batch_value, dim),
        "params": {},
        "refs": {(): p_f_ref} if p_f_ref is not None else {},
        "astpa": dict(astpa_defaults or {}),
        "sus": dict(sus_defaults or {}),
    }


def resolve_spec(benchmark_id, **overrides):
    """Build the BenchmarkSpec for an id plus parameter overrides.

    Parameter combinations outside the tabulated sets are allowed but carry
    no reference probability.
    """
    entry = _REGISTRY.get(benchmark_id) or _USER_REGISTRY.get(benchmark_id)
    if entry is None:
        raise ConfigurationError(
            f"unknown benchmark id: {benchmark_id!r} (known: {', '.join(benchmark_ids())})"
        )
    params = dict(entry["params"])
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in params:
            raise ConfigurationError(f"{benchmark_id} has no parameter {key!r}")
        try:
            params[key] = type(params[key])(val)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"invalid value for {benchmark_id}.{key}: {val!r}") from exc

    key = tuple(params[k] for k in entry["params"])
    ref = analytic_reference(benchmark_id, params)
    source = "analytic" if ref is not None else "none"
    if ref is None and key in entry["refs"]:
        ref = entry["refs"][key]
        source = "tabulated"
    return BenchmarkSpec(
        benchmark_id=benchmark_id,
        params=params,
        p_f_ref=ref,
        ref_source=source,
        astpa_defaults=dict(entry["astpa"]),
        sus_defaults=dict(entry["sus"]),
    )


def make_benchmark(spec_or_id, **overrides):
    """Instantiate a LimitStateModel (fresh call counter) from a spec or id."""
    if isinstance(spec_or_id, BenchmarkSpec):
        spec = spec_or_id
    else:
        spec = resolve_spec(spec_or_id, **overrides)
    entry = _REGISTRY.get(spec.benchmark_id) or _USER_REGISTRY.get(spec.benchmark_id)
    func, batch, dim = entry["factory"](spec.params)
    model = LimitStateModel(spec.benchmark_id, dim, func, batch_value=batch)
    model.p_f_ref = spec.p_f_ref
    return model


def analytic_reference(benchmark_id, params=None):
    """Closed-form failure probability where one exists (the linear problem)."""
    if benchmark_id == "example6":
        beta = (params or {}).get("beta", _REGISTRY["example6"]["params"]["beta"])
        return 0.5 * math.erfc(beta / SQRT2)
    return None
