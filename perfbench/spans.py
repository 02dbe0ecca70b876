"""In-memory span recorder for the traced benchmark run.

Wrappers are installed around public rareprob functions at the names their
callers resolve at call time, and removed again afterwards, so the untraced
code path is never touched.  Every span records its name, start, end, the
replication it belongs to and the span that was open when it started.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time

import numpy as np

# spans whose union is the density fit, and the estimator proper
FIT_SPANS = ("iis.fit_gmm", "iis.fit_subspace_density", "iis.fit_single_gaussian",
             "iis.add_defensive_component", "iis.deformed_subspace")
ESTIMATOR_SPANS = ("iis.normalizing_constant", "iis.estimate_pf", "iis.cov_analytic",
                   "iis.estimate_thinning_lag", "iis.choose_thinning")
MODEL_SPANS = ("model.evaluate", "model.evaluate_batch")


class Recorder:
    """Flat span store; parent links form the call tree."""

    def __init__(self):
        self.name_ids = {}
        self.name = []
        self.parent = []
        self.rep = []
        self.start = []
        self.end = []
        self.stack = [-1]
        self.current_rep = -1
        self.extra = {}          # span id -> value captured from the result

    def open(self, name):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.rep.append(self.current_rep)
        self.end.append(math.nan)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, name, fn, capture=None):
        """Span around ``fn``; ``capture(result)`` keeps one value per span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if capture is not None:
                self.extra[sid] = capture(result)
            return result

        return wrapper

    def arrays(self):
        names = np.empty(len(self.name_ids), dtype=object)
        for name, nid in self.name_ids.items():
            names[nid] = name
        return {"names": names.astype(str), "name": np.asarray(self.name, np.int32),
                "parent": np.asarray(self.parent, np.int64),
                "rep": np.asarray(self.rep, np.int64),
                "start": np.asarray(self.start), "end": np.asarray(self.end)}

    def save(self, path):
        np.savez(path, **self.arrays())


# values kept from a span's result, for the run-level counts
CAPTURES = {
    "iis.fit_gmm": lambda r: r.n_components,
    "hmc.transition": lambda r: r[1]["n_steps"],
    "qnp.bfgs_update": lambda r: r is not None,
    "model.evaluate_batch": len,
    "harness.run_astpa": lambda r: r,
    "harness.subset_simulation": lambda r: r,
}


def _targets(rp):
    """(owner, attribute, span name) for every traced boundary."""
    out = [(rp.pipeline, n, f"pipeline.{n}")
           for n in ("qnp_burnin_iteration", "qnp_main_iteration", "hmc_iteration",
                     "finalize_mass", "find_reasonable_epsilon")]
    out += [(rp.iis, n.split(".", 1)[1], n) for n in FIT_SPANS + ESTIMATOR_SPANS]
    return out + [
        (rp.qnp, "hmc_transition", "hmc.transition"),
        (rp.qnp, "bfgs_update", "qnp.bfgs_update"),
        (rp.qnp.BfgsState, "restore", "qnp.bfgs.restore"),
        (rp.model.LimitStateModel, "evaluate", "model.evaluate"),
        (rp.model.LimitStateModel, "evaluate_batch", "model.evaluate_batch"),
        (rp.target.SmoothedTarget, "logp_grad", "target.logp_grad"),
        (rp.harness, "run_astpa", "harness.run_astpa"),
        (rp.harness, "subset_simulation", "harness.subset_simulation"),
    ]


@contextlib.contextmanager
def installed(recorder, rp):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in _targets(rp):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, CAPTURES.get(name)))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _ratio_ess_frac(main, q):
    """ESS of the h~/Q ratios over the main samples, as a share of n."""
    log_w = main.log_h - q.log_density(main.theta)
    log_w = log_w - log_w.max()
    w = np.exp(log_w)
    return float(w.sum() ** 2 / (w ** 2).sum()) / main.n


def layer_metrics(rec, budget, untraced_wall, traced_wall):
    """Per-layer metrics from the spans of the traced replications.

    Counts and times are means per traced replication, ``us`` figures are
    per call unless named otherwise, and shares are taken over the summed
    traced replication wall time; ``untraced_wall`` and ``traced_wall`` are
    the summed times of the same replications run without and with spans.
    Returns (metrics, number of model calls made inside the IIS stage).
    """
    a = rec.arrays()
    names = list(a["names"])
    nid = {n: i for i, n in enumerate(names)}
    name, parent, rep = a["name"], a["parent"], a["rep"]
    start, end = a["start"], a["end"]
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    def mask(*span_names):
        ids = [nid[n] for n in span_names if n in nid]
        return np.isin(name, ids)

    roots = mask("replication")
    n_reps = int(roots.sum())
    wall = float(dur[roots].sum())

    # a span is inside the IIS stage when it or an ancestor is an IIS span
    iis_ids = {nid[n] for n in FIT_SPANS + ESTIMATOR_SPANS if n in nid}
    inside = np.zeros(name.size, dtype=bool)
    for sid in range(name.size):   # parents always precede their children
        inside[sid] = name[sid] in iis_ids or (parent[sid] >= 0 and inside[parent[sid]])
    violations = int((mask(*MODEL_SPANS) & inside).sum())

    def top_level(span_names):
        m = mask(*span_names)
        return m & ~np.isin(parent, np.where(m)[0])

    def per_rep(m):
        return float(m.sum()) / n_reps

    def extra_values(span_name):
        ids = np.where(mask(span_name))[0]
        return [rec.extra[i] for i in ids if i in rec.extra]

    ev = mask("model.evaluate")
    evb = mask("model.evaluate_batch")
    lg = mask("target.logp_grad")
    tr = mask("hmc.transition")
    bf = mask("qnp.bfgs_update")
    steps = sum(extra_values("hmc.transition"))
    applied = extra_values("qnp.bfgs_update")
    batch_rows = sum(extra_values("model.evaluate_batch"))
    fit_top = top_level(FIT_SPANS)
    est_top = top_level(ESTIMATOR_SPANS)

    def mean_us(m, times=dur):
        return float(times[m].sum()) / max(int(m.sum()), 1) * 1e6

    def share(m, times=dur):
        return float(times[m].sum()) / wall

    m = {
        "model.evaluate.calls": per_rep(ev),
        "model.evaluate.us": mean_us(ev),
        "model.evaluate.share": share(ev),
        "model.evaluate_batch.rows": batch_rows / n_reps,
        "model.evaluate_batch.us_per_row": float(dur[evb].sum()) / max(batch_rows, 1) * 1e6,
        "model.evaluate_batch.share": share(evb),
        "target.logp_grad.us": mean_us(lg, self_t),
        "target.logp_grad.share": share(lg, self_t),
        "hmc.transition.self_us_per_step": float(self_t[tr].sum()) / max(steps, 1) * 1e6,
        "hmc.leapfrog_steps": steps / n_reps,
        "hmc.step_search.calls": per_rep(mask("pipeline.find_reasonable_epsilon")),
        "qnp.bfgs_update.calls": per_rep(bf),
        "qnp.bfgs_update.us": mean_us(bf),
        "qnp.bfgs_update.share": share(bf),
        "qnp.bfgs.applied_frac": (sum(applied) / len(applied)) if applied else 0.0,
        "qnp.bfgs.rollbacks": per_rep(mask("qnp.bfgs.restore")),
        "qnp.finalize_mass.us": float(dur[mask("pipeline.finalize_mass")].sum()) / n_reps * 1e6,
        "iis.fit.us": float(dur[fit_top].sum()) / n_reps * 1e6,
        "iis.fit.share": share(fit_top),
        "iis.fit_gmm.calls": per_rep(mask("iis.fit_gmm")),
        "iis.deformed_subspace.us": float(dur[mask("iis.deformed_subspace")].sum()) / n_reps * 1e6,
        "iis.normalizing_constant.us": float(dur[mask("iis.normalizing_constant")].sum()) / n_reps * 1e6,
        "iis.estimator.share": share(est_top),
    }

    # run-level counts come from what run_astpa / subset_simulation returned
    astpa = extra_values("harness.run_astpa")
    sus = extra_values("harness.subset_simulation")
    acc = {k: 0.0 for k in (
        "hmc.accept_rate", "hmc.divergences", "qnp.spd_extra_iters", "qnp.spd_shift",
        "pipeline.main.samples", "pipeline.budget_overshoot", "iis.chosen_k",
        "iis.subspace_dim", "iis.ratio_ess_frac", "iis.fail_frac", "iis.thinning_lag")}
    for report, art in astpa:
        q = art.importance_density
        acc["hmc.accept_rate"] += report.accept_rate
        acc["hmc.divergences"] += art.diverged
        acc["qnp.spd_extra_iters"] += art.mass.extra_iterations if art.mass else 0
        acc["qnp.spd_shift"] += art.mass.delta if art.mass else 0.0
        acc["pipeline.main.samples"] += art.main.n
        acc["pipeline.budget_overshoot"] += report.model_calls - (budget or report.model_calls)
        acc["iis.subspace_dim"] += q.basis.shape[1] if hasattr(q, "basis") else art.main.d
        acc["iis.ratio_ess_frac"] += _ratio_ess_frac(art.main, q)
        acc["iis.fail_frac"] += float(art.main.is_failure.mean())
        acc["iis.thinning_lag"] += report.thinning_lag
    # chosen K: the BIC winner of the last mixture fit of each replication
    gmm = mask("iis.fit_gmm")
    for r in rep[roots]:
        ids = np.where(gmm & (rep == r))[0]
        if ids.size:
            acc["iis.chosen_k"] += rec.extra[int(ids[-1])]
        elif astpa:
            acc["iis.chosen_k"] += 1
    m.update({k: v / n_reps for k, v in acc.items()})

    m.update(_phase_metrics(a, nid, dur, ev, wall, n_reps))

    levels = sum(r.n_levels for r in sus)
    m["sus.levels"] = levels / n_reps
    m["sus.calls_per_level"] = (sum(r.model_calls for r in sus) / levels) if levels else 0.0
    m["sus.bookkeeping.share"] = share(mask("harness.subset_simulation"), self_t)

    inner = mask("harness.run_astpa", "harness.subset_simulation")
    overhead = wall - float(dur[inner].sum())
    m["harness.overhead_ms"] = overhead / n_reps * 1e3
    m["harness.overhead.share"] = overhead / wall
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m, violations


def _phase_metrics(a, nid, dur, ev, wall, n_reps):
    """Burn-in, calibration and main phase as contiguous time segments.

    Burn-in runs from the start of run_astpa to the end of finalize_mass;
    calibration is the first max(10, min(50, n_burnin // 5)) main-kernel
    iterations after it; the main phase ends with the last main iteration.
    """
    name, rep, start, end = a["name"], a["rep"], a["start"], a["end"]
    out = {f"pipeline.{p}.{k}": 0.0 for p in ("burnin", "calibration", "main")
           for k in ("share", "calls")}
    if "harness.run_astpa" not in nid or "pipeline.finalize_mass" not in nid:
        return out
    ev_start, ev_rep = start[ev], rep[ev]
    for r in np.unique(rep[name == nid["harness.run_astpa"]]):
        in_rep = rep == r
        run = np.where(in_rep & (name == nid["harness.run_astpa"]))[0][0]
        fin_end = end[np.where(in_rep & (name == nid["pipeline.finalize_mass"]))[0][0]]
        n_burnin = int((in_rep & (name == nid.get("pipeline.qnp_burnin_iteration", -1))).sum())
        mains = np.where(in_rep & (name == nid.get("pipeline.qnp_main_iteration", -1))
                         & (start >= fin_end))[0]
        n_cal = min(max(10, min(50, n_burnin // 5)), mains.size)
        cal_end = end[mains[n_cal - 1]] if n_cal else fin_end
        main_end = end[mains[-1]] if mains.size else cal_end
        bounds = {"burnin": (start[run], fin_end), "calibration": (fin_end, cal_end),
                  "main": (cal_end, main_end)}
        rep_ev = ev_start[ev_rep == r]
        for phase, (lo, hi) in bounds.items():
            out[f"pipeline.{phase}.share"] += (hi - lo) / wall
            out[f"pipeline.{phase}.calls"] += float(((rep_ev >= lo) & (rep_ev < hi)).sum())
    for phase in ("burnin", "calibration", "main"):
        out[f"pipeline.{phase}.calls"] /= n_reps
    return out
