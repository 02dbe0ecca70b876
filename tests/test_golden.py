"""Golden pins: fixed-seed runs reproduce their recorded chains bit for bit.

Each case runs ``run_astpa`` at the registry defaults of its benchmark (plus
the listed overrides) and compares p_hat, c_h, model calls, acceptance and
a SHA-256 of the burn-in and main-phase sample arrays with exact equality.
Any change to the draw order, the integrator arithmetic or the phase
sequence shows up here.  One Subset Simulation run pins the batched
evaluator path the same way, and each workload of the bench in
``perfbench/workloads.json`` pins the replication its warm-up runs.  The
d=100 cases rely on conftest pinning the BLAS threads to one.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rareprob import AstpaConfig, make_benchmark, run_astpa
from rareprob.benchmarks import resolve_spec
from rareprob.harness import ASTPA_METHODS, RunConfig, run_replication
from rareprob.sus import SusConfig, subset_simulation

# key: (problem, method, seed, config overrides)
CASES = {
    "ex1-hmcmc": ("example1", "hmcmc", 101, {}),
    "ex1-qnp": ("example1", "qnp-hmcmc", 102, {}),
    "ex2-hmcmc": ("example2", "hmcmc", 103, {}),
    "ex2-qnp": ("example2", "qnp-hmcmc", 104, {}),
    "ex8-qnp": ("example8", "qnp-hmcmc", 106, {}),
    "ex1-qnp-no-burnin": ("example1", "qnp-hmcmc", 108, {"n_burnin": 0}),
    "ex4-qnp": ("example4", "qnp-hmcmc", 105, {}),
}

# key: (p_hat, c_h, model_calls, accept_rate, sha256(main.theta), sha256(burnin.theta))
GOLDEN = {
    "ex1-hmcmc": (4.000877561669469e-06, 4.303776348842383e-05, 602, 0.7666666666666667,
        "342cef97300b39aec34fda1acbf50e7040137112c0a3c5b6b00b0aa48b4d98e9",
        "3c714a5f8601ed17a9f22ba614d49c15459f2f341afe8464960e54fda59b959f"),
    "ex1-qnp": (5.617333088678927e-06, 3.7912739531550715e-05, 600, 0.5479744136460555,
        "cfd90ee5756ad6eb7fef6f677cf08aa7c96bd12c7c3eb6b359e8291feab5de98",
        "b54eb8a675c0f7214b8ad14e64b46d826a2cf4172d70bc91010a801e8e0e45ee"),
    "ex2-hmcmc": (4.008787890552688e-05, 0.00015076286260933458, 3150, 0.4363699582753825,
        "09f8d86b0d241fcc231294eec8550d5ea06c31d6161d3f35eea9de333feebde6",
        "bdbaea8f87ca1d422476d5d045d261d9736b6f27bf53eb3bf8003cc7650b5408"),
    "ex2-qnp": (3.809470520364963e-05, 0.00015219133945383362, 3150, 0.5,
        "aa00d815a10f9535823b238b933b038bd89eb5c0906bbd9955e0aec9de5644a7",
        "834d0ca45313c8b03185ea807445e5036106a602cb4e9e9307eb09a8c1c8fcb5"),
    "ex8-qnp": (0.00014688230084625062, 0.0006851101179083038, 7200, 0.801689083515796,
        "d1ad8009e0c935dfdd0057e5c1d61b53ec64c0fa64efd0fde9e736e9158fc3cb",
        "7cfaf9b857885d24122474d7048057312226ce7d0d9d29541c9d7a6a0eba6bd9"),
    "ex1-qnp-no-burnin": (4.2231527006660275e-06, 3.758403222069484e-05, 600, 0.903448275862069,
        "61a9ce9d5a7aea1e5d30349a3229e11c9958a5bb74f80c1b84512d2894f1f63f",
        "d2d1867ab6d46407e898f30e2b919e8ecbb458d024d1459755bf2d8d01bebbc5"),
    "ex4-qnp": (0.002814888206539884, 0.01710254044110672, 2000, 0.8959687906371911,
        "aa4e7a76fef3397f2b13eaec4ddd399c26aeb5bae2dc2b143989495ae5c719af",
        "4a97c5070ddd0cb8881e302168bcbc4e8d3ba605a96c51edfbd1db191f6d80a0"),
}

# Subset Simulation on example9 (uniform proposal, registry n_s, seed 109):
# (p_hat, level thresholds, model_calls)
GOLDEN_SUS_EX9 = (0.0004770000000000001,
                  [0.02952805858761154, 0.013568282070188842, 0.0029851425378339957, 0.0],
                  7400)


def _sha(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden_run_is_bit_identical(key):
    problem, method, seed, overrides = CASES[key]
    spec = resolve_spec(problem)
    settings = dict(spec.astpa_defaults)
    settings.update(overrides)
    report, art = run_astpa(make_benchmark(spec), AstpaConfig(**settings), seed,
                            method=method)
    got = (report.p_hat, report.c_h, report.model_calls, report.accept_rate,
           _sha(art.main.theta), _sha(art.burnin.theta))
    assert got == GOLDEN[key]


def test_golden_subset_simulation_is_bit_identical():
    spec = resolve_spec("example9")
    result = subset_simulation(make_benchmark(spec),
                               SusConfig(proposal="uniform", **spec.sus_defaults), 109)
    assert (result.p_hat, result.thresholds, result.model_calls) == GOLDEN_SUS_EX9


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"

# bench workload: (p_hat as float hex, model calls) of its warm-up replication,
# run_replication(RunConfig(problem, method, master_seed=0), 10**9)
GOLDEN_BENCH = {
    "qnp-2d-bimodal": ("0x1.5c1cdb65f9cd1p-15", 3150),
    "qnp-100d-deformed": ("0x1.42fbe2ec7f14bp-13", 7200),
    "sus-102d-frame": ("0x1.89bd8383ad9f2p-12", 7400),
}


def _workloads():
    with open(WORKLOADS) as fh:
        return json.load(fh)["workloads"]


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_bench_workload_pins_its_warmup_replication(name):
    workload = _workloads()[name]
    problem, method = workload["problem"], workload["method"]
    spec = resolve_spec(problem)
    defaults = spec.astpa_defaults if method in ASTPA_METHODS else spec.sus_defaults
    assert workload["registry_defaults"] == defaults
    row = run_replication(RunConfig(problem, method, master_seed=0), 10 ** 9)
    assert (row["pf_hat"].hex(), row["model_calls"]) == GOLDEN_BENCH[name]


# the harness path of the other methods, pinned the same way:
# (problem, method) -> (p_hat as float hex, model calls) of
# run_replication(RunConfig(problem, method, master_seed=0), 10**9)
GOLDEN_METHODS = {
    ("example2", "hmcmc"): ("0x1.49aeb9cfff81fp-15", 3150),
    ("example9", "sus-normal"): ("0x1.101b003686a4ep-12", 7400),
    ("example4", "crude-mc"): ("0x1.1cb039ef0f16fp-9", 10 ** 6),
}


@pytest.mark.parametrize("problem,method", sorted(GOLDEN_METHODS))
def test_harness_replication_is_bit_identical(problem, method):
    row = run_replication(RunConfig(problem, method, master_seed=0), 10 ** 9)
    assert (row["pf_hat"].hex(), row["model_calls"]) == GOLDEN_METHODS[problem, method]
