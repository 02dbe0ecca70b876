import math
import threading
import warnings

import numpy as np
import pytest

import rareprob
from rareprob import (ConfigurationError, DimensionError, InvalidInputError,
                      LimitStateModel, McConfig, benchmark_ids,
                      crude_monte_carlo, finite_difference_gradient,
                      make_benchmark, resolve_spec)
from rareprob.benchmarks import analytic_reference

from conftest import make_constant_model

ALL_SPECS = [
    ("example1", {}),
    ("example2", {}),
    ("example3", {}),
    ("example4", {}),
    ("example5", {"y0": 4.2}),
    ("example5", {"y0": 4.5}),
    ("example6", {}),
    ("example7", {}),
    ("example8", {}),
    ("example9", {}),
]


def test_example1_at_origin():
    model = make_benchmark("example1")
    g, grad = model.evaluate(np.zeros(2))
    assert g == 4.0
    np.testing.assert_allclose(grad, [-1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_example6_at_origin():
    model = make_benchmark("example6", beta=4, d=100)
    g, grad = model.evaluate(np.zeros(100))
    assert g == 4.0
    np.testing.assert_allclose(grad, np.full(100, -0.1))


def test_example2_hand_value():
    model = make_benchmark("example2")  # r=6, kappa=0.3, e=0.1
    g, _ = model.evaluate(np.array([0.1, 6.0]))
    assert g == pytest.approx(0.0, abs=1e-14)


def test_evaluate_errors():
    model = make_benchmark("example1")
    with pytest.raises(DimensionError):
        model.evaluate(np.zeros(3))
    with pytest.raises(InvalidInputError):
        model.evaluate(np.array([0.0, math.nan]))
    with pytest.raises(InvalidInputError):
        model.evaluate(np.array([math.inf, 0.0]))


def test_call_count_matches_independent_counter():
    model = make_benchmark("example3")
    inner = model._func
    counter = {"n": 0}

    def wrapped(theta):
        counter["n"] += 1
        return inner(theta)

    model._func = wrapped
    model._batch_value = None   # route the batch through the wrapped evaluator
    rng = np.random.default_rng(0)
    for _ in range(37):
        model.evaluate(rng.standard_normal(2))
    model.evaluate_batch(rng.standard_normal((11, 2)))
    assert model.call_count == counter["n"] == 48


def test_call_count_thread_safe():
    model = make_constant_model(1.0, dim=2)
    theta = np.zeros(2)

    def work():
        for _ in range(500):
            model.evaluate(theta)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert model.call_count == 2000


def test_evaluator_deterministic():
    model = make_benchmark("example9")
    theta = np.random.default_rng(5).standard_normal(model.dim)
    g1, grad1 = model.evaluate(theta)
    g2, grad2 = model.evaluate(theta)
    assert g1 == g2
    assert np.array_equal(grad1, grad2)


@pytest.mark.parametrize("benchmark_id,params", ALL_SPECS)
def test_gradient_matches_finite_differences(benchmark_id, params):
    model = make_benchmark(benchmark_id, **params)
    rng = np.random.default_rng(42)
    for _ in range(100):
        theta = rng.standard_normal(model.dim)
        _, grad = model.evaluate(theta)
        fd = finite_difference_gradient(model, theta)
        scale = max(np.linalg.norm(grad), 1e-8)
        assert np.linalg.norm(grad - fd) <= 1e-5 * scale


def test_batch_matches_single():
    # 1 row and a square d x d batch are the layouts where a swapped row and
    # column index in a batch evaluator would still run
    for benchmark_id, params in ALL_SPECS:
        model = make_benchmark(benchmark_id, **params)
        rng = np.random.default_rng(3)
        for n in (16, 1, model.dim):
            thetas = rng.standard_normal((n, model.dim))
            batch = model.evaluate_batch(thetas)
            singles = np.array([model.evaluate(row)[0] for row in thetas])
            np.testing.assert_allclose(batch, singles, rtol=1e-12)


def test_evaluate_rejects_malformed_model_output():
    column_grad = LimitStateModel("column-grad", 2,
                                  lambda th: (1.0, np.zeros((2, 1))))
    with pytest.raises(DimensionError, match="column-grad"):
        column_grad.evaluate(np.zeros(2))
    vector_g = LimitStateModel("vector-g", 2, lambda th: (np.ones(2), np.zeros(2)))
    with pytest.raises(DimensionError, match="vector-g"):
        vector_g.evaluate(np.zeros(2))


def test_evaluate_batch_rejects_wrong_number_of_values():
    short = LimitStateModel("short-batch", 2, lambda th: (1.0, np.zeros(2)),
                            batch_value=lambda ths: np.ones(1))
    with pytest.raises(DimensionError, match="short-batch"):
        short.evaluate_batch(np.zeros((5, 2)))


@pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
@pytest.mark.parametrize("problem, theta", [
    ("example8", 1e50 * np.eye(100)[6]),     # q7 ** 8 overflows
    ("example3", np.array([1e80, -1e80])),   # t ** 4 overflows
], ids=["example8", "example3"])
def test_divergent_point_is_inf_without_warning(problem, theta, batch):
    # a runaway trajectory reaches a point where an even power overflows
    model = make_benchmark(problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if batch:
            g = model.evaluate_batch(theta[None, :])[0]
        else:
            g, _ = model.evaluate(theta)
    assert g == math.inf


def test_registry_references():
    assert resolve_spec("example4").p_f_ref == pytest.approx(2.20e-3)
    assert resolve_spec("example9", y0=0.21).p_f_ref == pytest.approx(3.47e-4)
    spec6 = resolve_spec("example6", beta=4, d=100)
    assert spec6.p_f_ref == pytest.approx(3.17e-5, rel=2e-3)
    assert spec6.ref_source == "analytic"
    # outside the tabulated sets: allowed, but reference-free
    assert resolve_spec("example7", gamma=4).p_f_ref is None
    model9 = make_benchmark("example9", y0=0.21)
    assert model9.dim == 102


def test_unknown_benchmark_and_param():
    with pytest.raises(ConfigurationError):
        resolve_spec("example99")
    with pytest.raises(ConfigurationError):
        resolve_spec("example1", beta=4)


def test_register_user_model():
    name = "user-always-fails"
    if name not in benchmark_ids():
        rareprob.register_model(
            name, 2, lambda th: (-1.0, np.zeros(2)),
            batch_value=lambda ths: np.full(ths.shape[0], -1.0), p_f_ref=1.0)
    model = make_benchmark(name)
    assert model.evaluate(np.zeros(2))[0] == -1.0
    with pytest.raises(ConfigurationError):
        rareprob.register_model(name, 2, lambda th: (0.0, np.zeros(2)))


def test_crude_mc_trivial():
    always = make_constant_model(-1.0)
    est = crude_monte_carlo(always, McConfig(1000, force=True), seed=1)
    assert est.p_hat == 1.0
    never = make_constant_model(1.0)
    est = crude_monte_carlo(never, McConfig(1000, force=True), seed=1)
    assert est.p_hat == 0.0
    assert est.cov == math.inf


def test_crude_mc_example4_reference():
    model = make_benchmark("example4")
    n = 10 ** 7
    est = crude_monte_carlo(model, McConfig(n), seed=123)
    ref = 2.20e-3
    se = math.sqrt(ref * (1 - ref) / n)
    assert abs(est.p_hat - ref) <= 3 * se
    assert est.cov == pytest.approx(
        math.sqrt((1 - est.p_hat) / (n * est.p_hat)))


def test_crude_mc_reproducible():
    model = make_benchmark("example2")
    a = crude_monte_carlo(model, McConfig(50_000, force=True), seed=77)
    b = crude_monte_carlo(make_benchmark("example2"), McConfig(50_000, force=True),
                          seed=77)
    assert a.p_hat == b.p_hat


def test_crude_mc_refuses_unresolvable_n():
    model = make_benchmark("example1")  # ref 4.73e-6
    with pytest.raises(ConfigurationError):
        crude_monte_carlo(model, McConfig(10_000), seed=1)
    est = crude_monte_carlo(model, McConfig(10_000, force=True), seed=1)
    assert est.n_samples == 10_000


def test_analytic_reference():
    import mpmath
    ref = analytic_reference("example6", {"beta": 4.0})
    exact = float(mpmath.ncdf(-4))
    assert ref == pytest.approx(exact, rel=1e-12)
    assert ref == pytest.approx(3.16712e-5, rel=1e-5)
    assert analytic_reference("example6", {"beta": 0.0}) == pytest.approx(0.5)
    assert analytic_reference("example1") is None
