import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from rareprob import (ConfigurationError, SusConfig, SusConvergenceError,
                      SusResult, level_threshold, make_benchmark,
                      subset_simulation)

from conftest import PROPERTY, make_constant_model, make_linear_model, phi


def test_level_threshold_order_statistic():
    assert level_threshold(np.arange(1.0, 11.0), 0.1) == 1.0
    assert level_threshold([5.0, 3.0, 8.0, 1.0], 0.5) == 3.0


def test_level_threshold_terminal_clip():
    # all values non-positive: terminal level, threshold reported as 0
    assert level_threshold([-3.0, -1.0, -2.0], 0.1) == 0.0
    assert level_threshold(np.full(10, -0.5), 0.1) == 0.0
    assert level_threshold(np.linspace(-1, 9, 10), 0.1) == 0.0


def test_level_threshold_ties_deterministic():
    vals = [2.0, 2.0, 2.0, 5.0, 7.0, 9.0, 2.0, 2.0, 2.0, 2.0]
    a = level_threshold(vals, 0.3)
    b = level_threshold(list(vals), 0.3)
    assert a == b == 2.0


@PROPERTY
@given(g=st.lists(st.floats(allow_nan=False), min_size=1, max_size=300),
       p0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_level_threshold_is_the_clipped_order_statistic(g, p0):
    assert level_threshold(g, p0) == max(sorted(g)[math.ceil(p0 * len(g)) - 1], 0.0)


def test_always_failing_terminates_at_level_zero():
    model = make_constant_model(-1.0)
    res = subset_simulation(model, SusConfig(n_s=500, p0=0.1), 0)
    assert res.p_hat == 1.0
    assert res.n_levels == 1
    assert res.model_calls == 500


def test_call_accounting_formula():
    model = make_benchmark("example1")
    cfg = SusConfig(n_s=1000, p0=0.1, proposal="uniform")
    res = subset_simulation(model, cfg, 5)
    expected = 1000 + (res.n_levels - 1) * 1000 * (1 - 0.1)
    assert res.model_calls == expected
    assert res.model_calls == model.call_count


def test_thresholds_decrease_monotonically():
    model = make_linear_model(beta=3.5)
    res = subset_simulation(model, SusConfig(n_s=1000, p0=0.1), 2)
    assert all(np.diff(res.thresholds) < 0)
    assert res.thresholds[-1] <= 0.0
    assert 0.0 < res.p_hat <= 1.0


def test_one_dim_linear_reference():
    ref = phi(-3.0)
    pf = []
    for rep in range(200):
        model = make_linear_model(beta=3.0)
        res = subset_simulation(model, SusConfig(n_s=1000, p0=0.1,
                                                 proposal="uniform"),
                                100 + rep)
        pf.append(res.p_hat)
    mean = float(np.mean(pf))
    assert abs(mean - ref) <= 0.15 * ref


def test_deterministic_given_seed():
    a = subset_simulation(make_benchmark("example2"),
                          SusConfig(n_s=500, p0=0.1), 42)
    b = subset_simulation(make_benchmark("example2"),
                          SusConfig(n_s=500, p0=0.1), 42)
    assert a.p_hat == b.p_hat
    assert a.thresholds == b.thresholds


def test_uniform_and_normal_proposals_agree_on_benchmark1():
    # the two proposal choices must give statistically indistinguishable
    # means: two-sample test at the 1% level over 500 replications each
    pf_u, pf_n = [], []
    for rep in range(500):
        res = subset_simulation(make_benchmark("example1"),
                                SusConfig(n_s=1000, p0=0.1,
                                          proposal="uniform"), 900 + rep)
        pf_u.append(res.p_hat)
        res = subset_simulation(make_benchmark("example1"),
                                SusConfig(n_s=1000, p0=0.1,
                                          proposal="normal"), 5900 + rep)
        pf_n.append(res.p_hat)
    t = stats.ttest_ind(pf_u, pf_n, equal_var=False)
    assert t.pvalue > 0.01
    # agreement with the published figures: mean ~4.88e-6, cov ~1.06
    pf_u = np.array(pf_u)
    mean_u = pf_u.mean()
    cov_u = pf_u.std(ddof=1) / mean_u
    assert abs(mean_u - 4.88e-6) <= 0.30 * 4.88e-6
    assert abs(cov_u - 1.06) <= 0.50 * 1.06


def test_max_levels_error_carries_partial_thresholds():
    model = make_linear_model(beta=9.0)
    with pytest.raises(SusConvergenceError) as err:
        subset_simulation(model, SusConfig(n_s=200, p0=0.1, max_levels=3), 0)
    assert len(err.value.thresholds) == 3
    assert all(np.diff(err.value.thresholds) < 0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SusConfig(p0=0.0)
    with pytest.raises(ConfigurationError):
        SusConfig(proposal="cauchy")
    with pytest.warns(UserWarning, match="rounding"):
        SusConfig(n_s=997, p0=0.1)
    # counts are ints, not bools, and every level keeps at least one seed
    for bad in ({"n_s": 0}, {"n_s": 4}, {"n_s": 500.0}, {"n_s": True},
                {"max_levels": 0}, {"max_levels": 2.0}, {"max_levels": True}):
        with pytest.raises(ConfigurationError):
            SusConfig(**bad)


def test_result_fields():
    res = SusResult(p_hat=1e-4, n_levels=4, thresholds=[2.0, 1.0, 0.0],
                    model_calls=3700)
    assert res.p_hat == 1e-4 and res.model_calls == 3700
