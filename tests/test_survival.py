"""Survival math against brute-force oracles and hand-worked examples."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otsurv.autodiff import Tape, backward
from otsurv.bags import GenomicProfile, SurvivalRecord
from otsurv.errors import DataError, MetricUndefinedError
from otsurv.microbatch import OTSettings
from otsurv.neural import init_params
from otsurv.survival import (PROB_EPS, c_index, chi2_sf_1df, km_estimate,
                             logrank, median_split, survival_from_hazard,
                             write_km_outputs)
from otsurv.train import CaseData, case_forward, case_risk

from failing_writes import fail_writes_to, files_under
from oracles import (chi2_sf_1df_oracle, km_survival_oracle, logrank_oracle,
                     nll_chain, pairwise_c_index)


def rec(t, c, b=None):
    return SurvivalRecord(float(t), int(c), b)


# ---------------------------------------------------------------------------
# Survival curve


def test_survival_no_risk_limit():
    assert np.allclose(survival_from_hazard(np.zeros(4)), 1.0, atol=1e-5)


def test_survival_direct_product():
    assert np.allclose(survival_from_hazard(np.array([0.5, 0.5])), [0.5, 0.25])


def test_survival_matches_cumprod_oracle():
    rng = np.random.default_rng(0)
    h = rng.uniform(0.05, 0.95, size=(3, 6))
    # one curve per row of a (batches, bins) stack, as case_risk uses it
    want = np.cumprod(1 - h, axis=1)
    assert np.allclose(survival_from_hazard(h), want, atol=1e-12)
    assert np.allclose(survival_from_hazard(h[1]), want[1], atol=1e-12)


def test_survival_rejects_out_of_range():
    with pytest.raises(DataError):
        survival_from_hazard(np.array([0.5, 1.5]))
    with pytest.raises(DataError):
        survival_from_hazard(np.array([-0.1]))
    with pytest.raises(DataError):
        survival_from_hazard(np.array([[0.5, np.nan]]))


@given(st.lists(st.floats(min_value=1e-6, max_value=1 - 1e-6),
                min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_survival_nonincreasing_in_unit_interval(hazards):
    curve = survival_from_hazard(np.array(hazards))
    assert np.all(np.diff(curve) <= 1e-15)
    assert np.all(curve > 0)
    assert np.all(curve <= 1.0)


# ---------------------------------------------------------------------------
# NLL loss: the tape terms training differentiates


def nll(hazards, record, weight=1.0):
    tape = Tape()
    row = tape.const(np.atleast_2d(np.asarray(hazards, float)))
    return float(tape.discrete_nll([row], [weight], record.bin, record.censor == 1,
                                   PROB_EPS).value)


def test_nll_perfect_prediction_near_zero():
    loss = nll([1.0 - 1e-9, 0.5], rec(1.0, 0, b=0))
    assert loss == pytest.approx(0.0, abs=1e-5)


def test_nll_censored_direct_value():
    loss = nll([0.5, 0.5], rec(1.0, 1, b=0), weight=1.0)
    assert loss == pytest.approx(math.log(2.0))


def test_nll_batch_matches_termwise_oracle():
    rng = np.random.default_rng(1)
    h = rng.uniform(0.1, 0.9, size=4)
    records = [rec(5, 0, 2), rec(3, 1, 1), rec(9, 0, 3), rec(1, 0, 0), rec(2, 1, 0)]
    weights = rng.uniform(0.2, 1.0, size=5)
    total = sum(nll(h, r, w) for r, w in zip(records, weights))
    S = np.cumprod(1 - np.clip(h, PROB_EPS, 1 - PROB_EPS))
    want = 0.0
    for r, w in zip(records, weights):
        t = r.bin
        if r.censor == 1:
            want += -w * math.log(max(S[t], PROB_EPS))
        else:
            s_prev = S[t - 1] if t >= 1 else 1.0
            want += -w * (math.log(max(s_prev, PROB_EPS))
                          + math.log(max(h[t], PROB_EPS)))
    assert total == pytest.approx(want, rel=1e-12)


def test_nll_terms_match_hand_computation():
    """Each record type with a non-unit weight, then the probability floor."""
    h = [0.2, 0.35, 0.6, 0.1]
    # censored in bin 2: -w log S[2]
    assert nll(h, rec(9, 1, 2), 0.3) == pytest.approx(
        -0.3 * math.log(0.8 * 0.65 * 0.4), rel=1e-14)
    # event in bin 0: -w log h[0], no survival prefix
    assert nll(h, rec(1, 0, 0), 0.7) == pytest.approx(-0.7 * math.log(0.2),
                                                      rel=1e-14)
    # event in bin 2: -w (log S[1] + log h[2])
    assert nll(h, rec(6, 0, 2), 1.9) == pytest.approx(
        -1.9 * (math.log(0.8 * 0.65) + math.log(0.6)), rel=1e-14)
    # floor on the hazard: an event in a bin of hazard 0 costs -log(1e-7)
    assert nll([0.25, 0.0], rec(4, 0, 1), 0.5) == pytest.approx(
        -0.5 * (math.log(0.75) + math.log(1e-7)), rel=1e-14)
    # floor on the survival: 1 - h = 0 is floored to 1e-7, and the product
    # 1e-7 * 0.5 is floored again before the log
    assert nll([1.0, 0.5], rec(4, 1, 1), 0.25) == pytest.approx(
        -0.25 * math.log(1e-7), rel=1e-14)


def test_nll_gradient_sign_wrt_correct_bin_hazard():
    # raising the hazard of the observed event bin lowers the loss
    tape = Tape()
    row = tape.leaf(np.array([[0.2, 0.3, 0.4, 0.5]]))
    backward(tape, tape.discrete_nll([row], [1.0], 2, False, PROB_EPS))
    assert row.grad[0, 2] < 0
    assert np.all(row.grad[0, :2] > 0)  # and surviving earlier bins raises it
    assert row.grad[0, 3] == 0


# Hazards at which a floor of the NLL is active or just inactive.
EDGE_HAZARDS = [0.0, 1.0, PROB_EPS, 1.0 - PROB_EPS, 0.5 * PROB_EPS, 1.0 - 0.5 * PROB_EPS,
                1.0 - 1e-4]


@given(n_rows=st.integers(1, 9), split=st.integers(0, 9), n_bins=st.integers(1, 6),
       bin_frac=st.floats(0.0, 0.999), censor=st.integers(0, 1),
       edge_share=st.sampled_from([0.0, 0.3, 1.0]), outer=st.sampled_from([1.0, 0.37, -2.5]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_fused_nll_equals_op_chain_bitwise(n_rows, split, n_bins, bin_frac, censor,
                                           edge_share, outer, seed):
    """The fused node against the per-row chain of pick, sub_from,
    clamp_min, mul, log, scale and add: value and gradient byte for byte,
    with saturated hazards where the floors are active, rows split over two
    stacks, and a non-unit cotangent."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(size=(n_rows, n_bins))
    edge = rng.uniform(size=h.shape) < edge_share
    h[edge] = rng.choice(EDGE_HAZARDS, size=int(edge.sum()))
    weights = rng.uniform(0.01, 1.0, size=n_rows)
    record = rec(5.0, censor, int(bin_frac * n_bins))

    tape = Tape()
    split = min(split, n_rows)
    stacks = [tape.leaf(part[:, None, :]) for part in (h[:split], h[split:]) if len(part)]
    fused = tape.scale(tape.discrete_nll(stacks, weights, record.bin, record.censor == 1,
                                         PROB_EPS), outer)
    backward(tape, fused)
    fused_grad = np.concatenate([s.grad.reshape(-1, n_bins) for s in stacks])

    tape = Tape()
    rows = [tape.leaf(row[None, :]) for row in h]
    chain = None
    for row, w in zip(rows, weights):
        term = nll_chain(tape, row, record, float(w))
        chain = term if chain is None else tape.add(chain, term)
    chain = tape.scale(chain, outer)
    backward(tape, chain)
    chain_grad = np.concatenate([row.grad for row in rows])

    assert fused.value.tobytes() == chain.value.tobytes()
    assert fused_grad.tobytes() == chain_grad.tobytes()


def one_case(bin_=1):
    rng = np.random.default_rng(0)
    profile = GenomicProfile([("c0", rng.standard_normal(2))], "x")
    return CaseData("x", rng.standard_normal((6, 4)), profile,
                    SurvivalRecord(5.0, 0, bin=bin_))


def constant_hazard_params(n_bins, bias):
    """Every hazard equals sigmoid(bias), whatever the inputs."""
    params = init_params(4, 4, [2], n_bins, n_heads=1, seed=0)
    params.arrays["hazard.w"][:] = 0.0
    params.arrays["hazard.b"][:] = bias
    return params


def test_nll_invalid_bin():
    params = constant_hazard_params(4, 0.0)
    with pytest.raises(DataError):
        case_forward(params, one_case(bin_=5), 3, OTSettings(), "umbot", 0)
    with pytest.raises(DataError):
        case_forward(params, one_case(bin_=None), 3, OTSettings(), "umbot", 0)


# ---------------------------------------------------------------------------
# Risk score


def test_risk_score_limits_and_monotonicity():
    def risk(n_bins, bias):
        return case_risk(constant_hazard_params(n_bins, bias), one_case(), 3,
                         OTSettings(), "umbot", 0)

    assert risk(4, -50.0) == pytest.approx(-4.0, abs=1e-5)
    assert risk(4, 50.0) == pytest.approx(0.0, abs=1e-5)
    assert risk(3, math.log(0.2 / 0.8)) < risk(3, math.log(0.3 / 0.7))


# ---------------------------------------------------------------------------
# C-index


def test_c_index_perfect_and_inverted():
    records = [rec(3, 0), rec(2, 0), rec(1, 0)]
    assert c_index([1, 2, 3], records) == 1.0
    assert c_index([3, 2, 1], records) == 0.0


def test_c_index_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(4, 12))
        times = rng.uniform(1, 50, size=n)
        if rng.uniform() < 0.3:  # force some time ties
            times = np.round(times / 5) * 5
        censor = (rng.uniform(size=n) < 0.3).astype(int)
        if np.all(censor == 1):
            censor[0] = 0
        risks = rng.standard_normal(n)
        if rng.uniform() < 0.3:  # force some risk ties
            risks = np.round(risks)
        records = [rec(t, c) for t, c in zip(times, censor)]
        try:
            got = c_index(risks, records)
        except MetricUndefinedError:
            with pytest.raises(ZeroDivisionError):
                pairwise_c_index(risks, times, censor == 0)
            continue
        want = pairwise_c_index(risks, times, censor == 0)
        assert got == pytest.approx(want, abs=1e-14)


def test_c_index_antisymmetry_without_ties():
    rng = np.random.default_rng(3)
    times = rng.uniform(1, 30, size=10)
    censor = (rng.uniform(size=10) < 0.2).astype(int)
    risks = rng.standard_normal(10)
    records = [rec(t, c) for t, c in zip(times, censor)]
    assert c_index(risks, records) + c_index(-risks, records) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_c_index_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    times = rng.uniform(1, 30, size=8)
    censor = (rng.uniform(size=8) < 0.25).astype(int)
    risks = rng.standard_normal(8)
    records = [rec(t, c) for t, c in zip(times, censor)]
    try:
        base = c_index(risks, records)
    except MetricUndefinedError:
        return
    transformed = c_index(np.exp(2.0 * risks) + 5.0, records)
    assert transformed == pytest.approx(base, abs=1e-14)


def test_c_index_no_comparable_pairs():
    with pytest.raises(MetricUndefinedError):
        c_index([1.0, 2.0], [rec(5, 1), rec(5, 1)])


@pytest.mark.parametrize("risks", [[math.nan] * 4, [1.0, math.nan, 3.0, 2.0],
                                   [1.0, 2.0, math.inf, 4.0]],
                         ids=["all-nan", "one-nan", "one-inf"])
def test_c_index_and_median_split_reject_non_finite_risks(risks):
    # All NaN read 0.0 and one NaN among ordered risks 0.5; median_split
    # warned of a tie and split by sort order.
    records = [rec(4, 0), rec(3, 0), rec(2, 0), rec(1, 0)]
    with pytest.raises(DataError, match="risks"):
        c_index(risks, records)
    with pytest.raises(DataError, match="risks"):
        median_split(risks)


# ---------------------------------------------------------------------------
# Kaplan-Meier


def test_km_all_events_steps():
    curve = km_estimate([rec(1, 0), rec(2, 0), rec(3, 0)])
    assert np.allclose(curve.survival, [2 / 3, 1 / 3, 0.0])
    assert np.array_equal(curve.at_risk, [3, 2, 1])


def test_km_all_censored_flat():
    curve = km_estimate([rec(1, 1), rec(2, 1)])
    assert curve.event_times.size == 0


def test_km_tie_case_deaths_before_censorings():
    # times [1, 1, 2], censor at 1: at t=1 risk set is all 3, one death;
    # the censored case then leaves, so t=2 has risk set 1 and one death.
    curve = km_estimate([rec(1, 0), rec(1, 1), rec(2, 0)])
    assert np.array_equal(curve.event_times, [1.0, 2.0])
    assert np.array_equal(curve.at_risk, [3, 1])
    assert np.allclose(curve.survival, [2 / 3, 0.0])


def test_km_no_censoring_equals_empirical_survival():
    rng = np.random.default_rng(4)
    times = rng.integers(1, 8, size=30).astype(float)
    records = [rec(t, 0) for t in times]
    curve = km_estimate(records)
    for t, s in zip(curve.event_times, curve.survival):
        empirical = np.mean(times > t)
        assert s == pytest.approx(empirical, abs=1e-12)


def test_km_matches_hand_oracle_with_censoring():
    rng = np.random.default_rng(5)
    times = rng.integers(1, 10, size=25).astype(float)
    events = rng.uniform(size=25) < 0.7
    records = [rec(t, 0 if e else 1) for t, e in zip(times, events)]
    curve = km_estimate(records)
    want = km_survival_oracle(times, events)
    assert len(want) == curve.event_times.size
    for (t, s), tt, ss in zip(want, curve.event_times, curve.survival):
        assert t == tt
        assert s == pytest.approx(ss, abs=1e-12)


def test_km_at_risk_strictly_decreasing():
    rng = np.random.default_rng(6)
    times = rng.uniform(1, 20, size=40)
    events = rng.uniform(size=40) < 0.6
    records = [rec(t, 0 if e else 1) for t, e in zip(times, events)]
    curve = km_estimate(records)
    assert np.all(np.diff(curve.at_risk) < 0)
    assert np.all(np.diff(curve.survival) <= 0)


# ---------------------------------------------------------------------------
# Log-rank


def test_logrank_identical_groups_null():
    group = [rec(t, c) for t, c in [(1, 0), (2, 0), (3, 1), (4, 0)]]
    result = logrank(group, list(group))
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0)


def test_logrank_chi2_crossing_at_3841():
    assert chi2_sf_1df(3.841) == pytest.approx(0.05, abs=1e-3)


def test_chi2_tail_matches_series_oracle():
    for x in np.linspace(0.01, 30, 120):
        assert chi2_sf_1df(float(x)) == pytest.approx(
            chi2_sf_1df_oracle(float(x)), abs=1e-8)


def test_logrank_strong_separation():
    a = [rec(t, 0) for t in np.linspace(1, 10, 20)]
    b = [rec(t, 0) for t in np.linspace(50, 80, 20)]
    result = logrank(a, b)
    assert result.p_value < 0.001


def test_logrank_symmetry():
    rng = np.random.default_rng(7)
    a = [rec(t, int(c)) for t, c in zip(rng.uniform(1, 20, 15),
                                        rng.uniform(size=15) < 0.3)]
    b = [rec(t, int(c)) for t, c in zip(rng.uniform(5, 30, 12),
                                        rng.uniform(size=12) < 0.3)]
    r1 = logrank(a, b)
    r2 = logrank(b, a)
    assert r1.statistic == pytest.approx(r2.statistic, rel=1e-12)
    assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12)


# A group of (time, event) records: few distinct times, so ties are common.
cohorts = st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.5]),
                             st.booleans()), min_size=1, max_size=25)


@settings(max_examples=300, deadline=None)
@given(cohorts, cohorts)
@example([(1.0, True)], [(2.0, False)])
@example([(1.0, False), (1.0, False)], [(1.0, True), (1.0, False), (2.0, True)])
@example([(3.0, False)], [(3.0, False)])
def test_km_and_logrank_equal_their_loop_oracles_exactly(group_a, group_b):
    """One-record groups, all-censored groups and tied times included."""
    records_a = [rec(t, 0 if e else 1) for t, e in group_a]
    records_b = [rec(t, 0 if e else 1) for t, e in group_b]
    times_a, events_a = zip(*group_a)
    curve = km_estimate(records_a)
    want = km_survival_oracle(times_a, events_a)
    assert curve.event_times.tolist() == [t for t, _ in want]
    assert curve.survival.tolist() == [s for _, s in want]
    result = logrank(records_a, records_b)
    assert (result.statistic, result.p_value) == logrank_oracle(
        times_a, events_a, *zip(*group_b))


def test_logrank_no_events_degenerate():
    a = [rec(5, 1), rec(6, 1)]
    b = [rec(7, 1), rec(8, 1)]
    result = logrank(a, b)
    assert result.statistic == 0.0
    assert result.p_value == 1.0


# ---------------------------------------------------------------------------
# Median split


def test_median_split_even():
    low, high = median_split([1.0, 2.0, 3.0, 4.0])
    assert list(low) == [0, 1]
    assert list(high) == [2, 3]


def test_median_split_all_ties_falls_back():
    with pytest.warns(UserWarning, match="degenerate"):
        low, high = median_split([1.0, 1.0, 1.0])
    assert len(low) == 2 and len(high) == 1


def test_median_split_odd_sizes():
    rng = np.random.default_rng(8)
    low, high = median_split(rng.standard_normal(101))
    assert (len(low), len(high)) == (51, 50)


def test_median_split_ties_at_median_go_low():
    low, high = median_split([1.0, 2.0, 2.0, 3.0])
    assert list(low) == [0, 1, 2]
    assert list(high) == [3]


def _km_outputs(prefix, shift):
    low = [SurvivalRecord(t + shift, c) for t, c in ((3, 0), (5, 1), (8, 0), (13, 0))]
    high = [SurvivalRecord(t + shift, c) for t, c in ((1, 0), (2, 0), (4, 1), (6, 0))]
    curves = {"low": km_estimate(low), "high": km_estimate(high)}
    return write_km_outputs(curves, logrank(low, high), prefix)


@pytest.mark.parametrize("suffix", ["_km_low.csv", "_km_high.csv", "_logrank.json"])
def test_failed_km_write_keeps_previous_file(tmp_path, monkeypatch, suffix):
    _km_outputs(tmp_path / "out" / "km", shift=0.0)
    before = files_under(tmp_path)
    target = tmp_path / "out" / f"km{suffix}"
    fail_writes_to(monkeypatch, target)
    with pytest.raises(OSError, match="No space left"):
        _km_outputs(tmp_path / "out" / "km", shift=0.5)
    monkeypatch.undo()
    after = files_under(tmp_path)
    assert after[target] == before[target]
    assert sorted(after) == sorted(before)
