"""Cost matrices and the three transport solvers against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from otsurv import transport
from otsurv.errors import DataError, ParameterError, ShapeError
from otsurv.microbatch import OTSettings, solve_batch
from otsurv.transport import (CostMatrix, Marginals, build_cost, normalize_cost,
                              sinkhorn, solve_exact_emd, unbalanced_sinkhorn,
                              uniform_marginals, write_plan)

from failing_writes import fail_writes_to, files_under
from oracles import lp_transport, plain_scaling


def random_instance(rng, n, m, rational=False):
    C = CostMatrix(rng.uniform(0.0, 1.0, size=(n, m)), "l2")
    if rational:
        a = rng.integers(1, 10, size=n).astype(float)
        b_units = rng.multinomial(int(a.sum()) - m, np.full(m, 1 / m)) + 1
        a /= a.sum()
        b = b_units / b_units.sum()
    else:
        a = rng.uniform(0.1, 1.0, size=n)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, size=m)
        b /= b.sum()
    return C, Marginals(a, b)


def unnormalized_cost(rng, n):
    # n patches against 6 genomic tokens, as on the hot path, but with the
    # raw squared distances (about 128) that normalize_cost would scale down.
    return build_cost(rng.normal(size=(n, 64)), rng.normal(size=(6, 64)), "l2")


# ---------------------------------------------------------------------------
# Cost matrices


def test_cost_zero_self_distance():
    x = np.array([[1.0, 2.0, 3.0]])
    C = build_cost(x, x, "l2")
    assert C.values[0, 0] == pytest.approx(0.0)


def test_cost_orthonormal_l2():
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    assert build_cost(e1, e2, "l2").values[0, 0] == pytest.approx(np.sqrt(2))


def test_cost_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((3, 5))
    xt = rng.standard_normal((2, 5))
    for metric in ("l2", "squared_l2", "cosine_distance"):
        C = build_cost(xs, xt, metric).values
        for u in range(3):
            for v in range(2):
                du = xs[u] - xt[v]
                if metric == "l2":
                    want = np.sqrt(du @ du)
                elif metric == "squared_l2":
                    want = du @ du
                else:
                    want = 1 - (xs[u] @ xt[v]) / (np.linalg.norm(xs[u]) * np.linalg.norm(xt[v]))
                assert C[u, v] == pytest.approx(want, abs=1e-10)


def test_cost_cosine_zero_vector_distance_one():
    # zero-norm rows are assigned similarity 0, so distance 1
    xs = np.array([[0.0, 0.0], [1.0, 0.0]])
    xt = np.array([[1.0, 1.0]])
    C = build_cost(xs, xt, "cosine_distance")
    assert C.values[0, 0] == pytest.approx(1.0)
    assert C.values[1, 0] == pytest.approx(1.0 - 1.0 / np.sqrt(2))


def test_cost_dimension_mismatch():
    with pytest.raises(ShapeError):
        build_cost(np.ones((2, 3)), np.ones((2, 4)), "l2")


@pytest.mark.parametrize("solve", [
    lambda C, marg: transport.sinkhorn(C, marg, 0.1),
    lambda C, marg: transport.unbalanced_sinkhorn(C, marg, 0.1, 0.5),
    transport.solve_exact_emd,
], ids=["sinkhorn", "unbalanced_sinkhorn", "emd"])
@pytest.mark.parametrize("sizes", [(4, 3), (3, 4)], ids=["source", "target"])
def test_marginals_not_matching_the_cost_are_a_shape_error(solve, sizes):
    C = CostMatrix(np.ones((3, 3)), "l2")
    with pytest.raises(ShapeError, match=rf"^marginals \({sizes[0]},{sizes[1]}\) "
                                         rf"do not match cost \(3, 3\)$"):
        solve(C, transport.uniform_marginals(*sizes))


def test_cost_rejects_negative_and_nan():
    with pytest.raises(DataError):
        CostMatrix(np.array([[-1.0]]), "l2")
    with pytest.raises(DataError):
        CostMatrix(np.array([[np.nan]]), "l2")


def test_normalize_cost_unit_peak():
    C = CostMatrix(np.array([[2.0, 4.0], [1.0, 0.0]]), "l2")
    N = normalize_cost(C)
    assert N.values.max() == pytest.approx(1.0)
    assert np.allclose(N.values * 4.0, C.values)


def test_marginals_must_sum_to_one():
    with pytest.raises(DataError):
        Marginals(np.array([0.5, 0.4]), np.array([0.5, 0.5]))


def test_normalized_cost_and_uniform_marginals_are_checked_records():
    # Every cost and marginals record is built through its checks, so a
    # non-finite feature fails the solve.  uniform_marginals builds one
    # record per shape, and its shared arrays are read-only.
    rng = np.random.default_rng(0)
    x, g = rng.standard_normal((7, 4)), rng.standard_normal((3, 4))
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[2, 1] = bad
        with pytest.raises(DataError), np.errstate(invalid="ignore"):
            solve_batch(x_bad, g, OTSettings())
    C = build_cost(x, g, "l2")
    N = normalize_cost(C)
    assert N.values.tobytes() == CostMatrix(C.values / C.values.max(), "l2").values.tobytes()
    marg = uniform_marginals(7, 3)
    assert uniform_marginals(7, 3) is marg
    checked = Marginals(np.full(7, 1 / 7), np.full(3, 1 / 3))
    assert marg.source.tobytes() == checked.source.tobytes()
    assert marg.target.tobytes() == checked.target.tobytes()
    for side in (marg.source, marg.target):
        with pytest.raises(ValueError):
            side[0] = 0.5
    with pytest.raises(DataError):
        uniform_marginals(0, 3)


# ---------------------------------------------------------------------------
# Exact transportation solver


def test_emd_zero_cost_matching():
    C = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "l2")
    plan = solve_exact_emd(C, uniform_marginals(2, 2))
    assert plan.objective_value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(plan.coupling, np.diag([0.5, 0.5]))


def test_emd_forced_transport_single_source():
    C = CostMatrix(np.array([[3.0, 1.0, 2.0]]), "l2")
    b = np.array([0.2, 0.5, 0.3])
    plan = solve_exact_emd(C, Marginals(np.array([1.0]), b))
    assert np.allclose(plan.coupling, b[None, :])
    assert plan.objective_value == pytest.approx(float(b @ C.values[0]))


def test_emd_1x1_short_circuit():
    # A 1 x 1 problem takes the general path: the northwest corner is already
    # optimal, so no pivot runs and the certificate is exact.
    for c in (0.0, 0.37, 2.5, 5.0, float(np.random.default_rng(8).uniform(0, 10))):
        C = CostMatrix(np.array([[c]]), "l2")
        plan = solve_exact_emd(C, Marginals(np.array([1.0]), np.array([1.0])))
        assert plan.coupling.tolist() == [[1.0]]
        assert plan.objective_value == c
        assert plan.marginal_residual == 0.0
        assert plan.iterations == 0 and plan.converged
        assert plan.dual_source.tolist() == [0.0]
        assert plan.dual_target.tolist() == [c]
        assert plan.duality_gap == 0.0


def test_emd_matches_lp_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n, m = rng.integers(2, 6), rng.integers(2, 5)
        C, marg = random_instance(rng, n, m, rational=True)
        plan = solve_exact_emd(C, marg)
        want = lp_transport(C.values, marg.source, marg.target)
        assert plan.objective_value == pytest.approx(want, abs=1e-9)
        assert plan.duality_gap <= 1e-8


def test_emd_complementary_slackness():
    rng = np.random.default_rng(7)
    for _ in range(20):
        C, marg = random_instance(rng, 5, 4)
        plan = solve_exact_emd(C, marg)
        slack = C.values - plan.dual_source[:, None] - plan.dual_target[None, :]
        active = plan.coupling > 1e-10
        assert np.all(slack[active] <= 1e-8)
        assert np.all(slack >= -1e-8)


def test_emd_certificate_on_tied_integer_costs():
    # Uniform 48x6 marginals, as the hot path's emd mode solves, on costs
    # with many ties: degenerate pivots and tied leaving cells.  Integer
    # costs make the potentials and reduced costs exact integers.
    rng = np.random.default_rng(16)
    for levels in (2, 3, 5):
        C = CostMatrix(rng.integers(0, levels, size=(48, 6)).astype(float), "l2")
        plan = solve_exact_emd(C, uniform_marginals(48, 6))
        reduced = C.values - plan.dual_source[:, None] - plan.dual_target[None, :]
        assert reduced.min() >= 0.0
        assert abs(plan.duality_gap) <= 1e-12
        assert plan.objective_value == pytest.approx(
            lp_transport(C.values, plan.marginals.source, plan.marginals.target), abs=1e-12)


def test_emd_bland_fallback_matches_lp_oracle(monkeypatch):
    # Bland's rule from the first pivot: random instances, then tied integer
    # costs whose degenerate pivots are what the fallback guards against.
    monkeypatch.setattr(transport, "_BLAND_AFTER", 0)
    rng = np.random.default_rng(43)
    for _ in range(40):
        C, marg = random_instance(rng, rng.integers(2, 7), rng.integers(2, 5), rational=True)
        plan = solve_exact_emd(C, marg)
        assert plan.objective_value == pytest.approx(
            lp_transport(C.values, marg.source, marg.target), abs=1e-12)
        assert abs(plan.duality_gap) <= 1e-12
    for levels in (2, 3):
        C = CostMatrix(rng.integers(0, levels, size=(12, 6)).astype(float), "l2")
        plan = solve_exact_emd(C, uniform_marginals(12, 6))
        assert plan.objective_value == pytest.approx(
            lp_transport(C.values, plan.marginals.source, plan.marginals.target), abs=1e-12)


def test_emd_marginals_satisfied():
    rng = np.random.default_rng(9)
    C, marg = random_instance(rng, 6, 3)
    plan = solve_exact_emd(C, marg)
    assert np.allclose(plan.coupling.sum(axis=1), marg.source, atol=1e-12)
    assert np.allclose(plan.coupling.sum(axis=0), marg.target, atol=1e-12)


# ---------------------------------------------------------------------------
# Balanced Sinkhorn


def test_sinkhorn_entropy_dominated_limit():
    rng = np.random.default_rng(1)
    C, marg = random_instance(rng, 4, 3)
    plan = sinkhorn(C, marg, epsilon=1e6)
    assert np.allclose(plan.coupling, np.outer(marg.source, marg.target), atol=1e-6)


def test_sinkhorn_zero_cost_is_product_measure_first_iteration():
    C = CostMatrix(np.zeros((3, 4)), "l2")
    marg = uniform_marginals(3, 4)
    plan = sinkhorn(C, marg, epsilon=0.1)
    assert plan.iterations == 1
    assert np.array_equal(plan.coupling, np.outer(marg.source, marg.target))


def test_sinkhorn_small_epsilon_approaches_emd():
    rng = np.random.default_rng(2)
    for _ in range(10):
        C, marg = random_instance(rng, 4, 3)
        C = normalize_cost(C)
        exact = solve_exact_emd(C, marg)
        plan = sinkhorn(C, marg, epsilon=1e-3, max_iters=20000, tol=1e-9)
        assert plan.objective_value == pytest.approx(exact.objective_value, abs=1e-3)


def test_sinkhorn_marginals_within_tolerance():
    rng = np.random.default_rng(3)
    C, marg = random_instance(rng, 5, 4)
    plan = sinkhorn(C, marg, epsilon=0.05, tol=1e-8)
    assert plan.converged
    assert np.abs(plan.coupling.sum(axis=1) - marg.source).max() < 1e-7
    assert np.abs(plan.coupling.sum(axis=0) - marg.target).max() < 1e-7
    assert plan.total_mass == pytest.approx(1.0, abs=1e-7)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sinkhorn_plan_invariant_under_potential_shift(seed):
    # C[i,j] + alpha_i + beta_j has the same balanced plan.  With shifts in
    # the hundreds the plain kernel underflows to zero, so the shifted solve
    # runs on absorbed potentials while the unshifted one never absorbs.
    # The two iterate sequences differ and meet only at the limit, hence
    # the tight tol.
    rng = np.random.default_rng(seed)
    C, marg = random_instance(rng, 4, 5)
    alpha = rng.uniform(100.0, 1000.0, size=4)
    beta = rng.uniform(100.0, 1000.0, size=5)
    shifted = CostMatrix(C.values + alpha[:, None] + beta[None, :], C.metric)
    plain = sinkhorn(C, marg, epsilon=0.2, tol=1e-12)
    absorbed = sinkhorn(shifted, marg, epsilon=0.2, tol=1e-12)
    assert plain.converged and absorbed.converged
    assert not plain.settings.log_domain
    assert absorbed.settings.log_domain
    assert np.abs(plain.coupling - absorbed.coupling).max() < 1e-10


def test_sinkhorn_overflow_switches_to_log_domain():
    # eps tiny vs unnormalized costs: the plain kernel underflows to zero
    C = CostMatrix(np.array([[500.0, 800.0], [900.0, 400.0]]), "l2")
    plan = sinkhorn(C, uniform_marginals(2, 2), epsilon=0.5)
    assert plan.settings.log_domain
    assert np.all(np.isfinite(plan.coupling))
    assert plan.total_mass == pytest.approx(1.0, abs=1e-5)


def test_sinkhorn_reports_both_objectives():
    rng = np.random.default_rng(5)
    C, marg = random_instance(rng, 3, 3)
    plan = sinkhorn(C, marg, epsilon=0.1)
    assert plan.objective_regularized is not None
    # KL(P | a x b) >= 0, so the regularized objective dominates
    assert plan.objective_regularized >= plan.objective_value - 1e-12


def test_sinkhorn_nonconvergence_flag():
    rng = np.random.default_rng(6)
    C, marg = random_instance(rng, 4, 4)
    C = normalize_cost(C)
    plan = sinkhorn(C, marg, epsilon=1e-3, max_iters=3, tol=1e-12)
    assert not plan.converged
    assert plan.iterations == 3


def test_sinkhorn_rejects_nonpositive_epsilon():
    C = CostMatrix(np.ones((2, 2)), "l2")
    with pytest.raises(ParameterError):
        sinkhorn(C, uniform_marginals(2, 2), epsilon=0.0)


# ---------------------------------------------------------------------------
# Unbalanced Sinkhorn


def test_uot_tau_zero_closed_form_exact():
    rng = np.random.default_rng(10)
    for _ in range(10):
        C, marg = random_instance(rng, 4, 3)
        plan = unbalanced_sinkhorn(C, marg, epsilon=0.07, tau=0.0)
        want = np.outer(marg.source, marg.target) * np.exp(-C.values / 0.07)
        assert np.abs(plan.coupling - want).max() <= 1e-10


def test_uot_large_tau_matches_balanced():
    rng = np.random.default_rng(11)
    for _ in range(5):
        C, marg = random_instance(rng, 4, 3)
        balanced = sinkhorn(C, marg, epsilon=0.1, tol=1e-10, max_iters=50000)
        relaxed = unbalanced_sinkhorn(C, marg, epsilon=0.1, tau=1e6,
                                      tol=1e-12, max_iters=200000)
        assert np.abs(balanced.coupling - relaxed.coupling).max() <= 1e-4


def test_uot_zero_cost_gives_product_measure():
    C = CostMatrix(np.zeros((3, 2)), "l2")
    marg = uniform_marginals(3, 2)
    for tau in (0.0, 0.5, 50.0):
        plan = unbalanced_sinkhorn(C, marg, epsilon=0.3, tau=tau)
        assert np.allclose(plan.coupling, np.outer(marg.source, marg.target),
                           atol=1e-9)


def test_solve_batch_on_all_zero_bags_is_uniform_with_mass_one():
    # Every cost is 0, so normalize_cost has no maximum to divide by.
    plan = solve_batch(np.zeros((8, 4)), np.zeros((3, 4)), OTSettings())
    assert not plan.cost.values.any()
    assert plan.converged
    assert plan.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(plan.coupling, 1.0 / 24, rtol=0, atol=1e-12)


def test_uot_mass_bounded_by_one():
    rng = np.random.default_rng(12)
    for _ in range(20):
        C, marg = random_instance(rng, 5, 3)
        tau = float(rng.uniform(0, 3))
        plan = unbalanced_sinkhorn(C, marg, epsilon=0.1, tau=tau)
        assert 0.0 < plan.total_mass <= 1.0 + 1e-6
        assert np.all(plan.coupling >= 0)


def test_uot_fixed_point_of_scaling_update():
    rng = np.random.default_rng(13)
    C, marg = random_instance(rng, 4, 4)
    eps, tau, tol = 0.05, 0.5, 1e-8
    plan = unbalanced_sinkhorn(C, marg, epsilon=eps, tau=tau, tol=tol,
                               max_iters=100000)
    assert plan.converged
    # re-apply one scaling update from the converged scaling vectors: they
    # must move by less than the stop threshold
    fi = tau / (tau + eps)
    K = np.outer(marg.source, marg.target) * np.exp(-C.values / eps)
    u = np.exp(plan.dual_source)
    v = np.exp(plan.dual_target)
    u2 = (marg.source / (K @ v)) ** fi
    v2 = (marg.target / (K.T @ u2)) ** fi
    assert np.abs(np.log(u2) - np.log(u)).max() < tol
    assert np.abs(np.log(v2) - np.log(v)).max() < tol


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([0.02, 0.1, 0.5, 5.0, 1e6]))
@settings(max_examples=40, deadline=None)
def test_uot_translated_plan_is_fixed_point_of_plain_update(seed, tau):
    # The solver moves the duals along f + t, g - t after every update; the
    # plan it stops on must still be a fixed point of the plain damped
    # update, from tau <= eps to the balanced limit.  At tau 1e6, t divides
    # a difference of logs by 2 eps / tau and carries about 1e-9 of
    # rounding, so the stop tol there is the default 1e-6.
    rng = np.random.default_rng(seed)
    C, marg = random_instance(rng, 5, 4)
    eps = 0.1
    tol = 1e-6 if tau == 1e6 else 1e-8
    plan = unbalanced_sinkhorn(C, marg, eps, tau, tol=tol, max_iters=100000)
    assert plan.converged
    fi = tau / (tau + eps)
    K = np.outer(marg.source, marg.target) * np.exp(-C.values / eps)
    u = np.exp(plan.dual_source)
    v = np.exp(plan.dual_target)
    u2 = (marg.source / (K @ v)) ** fi
    v2 = (marg.target / (K.T @ u2)) ** fi
    assert np.abs(np.log(u2) - np.log(u)).max() < tol
    assert np.abs(np.log(v2) - np.log(v)).max() < tol
    if tau == 1e6:
        balanced = sinkhorn(C, marg, eps, tol=1e-10, max_iters=100000)
        assert np.abs(balanced.coupling - plan.coupling).max() <= 1e-4


def test_uot_iteration_budget_on_hot_path_problems():
    # A count, not a timing: the translation removes the mode that the
    # damping fi = 0.909 contracts by fi^2 per iteration, which alone took
    # about 76 iterations per solve.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 48 if seed < 10 else 128
        C = normalize_cost(build_cost(rng.normal(size=(n, 64)),
                                      rng.normal(size=(6, 64)), "l2"))
        plan = unbalanced_sinkhorn(C, uniform_marginals(n, 6), 0.05, 0.5)
        assert plan.converged and not plan.settings.log_domain
        assert plan.iterations <= 15, (seed, plan.iterations)


@pytest.mark.parametrize("C, eps, tau, iters_before, absorptions_before", [
    (CostMatrix(np.array([[800.0, 1200.0], [1400.0, 600.0]]), "l2"), 0.5, 20.0, 495, 4),
    (unnormalized_cost(np.random.default_rng(0), 48), 0.002, 0.5, 2117, 13),
])
def test_uot_absorbing_solve_takes_no_more_log_domain_steps(monkeypatch, C, eps, tau,
                                                            iters_before,
                                                            absorptions_before):
    # tau >> eps on costs that force absorption.  The translation t grows
    # with tau / (2 eps), so unless the absorption step translates too, the
    # next plain step leaves the range again and nearly every iteration
    # becomes a log-domain step.  The ceilings are what the solver took
    # before it translated at all.
    absorptions = []
    plain_logsumexp = transport._logsumexp

    def counting(x, axis):
        if axis == 1:  # the f update, once per absorption
            absorptions.append(x.shape)
        return plain_logsumexp(x, axis)

    monkeypatch.setattr(transport, "_logsumexp", counting)
    plan = unbalanced_sinkhorn(C, uniform_marginals(*C.shape), eps, tau,
                               max_iters=100000)
    assert plan.converged and plan.settings.log_domain
    assert plan.iterations <= iters_before
    assert 1 <= len(absorptions) <= absorptions_before


def test_uot_absorbed_duals_are_log_domain_fixed_point():
    # Costs up to 1000 at eps 0.5 force absorption; the returned log
    # scalings must satisfy one log-domain update to within the stop tol.
    # In the fixed 2 x 2 case a scaling underflows to 0 and the other
    # overflows, so a translation sum is 0 or inf and must send the pair
    # to absorption rather than raise.
    rng = np.random.default_rng(14)
    eps, tau, tol = 0.5, 2.0, 1e-9
    problems = []
    for _ in range(5):
        _, marg = random_instance(rng, 5, 4)
        problems.append((CostMatrix(rng.uniform(0.0, 1000.0, size=(5, 4)), "l2"), marg))
    problems.append((CostMatrix(np.array([[800.0, 1200.0], [1400.0, 600.0]]), "l2"),
                     uniform_marginals(2, 2)))
    for C, marg in problems:
        plan = unbalanced_sinkhorn(C, marg, eps, tau, tol=tol, max_iters=100000)
        assert plan.settings.log_domain
        assert plan.converged
        fi = tau / (tau + eps)
        G = -C.values / eps
        phi = -fi * logsumexp(np.log(marg.target)[None, :] + G
                              + plan.dual_target[None, :], axis=1)
        psi = -fi * logsumexp(np.log(marg.source)[:, None] + G + phi[:, None], axis=0)
        assert np.abs(phi - plan.dual_source).max() < tol
        assert np.abs(psi - plan.dual_target).max() < tol


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([48, 128, 104]), st.sampled_from([None, 0.5]))
@settings(max_examples=40, deadline=None)
def test_scaling_solvers_match_plain_oracle_bitwise(seed, n, tau):
    # Hot-path problems: a normalized cost between n patches and 6 genomic
    # tokens at eps 0.05.  With no absorption, the kernel does the textbook
    # arithmetic, so every bit of the plan must match the oracle.
    rng = np.random.default_rng(seed)
    C = normalize_cost(build_cost(rng.normal(size=(n, 64)),
                                  rng.normal(size=(6, 64)), "l2"))
    marg = uniform_marginals(n, 6)
    if tau is None:
        plan = sinkhorn(C, marg, 0.05)
    else:
        plan = unbalanced_sinkhorn(C, marg, 0.05, tau)
    assert not plan.settings.log_domain
    P, log_u, log_v, iterations = plain_scaling(C.values, marg.source, marg.target,
                                                0.05, tau, 1000, 1e-6)
    assert plan.iterations == iterations
    assert plan.coupling.tobytes() == P.tobytes()
    assert plan.dual_source.tobytes() == log_u.tobytes()
    assert plan.dual_target.tobytes() == log_v.tobytes()


def test_uot_rejects_negative_tau():
    C = CostMatrix(np.ones((2, 2)), "l2")
    with pytest.raises(ParameterError):
        unbalanced_sinkhorn(C, uniform_marginals(2, 2), epsilon=0.1, tau=-1.0)


@pytest.mark.parametrize("field, epsilon, tau, max_iters, tolerance", [
    ("epsilon", math.nan, 0.5, 1000, 1e-6), ("tau", 0.1, math.nan, 1000, 1e-6),
    ("tau", 0.1, math.inf, 1000, 1e-6), ("epsilon", math.inf, 0.5, 1000, 1e-6),
    ("epsilon", True, 0.5, 1000, 1e-6), ("tau", 0.1, True, 1000, 1e-6),
    ("max_iters", 0.1, 0.5, 0, 1e-6), ("max_iters", 0.1, 0.5, True, 1e-6),
    ("epsilon", None, 0.5, 1000, 1e-6), ("tau", 0.1, None, 1000, 1e-6),
    ("tolerance", 0.1, 0.5, 1000, math.nan), ("tolerance", 0.1, 0.5, 1000, math.inf),
    ("tolerance", 0.1, 0.5, 1000, 0.0), ("tolerance", 0.1, 0.5, 1000, -1.0),
], ids=["epsilon-nan", "tau-nan", "tau-inf", "epsilon-inf", "epsilon-bool", "tau-bool",
        "max_iters-0", "max_iters-bool", "epsilon-none", "tau-none", "tolerance-nan",
        "tolerance-inf", "tolerance-0", "tolerance-negative"])
def test_scaling_solvers_reject_nan_and_infinite_tau(field, epsilon, tau, max_iters,
                                                     tolerance):
    # An infinite epsilon used to return the product coupling as converged,
    # a bool epsilon or tau solved as 1, a None epsilon was a bare TypeError,
    # a None tau ran the balanced solve, and a NaN, 0 or negative tolerance
    # ran every iteration to return converged=False.
    C, marg = CostMatrix(np.ones((2, 2)), "l2"), uniform_marginals(2, 2)
    with pytest.raises(ParameterError, match=field):
        unbalanced_sinkhorn(C, marg, epsilon=epsilon, tau=tau, max_iters=max_iters,
                            tol=tolerance)
    if field != "tau":
        with pytest.raises(ParameterError, match=field):
            sinkhorn(C, marg, epsilon=epsilon, max_iters=max_iters, tol=tolerance)


def test_exact_plan_carries_no_solver_settings():
    # The simplex takes no epsilon, tau or tolerance, so its plan records none;
    # its dual potentials certify optimality instead.
    rng = np.random.default_rng(4)
    C, marg = random_instance(rng, 5, 4)
    plan = solve_exact_emd(C, marg)
    assert plan.settings is None
    assert plan.objective_regularized is None
    assert abs(plan.duality_gap) < 1e-9


def test_uot_overflow_switches_to_log_domain():
    C = CostMatrix(np.array([[800.0, 1200.0], [1400.0, 600.0]]), "l2")
    plan = unbalanced_sinkhorn(C, uniform_marginals(2, 2), epsilon=0.5, tau=2.0)
    assert plan.settings.log_domain
    assert np.all(np.isfinite(plan.coupling))


# ---------------------------------------------------------------------------
# Shared solver properties


def test_marginal_residual_is_worst_of_rows_and_columns():
    # Pinned bit for bit: the value is computed from the returned coupling,
    # not from the scalings inside the loop.
    rng = np.random.default_rng(15)
    for max_iters in (2, 2, 1000, 1000):
        C, marg = random_instance(rng, 20, 30)
        for plan in (sinkhorn(C, marg, 0.05, max_iters=max_iters),
                     unbalanced_sinkhorn(C, marg, 0.05, 0.5, max_iters=max_iters)):
            rows = np.abs(plan.coupling.sum(axis=1) - marg.source).max()
            cols = np.abs(plan.coupling.sum(axis=0) - marg.target).max()
            assert plan.marginal_residual == max(rows, cols)


def _kl(x, y):
    return math.fsum(xi * math.log(xi / yi) - xi + yi if xi > 0 else yi
                     for xi, yi in zip(x.ravel(), y.ravel()))


zero_masks = st.lists(st.booleans(), min_size=1, max_size=6).filter(lambda z: not all(z))


@given(st.integers(min_value=0, max_value=2**32 - 1), zero_masks, zero_masks,
       st.sampled_from(["emd", "sinkhorn", "uot"]))
@settings(max_examples=60, deadline=None)
def test_plan_diagnostics_are_formulas_on_coupling_and_problem(seed, zero_a, zero_b,
                                                                solver):
    # Marginals with zero entries: the solve drops those rows and columns,
    # and the plan still answers for the whole problem it was given.
    rng = np.random.default_rng(seed)
    C = CostMatrix(rng.uniform(0.0, 1.0, size=(len(zero_a), len(zero_b))), "l2")
    a = np.where(zero_a, 0.0, rng.uniform(0.1, 1.0, len(zero_a)))
    b = np.where(zero_b, 0.0, rng.uniform(0.1, 1.0, len(zero_b)))
    marg = Marginals(a / a.sum(), b / b.sum())
    if solver == "emd":
        plan = solve_exact_emd(C, marg)
    elif solver == "sinkhorn":
        plan = sinkhorn(C, marg, 0.1)
    else:
        plan = unbalanced_sinkhorn(C, marg, 0.1, 0.5)
    P, a, b = plan.coupling, plan.marginals.source, plan.marginals.target
    assert plan.cost is C
    assert np.array_equal(a, marg.source)
    assert np.allclose(b, marg.target, rtol=0.0, atol=1e-15)
    objective = math.fsum((P * C.values).ravel())
    assert plan.objective_value == pytest.approx(objective, rel=1e-12, abs=1e-15)
    assert plan.marginal_residual == max(np.abs(P.sum(axis=1) - a).max(),
                                         np.abs(P.sum(axis=0) - b).max())
    if solver == "emd":
        assert plan.objective_regularized is None
        dual = math.fsum(a * plan.dual_source) + math.fsum(b * plan.dual_target)
        assert plan.duality_gap == pytest.approx(objective - dual, abs=1e-12)
        return
    reg = objective + 0.1 * _kl(P, np.outer(a, b))
    if solver == "uot":
        reg += 0.5 * (_kl(P.sum(axis=1), a) + _kl(P.sum(axis=0), b))
    assert plan.objective_regularized == pytest.approx(reg, rel=1e-12, abs=1e-15)
    assert plan.duality_gap is None


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    C, marg = random_instance(rng, 5, 3)
    perm = rng.permutation(5)
    C_p = CostMatrix(C.values[perm], C.metric)
    marg_p = Marginals(marg.source[perm], marg.target)
    base = unbalanced_sinkhorn(C, marg, 0.1, 0.5)
    permuted = unbalanced_sinkhorn(C_p, marg_p, 0.1, 0.5)
    assert np.allclose(base.coupling[perm], permuted.coupling, atol=1e-9)


def test_entropic_monotonicity_over_eps_grid():
    rng = np.random.default_rng(15)
    C, marg = random_instance(rng, 4, 4)
    C = normalize_cost(C)
    costs = []
    for eps in (1.0, 0.3, 0.1, 0.03, 0.01, 0.003):
        plan = sinkhorn(C, marg, epsilon=eps, tol=1e-9, max_iters=50000)
        costs.append(plan.objective_value)
    for earlier, later in zip(costs, costs[1:]):
        assert later <= earlier + 1e-9


def test_solver_determinism():
    rng = np.random.default_rng(16)
    C, marg = random_instance(rng, 6, 4)
    p1 = unbalanced_sinkhorn(C, marg, 0.05, 0.5)
    p2 = unbalanced_sinkhorn(C, marg, 0.05, 0.5)
    assert np.array_equal(p1.coupling, p2.coupling)
    assert p1.objective_value == p2.objective_value


def test_write_plan_outputs(tmp_path):
    rng = np.random.default_rng(17)
    C, marg = random_instance(rng, 3, 3)
    plan = sinkhorn(C, marg, 0.1)
    coupling_path, json_path = write_plan(plan, tmp_path / "case", solver="sinkhorn")
    loaded = np.loadtxt(coupling_path, delimiter=",")
    assert np.allclose(loaded, plan.coupling, rtol=1e-10)
    import json

    doc = json.loads(json_path.read_text())
    assert doc["solver"] == "sinkhorn"
    assert doc["converged"] is True


@pytest.mark.parametrize("suffix", ["_coupling.csv", "_plan.json"])
def test_failed_plan_write_keeps_previous_file(tmp_path, monkeypatch, suffix):
    rng = np.random.default_rng(18)
    C, marg = random_instance(rng, 5, 4)
    write_plan(sinkhorn(C, marg, 0.1), tmp_path / "out" / "case", solver="sinkhorn")
    before = files_under(tmp_path)
    target = tmp_path / "out" / f"case{suffix}"
    fail_writes_to(monkeypatch, target)
    with pytest.raises(OSError, match="No space left"):
        write_plan(unbalanced_sinkhorn(C, marg, 0.1, 0.5), tmp_path / "out" / "case",
                   solver="uot")
    monkeypatch.undo()
    after = files_under(tmp_path)
    assert after[target] == before[target]
    assert sorted(after) == sorted(before)
