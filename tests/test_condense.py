"""Tests for the MPC problem builders and the prediction matrices."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from knotmpc import condense
from knotmpc.condense import (
    FORMULATIONS,
    MpcSpec,
    _param_input_cost,
    _param_prediction,
    _schedule_weights,
    _segments,
    build,
    build_large_param,
    build_small_param,
)
from knotmpc.bench import make_plant, make_template, preset_config
from knotmpc.dynamics import DiscreteLinearModel, discretize, linearize, rollout
from knotmpc.param import KnotSchedule, interpolation_matrix
from knotmpc.qp import AdmmSolver, BoxQp, QpProblem


def _model(n=2, m=1, seed=0, spectral=0.9):
    rng = np.random.default_rng(seed)
    Ad = rng.normal(size=(n, n))
    Ad *= spectral / max(np.abs(np.linalg.eigvals(Ad)))
    return DiscreteLinearModel(Ad, rng.normal(size=(n, m)), rng.normal(size=n) * 0.1, 0.05)


def _spec(model, T, seed=0):
    rng = np.random.default_rng(seed + 100)
    n, m = model.n, model.m
    return MpcSpec(
        model, T,
        Q=np.diag(rng.uniform(0.5, 2.0, n)),
        R=np.diag(rng.uniform(0.1, 1.0, m)),
        x_goal=rng.normal(size=n) * 0.3,
        u_min=-2.0 * np.ones(m),
        u_max=2.0 * np.ones(m),
    )


# ---------------------------------------------------------------------------
# prediction matrices

def _prediction(model, sched, x0):
    """S (nT, pm) and v (nT,), split from the one-recursion [S | v]."""
    Sv = _param_prediction(model, sched, x0)
    Sv = Sv.reshape(-1, Sv.shape[-1])
    return Sv[:, :-1], Sv[:, -1]


def test_prediction_matrices_scalar_powers():
    # x_{k+1} = a x_k + b u_k + w unrolls to explicit powers of a
    a, b, w = 0.8, 0.3, 0.1
    model = DiscreteLinearModel(np.array([[a]]), np.array([[b]]), np.array([w]), 0.1)
    S, v = _prediction(model, KnotSchedule(3, 3), np.array([2.0]))
    S_ref = np.array([[b, 0, 0], [a * b, b, 0], [a * a * b, a * b, b]])
    v_ref = np.array([a * 2 + w, a * (a * 2 + w) + w, a * (a * (a * 2 + w) + w) + w])
    np.testing.assert_allclose(S, S_ref, atol=1e-15)
    np.testing.assert_allclose(v, v_ref, atol=1e-15)


def test_prediction_matches_rollout():
    rng = np.random.default_rng(4)
    model = _model(3, 2, seed=4)
    U = rng.normal(size=(7, 2))
    x0 = rng.normal(size=3)
    S, v = _prediction(model, KnotSchedule(7, 7), x0)
    X = rollout(model, x0, U)
    pred = S @ U.ravel() + v
    np.testing.assert_allclose(pred, X[1:].ravel(), atol=1e-12)


def _unit_responses(model, x0, W):
    """Prediction (S, v) over the knots of W, column by column from rollouts:
    v is the zero-input trajectory and column j the response to knot
    coordinate j set to one."""
    p, m = W.shape[1], model.m
    v = rollout(model, x0, np.zeros((W.shape[0], m)))[1:].ravel()
    S = np.empty((v.size, p * m))
    for j in range(p * m):
        U = np.zeros(p * m)
        U[j] = 1.0
        S[:, j] = rollout(model, x0, W @ U.reshape(p, m))[1:].ravel() - v
    return S, v


def test_knot_prediction_is_condensed_full_prediction():
    model = _model(2, 2, seed=6)
    sched = KnotSchedule(T=11, p=4)
    x0 = np.array([0.4, -0.2])
    W = interpolation_matrix(sched)
    S_ref, v_ref = _unit_responses(model, x0, W)
    Sp, vp = _prediction(model, sched, x0)
    np.testing.assert_allclose(Sp, S_ref, atol=1e-10)
    np.testing.assert_allclose(vp, v_ref, atol=1e-12)


def test_knot_prediction_second_block_row():
    # for T=5, p=3 the second predicted state mixes the first two knots:
    # x_2 = Ad Bd U_0 + Bd (U_0 + U_1)/2 + ...
    model = _model(2, 1, seed=2)
    Sp, _ = _prediction(model, KnotSchedule(T=5, p=3), np.zeros(2))
    blk = Sp[2:4]
    want = np.hstack([
        (model.Ad + 0.5 * np.eye(2)) @ model.Bd,
        0.5 * model.Bd,
        np.zeros((2, 1)),
    ])
    np.testing.assert_allclose(blk, want, atol=1e-14)


@pytest.mark.parametrize("p", [1, 4, 11])
def test_knot_input_cost_matches_stacked_reference(p):
    # kron(W'W, R) must equal the stacked form Wbig' kron(I_T, R) Wbig, here
    # with a full (non-diagonal) R, and np.kron bit for bit
    rng = np.random.default_rng(p)
    m, T = 3, 11
    L = rng.normal(size=(m, m))
    spec = replace(_spec(_model(2, m, seed=p), T), R=L @ L.T + 0.1 * np.eye(m))
    assert np.count_nonzero(spec.R - np.diag(np.diagonal(spec.R)))
    sched = KnotSchedule(T=T, p=p)
    W = interpolation_matrix(sched)
    Wbig = np.kron(W, np.eye(m))
    want = Wbig.T @ np.kron(np.eye(T), spec.R) @ Wbig
    got = _param_input_cost(spec, sched)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(got, np.kron(W.T @ W, spec.R))


def _kron_loop_prediction(model, W, x0):
    """S and v from the per-step kron recursion, one block row at a time."""
    n, m = model.Bd.shape
    T, p = W.shape
    S_ref = np.zeros((n * T, m * p))
    v_ref = np.empty(n * T)
    S_ref[:n] = np.kron(W[0], model.Bd)
    v_ref[:n] = model.Ad @ x0 + model.wd
    for k in range(1, T):
        rows, prev = slice(k * n, (k + 1) * n), slice((k - 1) * n, k * n)
        S_ref[rows] = model.Ad @ S_ref[prev] + np.kron(W[k], model.Bd)
        v_ref[rows] = model.Ad @ v_ref[prev] + model.wd
    return S_ref, v_ref


@pytest.mark.parametrize("p", [1, 4, 11])
def test_knot_prediction_matches_kron_loop(p):
    # S takes the same arithmetic as the per-step kron recursion, so it is
    # bit-identical; v rides along as one more column of the same matrix
    # products, where the loop takes matrix-vector ones, so it matches to
    # rounding
    model = _model(3, 2, seed=9)
    x0 = np.array([0.4, -0.2, 0.1])
    sched = KnotSchedule(T=11, p=p)
    S_ref, v_ref = _kron_loop_prediction(model, interpolation_matrix(sched), x0)
    S, v = _prediction(model, sched, x0)
    np.testing.assert_array_equal(S, S_ref)
    np.testing.assert_allclose(v, v_ref, rtol=1e-13, atol=0)


def _arm_spec(links, T, seed):
    """A closed-loop arm spec: the preset's template, linearized and
    discretized at a random state, with nonzero goals."""
    rng = np.random.default_rng(seed)
    cfg = preset_config("closedloop_arms")
    plant = make_plant(cfg.robot, links)
    x = np.concatenate([rng.uniform(-np.pi, np.pi, links), rng.normal(size=links)])
    model = discretize(linearize(plant.ode, x, np.zeros(links)), 1.0 / cfg.rate)
    spec = make_template(plant, cfg, T)._with_model(model)
    return replace(spec, x_goal=rng.normal(size=2 * links)), x


def _two_pass_reference(spec, sched, x0):
    """P, q and the offset of the condensed QP in the two-pass form
    S' blockdiag(Q) S + kron(W'W, R) on the kron-loop S."""
    T, n, Q = spec.T, spec.model.n, spec.Q
    W = interpolation_matrix(sched)
    S, v = _kron_loop_prediction(spec.model, W, x0)
    blockdiag_Q = lambda M: np.vstack([Q @ M[k * n : (k + 1) * n] for k in range(T)])  # noqa: E731
    R_knot = np.kron(W.T @ W, spec.R)
    P_ref = S.T @ blockdiag_Q(S) + R_knot
    P_ref = 0.5 * (P_ref + P_ref.T)
    e = v - np.tile(spec.x_goal, T)
    Qe = blockdiag_Q(e[:, None]).ravel()
    q_ref = S.T @ Qe
    err0 = spec.x_goal - x0
    offset_ref = e @ Qe + err0 @ Q @ err0
    return P_ref, q_ref, offset_ref


@pytest.mark.parametrize("links", [1, 2, 3])
def test_condensed_hessian_matches_two_pass_reference(links, monkeypatch):
    # P from the one Gram product of the recursion's [S | e] is bit-identical
    # to the two-pass form S' blockdiag(Q) S + kron(W'W, R) on the kron-loop
    # S; q and the offset take their terms from the extra column, so they
    # match to rounding.  p = 1 and p = 3 are doubled by default, so the
    # recursion route is forced here for every p.
    monkeypatch.setattr(condense, "_DOUBLING_MIN_SPACING", np.inf)
    T = 30
    spec, x0 = _arm_spec(links, T, seed=links)
    for p in (1, 3, T):
        sched = KnotSchedule(T, p)
        P_ref, q_ref, offset_ref = _two_pass_reference(spec, sched, x0)
        prob = build_small_param(spec, sched, x0)
        np.testing.assert_array_equal(prob.P, P_ref)
        # bitwise symmetric, so the builder's BoxQp skips the symmetry check
        np.testing.assert_array_equal(prob.P, prob.P.T)
        np.testing.assert_allclose(prob.q, q_ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(q_ref)))
        assert prob.offset == pytest.approx(offset_ref, rel=1e-12)


@pytest.mark.parametrize("links", [1, 3])
def test_small_build_stays_on_the_recursion(links):
    # p = T is below the doubling crossover, so ``small`` keeps the one
    # recursion and its P is bit-identical to the two-pass reference
    T = 30
    spec, x0 = _arm_spec(links, T, seed=links)
    P_ref, q_ref, offset_ref = _two_pass_reference(spec, KnotSchedule(T, T), x0)
    prob = build("small", spec, x0)
    np.testing.assert_array_equal(prob.P, P_ref)
    np.testing.assert_allclose(prob.q, q_ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(q_ref)))
    assert prob.offset == pytest.approx(offset_ref, rel=1e-12)


def _max_rel(got, want):
    return np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("spectral", [0.9, 1.05], ids=["stable", "unstable"])
@pytest.mark.parametrize("p, T", [(p, T) for T in (7, 50, 101) for p in (1, 2, 3, 5, 16) if p <= T])
def test_segment_sums_match_the_recursion(p, T, spectral, monkeypatch):
    # the doubled Gram, seen through P, q and the offset, agrees with the
    # recursion-plus-Gram build: one segment (p = 1), integer and
    # non-integer spacing, knots on a step and segments of unequal length
    model = _model(4, 2, seed=T + p, spectral=spectral)
    spec = _spec(model, T, seed=p)
    sched = KnotSchedule(T, p)
    x0 = np.random.default_rng(p).normal(size=4)
    builds = {}
    for route, crossover in (("recursion", np.inf), ("doubling", 0.0)):
        monkeypatch.setattr(condense, "_DOUBLING_MIN_SPACING", crossover)
        builds[route] = build_small_param(spec, sched, x0)
    want, got = builds["recursion"], builds["doubling"]
    assert _max_rel(got.P, want.P) <= 1e-12
    assert _max_rel(got.q, want.q) <= 1e-12
    assert got.offset == pytest.approx(want.offset, rel=1e-12)
    np.testing.assert_array_equal(got.P, got.P.T)


@pytest.mark.parametrize("Tp", [(1, 1), (7, 1), (7, 3), (11, 4), (30, 3), (50, 16), (101, 16), (30, 30)])
def test_segments_follow_the_interpolation(Tp):
    # each segment's first input plus l slopes is row start + l of W, the
    # lengths cover the horizon, and the cached arrays are shared read-only
    sched, m = KnotSchedule(*Tp), 2
    lengths, rows = _segments(sched, m)
    W = interpolation_matrix(sched)
    assert lengths.sum() == sched.T and lengths.size == max(sched.p - 1, 1)
    starts = np.cumsum(lengths) - lengths
    assert rows.shape == (lengths.size, 2 * m, sched.p * m)
    for start, L, fg in zip(starts, lengths, rows):
        f, g = fg[:m, ::m], fg[m:, ::m]  # knot weights of input 0
        np.testing.assert_allclose(f[0] + np.arange(L)[:, None] * g[0], W[start : start + L], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(fg, np.kron(np.stack([f[0], g[0]]), np.eye(m)))
    # a segment starts at the first whole step at or after its knot
    if sched.p > 1:
        np.testing.assert_array_equal(starts, np.ceil(np.arange(sched.p - 1) * sched.spacing - 1e-9))
    assert all(a is b for a, b in zip(_segments(KnotSchedule(*Tp), m), (lengths, rows)))
    for a in (lengths, rows):
        with pytest.raises(ValueError):
            a[0] = 1


@pytest.mark.parametrize("Tp", [(1, 1), (11, 4), (30, 3), (30, 30)])
def test_schedule_weights_are_shared_read_only_constants(Tp):
    sched = KnotSchedule(*Tp)
    W, ks, js, WtW = _schedule_weights(sched)
    want = interpolation_matrix(sched)
    np.testing.assert_array_equal(W, want)
    np.testing.assert_array_equal(np.stack([ks, js]), np.nonzero(want))
    np.testing.assert_array_equal(WtW, want.T @ want)
    # an equal schedule gets the same arrays, and none of them can be written
    assert all(a is b for a, b in zip(_schedule_weights(KnotSchedule(*Tp)), (W, ks, js, WtW)))
    for a in (W, ks, js, WtW):
        with pytest.raises(ValueError):
            a[0] = 1


@pytest.mark.parametrize("p", [1, 3, 11])
def test_large_param_cost_matches_dense_kron(p):
    # the sparse kron(W'W, R) gives the P of the dense kron converted to CSC,
    # bit for bit and with the same sparsity structure
    rng = np.random.default_rng(p)
    m, T = 3, 11
    L = rng.normal(size=(m, m))
    spec = replace(_spec(_model(4, m, seed=p), T), R=L @ L.T + 0.1 * np.eye(m))
    W = interpolation_matrix(KnotSchedule(T=T, p=p))
    want = sp.block_diag([sp.csc_matrix(np.kron(W.T @ W, spec.R)), sp.kron(sp.eye(T), spec.Q)], format="csc")
    got = build_large_param(spec, KnotSchedule(T=T, p=p), np.zeros(4)).P
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


# ---------------------------------------------------------------------------
# problem sizes and structure

def test_problem_dimensions():
    model = _model(2, 1)
    spec = _spec(model, 5)
    x0 = np.zeros(2)
    large = build("large", spec, x0)
    assert large.P.shape[0] == 15  # Tm + nT
    assert large.A.shape == (15, 15)  # dynamics and input rows
    small = build("small", spec, x0)
    assert small.P.shape[0] == 5  # Tm
    sched = KnotSchedule(T=5, p=3)
    lp = build_large_param(spec, sched, x0)
    assert lp.P.shape[0] == 13  # pm + nT
    sp_ = build_small_param(spec, sched, x0)
    assert sp_.P.shape[0] == 3  # pm
    assert sp_.lb.shape == sp_.ub.shape == (3,)
    # the condensed forms are boxes by type; the large ones keep sparse rows
    for prob in (small, sp_, build("small_param", spec, x0, sched)):
        assert type(prob) is BoxQp
    for prob in (large, lp, build("large_param", spec, x0, sched)):
        assert type(prob) is QpProblem and sp.issparse(prob.A)


def test_large_row_structure():
    model = _model(2, 1)
    spec = _spec(model, 5)
    prob = build("large", spec, np.ones(2))
    assert prob.A.shape[0] == 10 + 5  # dynamics, input bounds
    # dynamics rows are equalities; input rows are boxes on the first Tm variables
    lb, ub = np.asarray(prob.lb), np.asarray(prob.ub)
    np.testing.assert_array_equal(lb[:10], ub[:10])
    A = prob.A.toarray()
    np.testing.assert_array_equal(A[10:], np.eye(5, 15))


def test_large_is_banded_by_stage():
    # every column of the sparse form reaches the dynamics rows of at most two
    # consecutive stages and at most one box row, and x0 enters only through
    # the first stage's right-hand side, with a nonzero wd in every stage
    model = _model(3, 2, seed=5)
    assert np.all(model.wd != 0)
    T, n = 7, model.n
    spec = _spec(model, T, seed=5)
    x0 = np.random.default_rng(5).normal(size=n)
    prob = build("large", spec, x0)
    A = prob.A.toarray()
    n_dyn = n * T
    for col in A.T:
        stages = np.unique(np.flatnonzero(col[:n_dyn]) // n)
        assert stages.size <= 2 and np.all(np.diff(stages) == 1)
        assert np.count_nonzero(col[n_dyn:]) <= 1
    rhs = np.concatenate([model.Ad @ x0 + model.wd, np.tile(model.wd, T - 1)])
    np.testing.assert_array_equal(prob.lb[:n_dyn], rhs)
    np.testing.assert_array_equal(prob.ub[:n_dyn], rhs)


def test_dense_knots_reproduce_unparameterized():
    # "small" is the knot builder at p = T; its QP must be the per-step
    # condensed problem, assembled here from unit-input rollouts
    model = _model(3, 2, seed=9)
    T = 8
    spec = _spec(model, T, seed=9)
    x0 = np.random.default_rng(1).normal(size=3)
    S, v = _unit_responses(model, x0, np.eye(T))
    Qbig = np.kron(np.eye(T), spec.Q)
    Rbig = np.kron(np.eye(T), spec.R)
    P_ref = S.T @ Qbig @ S + Rbig
    q_ref = S.T @ Qbig @ (v - np.tile(spec.x_goal, T))
    prob = build("small", spec, x0)
    np.testing.assert_allclose(prob.P, P_ref, atol=1e-10)
    np.testing.assert_allclose(prob.q, q_ref, atol=1e-10)


def test_build_dispatcher():
    model = _model(2, 1)
    spec = _spec(model, 5)
    sched = KnotSchedule(T=5, p=3)
    for kind in FORMULATIONS:
        prob = build(kind, spec, np.zeros(2), sched if "param" in kind else None)
        assert prob.P.shape[0] == prob.q.shape[0]
    with pytest.raises(ValueError):
        build("medium", spec, np.zeros(2))
    with pytest.raises(ValueError):
        build("small_param", spec, np.zeros(2))  # schedule required
    for kind in ("large", "small"):
        with pytest.raises(ValueError, match="takes no knot schedule"):
            build(kind, spec, np.zeros(2), sched)  # one knot per step, not p = 3


# ---------------------------------------------------------------------------
# solutions agree across formulations

def test_first_input_agrees_across_formulations():
    solver = AdmmSolver()
    for seed in range(3):
        model = _model(3, 2, seed=seed)
        spec = _spec(model, 9, seed=seed)
        x0 = np.random.default_rng(seed).normal(size=3)
        sched = KnotSchedule(T=9, p=9)
        u = {}
        for kind in FORMULATIONS:
            prob = build(kind, spec, x0, sched if "param" in kind else None)
            sol = solver.solve(prob)
            assert sol.status == "solved"
            u[kind] = sol.z[:2]  # every formulation's z starts with the knots
        for kind in FORMULATIONS[1:]:
            np.testing.assert_allclose(u[kind], u["large"], atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_condensed_qp_paths_and_warm_starts_agree(data):
    # random condensed forms: the box path (the built BoxQp) and the
    # sparse path (scipy identity A) find the same knots, and a warm
    # re-solve from a perturbed cold solution returns to it
    n, m, T = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2)), data.draw(st.integers(1, 12))
    p = data.draw(st.integers(1, T))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    u_min = rng.uniform(-2.0, 0.5, m)
    spec = replace(
        _spec(_model(n, m, seed=seed, spectral=rng.uniform(0.5, 1.1)), T, seed=seed),
        u_min=u_min, u_max=u_min + rng.uniform(0.1, 2.0, m),
    )
    box = build_small_param(spec, KnotSchedule(T, p), rng.normal(size=n))
    sparse = QpProblem(box.P, box.q, sp.eye(p * m, format="csc"), box.lb, box.ub, box.offset)
    cold, cold_sparse = AdmmSolver().solve(box), AdmmSolver().solve(sparse)
    assert cold.status == cold_sparse.status == "solved"
    np.testing.assert_allclose(cold_sparse.z, cold.z, rtol=0, atol=1e-8)
    warm = (cold.z + 0.1 * rng.normal(size=p * m), cold.dual + 0.1 * rng.normal(size=p * m))
    for prob in (box, sparse):
        again = AdmmSolver().solve(prob, warm=warm)
        assert again.status == "solved"
        np.testing.assert_allclose(again.z, cold.z, rtol=0, atol=1e-8)


def test_objective_constant_recovers_tracking_cost():
    # for every formulation: qp objective + constant == the tracking cost of
    # the rolled-out trajectory, computed here from scratch; the constant
    # alone is the cost of the all-zero decision vector
    solver = AdmmSolver()
    model = _model(2, 1, seed=3)
    spec = _spec(model, 6, seed=3)
    x0 = np.array([0.8, -0.5])
    sched = KnotSchedule(T=6, p=3)
    W = interpolation_matrix(sched)

    def tracking_cost(U):
        X = rollout(spec.model, x0, U)
        c = 0.0
        for k in range(7):
            e = X[k] - spec.x_goal
            c += e @ spec.Q @ e
        for k in range(6):
            c += U[k] @ spec.R @ U[k]
        return c

    for kind in FORMULATIONS:
        prob = build(kind, spec, x0, sched if "param" in kind else None)
        sol = solver.solve(prob)
        assert sol.status == "solved"
        U = sol.z[:6] if kind in ("large", "small") else W @ sol.z[:3]
        U = U.reshape(6, 1)
        if kind.startswith("large"):
            # zero states x_1..x_T and zero inputs, plus the fixed k = 0 stage
            err0 = spec.x_goal - x0
            zero_cost = 6 * spec.x_goal @ spec.Q @ spec.x_goal + err0 @ spec.Q @ err0
        else:
            # zero inputs, states from the free response
            zero_cost = tracking_cost(np.zeros((6, 1)))
        assert prob.offset == pytest.approx(zero_cost, rel=1e-12, abs=1e-12), kind
        total = sol.objective + prob.offset
        assert total == pytest.approx(tracking_cost(U), rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_condensed_offset_is_objective_constant(seed):
    # the builder takes the constant from its own free response; it must be
    # the tracking cost of zero knots rolled out here from scratch, with a
    # non-diagonal Q and a nonzero x_goal
    rng = np.random.default_rng(seed)
    n, m, T = 4, 2, 12
    model = _model(n, m, seed=seed)
    G = rng.normal(size=(n, n))
    spec = MpcSpec(
        model, T, Q=G @ G.T, R=np.diag(rng.uniform(0.1, 1.0, m)),
        x_goal=rng.normal(size=n),
        u_min=-3.0 * np.ones(m), u_max=3.0 * np.ones(m),
    )
    x0 = rng.normal(size=n)
    X = rollout(spec.model, x0, np.zeros((T, m)))
    zero_cost = sum((x - spec.x_goal) @ spec.Q @ (x - spec.x_goal) for x in X)
    for p in (1, 4, T):
        prob = build_small_param(spec, KnotSchedule(T, p), x0)
        assert prob.offset == pytest.approx(zero_cost, rel=1e-12, abs=1e-12), p


@pytest.mark.parametrize("seed", range(6))
def test_offset_recovers_tracking_cost(seed):
    # for every formulation and knot count: qp objective + offset == the
    # tracking cost of the rolled-out trajectory, computed here from scratch,
    # with a non-diagonal Q and a nonzero x_goal
    rng = np.random.default_rng(seed)
    n, m, T = 4, 2, 12
    model = _model(n, m, seed=seed)
    G = rng.normal(size=(n, n))
    spec = MpcSpec(
        model, T, Q=G @ G.T, R=np.diag(rng.uniform(0.1, 1.0, m)),
        x_goal=rng.normal(size=n),
        u_min=-3.0 * np.ones(m), u_max=3.0 * np.ones(m),
    )
    x0 = rng.normal(size=n)

    def tracking_cost(U):
        X = rollout(spec.model, x0, U)
        c = 0.0
        for k in range(T + 1):
            e = X[k] - spec.x_goal
            c += e @ spec.Q @ e
        for k in range(T):
            c += U[k] @ spec.R @ U[k]
        return c

    solver = AdmmSolver()
    for kind in FORMULATIONS:
        for p in (1, 4, T) if "param" in kind else (T,):
            sched = KnotSchedule(T, p)
            prob = build(kind, spec, x0, sched if "param" in kind else None)
            sol = solver.solve(prob)
            assert sol.status == "solved"
            U = interpolation_matrix(sched) @ sol.z[: p * m].reshape(p, m)
            total = sol.objective + prob.offset
            assert total == pytest.approx(tracking_cost(U), rel=1e-8, abs=1e-8), (kind, p)


# ---------------------------------------------------------------------------
# spec validation

def test_spec_broadcasts_scalars():
    model = _model(3, 2)
    spec = MpcSpec(model, 4, np.eye(3), np.eye(2), 0.0, -1.0, 1.0)
    assert spec.x_goal.shape == (3,)
    assert spec.u_min.shape == (2,)
    np.testing.assert_array_equal(spec.u_max, [1.0, 1.0])


def test_spec_validation_errors():
    model = _model(2, 1)
    ok = dict(Q=np.eye(2), R=np.eye(1), x_goal=np.zeros(2), u_min=-np.ones(1), u_max=np.ones(1))
    with pytest.raises(ValueError):
        MpcSpec(model, 0, **ok)
    with pytest.raises(ValueError):
        MpcSpec(model, 5, **{**ok, "Q": np.diag([1.0, -0.5])})  # indefinite
    with pytest.raises(ValueError):
        MpcSpec(model, 5, **{**ok, "R": np.zeros((1, 1))})  # only semidefinite
    with pytest.raises(ValueError):
        MpcSpec(model, 5, **{**ok, "Q": np.array([[1.0, 0.3], [0.0, 1.0]])})
    with pytest.raises(ValueError):
        MpcSpec(model, 5, **{**ok, "u_min": np.ones(1), "u_max": -np.ones(1)})
    with pytest.raises(ValueError):
        MpcSpec(model, 5, **{**ok, "x_goal": np.zeros(3)})


def test_spec_rejects_non_finite_data():
    model = _model(2, 1)
    ok = dict(Q=np.eye(2), R=np.eye(1), x_goal=np.zeros(2), u_min=-np.ones(1), u_max=np.ones(1))
    for bad in (np.nan, np.inf):
        for name, val in (("x_goal", [0.0, bad]), ("Q", np.diag([1.0, bad])), ("R", [[bad]])):
            with pytest.raises(ValueError, match=name):
                MpcSpec(model, 5, **{**ok, name: np.array(val)})
    for name in ("u_min", "u_max"):
        with pytest.raises(ValueError, match="NaN"):
            MpcSpec(model, 5, **{**ok, name: np.full(1, np.nan)})
    # infinite bounds stay allowed
    MpcSpec(model, 5, **{**ok, "u_min": -np.inf, "u_max": np.inf})


def test_build_rejects_non_finite_state():
    # a NaN state must not be solved as if it were zero
    spec = _spec(_model(2, 1), 6)
    sched = KnotSchedule(6, 3)
    for kind in FORMULATIONS:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite|NaN"):
                build(kind, spec, np.array([bad, 0.0]), sched)
