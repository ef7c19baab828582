"""Tests for the operator-splitting QP solver.

The solver minimizes z'Pz + 2q'z subject to lb <= Az <= ub.  Reference
solutions come from closed forms, a dense KKT solve, and an exhaustive
active-set enumeration for small box problems.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from knotmpc import qp
from knotmpc.qp import AdmmSolver, QpProblem, QpSettings, QpSolution, _is_box, solve_qp

# equality-constrained QP assembled from default_rng(42):
#   M = normal(6,6); P = M'M + I; q = normal(6); A = normal(2,6); b = normal(2)
# solved via the dense KKT system [[2P, A'], [A, 0]]
KKT_Z = np.array(
    [
        -0.41603057059481996,
        -0.48813462399005836,
        -0.14235661877329034,
        -1.30707273269094,
        -0.3263999516423059,
        -0.21034339773305835,
    ]
)
KKT_OBJ = 2.1590940849072044


def _random_equality_problem():
    rng = np.random.default_rng(42)
    M = rng.normal(size=(6, 6))
    P = M.T @ M + np.eye(6)
    q = rng.normal(size=6)
    A = rng.normal(size=(2, 6))
    b = rng.normal(size=2)
    return QpProblem(P, q, A, b, b)


def test_diagonal_box_qp_analytic():
    # separable problem, each coordinate clips independently
    P = np.diag([2.0, 1.0, 4.0])
    q = np.array([-2.0, 3.0, 0.0])
    sol = solve_qp(QpProblem(P, q, np.eye(3), -np.ones(3), np.ones(3)))
    assert sol.status == "solved"
    np.testing.assert_allclose(sol.z, [1.0, -1.0, 0.0], atol=1e-7)
    assert sol.objective == pytest.approx(-7.0, abs=1e-7)


def test_equality_constrained_oracle():
    prob = _random_equality_problem()
    sol = AdmmSolver().solve(prob)
    assert sol.status == "solved"
    np.testing.assert_allclose(sol.z, KKT_Z, atol=1e-7)
    assert sol.objective == pytest.approx(KKT_OBJ, abs=1e-7)
    # cross-check the frozen values inside the test as well
    kkt = np.block([[2.0 * prob.P, prob.A.T], [prob.A, np.zeros((2, 2))]])
    ref = np.linalg.solve(kkt, np.concatenate([-2.0 * prob.q, prob.lb]))[:6]
    np.testing.assert_allclose(KKT_Z, ref, atol=1e-13)


def _enumerate_box_optimum(P, q, lb, ub):
    """Global optimum by trying every active-set pattern (exact for PD P)."""
    d = len(q)
    best, best_obj = None, np.inf
    for code in range(3**d):
        z = np.empty(d)
        free = []
        c = code
        for i in range(d):
            c, r = divmod(c, 3)
            if r == 0:
                z[i] = lb[i]
            elif r == 1:
                z[i] = ub[i]
            else:
                free.append(i)
        if free:
            f = np.array(free)
            act = np.setdiff1d(np.arange(d), f)
            rhs = -q[f] - (P[np.ix_(f, act)] @ z[act] if act.size else 0.0)
            z[f] = np.linalg.solve(P[np.ix_(f, f)], rhs)
            if np.any(z[f] < lb[f] - 1e-12) or np.any(z[f] > ub[f] + 1e-12):
                continue
        obj = z @ P @ z + 2.0 * q @ z
        if obj < best_obj:
            best, best_obj = z, obj
    return best, best_obj


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_box_qp_matches_exhaustive_enumeration(data):
    d = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    M = rng.normal(size=(d, d))
    P = M.T @ M + np.eye(d)
    q = rng.normal(size=d)
    lb = rng.uniform(-2.0, 0.0, d)
    ub = rng.uniform(0.0, 2.0, d)
    sol = solve_qp(QpProblem(P, q, np.eye(d), lb, ub))
    assert sol.status == "solved"
    z_ref, obj_ref = _enumerate_box_optimum(P, q, lb, ub)
    np.testing.assert_allclose(sol.z, z_ref, atol=1e-5)
    assert sol.objective <= obj_ref + 1e-6


def test_warm_start_accepts_previous_solution():
    prob = _random_equality_problem()
    solver = AdmmSolver()
    first = solver.solve(prob)
    again = solver.solve(prob, warm=(first.z, first.dual))
    assert again.status == "solved"
    np.testing.assert_allclose(again.z, first.z, atol=1e-6)
    assert again.iterations <= first.iterations


def test_solution_satisfies_unscaled_kkt_after_bad_scaling():
    # column scaling by 1e4 must not degrade the returned accuracy
    rng = np.random.default_rng(8)
    M = rng.normal(size=(5, 5))
    P = M.T @ M + np.eye(5)
    q = rng.normal(size=5)
    D = np.diag([1.0, 1e4, 1.0, 1e4, 1.0])
    Pb, qb = D @ P @ D, D @ q
    A = np.vstack([np.eye(5), rng.normal(size=(2, 5))]) @ D
    lb = np.concatenate([-np.ones(5) * 1e3, [-5.0, -5.0]])
    ub = np.concatenate([np.ones(5) * 1e3, [5.0, 5.0]])
    sol = solve_qp(QpProblem(Pb, qb, A, lb, ub))
    assert sol.status == "solved"
    r_dual = 2.0 * Pb @ sol.z + 2.0 * qb + A.T @ sol.dual
    assert np.max(np.abs(r_dual)) <= 2e-6
    Az = A @ sol.z
    assert np.all(Az >= lb - 2e-6) and np.all(Az <= ub + 2e-6)


def test_detects_primal_infeasibility():
    # z <= -1 and z >= 1 cannot both hold
    prob = QpProblem(np.eye(1), np.zeros(1), np.array([[1.0], [1.0]]),
                     np.array([-np.inf, 1.0]), np.array([-1.0, np.inf]))
    sol = AdmmSolver().solve(prob)
    assert sol.status == "primal_infeasible"


def test_iteration_cap_reported():
    # unreachable tolerance, so the cap is what stops the loop
    rng = np.random.default_rng(8)
    M = rng.normal(size=(5, 5))
    P = M.T @ M + np.eye(5)
    q = rng.normal(size=5)
    prob = QpProblem(P, q, np.eye(5), -0.1 * np.ones(5), 0.1 * np.ones(5))
    s = QpSettings(max_iters=40, check_interval=1, polish=False, eps_prim=1e-30, eps_dual=1e-30)
    sol = AdmmSolver(s).solve(prob)
    assert sol.status == "max_iters"
    assert sol.iterations == 40


def test_objective_field_is_consistent():
    prob = _random_equality_problem()
    sol = AdmmSolver().solve(prob)
    assert sol.objective == pytest.approx(sol.z @ prob.P @ sol.z + 2.0 * prob.q @ sol.z, abs=1e-12)


def test_repeated_solves_reuse_factorization():
    prob = _random_equality_problem()
    solver = AdmmSolver()
    a = solver.solve(prob)
    b = solver.solve(prob)
    np.testing.assert_array_equal(a.z, b.z)
    assert a.status == b.status == "solved"


def test_sparse_and_dense_paths_agree():
    # the same box QP, once with a dense A (box path) and once with a
    # scipy-sparse A (general sparse path); without polish both iterate,
    # the box path on its reduced d x d factor
    rng = np.random.default_rng(21)
    n = 40
    P = np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -0.5), 1) + np.diag(np.full(n - 1, -0.5), -1)
    q = rng.normal(size=n)
    lb, ub = -0.4 * np.ones(n), 0.4 * np.ones(n)
    assert _is_box(np.eye(n)) and not _is_box(sp.eye(n, format="csc"))
    for polish in (True, False):
        s = QpSettings(polish=polish)
        dense = solve_qp(QpProblem(P, q, np.eye(n), lb, ub), settings=s)
        sparse = solve_qp(QpProblem(P, q, sp.eye(n, format="csc"), lb, ub), settings=s)
        assert dense.status == sparse.status == "solved"
        assert polish or min(dense.iterations, sparse.iterations) > 0
        assert np.any(np.abs(dense.z) > 0.4 - 1e-9)  # some bounds are active
        np.testing.assert_allclose(dense.z, sparse.z, atol=1e-6)


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_box_solve_finished_by_polish_factors_no_kkt(monkeypatch):
    lu_calls = _counting(monkeypatch, qp.sla, "lu_factor")
    sol = AdmmSolver().solve(_scaled_box_problem(1.0))
    assert sol.status == "solved" and sol.iterations == 0
    assert lu_calls == []


@pytest.mark.parametrize("A", [np.eye(5), sp.eye(5, format="csc")], ids=["box", "sparse"])
def test_admm_factor_is_built_once_per_system(monkeypatch, A):
    calls = {"lu_factor": _counting(monkeypatch, qp.sla, "lu_factor"),
             "splu": _counting(monkeypatch, qp.spla, "splu")}
    rng = np.random.default_rng(8)
    M = rng.normal(size=(5, 5))
    prob = QpProblem(M.T @ M + np.eye(5), rng.normal(size=5), A, -0.1 * np.ones(5), 0.1 * np.ones(5))
    solver = AdmmSolver(QpSettings(polish=False))
    first, second = solver.solve(prob), solver.solve(prob)
    assert first.status == second.status == "solved" and first.iterations > 0
    np.testing.assert_array_equal(first.z, second.z)
    factor = "splu" if sp.issparse(A) else "lu_factor"
    assert len(calls[factor]) == 1
    assert sum(len(c) for c in calls.values()) == 1
    # a different P is a new system and gets its own factor
    solver.solve(QpProblem(2.0 * prob.P, prob.q, A, prob.lb, prob.ub))
    assert len(calls[factor]) == 2


def test_box_detection():
    assert _is_box(np.diag([1.0, 2.0, 3.0]))
    assert not _is_box(np.diag([1.0, 0.0, 3.0]))  # a zero row bounds nothing
    assert not _is_box(np.diag([1.0, -2.0, 3.0]))
    assert not _is_box(np.eye(3) + np.eye(3, k=1))
    assert not _is_box(np.eye(3)[:2])


def test_polish_disabled_still_converges():
    prob = _random_equality_problem()
    sol = AdmmSolver(QpSettings(polish=False)).solve(prob)
    assert sol.status == "solved"
    np.testing.assert_allclose(sol.z, KKT_Z, atol=1e-4)


def test_polish_disabled_never_polishes(monkeypatch):
    calls = []

    def counting(name):
        polish = getattr(AdmmSolver, name)

        def wrapper(self, *args):
            calls.append(name)
            return polish(self, *args)

        return wrapper

    for name in ("_try_polish", "_polish_box"):
        monkeypatch.setattr(AdmmSolver, name, counting(name))
    rng = np.random.default_rng(8)
    M = rng.normal(size=(5, 5))
    P, q = M.T @ M + np.eye(5), rng.normal(size=5)
    # a dense A takes the box polish, a sparse one the general polish
    for A, name in ((np.eye(5), "_polish_box"), (sp.eye(5, format="csc"), "_try_polish")):
        prob = QpProblem(P, q, A, -0.1 * np.ones(5), 0.1 * np.ones(5))
        calls.clear()
        s = QpSettings(max_iters=40, check_interval=1, polish=False, eps_prim=1e-30, eps_dual=1e-30)
        assert AdmmSolver(s).solve(prob).status == "max_iters"
        assert calls == []
        AdmmSolver(QpSettings(max_iters=40, check_interval=1, eps_prim=1e-30, eps_dual=1e-30)).solve(prob)
        assert calls and set(calls) == {name}  # the counter does see polish attempts when they are on


def _scaled_box_problem(c):
    rng = np.random.default_rng(11)
    M = rng.normal(size=(18, 18))
    P = M.T @ M + np.eye(18)
    q = 3.0 * rng.normal(size=18)
    return QpProblem(c * P, c * q, np.eye(18), -np.ones(18), np.ones(18))


@pytest.mark.parametrize("c", [1.0, 1e6, 1e9, 1e11])
def test_polish_accepts_badly_scaled_box_qp(c):
    # with |q| ~ c the stationarity residual of the exact optimum rounds at
    # about 1e-16 c, above an absolute 1e-6 once c >= 1e9; the polish must
    # still accept it at iteration 0 and return the unscaled optimum
    ref = AdmmSolver().solve(_scaled_box_problem(1.0))
    sol = AdmmSolver().solve(_scaled_box_problem(c))
    assert sol.status == "solved"
    assert sol.iterations == 0
    assert np.any(np.abs(ref.z) > 1.0 - 1e-9)  # some bounds are active
    np.testing.assert_allclose(sol.z, ref.z, atol=1e-9)


def test_problem_validation():
    with pytest.raises(ValueError):
        QpProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), np.eye(2))  # not symmetric
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        QpProblem(np.eye(1), np.zeros(1), np.eye(1), np.ones(1), -np.ones(1))
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), np.zeros(2), np.ones((1, 3)), np.zeros(1), np.ones(1))
    with pytest.raises(ValueError, match="row"):
        QpProblem(np.eye(2), np.zeros(2), np.zeros((0, 2)))  # no constraints: use a free box


def test_problem_rejects_non_finite_data():
    P, q, A = np.eye(2), np.zeros(2), np.eye(2)
    lb, ub = -np.ones(2), np.ones(2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            QpProblem(np.array([[1.0, 0.0], [0.0, bad]]), q, A, lb, ub)
        with pytest.raises(ValueError, match="finite"):
            QpProblem(sp.csc_matrix(np.array([[1.0, 0.0], [0.0, bad]])), q, A, lb, ub)
        with pytest.raises(ValueError, match="finite"):
            QpProblem(P, np.array([0.0, bad]), A, lb, ub)
        with pytest.raises(ValueError, match="finite"):
            QpProblem(P, q, np.array([[1.0, bad], [0.0, 1.0]]), lb, ub)
        with pytest.raises(ValueError, match="finite"):
            QpProblem(P, np.array([bad, 0.0]), A)  # unbounded box too
    with pytest.raises(ValueError, match="NaN"):
        QpProblem(P, q, A, np.array([np.nan, -1.0]), ub)
    with pytest.raises(ValueError, match="NaN"):
        QpProblem(P, q, A, lb, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="inf"):
        QpProblem(P, q, A, np.array([-1.0, np.inf]), np.array([1.0, np.inf]))  # z >= +inf
    with pytest.raises(ValueError, match="inf"):
        QpProblem(P, q, A, np.array([-np.inf, -1.0]), np.array([-np.inf, 1.0]))  # z <= -inf
    # infinite bounds are a free side, not bad data
    sol = solve_qp(QpProblem(P, np.array([-3.0, 0.5]), A, np.array([-np.inf, -1.0]), np.array([1.0, np.inf])))
    assert sol.status == "solved"
    np.testing.assert_allclose(sol.z, [1.0, -0.5], atol=1e-7)


def test_solution_type():
    sol = solve_qp(QpProblem(np.eye(2), np.ones(2), np.eye(2), -np.ones(2), np.ones(2)))
    assert isinstance(sol, QpSolution)
    assert sol.solve_time >= 0.0
    assert sol.iterations >= 0
