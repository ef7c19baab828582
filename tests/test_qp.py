"""Tests for the operator-splitting QP solver.

The solver minimizes z'Pz + 2q'z subject to lb <= Az <= ub (a ``BoxQp``
has lb <= z <= ub).  Reference solutions come from closed forms, a dense
KKT solve, and an exhaustive active-set enumeration for small box problems.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from knotmpc import qp
from knotmpc.qp import AdmmSolver, BoxQp, QpProblem, QpSettings, QpSolution

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
    sol = AdmmSolver().solve(BoxQp(P, q, -np.ones(3), np.ones(3)))
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
    sol = AdmmSolver().solve(BoxQp(P, q, lb, ub))
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
    sol = AdmmSolver().solve(QpProblem(Pb, qb, A, lb, ub))
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
    # an indefinite P: neither ADMM nor the exact finish can solve it, so
    # the cap is what stops the loop, also between residual checks
    sol = AdmmSolver(QpSettings(max_iters=40)).solve(_indefinite_box_problem())
    assert sol.status == "max_iters"
    assert sol.iterations == 40


def test_objective_field_is_consistent():
    prob = _random_equality_problem()
    sol = AdmmSolver().solve(prob)
    assert sol.objective == pytest.approx(sol.z @ prob.P @ sol.z + 2.0 * prob.q @ sol.z, abs=1e-12)


def test_repeated_solves_reuse_factorization():
    # the solver keeps no state between solves, so a repeated solve repeats
    # the result bit for bit
    prob = _random_equality_problem()
    solver = AdmmSolver()
    a = solver.solve(prob)
    b = solver.solve(prob)
    np.testing.assert_array_equal(a.z, b.z)
    assert a.status == b.status == "solved"


def test_sparse_and_dense_paths_agree(monkeypatch):
    # the same box QP, once as a BoxQp (box path) and once as a QpProblem
    # with a scipy-sparse or a dense identity A, which takes the sparse path
    # all the same; cold, both run ADMM before the exact finish, the box
    # path on its reduced d x d factor, and each finishes at iteration 0
    # when warm-started from the other's solution
    rng = np.random.default_rng(21)
    n = 40
    P = np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -0.5), 1) + np.diag(np.full(n - 1, -0.5), -1)
    q = rng.normal(size=n)
    lb, ub = -0.4 * np.ones(n), 0.4 * np.ones(n)
    box = BoxQp(P, q, lb, ub)
    dense = AdmmSolver().solve(box)
    assert dense.status == "solved" and dense.iterations > 0
    assert np.any(np.abs(dense.z) > 0.4 - 1e-9)  # some bounds are active
    lu_calls = _counting(monkeypatch, qp.sla, "lu_factor")
    splu_calls = _counting(monkeypatch, qp.spla, "splu")
    for A in (sp.eye(n, format="csc"), np.eye(n)):
        general = QpProblem(P, q, A, lb, ub)
        n_splu = len(splu_calls)
        sparse = AdmmSolver().solve(general)
        assert sparse.status == "solved" and sparse.iterations > 0
        assert len(splu_calls) > n_splu and lu_calls == []  # the sparse path's factors only
        np.testing.assert_allclose(dense.z, sparse.z, atol=1e-9)
        for prob, other in ((box, sparse), (general, dense)):
            warm = AdmmSolver().solve(prob, warm=(other.z, other.dual))
            assert warm.status == "solved" and warm.iterations == 0
            np.testing.assert_allclose(warm.z, other.z, atol=1e-9)


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _small_box_problem(seed=1):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(6, 6))
    P = M.T @ M + np.eye(6)
    q = 3.0 * rng.normal(size=6)
    return BoxQp(P, q, -np.ones(6), np.ones(6))


def test_cold_box_solve_runs_admm_to_the_first_check(monkeypatch):
    # no warm start: ADMM from the origin on one LU, then the walk from
    # the iterate at the first residual check finishes the solve exactly
    lu_calls = _counting(monkeypatch, qp.sla, "lu_factor")
    prob = _small_box_problem()
    sol = AdmmSolver().solve(prob)
    assert sol.status == "solved" and sol.iterations == qp._CHECK_INTERVAL
    assert len(lu_calls) == 1
    z_ref, _ = _enumerate_box_optimum(prob.P, prob.q, prob.lb, prob.ub)
    assert np.any(np.abs(z_ref) > 1.0 - 1e-9)  # some bounds are active
    np.testing.assert_allclose(sol.z, z_ref, atol=1e-9)


def test_warm_box_resolve_finishes_without_admm(monkeypatch):
    prob = _small_box_problem()
    cold = AdmmSolver().solve(prob)
    lu_calls = _counting(monkeypatch, qp.sla, "lu_factor")
    sol = AdmmSolver().solve(prob, warm=(cold.z, cold.dual))
    assert sol.status == "solved" and sol.iterations == 0
    assert lu_calls == []
    np.testing.assert_allclose(sol.z, cold.z, atol=1e-12)


def test_converged_admm_iterate_is_polished(monkeypatch):
    # at eps = 1e-3 ADMM meets its tolerance at the first check about 4e-4
    # from the optimum; the exact finish is still tried and its point returned
    prob = _small_box_problem()
    s = QpSettings(eps_prim=1e-3, eps_dual=1e-3)
    z_ref, _ = _enumerate_box_optimum(prob.P, prob.q, prob.lb, prob.ub)
    sol = AdmmSolver(s).solve(prob)
    assert sol.status == "solved" and sol.iterations == qp._CHECK_INTERVAL
    np.testing.assert_allclose(sol.z, z_ref, atol=1e-12)
    # only a failed finish leaves the bare ADMM iterate
    monkeypatch.setattr(AdmmSolver, "_polish_box", lambda self, *args: None)
    raw = AdmmSolver(s).solve(prob)
    assert raw.status == "solved" and raw.iterations == qp._CHECK_INTERVAL
    assert np.max(np.abs(raw.z - z_ref)) > 1e-6


def test_finish_is_tried_on_convergence_between_due_checks(monkeypatch):
    # the sparse path tries its finish at checks 1, 2, 4, ...; here the
    # first two attempts are made to fail and ADMM converges at check 3,
    # where no attempt is due, about 1e-5 from the optimum
    box = _small_box_problem(seed=0)
    prob = QpProblem(box.P, box.q, sp.eye(6, format="csc"), box.lb, box.ub)
    z_ref, _ = _enumerate_box_optimum(prob.P, prob.q, prob.lb, prob.ub)
    finish = AdmmSolver._try_polish
    calls = []

    def failing_twice(self, *args):
        calls.append(1)
        return None if len(calls) <= 2 else finish(self, *args)

    monkeypatch.setattr(AdmmSolver, "_try_polish", failing_twice)
    sol = AdmmSolver(QpSettings(eps_prim=1e-4, eps_dual=1e-4)).solve(prob)
    assert sol.status == "solved" and sol.iterations == 3 * qp._CHECK_INTERVAL
    assert len(calls) == 3
    np.testing.assert_allclose(sol.z, z_ref, atol=1e-12)


@pytest.mark.parametrize("A", [None, sp.eye(5, format="csc")], ids=["box", "sparse"])
def test_admm_factor_is_built_once_per_system(monkeypatch, A):
    # with the exact finish patched out ADMM iterates to its tolerance: each
    # solve builds its factor once, however many iterations it runs, and the
    # sparse path runs Ruiz once per solve (a box scales in closed form)
    for name in ("_polish_box", "_try_polish"):
        monkeypatch.setattr(AdmmSolver, name, lambda self, *args: None)
    calls = {"lu_factor": _counting(monkeypatch, qp.sla, "lu_factor"),
             "splu": _counting(monkeypatch, qp.spla, "splu")}
    ruiz = _counting(monkeypatch, qp, "_ruiz")
    rng = np.random.default_rng(8)
    M = rng.normal(size=(5, 5))
    q, lb, ub = rng.normal(size=5), -0.1 * np.ones(5), 0.1 * np.ones(5)

    def problem(P, ub=ub):
        return BoxQp(P, q, lb, ub) if A is None else QpProblem(P, q, A, lb, ub)

    prob = problem(M.T @ M + np.eye(5))
    solver = AdmmSolver()
    first, second = solver.solve(prob), solver.solve(prob)
    assert first.status == second.status == "solved" and first.iterations > qp._CHECK_INTERVAL
    np.testing.assert_array_equal(first.z, second.z)
    factor = "lu_factor" if A is None else "splu"
    assert len(calls[factor]) == 2
    assert sum(len(c) for c in calls.values()) == 2
    assert len(ruiz) == (0 if A is None else 2)
    # pinning a coordinate (lb == ub) changes only the penalties
    pinned = solver.solve(problem(prob.P, ub=np.where(np.arange(5) == 0, lb, ub)))
    assert pinned.status == "solved" and pinned.z[0] == pytest.approx(-0.1, abs=1e-6)
    assert len(calls[factor]) == 3
    assert len(ruiz) == (0 if A is None else 3)
    # a different P is a new system
    solver.solve(problem(2.0 * prob.P))
    assert len(calls[factor]) == 4
    assert len(ruiz) == (0 if A is None else 4)


def _scaled_box_problem(c):
    rng = np.random.default_rng(11)
    M = rng.normal(size=(18, 18))
    P = M.T @ M + np.eye(18)
    q = 3.0 * rng.normal(size=18)
    return BoxQp(c * P, c * q, -np.ones(18), np.ones(18))


@pytest.mark.parametrize("c", [1.0, 1e6, 1e9, 1e11])
def test_polish_accepts_badly_scaled_box_qp(c):
    # with |q| ~ c the stationarity residual of the exact optimum rounds at
    # about 1e-16 c, above an absolute 1e-6 once c >= 1e9; the walk from a
    # warm start at the origin must still be accepted at iteration 0 and
    # return the unscaled optimum
    ref = AdmmSolver().solve(_scaled_box_problem(1.0))
    sol = AdmmSolver().solve(_scaled_box_problem(c), warm=(np.zeros(18), np.zeros(18)))
    assert sol.status == "solved"
    assert sol.iterations == 0
    assert np.any(np.abs(ref.z) > 1.0 - 1e-9)  # some bounds are active
    np.testing.assert_allclose(sol.z, ref.z, atol=1e-9)


def _both_types(P, q, lb=None, ub=None, offset=0.0):
    """The problem as a BoxQp and as a QpProblem with a sparse identity A."""
    A = sp.eye(np.size(q), format="csc")
    return (lambda: BoxQp(P, q, lb, ub, offset)), (lambda: QpProblem(P, q, A, lb, ub, offset))


def test_problem_validation():
    for make in (*_both_types(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2)),  # not symmetric
                 *_both_types(np.eye(2), np.zeros(3)),
                 *_both_types(np.eye(1), np.zeros(1), np.ones(1), -np.ones(1)),
                 *_both_types(np.eye(2), np.zeros(2), np.zeros(3), np.ones(3))):
        with pytest.raises(ValueError):
            make()
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), np.zeros(2), np.ones((1, 3)), np.zeros(1), np.ones(1))
    with pytest.raises(ValueError, match="row"):
        QpProblem(np.eye(2), np.zeros(2), np.zeros((0, 2)))  # no constraints: use a free box


def test_box_qp_without_variables_rejected():
    # validating it once let the solve fail later on an empty argmax
    with pytest.raises(ValueError, match="at least one variable"):
        BoxQp(np.zeros((0, 0)), np.zeros(0))


def test_sparse_qp_without_variables_rejected():
    # validating it once let the solve fail later on an empty reduction
    with pytest.raises(ValueError, match="at least one variable"):
        QpProblem(np.zeros((0, 0)), np.zeros(0), np.zeros((1, 0)), np.zeros(1), np.ones(1))


def test_builder_path_skips_only_the_symmetry_check():
    P = np.array([[1.0, 0.5], [0.0, 1.0]])
    lb, ub = -np.ones(2), np.ones(2)
    with pytest.raises(ValueError, match="symmetric"):
        BoxQp(P, np.zeros(2), lb, ub)
    assert BoxQp._from_symmetric(P, np.zeros(2), lb, ub, 0.0).P is P
    with pytest.raises(ValueError, match="finite"):
        BoxQp._from_symmetric(np.full((2, 2), np.nan), np.zeros(2), lb, ub, 0.0)
    with pytest.raises(ValueError, match="lb <= ub"):
        BoxQp._from_symmetric(np.eye(2), np.zeros(2), ub, lb, 0.0)
    with pytest.raises(ValueError, match="offset must be finite"):
        BoxQp._from_symmetric(np.eye(2), np.zeros(2), lb, ub, np.inf)


def test_problem_rejects_non_finite_data():
    P, q = np.eye(2), np.zeros(2)
    lb, ub = -np.ones(2), np.ones(2)
    for bad in (np.nan, np.inf, -np.inf):
        bad_P = np.array([[1.0, 0.0], [0.0, bad]])
        for make in (*_both_types(bad_P, q, lb, ub),
                     *_both_types(P, np.array([0.0, bad]), lb, ub),
                     *_both_types(P, np.array([bad, 0.0])),  # unbounded box too
                     lambda: QpProblem(sp.csc_matrix(bad_P), q, np.eye(2), lb, ub),  # a QpProblem may have a sparse P
                     lambda: QpProblem(P, q, np.array([[1.0, bad], [0.0, 1.0]]), lb, ub)):
            with pytest.raises(ValueError, match="finite"):
                make()
        for make in _both_types(P, q, lb, ub, offset=bad):
            with pytest.raises(ValueError, match="offset must be finite"):
                make()
    for pattern, bounds in (("NaN", (np.array([np.nan, -1.0]), ub)),
                            ("NaN", (lb, np.array([1.0, np.nan]))),
                            ("inf", (np.array([-1.0, np.inf]), np.array([1.0, np.inf]))),  # z >= +inf
                            ("inf", (np.array([-np.inf, -1.0]), np.array([-np.inf, 1.0])))):  # z <= -inf
        for make in _both_types(P, q, *bounds):
            with pytest.raises(ValueError, match=pattern):
                make()
    # infinite bounds are a free side, not bad data
    for make in _both_types(P, np.array([-3.0, 0.5]), np.array([-np.inf, -1.0]), np.array([1.0, np.inf])):
        sol = AdmmSolver().solve(make())
        assert sol.status == "solved"
        np.testing.assert_allclose(sol.z, [1.0, -0.5], atol=1e-7)


def test_solution_type():
    sol = AdmmSolver().solve(BoxQp(np.eye(2), np.ones(2), -np.ones(2), np.ones(2)))
    assert isinstance(sol, QpSolution)
    assert sol.iterations >= 0


def _dense_ruiz_reference(P2, A, iters):
    """Ruiz equilibration on dense P2 and A, pass by pass: column norms of
    [P2; A], row norms of A, then D@P2@D and E@A@D."""
    D = np.ones(P2.shape[0])
    E = np.ones(A.shape[0])
    for _ in range(iters):
        col = np.maximum(np.max(np.abs(P2), axis=0), np.max(np.abs(A), axis=0))
        dd = np.where(col > 1e-12, 1.0 / np.sqrt(col), 1.0)
        row = np.max(np.abs(A), axis=1)
        de = np.where(row > 1e-12, 1.0 / np.sqrt(row), 1.0)
        P2 = dd[:, None] * P2 * dd[None, :]
        A = de[:, None] * A * dd[None, :]
        D = D * dd
        E = E * de
    return D, E, P2, A


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_box_scaling_is_a_ruiz_fixed_point(data):
    # the box path scales in closed form; one more Ruiz pass on the scaled
    # [D P2 D; E I D] = [D P2 D; I] must leave it where it is.  Any D with
    # |D P2 D| <= 1 is such a fixed point; the one taken scales each
    # diagonal of P2 to 1 and leaves those below 1 unscaled
    d = data.draw(st.integers(1, 18))
    c = data.draw(st.sampled_from([1e-3, 1.0, 1e6, 1e11]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    M = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-2.0, 2.0, d)
    P2 = 2.0 * (c * (M.T @ M))
    D = qp._box_scaling(P2)
    np.testing.assert_array_equal(D[np.diagonal(P2) <= 1.0], 1.0)
    P2s = D[:, None] * P2 * D[None, :]
    dd, de, _, _ = _dense_ruiz_reference(P2s, np.eye(d), 1)
    eps = np.finfo(float).eps
    np.testing.assert_allclose(dd, 1.0, rtol=0, atol=4 * eps)
    np.testing.assert_allclose(de, 1.0, rtol=0, atol=4 * eps)
    np.testing.assert_allclose(np.diagonal(P2s), np.minimum(np.diagonal(P2), 1.0), rtol=4 * eps, atol=0)


def _indefinite_box_problem():
    # one eigenvalue -0.5 among large positive ones: far more indefinite
    # than the rounding floor the walk shifts by
    rng = np.random.default_rng(209)
    Q, _ = np.linalg.qr(rng.normal(size=(18, 18)))
    P = Q @ np.diag(np.concatenate([[-0.5], np.logspace(0, 8, 17)])) @ Q.T
    P = 0.5 * (P + P.T)
    return BoxQp(P, rng.normal(size=18), -np.ones(18), np.ones(18))


def test_indefinite_box_qp_reports_failure():
    # the walk's Cholesky fails, ADMM runs to its cap, and the solver
    # reports that instead of raising
    sol = AdmmSolver(QpSettings(max_iters=50)).solve(_indefinite_box_problem())
    assert sol.status != "solved"
    assert sol.iterations == 50  # the ADMM fallback ran


def test_rounding_floor_shift_solves_a_singular_free_block(monkeypatch):
    # a rank-one P with q in its range: the QP is bounded, its optima form a
    # line v'z = -1 inside the box, and the free block is singular, so its
    # Cholesky fails at the rounding floor.  The walk's shifted retry factors
    # it, and the result passes the KKT gates
    v = np.array([1.0, 2.0])
    prob = BoxQp(np.outer(v, v), v, -10.0 * np.ones(2), 10.0 * np.ones(2))
    failed = []
    cho_factor = qp.sla.cho_factor

    def counting(*args, **kwargs):
        try:
            return cho_factor(*args, **kwargs)
        except qp.sla.LinAlgError:
            failed.append(args[0].shape)
            raise

    monkeypatch.setattr(qp.sla, "cho_factor", counting)
    sol = AdmmSolver().solve(prob)
    assert sol.status == "solved"
    assert failed == [(2, 2)]
    assert v @ sol.z == pytest.approx(-1.0, abs=1e-6)
    assert np.all(sol.z >= prob.lb) and np.all(sol.z <= prob.ub)
    np.testing.assert_allclose(2.0 * prob.P @ sol.z + 2.0 * prob.q + sol.dual, 0.0, atol=1e-6)
    np.testing.assert_allclose(sol.dual, 0.0, atol=1e-9)  # interior: no bound is active


@pytest.mark.parametrize("where", ["P", "q"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_polish_box_rejects_non_finite_scaled_data(where, bad):
    # the walk factors and solves unchecked, so _polish_box itself must
    # turn non-finite scaled data away before the first pivot
    prob = _scaled_box_problem(1.0)
    P2s, q2s = 2.0 * prob.P, 2.0 * prob.q
    if where == "P":
        P2s[3, 5] = P2s[5, 3] = bad
    else:
        q2s[4] = bad
    ones = np.ones(18)
    assert AdmmSolver()._polish_box(prob, P2s, q2s, ones, ones, prob.lb, prob.ub, np.zeros(18)) is None


def test_warm_start_must_be_finite():
    prob = _scaled_box_problem(1.0)
    solver = AdmmSolver()
    with pytest.raises(ValueError, match="finite"):
        solver.solve(prob, warm=(np.full(18, np.nan), np.zeros(18)))
    with pytest.raises(ValueError, match="finite"):
        solver.solve(prob, warm=(np.zeros(18), np.full(18, np.inf)))
    # and of the problem's size, on both paths
    with pytest.raises(ValueError, match="wrong dimensions"):
        solver.solve(prob, warm=(np.zeros(17), np.zeros(18)))
    with pytest.raises(ValueError, match="wrong dimensions"):
        solver.solve(_random_equality_problem(), warm=(np.zeros(6), np.zeros(3)))


def test_walk_factors_once_per_pivot(monkeypatch):
    # separable P, warm start at the origin: the unconstrained optimum
    # (0.5, 2, 3, 5) leaves the box [-1, 1] in three coordinates, at step
    # ratios 1/2, 1/3 and 1/5, so the walk pins them one pivot at a time
    # and then takes a full step: four free-block Cholesky factorizations
    cho_calls = _counting(monkeypatch, qp.sla, "cho_factor")
    P = np.diag([1.0, 2.0, 3.0, 4.0])
    target = np.array([0.5, 2.0, 3.0, 5.0])
    prob = BoxQp(P, -P @ target, -np.ones(4), np.ones(4))
    sol = AdmmSolver().solve(prob, warm=(np.zeros(4), np.zeros(4)))
    assert sol.status == "solved" and sol.iterations == 0
    np.testing.assert_allclose(sol.z, np.clip(target, -1.0, 1.0), atol=1e-12)
    assert len(cho_calls) == 4


def test_warm_dual_pins_a_bound_the_gradient_would_free(monkeypatch):
    # the optimum (1, 0) has z1 on its upper bound with multiplier 0.4.  At
    # the warm point (1, 0.8) the gradient of z1 points into the box, yet the
    # free Newton step would cross the bound; the warm dual pins it from the
    # start, so one free-block factorization finishes the solve
    P = np.array([[1.0, 0.5], [0.5, 1.0]])
    prob = BoxQp(P, np.array([-1.2, -0.5]), -np.ones(2), np.ones(2))
    z = np.array([1.0, 0.8])
    assert (P @ z + prob.q)[0] > 0
    cho_calls = _counting(monkeypatch, qp.sla, "cho_factor")
    sol = AdmmSolver().solve(prob, warm=(z, np.array([0.4, 0.0])))
    assert sol.status == "solved" and sol.iterations == 0
    assert len(cho_calls) == 1
    np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(sol.dual, [0.4, 0.0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_warm_box_solve_from_any_start_reaches_the_optimum(data):
    # a random dual, the stale (z, dual) of other data, or a dual that pins
    # every coordinate at the bound opposite its optimum's side: the walk
    # alone gets there, releasing every wrong pin it was seeded with
    d = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(["random", "stale", "wrong-sign"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    M = rng.normal(size=(d, d))
    P = M.T @ M + np.eye(d)
    q = 3.0 * rng.normal(size=d)
    lb = rng.uniform(-2.0, 0.0, d)
    ub = rng.uniform(0.0, 2.0, d)
    z_ref, _ = _enumerate_box_optimum(P, q, lb, ub)
    if kind == "random":
        z = rng.uniform(lb - 1.0, ub + 1.0)
        side = rng.integers(0, 3, d)
        z[side == 1], z[side == 2] = lb[side == 1], ub[side == 2]
        y = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=d)
    elif kind == "stale":
        prev = AdmmSolver().solve(BoxQp(P, q + rng.normal(size=d), lb, ub))
        z, y = prev.z, prev.dual
    else:
        z = np.where(z_ref - lb < ub - z_ref, ub, lb)
        y = np.where(z == ub, 1.0, -1.0) * rng.uniform(0.1, 10.0, d)
    sol = AdmmSolver().solve(BoxQp(P, q, lb, ub), warm=(z, y))
    assert sol.status == "solved" and sol.iterations == 0
    np.testing.assert_allclose(sol.z, z_ref, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# the finishes' refusals: a candidate that fails a gate is never "solved"


def _counting_cho_factor(monkeypatch) -> list:
    calls = []
    cho_factor = qp.sla.cho_factor

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(qp.sla, "cho_factor", counting)
    return calls


@pytest.mark.parametrize("path", ["box", "sparse"])
def test_unbounded_qp_is_never_solved(monkeypatch, path):
    # P = vv' is singular and q is outside its range, so the objective falls
    # without bound along (1, -1).  The box walk's shifted retry and the
    # sparse finish's regularized solve each return a candidate whose
    # stationarity residual stays near |q|, so both are refused, and the
    # loop ends at the iteration cap
    v = np.ones(2)
    P, q = np.outer(v, v), np.array([1.0, -1.0])
    prob = BoxQp(P, q) if path == "box" else QpProblem(P, q, np.eye(2))
    calls = _counting_cho_factor(monkeypatch)
    sol = AdmmSolver(QpSettings(max_iters=50)).solve(prob)
    assert (sol.status, sol.iterations) == ("max_iters", 50)
    if path == "box":
        assert calls == [(2, 2)] * 4  # a failed Cholesky and its shifted retry at each of two checks


def test_walk_that_spends_its_pivot_cap_is_refused(monkeypatch):
    # from the box's centre every optimum lies beyond ub = 1, each at its own
    # distance, so the walk pins one coordinate per factorization and meets
    # its cap of 150 pivots before the 200th; the warm attempt is dropped
    # and ADMM's iterate, on the bounds already, finishes at the first check
    d = 200
    prob = BoxQp(0.5 * np.eye(d), -0.5 * (2.0 + 0.01 * np.arange(d)), -np.ones(d), np.ones(d))
    calls = _counting_cho_factor(monkeypatch)
    sol = AdmmSolver().solve(prob, warm=(np.zeros(d), np.zeros(d)))
    assert len(calls) == 150
    assert (sol.status, sol.iterations) == ("solved", 25)
    np.testing.assert_array_equal(sol.z, 1.0)


def test_wrong_sign_multiplier_is_refused():
    # the warm dual pins z_0 at its lower bound, where the scaled gradient is
    # -1e-9: below the walk's release threshold, so the walk stops, but the
    # unscaled multiplier 1e-6 (E_0 = 1e3) has the wrong sign beyond the gate's
    # 1e-8 relative tolerance.  The optimum z_0 = 1e-12 sits off that bound
    prob = BoxQp(np.diag([5e5, 0.5]), np.array([-5e-7, 0.5]), np.zeros(2), np.ones(2))
    sol = AdmmSolver().solve(prob, warm=(np.zeros(2), np.array([-1.0, -1.0])))
    assert (sol.status, sol.iterations) == ("solved", 25)
    np.testing.assert_allclose(sol.z, [1e-12, 0.0], atol=1e-18)


def test_primal_gate_refuses_a_candidate_unscaled_past_its_bound():
    # the walk pins z on the scaled bound E lb; unscaled, (E lb) / E lands one
    # ulp (1.2e-4) below lb = 1e12 + 5, more than eps_prim, so the finish
    # refuses the candidate instead of reporting an infeasible point
    lb = 1e12 + 5.0
    prob = BoxQp(np.array([[1.5]]), np.zeros(1), [lb], [np.inf])
    P2 = 2.0 * prob.P
    D = qp._box_scaling(P2)
    E = 1.0 / D
    assert (E * lb) / E < lb - QpSettings().eps_prim
    P2s, q2s = D[:, None] * P2 * D[None, :], D * (2.0 * prob.q)
    assert AdmmSolver()._polish_box(prob, P2s, q2s, D, E, E * prob.lb, E * prob.ub, E * prob.lb) is None


def test_failed_equality_solve_is_refused(monkeypatch):
    # with a PSD P the finish's regularized KKT matrix is quasi-definite and
    # never singular; an indefinite P = -delta/2 cancels the regularization
    # delta exactly, so with no active row the sparse LU fails, and the
    # warm attempt is dropped for ADMM
    results = []
    polish_solve = AdmmSolver._polish_solve

    def recording(self, *args):
        results.append(polish_solve(self, *args))
        return results[-1]

    monkeypatch.setattr(AdmmSolver, "_polish_solve", recording)
    prob = QpProblem(np.array([[-5e-10]]), np.zeros(1), np.eye(1), [-1.0], [1.0])
    sol = AdmmSolver().solve(prob, warm=(np.zeros(1), np.zeros(1)))
    assert results[0] is None
    assert sol.iterations > 0


def test_non_finite_stationarity_is_refused():
    # |q| = 1e300 with no active row: the finish's regularized solve
    # overflows, its stationarity residual is not finite, and the warm attempt
    # is dropped; from ADMM's dual the finish then pins the lower bound
    prob = QpProblem(np.array([[1e-20]]), np.array([1e300]), np.eye(1), [-1.0], [1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        sol = AdmmSolver().solve(prob, warm=(np.zeros(1), np.zeros(1)))
    assert (sol.status, sol.iterations) == ("solved", 25)
    np.testing.assert_array_equal(sol.z, [-1.0])
