"""Tests for the plants, linearization, discretization, and integrators.

Expected values marked as oracle constants were derived independently:
closed-form matrix exponentials for the scalar affine system, Cartesian
tip Jacobians for the chain inertia, and adaptive ODE integration for
the zero-order-hold map.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from knotmpc.bench import make_plant
from knotmpc.dynamics import (
    ContinuousLinearModel,
    DiscreteLinearModel,
    NLinkArm,
    NLinkParams,
    SingularInertiaError,
    discretize,
    integrate,
    linearize,
    nlink_accel,
    nlink_mass_matrix,
    rk4_step,
    rollout,
    step,
    total_energy,
)

# closed form for xdot = a x + b u + w, dt = 0.1, a=-2, b=3, w=0.5
SCALAR_AD = 0.8187307530779818
SCALAR_BD = 0.27190387038302727
SCALAR_WD = 0.045317311730504545

# two-link chain (unit masses, 0.25 m links) via Cartesian tip Jacobians
M_TWO_LINK_ZERO = np.array([[0.3125, 0.125], [0.125, 0.0625]])
M_TWO_LINK_BENT = np.array(
    [[0.3026326242503606, 0.1200663121251803],
     [0.1200663121251803, 0.06249999999999999]]
)


def pendulum_accel(params, q, qd, tau):
    """The pendulum m l^2 qdd + b qd + m g l sin(q) = tau in closed form,
    evaluated for one-link chain params: the oracle for the one-link chain."""
    m, l = float(params.mass[0]), float(params.length[0])
    return (tau - params.damping * qd - m * params.gravity * l * np.sin(q)) / (m * l**2)


# ---------------------------------------------------------------------------
# discretization

def test_exact_discretization_scalar_oracle():
    model = ContinuousLinearModel(np.array([[-2.0]]), np.array([[3.0]]), np.array([0.5]))
    dm = discretize(model, 0.1)
    assert dm.Ad[0, 0] == pytest.approx(SCALAR_AD, abs=1e-15)
    assert dm.Bd[0, 0] == pytest.approx(SCALAR_BD, abs=1e-15)
    assert dm.wd[0] == pytest.approx(SCALAR_WD, abs=1e-15)
    assert dm.dt == 0.1


def test_exact_discretization_matches_ode_integration():
    # independent reference: integrate the affine ODE with tight tolerances
    plant = make_plant("pendulum", 1)
    clin = linearize(plant.ode, np.array([0.4, -0.2]), np.array([0.3]))
    dm = discretize(clin, 0.05)
    x0 = np.array([0.1, 0.7])
    u0 = np.array([1.3])
    ref = solve_ivp(
        lambda t, x: clin.A @ x + clin.B @ u0 + clin.w,
        (0.0, 0.05), x0, rtol=1e-12, atol=1e-14,
    ).y[:, -1]
    np.testing.assert_allclose(step(dm, x0, u0), ref, atol=1e-12)


def test_discretize_rejects_bad_arguments():
    model = ContinuousLinearModel(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(ValueError):
        discretize(model, 0.0)
    with pytest.raises(ValueError):
        discretize(model, -0.1)
    with pytest.raises(ValueError):
        discretize(model, np.nan)
    with pytest.raises(ValueError):
        discretize(model, np.inf)


def test_model_dimension_properties():
    c = ContinuousLinearModel(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros(3))
    assert (c.n, c.m) == (3, 2)
    d = DiscreteLinearModel(np.eye(4), np.zeros((4, 1)), np.zeros(4), 0.01)
    assert (d.n, d.m) == (4, 1)


# ---------------------------------------------------------------------------
# linearization

def test_linearize_recovers_linear_system_exactly():
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    B = np.array([[0.0], [1.5]])
    w = np.array([0.2, -0.1])
    f = lambda x, u: x @ A.T + u @ B.T + w
    clin = linearize(f, np.array([0.3, -0.8]), np.array([0.4]))
    np.testing.assert_allclose(clin.A, A, atol=1e-8)
    np.testing.assert_allclose(clin.B, B, atol=1e-8)
    np.testing.assert_allclose(clin.w, w, atol=1e-8)


def _linearize_by_columns(f, x0, u0, eps=1e-6):
    """Central differences one column at a time, one call of ``f`` per point.

    The oracle for ``linearize``, which evaluates the same points in one
    row-stacked call with the same arithmetic, so the two agree exactly.
    """
    n, m = x0.size, u0.size
    A = np.empty((n, n))
    B = np.empty((n, m))
    for i in range(n):
        dx = np.zeros(n)
        dx[i] = eps
        A[:, i] = (f(x0 + dx, u0) - f(x0 - dx, u0)) / (2 * eps)
    for j in range(m):
        du = np.zeros(m)
        du[j] = eps
        B[:, j] = (f(x0, u0 + du) - f(x0, u0 - du)) / (2 * eps)
    w = f(x0, u0) - A @ x0 - B @ u0
    return ContinuousLinearModel(A, B, w)


@pytest.mark.parametrize(
    "plant",
    [NLinkArm(NLinkParams(links=6)), NLinkArm(NLinkParams(links=3, gravity=9.81)), make_plant("pendulum", 1)],
    ids=["arm6", "arm3_gravity", "pendulum"],
)
def test_linearize_equals_column_oracle(plant):
    rng = np.random.default_rng(plant.n)
    for trial in range(40):
        x0 = rng.uniform(-np.pi, np.pi, plant.n)
        u0 = rng.normal(size=plant.m) if trial % 2 else np.zeros(plant.m)
        got = linearize(plant.ode, x0, u0)
        want = _linearize_by_columns(plant.ode, x0, u0)
        for name in ("A", "B", "w"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_linearize_calls_f_once_with_row_stacked_points():
    plant = NLinkArm(NLinkParams(links=4))
    shapes = []

    def f(x, u):
        shapes.append((x.shape, u.shape))
        return plant.ode(x, u)

    linearize(f, np.full(8, 0.1), np.zeros(4))
    assert shapes == [((25, 8), (25, 4))]


def test_linearize_pendulum_matches_analytic_jacobian():
    p = NLinkParams(links=1, mass=1.3, length=0.7, damping=0.12, gravity=9.81)
    plant = NLinkArm(p)
    q0, qd0, tau0 = 0.6, -0.4, 0.25
    clin = linearize(plant.ode, np.array([q0, qd0]), np.array([tau0]))
    ml2 = p.mass[0] * p.length[0] ** 2
    A_ref = np.array([[0.0, 1.0], [-p.gravity / p.length[0] * np.cos(q0), -p.damping / ml2]])
    B_ref = np.array([[0.0], [1.0 / ml2]])
    np.testing.assert_allclose(clin.A, A_ref, atol=1e-6)
    np.testing.assert_allclose(clin.B, B_ref, atol=1e-6)
    # affine residual makes the model exact at the linearization point
    x0 = np.array([q0, qd0])
    np.testing.assert_allclose(
        clin.A @ x0 + clin.B @ [tau0] + clin.w, plant.ode(x0, [tau0]), atol=1e-12
    )


# ---------------------------------------------------------------------------
# the pendulum: the one-link chain

def test_pendulum_accel_analytic():
    p = NLinkParams(links=1, mass=2.0, length=0.5, damping=0.1, gravity=9.81)
    got = nlink_accel(p, np.array([0.3]), np.array([-1.2]), np.array([0.7]))[0]
    want = (0.7 - 0.1 * -1.2 - 2.0 * 9.81 * 0.5 * np.sin(0.3)) / (2.0 * 0.25)
    assert got == pytest.approx(want, rel=1e-14)


def test_pendulum_params_validation():
    with pytest.raises(ValueError):
        NLinkParams(links=1, mass=0.0)
    with pytest.raises(ValueError):
        NLinkParams(links=1, length=-1.0)
    with pytest.raises(ValueError):
        NLinkParams(links=1, damping=-0.1)


def test_pendulum_energy_conserved_when_undamped():
    p = NLinkParams(links=1, length=1.0, damping=0.0, gravity=9.81)
    plant = NLinkArm(p)
    x = np.array([1.0, 0.5])
    e0 = total_energy(p, x)
    for _ in range(100):
        x = integrate(plant.ode, x, np.zeros(1), 0.01, substeps=10)
    assert total_energy(p, x) == pytest.approx(e0, rel=1e-9)


def test_energy_zero_at_rest_datum():
    assert total_energy(make_plant("pendulum", 1).params, np.zeros(2)) == 0.0
    assert total_energy(NLinkParams(links=3), np.zeros(6)) == 0.0
    assert total_energy(NLinkParams(links=3, gravity=9.81), np.zeros(6)) == 0.0


@pytest.mark.parametrize("path", ["ode", "ode1"])
@pytest.mark.parametrize("links", [1, 2, 6, 13])
def test_chain_hanging_at_rest_has_zero_acceleration(links, path):
    plant = NLinkArm(NLinkParams(links=links, gravity=9.81))
    xdot = getattr(plant, path)(np.zeros(2 * links), np.zeros(links))
    assert np.all(xdot == 0.0)


def test_displaced_pendulum_accelerates_back():
    plant = NLinkArm(NLinkParams(links=1, gravity=9.81))
    for path in (plant.ode, plant.ode1):
        assert path(np.array([0.1, 0.0]), np.zeros(1))[1] < 0.0
        assert path(np.array([-0.1, 0.0]), np.zeros(1))[1] > 0.0


def _pendulum_states(seed, count=200):
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.uniform(-np.pi, np.pi, count), rng.normal(size=count)])
    return X, rng.normal(scale=10.0, size=(count, 1))


def _closed_form(plant, X, U):
    return np.column_stack([X[:, 1], pendulum_accel(plant.params, X[:, 0], X[:, 1], U[:, 0])])


@pytest.mark.parametrize("robot", ["pendulum", "pendulum_nograv"])
def test_pendulum_plants_equal_the_closed_form_bit_for_bit(robot):
    # the one-link chain's 1x1 solve divides by m l^2 = 1, and its
    # Cholesky by sqrt(1) twice, so both paths give the closed form's bits
    plant = make_plant(robot, 1)
    X, U = _pendulum_states(0)
    want = _closed_form(plant, X, U)
    assert plant.ode(X, U).tobytes() == want.tobytes()
    assert np.array([plant.ode1(x, u) for x, u in zip(X, U)]).tobytes() == want.tobytes()


def test_scaled_pendulum_models_equal_the_closed_form_through_ode():
    # a wrong model is only ever linearized, through the batched ode, whose
    # 1x1 solve is one exact division; the Cholesky path's two divisions by
    # sqrt(m l^2) need not be, so ode1 is not pinned here; the multipliers
    # are the robustness_pendulum preset's
    for i in range(11):
        plant = make_plant("pendulum", 1, round(0.5 + 0.1 * i, 10))
        X, U = _pendulum_states(i)
        assert plant.ode(X, U).tobytes() == _closed_form(plant, X, U).tobytes()


# ---------------------------------------------------------------------------
# n-link chain

def test_two_link_mass_matrix_oracle():
    params = NLinkParams(links=2)
    np.testing.assert_allclose(nlink_mass_matrix(params, np.zeros(2)), M_TWO_LINK_ZERO, atol=1e-15)
    np.testing.assert_allclose(
        nlink_mass_matrix(params, np.array([0.3, -0.4])), M_TWO_LINK_BENT, atol=1e-15
    )


def _mass_matrix_from_jacobians(params, q):
    # independent derivation: sum of m_i J_i' J_i over tip positions
    th = np.cumsum(q)
    N = params.links
    M = np.zeros((N, N))
    for i in range(N):
        J = np.zeros((2, N))
        for j in range(i + 1):
            # d(tip i)/d(q j) sums the segments between joint j and tip i
            seg = params.length[j : i + 1]
            ang = th[j : i + 1]
            J[0, j] = -np.sum(seg * np.sin(ang))
            J[1, j] = np.sum(seg * np.cos(ang))
        M += params.mass[i] * J.T @ J
    return M


def test_mass_matrix_matches_jacobian_construction():
    rng = np.random.default_rng(3)
    for links in (1, 2, 3, 5):
        params = NLinkParams(links=links, mass=rng.uniform(0.5, 2.0, links), length=rng.uniform(0.1, 0.6, links))
        for _ in range(5):
            q = rng.uniform(-np.pi, np.pi, links)
            np.testing.assert_allclose(
                nlink_mass_matrix(params, q), _mass_matrix_from_jacobians(params, q), atol=1e-12
            )


def test_mass_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(11)
    for links in (1, 2, 3, 6):
        params = NLinkParams(links=links)
        for _ in range(20):
            M = nlink_mass_matrix(params, rng.uniform(-np.pi, np.pi, links))
            np.testing.assert_allclose(M, M.T, atol=1e-14)
            assert np.min(np.linalg.eigvalsh(M)) > 0


def test_accel_consistent_with_mass_matrix():
    # at zero velocity and zero gravity, M(q) qdd must equal the torque
    rng = np.random.default_rng(7)
    for links in (1, 2, 4):
        params = NLinkParams(links=links)
        q = rng.uniform(-2, 2, links)
        tau = rng.normal(size=links)
        qdd = nlink_accel(params, q, np.zeros(links), tau)
        np.testing.assert_allclose(nlink_mass_matrix(params, q) @ qdd, tau, atol=1e-12)


def test_single_link_equals_pendulum():
    # chain angles are measured from the hanging position, as the pendulum's
    cp = NLinkParams(links=1, mass=1.4, length=0.6, damping=0.08, gravity=9.81)
    for q, qd, tau in [(0.3, -0.5, 0.7), (-1.2, 0.9, -0.4), (2.5, 0.0, 0.0)]:
        a_pend = pendulum_accel(cp, q, qd, tau)
        a_chain = nlink_accel(cp, np.array([q]), np.array([qd]), np.array([tau]))[0]
        assert a_chain == pytest.approx(a_pend, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("links", [1, 2, 6, 13])
def test_nlink_accel_batch_equals_single_calls(links):
    rng = np.random.default_rng(links)
    params = NLinkParams(links=links, mass=rng.uniform(0.5, 2.0, links), gravity=9.81)
    q = rng.uniform(-np.pi, np.pi, (30, links))
    qd = rng.normal(size=(30, links))
    tau = rng.normal(size=(30, links))
    want = np.array([nlink_accel(params, q[i], qd[i], tau[i]) for i in range(30)])
    np.testing.assert_array_equal(nlink_accel(params, q, qd, tau), want)
    # more than one leading axis batches the same way
    np.testing.assert_array_equal(
        nlink_accel(params, q.reshape(5, 6, links), qd.reshape(5, 6, links), tau.reshape(5, 6, links)),
        want.reshape(5, 6, links),
    )


def test_ode_accepts_row_stacked_states():
    rng = np.random.default_rng(5)
    for plant in (NLinkArm(NLinkParams(links=3)), make_plant("pendulum", 1)):
        X = rng.normal(size=(7, plant.n))
        U = rng.normal(size=(7, plant.m))
        want = np.array([plant.ode(X[i], U[i]) for i in range(7)])
        got = plant.ode(X, U)
        assert got.shape == (7, plant.n)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("path", ["ode", "ode1"])
def test_chain_energy_conserved_when_undamped(path):
    params = NLinkParams(links=3, damping=0.0, gravity=9.81)
    plant = NLinkArm(params)
    x = np.array([0.4, -0.8, 1.1, 0.5, -0.2, 0.3])
    e0 = total_energy(params, x)
    for _ in range(100):
        x = integrate(getattr(plant, path), x, np.zeros(3), 0.01, substeps=10)
    assert total_energy(params, x) == pytest.approx(e0, rel=1e-5)


def _random_arm_states(links, gravity, damping, count):
    rng = np.random.default_rng([links, int(gravity), int(damping * 100)])
    plant = NLinkArm(NLinkParams(links=links, mass=rng.uniform(0.5, 2.0, links), gravity=gravity, damping=damping))
    for _ in range(count):
        x = np.concatenate([rng.uniform(-np.pi, np.pi, links), rng.normal(size=links)])
        yield plant, x, rng.normal(size=links)


@pytest.mark.parametrize("damping", [0.0, 0.01])
@pytest.mark.parametrize("gravity", [0.0, 9.81])
@pytest.mark.parametrize("links", [1, 2, 6, 13])
def test_ode1_agrees_with_ode(links, gravity, damping):
    # the two paths differ only in the solve (Cholesky against LU), and a
    # backward-stable solve's forward error scales with the condition number
    # of the inertia matrix, so the bound is 1e-15 (about 4.5 eps) times it;
    # at one link the matrix is 1x1 and the bound is 1e-15 itself
    for plant, x, u in _random_arm_states(links, gravity, damping, 50):
        want = plant.ode(x, u)
        got = plant.ode1(x, u)
        assert got.shape == want.shape == (2 * links,)
        th = np.cumsum(x[:links])
        cond = np.linalg.cond(plant.params.inertia_weights * np.cos(np.subtract.outer(th, th)))
        assert np.max(np.abs(got - want)) <= 1e-15 * cond * np.max(np.abs(want))
    # one 10-substep control period through each path: a derivative
    # difference changes a substep only where it tips the rounding of
    # x + h*k, so the states part by a few ulps of the largest component
    for plant, x, u in _random_arm_states(links, gravity, damping, 10):
        want = integrate(plant.ode, x, u, 0.01, substeps=10)
        got = integrate(plant.ode1, x, u, 0.01, substeps=10)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_ode1_rejects_an_inertia_matrix_that_is_not_positive_definite():
    params = NLinkParams(links=3)
    object.__setattr__(params, "inertia_weights", -params.inertia_weights)
    with pytest.raises(SingularInertiaError, match="positive definite"):
        NLinkArm(params).ode1(np.zeros(6), np.zeros(3))


def test_nlink_params_broadcasting_and_validation():
    p = NLinkParams(links=3, mass=2.0, length=0.5)
    np.testing.assert_array_equal(p.mass, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(p.length, [0.5, 0.5, 0.5])
    p2 = NLinkParams(links=2, mass=[1.0, 3.0])
    np.testing.assert_array_equal(p2.mass, [1.0, 3.0])
    with pytest.raises(ValueError):
        NLinkParams(links=0)
    with pytest.raises(ValueError):
        NLinkParams(links=2, mass=[1.0, -1.0])
    with pytest.raises(ValueError):
        NLinkParams(links=1, damping=-0.5)


@pytest.mark.parametrize(
    "field, value",
    [("mass", np.nan), ("mass", np.inf), ("length", np.inf), ("length", np.nan),
     ("damping", np.nan), ("damping", np.inf), ("gravity", np.nan), ("gravity", -np.inf)],
)
def test_nlink_params_reject_non_finite_fields(field, value):
    with pytest.raises(ValueError, match="finite"):
        NLinkParams(links=2, **{field: value})


def test_nlink_arm_dimensions():
    arm = NLinkArm(NLinkParams(links=4))
    assert (arm.n, arm.m) == (8, 4)
    xdot = arm.ode(np.zeros(8), np.ones(4))
    assert xdot.shape == (8,)


def test_singular_inertia_error_type():
    assert issubclass(SingularInertiaError, RuntimeError)


# ---------------------------------------------------------------------------
# stepping and integration

def test_rollout_matches_repeated_step():
    rng = np.random.default_rng(0)
    model = DiscreteLinearModel(rng.normal(size=(3, 3)) * 0.4, rng.normal(size=(3, 2)), rng.normal(size=3), 0.1)
    x0 = rng.normal(size=3)
    U = rng.normal(size=(6, 2))
    X = rollout(model, x0, U)
    assert X.shape == (7, 3)
    x = x0
    for k in range(6):
        x = step(model, x, U[k])
        np.testing.assert_allclose(X[k + 1], x, atol=1e-14)


def test_rk4_fourth_order_convergence():
    # doubling the substep count should shrink the global error ~16x
    f = lambda x, u: -x + u
    x0 = np.array([1.0])
    u = np.array([0.3])
    exact = (x0 - u) * np.exp(-1.0) + u
    e1 = abs(integrate(f, x0, u, 1.0, substeps=8)[0] - exact[0])
    e2 = abs(integrate(f, x0, u, 1.0, substeps=16)[0] - exact[0])
    assert 10.0 < e1 / e2 < 25.0


def test_integrate_is_substep_composition():
    plant = make_plant("pendulum", 1)
    x = np.array([0.5, -0.3])
    u = np.array([0.8])
    via_integrate = integrate(plant.ode, x, u, 0.02, substeps=4)
    xx = x
    for _ in range(4):
        xx = rk4_step(plant.ode, xx, u, 0.005)
    np.testing.assert_allclose(via_integrate, xx, atol=1e-15)


def test_integrate_rejects_fewer_than_one_substep():
    plant = make_plant("pendulum", 1)
    for substeps in (0, -1):
        with pytest.raises(ValueError, match="substeps"):
            integrate(plant.ode1, np.array([0.5, -0.3]), np.array([0.8]), 0.02, substeps)


# ---------------------------------------------------------------------------
# end to end


def test_closed_loop_states_identical_under_column_oracle(monkeypatch):
    # a 6-link knot controller run twice in one process, the second time
    # linearizing through the per-column oracle: the trajectories must agree
    # to the byte, whatever the BLAS build
    from knotmpc import closedloop
    from knotmpc.bench import _sample_endpoints, make_plant, make_template, preset_config

    cfg = preset_config("closedloop_arms")
    plant = make_plant(cfg.robot, 6)
    template = make_template(plant, cfg, cfg.T)
    x0, x_goal = _sample_endpoints(np.random.default_rng(0), plant.m)
    controller = closedloop.Controller("small_param", p=3)

    def run():
        return closedloop.run_closed_loop(plant, controller, template, x0, x_goal, 5 / cfg.rate, cfg.rate)

    batched = run()
    monkeypatch.setattr(closedloop, "linearize", _linearize_by_columns)
    oracle = run()
    assert batched.states.shape == (6, plant.n)
    assert batched.states.tobytes() == oracle.states.tobytes()
    assert batched.inputs.tobytes() == oracle.inputs.tobytes()
