"""Assembly of MPC problems into box-constrained QPs.

Four interchangeable formulations of the same finite-horizon tracking
problem are provided:

* ``build_large``   -- states and inputs are all decision variables and
  the dynamics enter as equality constraints (big and sparse).
* ``build_small``   -- states are condensed out through the prediction
  matrices, leaving the inputs (small and dense).
* ``build_large_param`` / ``build_small_param`` -- as above, but the
  per-step inputs are replaced by interpolated knot points, shrinking
  the decision vector further.

All four minimize the same tracking objective

    sum_k (x_goal - x_k)' Q (x_goal - x_k) + (u_goal - u_k)' R (u_goal - u_k)
    + terminal state term at the end of the horizon,

so their minimizers agree (the parameterized ones on the restricted
input family), even though each drops a different additive constant from
the quadratic form.  ``objective_constant`` recovers that constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dynamics import DiscreteLinearModel
from .param import KnotSchedule, interpolation_matrix
from .qp import QpProblem, QpSolution

# Controller kinds, each with the integer arguments its token takes after
# the name ("small_param:3", "empc:3:1"): the four QP formulations built
# here, and the evolutionary search over the same knot space (empc.py).
CONTROLLER_KINDS = {
    "large": (),
    "small": (),
    "large_param": ("p",),
    "small_param": ("p",),
    "empc": ("p", "generations"),
}
FORMULATIONS = tuple(kind for kind in CONTROLLER_KINDS if kind != "empc")


class ConfigurationError(ValueError):
    """A problem spec routed to a builder that cannot express it."""


@dataclass(frozen=True)
class MpcSpec:
    """Everything defining one finite-horizon tracking problem.

    Goals and weights must be finite; bounds may be infinite but not NaN.
    """

    model: DiscreteLinearModel
    T: int
    Q: np.ndarray
    R: np.ndarray
    x_goal: np.ndarray
    u_goal: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    x_min: np.ndarray | None = None
    x_max: np.ndarray | None = None

    def __post_init__(self):
        n, m = self.model.n, self.model.m
        if self.T < 1:
            raise ValueError("horizon must be at least one step")
        for name, size in (("x_goal", n), ("u_goal", m), ("u_min", m), ("u_max", m)):
            arr = np.broadcast_to(np.asarray(getattr(self, name), float), (size,)).copy()
            object.__setattr__(self, name, arr)
        for name in ("Q", "R"):
            M = np.asarray(getattr(self, name), float)
            object.__setattr__(self, name, M)
        if self.Q.shape != (n, n) or self.R.shape != (m, m):
            raise ValueError("Q and R must match the model dimensions")
        for name in ("x_goal", "u_goal", "Q", "R"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        _check_symmetric(self.Q, "Q")
        _check_symmetric(self.R, "R")
        if np.min(np.linalg.eigvalsh(self.Q)) < -1e-9:
            raise ValueError("Q must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(self.R)) <= 0:
            raise ValueError("R must be positive definite")
        if not np.all(self.u_min <= self.u_max):  # also false on NaN
            raise ValueError("u_min must be elementwise <= u_max, and neither may be NaN")
        for name, size in (("x_min", n), ("x_max", n)):
            val = getattr(self, name)
            if val is not None:
                arr = np.broadcast_to(np.asarray(val, float), (size,)).copy()
                if np.any(np.isnan(arr)):
                    raise ValueError(f"{name} must not be NaN")
                object.__setattr__(self, name, arr)

    @property
    def has_state_bounds(self) -> bool:
        return (self.x_min is not None and np.any(np.isfinite(self.x_min))) or (
            self.x_max is not None and np.any(np.isfinite(self.x_max))
        )


def _check_symmetric(M, name):
    if np.max(np.abs(M - M.T)) > 1e-9 * (1.0 + np.max(np.abs(M))):
        raise ValueError(f"{name} must be symmetric")


# ---------------------------------------------------------------------------
# prediction matrices (state condensation)


@dataclass(frozen=True)
class PredictionMatrices:
    """Affine map from stacked inputs to stacked states x_1..x_T = S u + v."""

    S: np.ndarray
    v: np.ndarray


def prediction_matrices(model: DiscreteLinearModel, T: int, x0: np.ndarray) -> PredictionMatrices:
    """Build S (nT x mT) and v (nT) row-block by row-block.

    Each block row is the previous one propagated through Ad with a fresh
    Bd on the diagonal, which avoids forming explicit powers of Ad.
    """
    n, m = model.n, model.m
    S = np.zeros((n * T, m * T))
    S[:n, :m] = model.Bd
    for k in range(1, T):
        rows = slice(k * n, (k + 1) * n)
        prev = slice((k - 1) * n, k * n)
        S[rows, : k * m] = model.Ad @ S[prev, : k * m]
        S[rows, k * m : (k + 1) * m] = model.Bd
    return PredictionMatrices(S, _free_response(model, T, x0))


def _free_response(model: DiscreteLinearModel, T: int, x0) -> np.ndarray:
    """Stacked states x_1..x_T under zero input (the v of S u + v)."""
    v = np.empty((T, model.n))
    x = np.asarray(x0, float)
    for k in range(T):
        x = model.Ad @ x + model.wd
        v[k] = x
    return v.ravel()


def _param_prediction(model: DiscreteLinearModel, W: np.ndarray, x0: np.ndarray):
    """S in knot coordinates (nT x mp) and v, for interpolation weights W (T, p).

    Block row k is Ad times block row k-1 plus the forcing kron(W[k], Bd);
    all T forcing blocks are formed in one broadcast and the recursion
    accumulates into them in place.
    """
    n, m = model.n, model.m
    T, p = W.shape
    S = (W[:, None, :, None] * model.Bd[None, :, None, :]).reshape(T, n, p * m)
    prev = S[0]
    for blk in S[1:]:
        blk += model.Ad @ prev
        prev = blk
    return S.reshape(T * n, p * m), _free_response(model, T, x0)


# ---------------------------------------------------------------------------
# large (sparse) formulations


def _large_problem(spec: MpcSpec, x0: np.ndarray, input_block, R_in, u_goal_stack):
    """Shared assembly: decision vector [x_0 .. x_T, inputs, 1].

    ``R_in`` is the input-cost quadratic over the stacked input variables.
    """
    model, T = spec.model, spec.T
    n = model.n
    n_inputs = R_in.shape[0]
    x0 = np.asarray(x0, float)

    Qbig = sp.kron(sp.eye(T + 1), spec.Q)
    Rblk = sp.csc_matrix(R_in)
    P = sp.block_diag([Qbig, Rblk, sp.csc_matrix((1, 1))], format="csc")
    z_goal = np.concatenate([np.tile(spec.x_goal, T + 1), u_goal_stack, [1.0]])
    q = -(P @ z_goal)

    dyn_x = sp.kron(sp.eye(T, T + 1), model.Ad) - sp.kron(sp.eye(T, T + 1, k=1), sp.eye(n))
    w_col = sp.csc_matrix(np.tile(model.wd, T).reshape(-1, 1))
    pin_x0 = sp.hstack([-sp.eye(n), sp.csc_matrix((n, n * T + n_inputs + 1))])
    dynamics = sp.hstack([dyn_x, input_block, w_col])
    pin_one = sp.csc_matrix(([1.0], ([0], [n * (T + 1) + n_inputs])), shape=(1, n * (T + 1) + n_inputs + 1))
    bounds_u = sp.hstack([sp.csc_matrix((n_inputs, n * (T + 1))), sp.eye(n_inputs), sp.csc_matrix((n_inputs, 1))])

    blocks = [pin_x0, dynamics, pin_one, bounds_u]
    lb = [-x0, np.zeros(n * T), [1.0]]
    ub = [-x0, np.zeros(n * T), [1.0]]
    lb.append(np.tile(_stack_or(spec.u_min, n_inputs), 1))
    ub.append(np.tile(_stack_or(spec.u_max, n_inputs), 1))

    if spec.has_state_bounds:
        bounds_x = sp.hstack([sp.eye(n * (T + 1)), sp.csc_matrix((n * (T + 1), n_inputs + 1))])
        blocks.append(bounds_x)
        x_lo = spec.x_min if spec.x_min is not None else np.full(n, -np.inf)
        x_hi = spec.x_max if spec.x_max is not None else np.full(n, np.inf)
        lb.append(np.tile(x_lo, T + 1))
        ub.append(np.tile(x_hi, T + 1))

    A = sp.vstack(blocks, format="csc")
    return QpProblem(P, q, A, np.concatenate(lb), np.concatenate(ub))


def _stack_or(bound_m, n_inputs):
    m = bound_m.size
    return np.tile(bound_m, n_inputs // m)


def _input_cost_block(spec: MpcSpec, n_inputs: int):
    """Input-cost quadratic over the stacked input variables."""
    m = spec.model.m
    reps = n_inputs // m
    return np.kron(np.eye(reps), spec.R)


def _param_input_cost(spec: MpcSpec, W: np.ndarray) -> np.ndarray:
    """Knot-space quadratic equal to the per-step input cost under interpolation.

    With Wbig = kron(W, I_m) the summed cost is Wbig' kron(I_T, R) Wbig,
    which by the mixed-product rule equals kron(W'W, R): a (p, p) product
    instead of two (mT, mT) ones.
    """
    return np.kron(W.T @ W, spec.R)


def build_large(spec: MpcSpec, x0: np.ndarray) -> QpProblem:
    """Sparse formulation over [x_0..x_T, u_0..u_{T-1}, 1]."""
    model, T = spec.model, spec.T
    input_block = sp.kron(sp.eye(T), model.Bd)
    R_in = _input_cost_block(spec, model.m * T)
    return _large_problem(spec, x0, input_block, R_in, np.tile(spec.u_goal, T))


def build_large_param(spec: MpcSpec, sched: KnotSchedule, x0: np.ndarray) -> QpProblem:
    """Sparse formulation over [x_0..x_T, knots, 1]."""
    model, T = spec.model, spec.T
    if sched.T != T:
        raise ValueError("knot schedule horizon does not match the spec")
    W = interpolation_matrix(sched)
    input_block = sp.kron(sp.csc_matrix(W), model.Bd)
    R_knot = _param_input_cost(spec, W)
    return _large_problem(spec, x0, input_block, R_knot, np.tile(spec.u_goal, sched.p))


# ---------------------------------------------------------------------------
# small (condensed, dense) formulations


def _small_problem(spec: MpcSpec, S, v, R_in, u_goal_stack):
    T, n = spec.T, spec.model.n
    if spec.has_state_bounds:
        raise ConfigurationError(
            "state bounds require a large formulation; the condensed forms "
            "eliminate the states from the decision vector"
        )
    xg_stack = np.tile(spec.x_goal, T)
    QS = _blockdiag_apply(spec.Q, S, n)
    P = S.T @ QS + R_in
    P = 0.5 * (P + P.T)
    q = S.T @ _blockdiag_apply(spec.Q, (v - xg_stack)[:, None], n).ravel() - R_in @ u_goal_stack
    d = P.shape[0]
    A = np.eye(d)
    lb = _stack_or(spec.u_min, d)
    ub = _stack_or(spec.u_max, d)
    return QpProblem(P, q, A, lb, ub)


def _blockdiag_apply(Q, M, n):
    """(I kron Q) @ M without materializing the block diagonal."""
    return (Q @ M.reshape(M.shape[0] // n, n, -1)).reshape(M.shape[0], -1)


def build_small(spec: MpcSpec, x0: np.ndarray) -> QpProblem:
    """Condensed formulation over the stacked inputs u_0..u_{T-1}."""
    pred = prediction_matrices(spec.model, spec.T, x0)
    R_in = _input_cost_block(spec, spec.model.m * spec.T)
    return _small_problem(spec, pred.S, pred.v, R_in, np.tile(spec.u_goal, spec.T))


def build_small_param(spec: MpcSpec, sched: KnotSchedule, x0: np.ndarray) -> QpProblem:
    """Condensed formulation over the stacked knot points."""
    if sched.T != spec.T:
        raise ValueError("knot schedule horizon does not match the spec")
    W = interpolation_matrix(sched)
    S, v = _param_prediction(spec.model, W, x0)
    R_knot = _param_input_cost(spec, W)
    return _small_problem(spec, S, v, R_knot, np.tile(spec.u_goal, sched.p))


# ---------------------------------------------------------------------------
# shared helpers


def build(kind: str, spec: MpcSpec, x0, sched: KnotSchedule | None = None) -> QpProblem:
    """Dispatch to one of the four builders by formulation name."""
    x0 = np.asarray(x0, float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if kind == "large":
        return build_large(spec, x0)
    if kind == "small":
        return build_small(spec, x0)
    if kind in ("large_param", "small_param"):
        if sched is None:
            raise ValueError(f"{kind} needs a knot schedule")
        builder = build_large_param if kind == "large_param" else build_small_param
        return builder(spec, sched, x0)
    raise ValueError(f"unknown formulation {kind!r}")


def extract_first_input(sol, kind: str, spec: MpcSpec) -> np.ndarray:
    """First applied input from a solved problem of the given formulation.

    For the parameterized forms this is the first knot, which by
    construction equals the input applied at the first step.
    """
    if isinstance(sol, QpSolution):
        if sol.status != "solved":
            raise ValueError(f"cannot extract an input from a {sol.status!r} solution")
        z = sol.z
    else:
        z = np.asarray(sol, float)
    n, m, T = spec.model.n, spec.model.m, spec.T
    if kind in ("large", "large_param"):
        off = n * (T + 1)
        return z[off : off + m].copy()
    if kind in ("small", "small_param"):
        return z[:m].copy()
    raise ValueError(f"unknown formulation {kind!r}")


def objective_constant(spec: MpcSpec, x0, kind: str) -> float:
    """Additive constant relating a formulation's QP objective to the full
    tracking cost (k = 0 stage cost through the terminal state term)."""
    xg, ug = spec.x_goal, spec.u_goal
    T = spec.T
    if kind in ("large", "large_param"):
        return float((T + 1) * xg @ spec.Q @ xg + T * ug @ spec.R @ ug)
    if kind in ("small", "small_param"):
        x0 = np.asarray(x0, float)
        e = _free_response(spec.model, T, x0) - np.tile(xg, T)
        err0 = xg - x0
        return float(
            e @ _blockdiag_apply(spec.Q, e[:, None], spec.model.n).ravel()
            + T * ug @ spec.R @ ug
            + err0 @ spec.Q @ err0
        )
    raise ValueError(f"unknown formulation {kind!r}")
