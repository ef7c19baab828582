"""Assembly of MPC problems into box-constrained QPs.

The input trajectory over a T-step horizon is described by p knot points
that are linearly interpolated, u = W U (``param.interpolation_matrix``).
Traditional MPC, with one free input per step, is the case p = T, where
W is the identity.  Each constraint structure has one builder:

* ``build_large_param`` -- states and knots are all decision variables
  and the dynamics enter as equality constraints (big and sparse).
* ``build_small_param`` -- the states are condensed out through the
  prediction matrices, leaving the knots (small and dense).

``build`` maps the four formulation names onto them: ``large_param`` and
``small_param`` take a knot schedule, and the per-step kinds ``large`` and
``small`` run the same builders with p = T.

All of them minimize the same tracking objective

    sum_k (x_goal - x_k)' Q (x_goal - x_k) + (u_goal - u_k)' R (u_goal - u_k)
    + terminal state term at the end of the horizon,

so their minimizers agree (the parameterized ones on the restricted
input family), even though the two structures drop different additive
constants from the quadratic form.  Each builder records its constant as
``QpProblem.offset``, so ``objective + offset`` is the tracking cost: the
large form's is the goal terms (T+1) x_goal'Q x_goal + T u_goal'R u_goal,
the condensed form's comes from the free-response error.
"""

from __future__ import annotations

import copy
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
    """A problem spec routed to a builder or solver that cannot express it."""


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

    def _with_model(self, model: DiscreteLinearModel) -> MpcSpec:
        """This spec with ``model`` swapped in, without re-validating the
        other fields; the model must have the same (n, m)."""
        if (model.n, model.m) != (self.model.n, self.model.m):
            raise ValueError(
                f"model has (n, m) = {(model.n, model.m)}, the spec needs {(self.model.n, self.model.m)}"
            )
        spec = copy.copy(self)
        object.__setattr__(spec, "model", model)
        return spec

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

    Block row k is Ad times block row k-1 plus the forcing kron(W[k], Bd).
    A row of W has at most two nonzeros, so the forcing blocks are written
    only there, in one indexed assignment; the recursion then accumulates
    into them in place.
    """
    n, m = model.n, model.m
    T, p = W.shape
    ks, js = np.nonzero(W)
    S = np.zeros((T, n, p, m))
    S[ks, :, js, :] = W[ks, js, None, None] * model.Bd
    S = S.reshape(T, n, p * m)
    prev = S[0]
    for blk in S[1:]:
        blk += model.Ad @ prev
        prev = blk
    return S.reshape(T * n, p * m), _free_response(model, T, x0)


# ---------------------------------------------------------------------------
# builders, one per constraint structure


def _param_input_cost(spec: MpcSpec, W: np.ndarray) -> np.ndarray:
    """Knot-space quadratic equal to the per-step input cost under interpolation.

    With Wbig = kron(W, I_m) the summed cost is Wbig' kron(I_T, R) Wbig,
    which by the mixed-product rule equals kron(W'W, R): a (p, p) product
    instead of two (mT, mT) ones.
    """
    return np.kron(W.T @ W, spec.R)


def build_large_param(spec: MpcSpec, sched: KnotSchedule, x0: np.ndarray) -> QpProblem:
    """Sparse formulation over [x_0..x_T, knots, 1].

    The dynamics enter as equality constraints and the knots as a box.
    """
    model, T = spec.model, spec.T
    if sched.T != T:
        raise ValueError("knot schedule horizon does not match the spec")
    n = model.n
    n_inputs = sched.p * model.m
    x0 = np.asarray(x0, float)
    W = interpolation_matrix(sched)

    Qbig = sp.kron(sp.eye(T + 1), spec.Q)
    Rblk = sp.kron(sp.csc_matrix(W.T @ W), spec.R, format="csc")  # kron(W'W, R), see _param_input_cost
    P = sp.block_diag([Qbig, Rblk, sp.csc_matrix((1, 1))], format="csc")
    z_goal = np.concatenate([np.tile(spec.x_goal, T + 1), np.tile(spec.u_goal, sched.p), [1.0]])
    q = -(P @ z_goal)

    dyn_x = sp.kron(sp.eye(T, T + 1), model.Ad) - sp.kron(sp.eye(T, T + 1, k=1), sp.eye(n))
    w_col = sp.csc_matrix(np.tile(model.wd, T).reshape(-1, 1))
    pin_x0 = sp.hstack([-sp.eye(n), sp.csc_matrix((n, n * T + n_inputs + 1))])
    dynamics = sp.hstack([dyn_x, sp.kron(sp.csc_matrix(W), model.Bd), w_col])
    pin_one = sp.csc_matrix(([1.0], ([0], [n * (T + 1) + n_inputs])), shape=(1, n * (T + 1) + n_inputs + 1))
    bounds_u = sp.hstack([sp.csc_matrix((n_inputs, n * (T + 1))), sp.eye(n_inputs), sp.csc_matrix((n_inputs, 1))])

    blocks = [pin_x0, dynamics, pin_one, bounds_u]
    lb = [-x0, np.zeros(n * T), [1.0], np.tile(spec.u_min, sched.p)]
    ub = [-x0, np.zeros(n * T), [1.0], np.tile(spec.u_max, sched.p)]

    if spec.has_state_bounds:
        bounds_x = sp.hstack([sp.eye(n * (T + 1)), sp.csc_matrix((n * (T + 1), n_inputs + 1))])
        blocks.append(bounds_x)
        x_lo = spec.x_min if spec.x_min is not None else np.full(n, -np.inf)
        x_hi = spec.x_max if spec.x_max is not None else np.full(n, np.inf)
        lb.append(np.tile(x_lo, T + 1))
        ub.append(np.tile(x_hi, T + 1))

    A = sp.vstack(blocks, format="csc")
    offset = float((T + 1) * spec.x_goal @ spec.Q @ spec.x_goal + T * spec.u_goal @ spec.R @ spec.u_goal)
    return QpProblem(P, q, A, np.concatenate(lb), np.concatenate(ub), offset)


def _blockdiag_apply(Q, M, n):
    """(I kron Q) @ M without materializing the block diagonal."""
    return (Q @ M.reshape(M.shape[0] // n, n, -1)).reshape(M.shape[0], -1)


def build_small_param(spec: MpcSpec, sched: KnotSchedule, x0: np.ndarray) -> QpProblem:
    """Condensed formulation over the stacked knot points.

    The states are eliminated through the prediction x = S z + v, leaving
    a dense QP whose only constraint is the knot box.
    """
    T, n = spec.T, spec.model.n
    if sched.T != T:
        raise ValueError("knot schedule horizon does not match the spec")
    if spec.has_state_bounds:
        raise ConfigurationError(
            "state bounds require a large formulation; the condensed forms "
            "eliminate the states from the decision vector"
        )
    x0 = np.asarray(x0, float)
    W = interpolation_matrix(sched)
    S, v = _param_prediction(spec.model, W, x0)
    R_knot = _param_input_cost(spec, W)
    QS = _blockdiag_apply(spec.Q, S, n)
    P = S.T @ QS + R_knot
    P = 0.5 * (P + P.T)
    ug_stack = np.tile(spec.u_goal, sched.p)
    e = v - np.tile(spec.x_goal, T)
    Qe = _blockdiag_apply(spec.Q, e[:, None], n).ravel()
    q = S.T @ Qe - R_knot @ ug_stack
    A = np.eye(P.shape[0])
    # the constant: the free-response error terms plus the k = 0 stage and
    # the input goal terms, none of which depend on the knots
    err0 = spec.x_goal - x0
    offset = float(e @ Qe + T * spec.u_goal @ spec.R @ spec.u_goal + err0 @ spec.Q @ err0)
    return QpProblem(P, q, A, np.tile(spec.u_min, sched.p), np.tile(spec.u_max, sched.p), offset)


# ---------------------------------------------------------------------------
# shared helpers


def build(kind: str, spec: MpcSpec, x0, sched: KnotSchedule | None = None) -> QpProblem:
    """Build the QP of a formulation; the per-step kinds use one knot per step."""
    x0 = np.asarray(x0, float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if kind in ("large", "small"):
        # traditional MPC: every step is a knot, so W is the identity
        sched = KnotSchedule(spec.T, spec.T)
    elif kind not in ("large_param", "small_param"):
        raise ValueError(f"unknown formulation {kind!r}")
    elif sched is None:
        raise ValueError(f"{kind} needs a knot schedule")
    builder = build_large_param if kind.startswith("large") else build_small_param
    return builder(spec, sched, x0)


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
