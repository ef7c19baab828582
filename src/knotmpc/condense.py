"""Assembly of MPC problems into box-constrained QPs.

The input trajectory over a T-step horizon is described by p knot points
that are linearly interpolated, u = W U (``param.interpolation_matrix``).
Traditional MPC, with one free input per step, is the case p = T, where
W is the identity.  The only constraints are the input bounds, so there
are two constraint structures, one builder and one solver path each:

* ``build_large_param`` -- the knots and the states x_1..x_T are decision
  variables, the dynamics enter as equality constraints and the knots as a
  box (a big, sparse ``QpProblem``).
* ``build_small_param`` -- the states are condensed out through the
  prediction matrices, leaving a ``BoxQp`` over the knots (two routes).

``build`` maps the four formulation names onto them: ``large_param`` and
``small_param`` take a knot schedule, and the per-step kinds ``large`` and
``small`` run the same builders with p = T.  W, its nonzero pattern and
W'W are computed once per schedule.  Every formulation's decision vector
starts with the knots, so its first m entries are the input to apply.

All of them minimize the same tracking objective

    sum_k (x_goal - x_k)' Q (x_goal - x_k) + u_k' R u_k
    + terminal state term at the end of the horizon,

so their minimizers agree (the parameterized ones on the restricted
input family), even though the two structures drop different additive
constants from the quadratic form.  Each builder records its constant as
the problem's ``offset``, so ``objective + offset`` is the tracking cost.
Both include the k = 0 stage, which no decision reaches; the large form adds
the goal term T x_goal'Q x_goal of its states, the condensed form the
free-response error.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dynamics import DiscreteLinearModel
from .param import _SNAP, KnotSchedule, interpolation_matrix
from .qp import BoxQp, QpProblem

FORMULATIONS = ("large", "small", "large_param", "small_param")  # the names ``build`` takes


@dataclass(frozen=True)
class MpcSpec:
    """Everything defining one finite-horizon tracking problem: the model,
    the horizon, the weights, the state goal, and the input bounds, which
    every controller kind can enforce.  Inputs are penalized towards zero.

    The goal and weights must be finite; bounds may be infinite but not NaN.
    """

    model: DiscreteLinearModel
    T: int
    Q: np.ndarray
    R: np.ndarray
    x_goal: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        n, m = self.model.n, self.model.m
        if self.T < 1:
            raise ValueError("horizon must be at least one step")
        for name, size in (("x_goal", n), ("u_min", m), ("u_max", m)):
            arr = np.broadcast_to(np.asarray(getattr(self, name), float), (size,)).copy()
            object.__setattr__(self, name, arr)
        for name in ("Q", "R"):
            M = np.asarray(getattr(self, name), float)
            object.__setattr__(self, name, M)
        if self.Q.shape != (n, n) or self.R.shape != (m, m):
            raise ValueError("Q and R must match the model dimensions")
        for name in ("x_goal", "Q", "R"):
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


def _check_symmetric(M, name):
    if np.max(np.abs(M - M.T)) > 1e-9 * (1.0 + np.max(np.abs(M))):
        raise ValueError(f"{name} must be symmetric")


# ---------------------------------------------------------------------------
# prediction matrices (state condensation)

# Knots at least this many steps apart take build_small_param's doubled route.
# At T = 100 the routes tie near spacing 2.0 (6 links), 2.5-2.75 (13) and 3.2
# (1-2 links, where both builds take under 1 ms); 2.5 favours the larger arms.
_DOUBLING_MIN_SPACING = 2.5


@functools.lru_cache(maxsize=32)
def _schedule_weights(sched: KnotSchedule) -> tuple[np.ndarray, ...]:
    """W (T, p), the row and column indices of its nonzeros, and W'W: the
    per-schedule constants of the builders, shared and read-only."""
    W = interpolation_matrix(sched)
    arrays = (W, *np.nonzero(W), W.T @ W)
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=32)
def _segments(sched: KnotSchedule, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per segment between knots, from the first whole step at or after its
    knot: its length and the rows [f; g] (2m, pm) of its first state in
    ``_segment_gram`` (that step's row of W and the slope -+1/spacing)."""
    T, p, spacing = sched.T, sched.p, sched.spacing or sched.T
    starts = np.ceil(np.arange(max(p - 1, 1)) * spacing - _SNAP).astype(int)
    coef, i = np.zeros((starts.size, 2, p)), np.arange(p - 1)
    coef[:, 0], coef[i, 1, i], coef[i, 1, i + 1] = _schedule_weights(sched)[0][starts], -1 / spacing, 1 / spacing
    rows, lengths = np.kron(coef, np.eye(m)), np.diff(starts, append=T)
    lengths.flags.writeable = rows.flags.writeable = False
    return lengths, rows


def _stein_sum(F: np.ndarray, M: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """F^L and Sigma_L = sum of (F^l)' M F^l over l = 1..L by halving L:
    Sigma_2a = Sigma_a + (F^a)' Sigma_a F^a, Sigma_1+b = F' (M + Sigma_b) F."""
    if L == 1:
        return F, F.T @ M @ F
    Fa, Sa = _stein_sum(F, M, L // 2)
    Fa, Sa = Fa @ Fa, Sa + Fa.T @ Sa @ Fa
    return (F @ Fa, F.T @ (M + Sa) @ F) if L % 2 else (Fa, Sa)


def _segment_gram(spec: MpcSpec, sched: KnotSchedule, x0: np.ndarray) -> np.ndarray:
    """``build_small_param``'s G summed over the segments between knots.  A
    column follows xi+ = F xi on xi = [s; f; g; h] (state, input, slope,
    affine flag), F = [[Ad, Bd, 0, wd], [0, I, I, 0], [0, 0, I, 0], [0, 0, 0, 1]],
    at stage cost xi' C'QC xi, C = [I 0 0 -x_goal].  A segment of L steps from
    Xi adds Xi' Sigma_L Xi and starts the next from the state rows of F^L Xi."""
    (n, m), model = spec.model.Bd.shape, spec.model
    lengths, rows = _segments(sched, m)
    F = np.eye(n + 2 * m + 1)
    F[:n, :n], F[:n, n : n + m], F[:n, -1], F[n : n + m, n + m : -1] = model.Ad, model.Bd, model.wd, np.eye(m)
    C = np.hstack([np.eye(n), np.zeros((n, 2 * m)), -spec.x_goal[:, None]])
    sums = {L: _stein_sum(F, C.T @ spec.Q @ C, L) for L in set(lengths.tolist())}
    Xi, G = np.zeros((F.shape[0], rows.shape[-1] + 1)), 0.0
    Xi[:n, -1], Xi[-1, -1] = x0, 1.0
    for L, fg in zip(lengths.tolist(), rows):
        Xi[n:-1, :-1] = fg
        G = G + Xi.T @ (sums[L][1] @ Xi)
        Xi[:n] = sums[L][0][:n] @ Xi
    return G


def _param_prediction(model: DiscreteLinearModel, sched: KnotSchedule, x0: np.ndarray) -> np.ndarray:
    """[S | v] (T, n, pm + 1): the states x_1..x_T are S U + v for knots U.

    One recursion builds both: block row k is Ad times block row k-1 plus
    a forcing, kron(W[k], Bd) in the S columns and wd in the v column (row
    0 of v also gets Ad x0).  A row of W has at most two nonzeros, so the
    forcing blocks are written only there, in one indexed assignment, and
    the recursion accumulates into them in place.
    """
    W, ks, js, _ = _schedule_weights(sched)
    (T, p), (n, m) = W.shape, model.Bd.shape
    Sv = np.zeros((T, n, p * m + 1))
    Sv[:, :, :-1].reshape(T, n, p, m)[ks, :, js, :] = W[ks, js, None, None] * model.Bd
    Sv[0, :, -1] = model.Ad @ x0
    Sv[:, :, -1] += model.wd
    for prev, blk in zip(Sv, Sv[1:]):
        blk += model.Ad @ prev  # prev is the row the last pass finished
    return Sv


# ---------------------------------------------------------------------------
# builders, one per constraint structure


def _param_input_cost(spec: MpcSpec, sched: KnotSchedule) -> np.ndarray:
    """Knot-space quadratic equal to the per-step input cost under interpolation.

    With Wbig = kron(W, I_m) the summed cost is Wbig' kron(I_T, R) Wbig,
    which by the mixed-product rule equals kron(W'W, R): a (p, p) product
    instead of two (mT, mT) ones, formed here by broadcasting.
    """
    WtW = _schedule_weights(sched)[-1]
    d = WtW.shape[0] * spec.model.m
    return (WtW[:, None, :, None] * spec.R[None, :, None, :]).reshape(d, d)


def build_large_param(spec: MpcSpec, sched: KnotSchedule, x0: np.ndarray) -> QpProblem:
    """Sparse formulation over [knots U, x_1..x_T].

    The dynamics x_{k+1} - Ad x_k - Bd (W U)_k = wd enter as equality rows,
    with the known Ad x0 on the first stage's right-hand side, and the knots
    as a box, so each state column touches the rows of two consecutive stages.
    """
    model, T = spec.model, spec.T
    if sched.T != T:
        raise ValueError("knot schedule horizon does not match the spec")
    n, n_inputs = model.n, sched.p * model.m
    x0 = np.asarray(x0, float)
    W, _, _, WtW = _schedule_weights(sched)

    Rblk = sp.kron(sp.csc_matrix(WtW), spec.R, format="csc")  # kron(W'W, R), see _param_input_cost
    P = sp.block_diag([Rblk, sp.kron(sp.eye(T), spec.Q)], format="csc")
    q = -(P @ np.concatenate([np.zeros(n_inputs), np.tile(spec.x_goal, T)]))

    dyn_x = sp.eye(n * T) - sp.kron(sp.eye(T, k=-1), model.Ad)
    dynamics = sp.hstack([-sp.kron(sp.csc_matrix(W), model.Bd), dyn_x])
    bounds_u = sp.hstack([sp.eye(n_inputs), sp.csc_matrix((n_inputs, n * T))])
    A = sp.vstack([dynamics, bounds_u], format="csc")
    rhs = np.tile(model.wd, T)
    rhs[:n] += model.Ad @ x0
    lb = np.concatenate([rhs, np.tile(spec.u_min, sched.p)])
    ub = np.concatenate([rhs, np.tile(spec.u_max, sched.p)])
    # the constant: the goal term of x_1..x_T plus the k = 0 stage
    err0 = spec.x_goal - x0
    offset = float(T * spec.x_goal @ spec.Q @ spec.x_goal + err0 @ spec.Q @ err0)
    return QpProblem(P, q, A, lb, ub, offset)


def build_small_param(spec: MpcSpec, sched: KnotSchedule, x0: np.ndarray) -> BoxQp:
    """Condensed formulation over the stacked knot points.

    The states are eliminated through the prediction x = S U + v, leaving
    a ``BoxQp``: a dense QP whose only constraint is the knot box.  With
    e = v - x_goal the state cost is (U; 1)' G (U; 1) for the Gram matrix
    G = [S | e]' (I kron Q) [S | e], so G gives the state terms of P
    (G[:d, :d]), of q (G[:d, d]) and of the offset (G[d, d]).  Knots closer
    than ``_DOUBLING_MIN_SPACING`` steps (and ``small``) take G as one product
    of the recursion's [S | e]; farther ones sum it over the segments between
    knots in ``_segment_gram``, each a Stein sum by Smith's doubling (SIAM J.
    Appl. Math. 16, 1968) over Van Loan's augmented matrix (IEEE TAC 23, 1978).
    """
    T, n = spec.T, spec.model.n
    if sched.T != T:
        raise ValueError("knot schedule horizon does not match the spec")
    x0 = np.asarray(x0, float)
    if (sched.spacing or T) < _DOUBLING_MIN_SPACING:  # one knot spans T steps
        Se = _param_prediction(spec.model, sched, x0)
        Se[:, :, -1] -= spec.x_goal
        G = Se.reshape(T * n, -1).T @ (spec.Q @ Se).reshape(T * n, -1)
    else:
        G = _segment_gram(spec, sched, x0)
    d = G.shape[0] - 1
    R_knot = _param_input_cost(spec, sched)
    P = G[:d, :d] + R_knot
    P = 0.5 * (P + P.T)  # bitwise symmetric: IEEE addition commutes
    # the constant: the free-response error terms plus the k = 0 stage,
    # neither of which depends on the knots
    err0 = spec.x_goal - x0
    offset = float(G[d, d] + err0 @ spec.Q @ err0)
    return BoxQp._from_symmetric(P, G[:d, d], np.tile(spec.u_min, sched.p), np.tile(spec.u_max, sched.p), offset)


# ---------------------------------------------------------------------------
# shared helpers


def build(kind: str, spec: MpcSpec, x0, sched: KnotSchedule | None = None) -> QpProblem | BoxQp:
    """Build the QP of a formulation; the per-step kinds take no schedule and
    use one knot per step."""
    x0 = np.asarray(x0, float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if kind in ("large", "small"):
        if sched is not None:
            raise ValueError(f"{kind} takes no knot schedule, got p={sched.p}")
        # traditional MPC: every step is a knot, so W is the identity
        sched = KnotSchedule(spec.T, spec.T)
    elif kind not in ("large_param", "small_param"):
        raise ValueError(f"unknown formulation {kind!r}")
    elif sched is None:
        raise ValueError(f"{kind} needs a knot schedule")
    builder = build_large_param if kind.startswith("large") else build_small_param
    return builder(spec, sched, x0)

