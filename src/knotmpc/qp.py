"""Box-constrained quadratic programming by operator splitting (ADMM).

Problems are posed in the form

    minimize    z' P z + 2 q' z
    subject to  lb <= A z <= ub

with P symmetric positive semidefinite.  Equality rows are encoded by
lb == ub.  The solver runs an over-relaxed ADMM iteration on the usual
quasi-definite KKT system

    [ P~ + sigma I   A' ] [ x ]   [ sigma x - q~ ]
    [ A      -diag(1/rho)] [ nu ] = [ z - y / rho  ]

(P~ = 2P, q~ = 2q internally) with a fixed penalty, a boosted penalty on
equality rows, and projection of the constraint image onto [lb, ub].  The
constraint structure picks the path: a dense square ``A = diag(a)`` with
a > 0 (the condensed builders' ``A = I``) is a box, whose KKT system
reduces to (P~ + sigma I + diag(rho a^2)) x = sigma x - q~ + a (rho z - y)
as in OSQP, factored by a d x d LAPACK LU and polished by a box active-set
walk; any other ``A`` goes through a sparse LU of the full KKT matrix.
The factor is built when the first ADMM iteration needs it (never, if the
polish finishes at iteration 0) and reused while the matrices repeat.

Condensed MPC problems can be badly scaled (prediction matrices stack
powers of A_d), so the iteration runs on a Ruiz-equilibrated copy of the
problem.  Termination always tests the residuals of the original,
unscaled problem, so reported accuracy is unaffected by scaling.  Once
the iterates are roughly converged the solver attempts to polish: it
reads the active set off the dual signs, solves that equality-constrained
subproblem exactly, and accepts the result only if it passes the full
KKT conditions at the configured tolerances (stationarity allowing for the
rounding floor of its own computation, see ``_dual_tol``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_EQ_TOL = 1e-12
_RHO_EQ_SCALE = 1e3
_SIGMA = 1e-6  # proximal regularization of the x-update
_ALPHA = 1.6  # over-relaxation
_EPS_INFEAS = 1e-5  # tolerance of the primal infeasibility certificate
_SCALING_ITERS = 10  # Ruiz equilibration passes


@dataclass
class QpSettings:
    """Solver knobs; the defaults suit the control problems in this package."""

    rho: float = 0.1
    eps_prim: float = 1e-6
    eps_dual: float = 1e-6
    max_iters: int = 20000
    check_interval: int = 25
    polish: bool = True


@dataclass(frozen=True)
class QpProblem:
    """One box-constrained QP; ``A`` (at least one row) and ``P`` may be
    dense or scipy-sparse.  Only the bounds may be infinite (a free side),
    and nothing may be NaN."""

    P: object
    q: np.ndarray
    A: object
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        q = np.asarray(self.q, float).ravel()
        object.__setattr__(self, "q", q)
        d = q.size
        if self.P.shape != (d, d):
            raise ValueError(f"P must be {d}x{d}, got {self.P.shape}")
        if not (_all_finite(self.P) and _all_finite(q)):
            raise ValueError("P and q must be finite")
        asym = _max_abs(self.P - self.P.T)
        if asym > 1e-8 * (1.0 + _max_abs(self.P)):
            raise ValueError("P must be symmetric")
        r = self.A.shape[0]
        if r == 0 or self.A.shape[1] != d:
            raise ValueError(f"A must have {d} columns and at least one row, got {self.A.shape}")
        if not _all_finite(self.A):
            raise ValueError("A must be finite")
        lb = np.full(r, -np.inf) if self.lb is None else np.asarray(self.lb, float).ravel()
        ub = np.full(r, np.inf) if self.ub is None else np.asarray(self.ub, float).ravel()
        if lb.size != r or ub.size != r:
            raise ValueError("lb and ub must match the number of constraint rows")
        # each comparison is also false on NaN; lb = +inf or ub = -inf admits no z
        if not (np.all(lb <= ub) and np.all(lb < np.inf) and np.all(ub > -np.inf)):
            raise ValueError("need lb <= ub elementwise, with no NaN, lb = +inf or ub = -inf")
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def n_vars(self) -> int:
        return self.q.size

    @property
    def n_cons(self) -> int:
        return self.A.shape[0]


@dataclass
class QpSolution:
    z: np.ndarray
    status: str  # solved | max_iters | primal_infeasible
    iterations: int
    objective: float
    solve_time: float
    dual: np.ndarray


def _max_abs(M) -> float:
    if sp.issparse(M):
        return 0.0 if M.nnz == 0 else float(np.max(np.abs(M.data)))
    return float(np.max(np.abs(M))) if M.size else 0.0


def _all_finite(M) -> bool:
    return bool(np.all(np.isfinite(M.data if sp.issparse(M) else np.asarray(M, float))))


def _is_box(A) -> bool:
    """Whether A is dense, square, positive on the diagonal and zero elsewhere,
    so that lb <= A z <= ub bounds each variable on its own."""
    if sp.issparse(A) or A.shape[0] != A.shape[1]:
        return False
    A = np.asarray(A, float)
    diag = np.diagonal(A)
    return bool(np.all(diag > 0) and np.count_nonzero(A) == np.count_nonzero(diag))


class _BoxKkt:
    """ADMM step for A = diag(a) by the reduced d x d system.  LU, not
    Cholesky: it tolerates a numerically indefinite condensed P."""

    def __init__(self, P2, a, rho_vec):
        self._a = a
        self._rho = rho_vec
        self._lu = sla.lu_factor(P2 + np.diag(_SIGMA + rho_vec * a * a))

    def step(self, x, z, y, q2):
        xt = sla.lu_solve(self._lu, _SIGMA * x - q2 + self._a * (self._rho * z - y))
        return xt, self._a * xt


class _SparseKkt:
    """ADMM step for a general A by the full sparse KKT system."""

    def __init__(self, P2, A, rho_vec):
        self._inv_rho = 1.0 / rho_vec
        reg = P2 + _SIGMA * sp.eye(P2.shape[0])
        K = sp.bmat([[reg, A.T], [A, -sp.diags(self._inv_rho)]], format="csc")
        self._lu = spla.splu(K)

    def step(self, x, z, y, q2):
        d = x.size
        sol = self._lu.solve(np.concatenate([_SIGMA * x - q2, z - self._inv_rho * y]))
        return sol[:d], z + self._inv_rho * (sol[d:] - y)


class AdmmSolver:
    """Reusable solver.  While P, A and the penalties repeat it keeps their
    equilibration and, once an ADMM iteration has needed it, their factor."""

    def __init__(self, settings: QpSettings | None = None):
        self.settings = settings or QpSettings()
        self._cache = None  # (P2 repr, A repr, rho_vec, (D, E, P2s, As))
        self._kkt = None  # factor of the cached scaled system, once built

    def solve(self, prob: QpProblem, warm: tuple[np.ndarray, np.ndarray] | None = None) -> QpSolution:
        t_start = time.perf_counter()
        s = self.settings
        d, r = prob.n_vars, prob.n_cons
        q2 = 2.0 * prob.q

        box = _is_box(prob.A)
        P2, A = _normalize(prob.P, prob.A, box)
        P2 = P2 * 2.0

        eq = np.isfinite(prob.lb) & (prob.ub - prob.lb < _EQ_TOL)
        rho_vec = np.full(r, s.rho)
        rho_vec[eq] *= _RHO_EQ_SCALE
        inv_rho = 1.0 / rho_vec

        D, E, P2s, As = self._prepare(P2, A, rho_vec)
        q2s = D * q2
        lbs = E * prob.lb
        ubs = E * prob.ub
        if box:
            a = np.diagonal(As)
            polish = lambda y, z: self._polish_box(prob, P2s, q2s, D, E, lbs, ubs, a, z)
        else:
            polish = lambda y, z: self._try_polish(prob, P2s, As, q2s, D, E, lbs, ubs, y, z)

        if warm is not None:
            xw = np.array(warm[0], float).ravel()
            yw = np.array(warm[1], float).ravel()
            if xw.size != d or yw.size != r:
                raise ValueError("warm start has wrong dimensions")
            x = xw / D
            y = yw / E
        else:
            x = self._cold_start(P2s, q2s) if box else np.zeros(d)
            y = np.zeros(r)
        z = np.clip(As @ x, lbs, ubs)

        if s.polish:
            # a warm dual or a clipped PD minimizer often nails the active
            # set outright, making the iteration below a fallback
            polished = polish(y, z)
            if polished is not None:
                xs, ys = polished
                obj = float(xs @ (prob.P @ xs) + 2.0 * prob.q @ xs)
                return QpSolution(xs, "solved", 0, obj, time.perf_counter() - t_start, ys)

        status = "max_iters"
        iters = s.max_iters
        check_no = 0
        next_polish = 1
        if self._kkt is None:
            self._kkt = _BoxKkt(P2s, a, rho_vec) if box else _SparseKkt(P2s, As, rho_vec)
        kkt = self._kkt
        for i in range(1, s.max_iters + 1):
            xt, zt = kkt.step(x, z, y, q2s)
            x = _ALPHA * xt + (1.0 - _ALPHA) * x
            z_relax = _ALPHA * zt + (1.0 - _ALPHA) * z
            z_new = np.clip(z_relax + inv_rho * y, lbs, ubs)
            dy = rho_vec * (z_relax - z_new)
            y = y + dy
            z = z_new

            if i % s.check_interval == 0 or i == s.max_iters:
                # residuals of the original problem, not the scaled one
                r_prim = np.max(np.abs((As @ x - z) / E))
                r_dual = np.max(np.abs((P2s @ x + q2s + As.T @ y) / D))
                if r_prim <= s.eps_prim and r_dual <= s.eps_dual:
                    status, iters = "solved", i
                    break
                # Exact finish from the current active-set guess.  A failed
                # attempt is discarded (acceptance is gated on the full KKT
                # check inside), so box problems retry every check while
                # general ones back off because each attempt refactors.
                check_no += 1
                if s.polish and check_no >= next_polish:
                    polished = polish(y, z)
                    if polished is not None:
                        xs, ys = polished
                        obj = float(xs @ (prob.P @ xs) + 2.0 * prob.q @ xs)
                        return QpSolution(
                            xs, "solved", i, obj, time.perf_counter() - t_start, ys
                        )
                    next_polish = check_no + 1 if box else check_no * 2
                At_dy0 = (As.T @ dy) / D
                if _infeasibility_certificate(At_dy0, E * dy, prob.lb, prob.ub, _EPS_INFEAS):
                    status, iters = "primal_infeasible", i
                    break

        xs = D * x
        ys = E * y
        obj = float(xs @ (prob.P @ xs) + 2.0 * prob.q @ xs)
        return QpSolution(xs, status, iters, obj, time.perf_counter() - t_start, ys)

    @staticmethod
    def _cold_start(P2s, q2s):
        """Clip-friendly initial point: the unconstrained minimizer when the
        cost is positive definite, else the origin."""
        try:
            return sla.cho_solve(sla.cho_factor(P2s), -q2s)
        except (sla.LinAlgError, ValueError):
            return np.zeros(q2s.size)

    def _prepare(self, P2, A, rho_vec):
        """Equilibrate, reusing the result and its factor while the matrices
        repeat; a new system drops the old factor."""
        if self._cache is not None:
            cP, cA, c_rho, payload = self._cache
            if _same_matrix(cP, P2) and _same_matrix(cA, A) and np.array_equal(c_rho, rho_vec):
                return payload
        payload = _ruiz(P2, A, _SCALING_ITERS)
        self._cache = (P2, A, rho_vec.copy(), payload)
        self._kkt = None
        return payload

    def _try_polish(self, prob, P2s, As, q2s, D, E, lbs, ubs, y, z):
        """Active-set finish from the current iterate of a general problem.

        Rows are classified active by dual sign, falling back to primal
        proximity (the slack iterate clamped at a bound) where the dual is
        still numerically silent.  The guessed set is refined a few rounds:
        rows the candidate violates are added, rows with wrong-sign
        multipliers dropped.  Returns unscaled (z, dual) only when a
        candidate satisfies the full KKT conditions to the configured
        tolerances (stationarity within ``_dual_tol``), else None and the
        ADMM iteration carries on; a failed attempt costs time, never
        accuracy.
        """
        s = self.settings
        eq = lbs == ubs
        fin_lo = np.isfinite(lbs)
        fin_up = np.isfinite(ubs)
        # rows the projection never clips keep a dual that is pure rounding
        # noise, so classify with a dead zone instead of the bare sign
        ytol = 1e-12 * max(1.0, float(np.max(np.abs(y))) if y.size else 0.0)
        silent = np.abs(y) <= ytol
        lbf = np.where(fin_lo, lbs, 0.0)
        ubf = np.where(fin_up, ubs, 0.0)
        at_lb = silent & fin_lo & (z <= lbf + 1e-9 * (1.0 + np.abs(lbf)))
        at_ub = silent & fin_up & (z >= ubf - 1e-9 * (1.0 + np.abs(ubf))) & ~at_lb
        low = ((y < -ytol) | at_lb) & fin_lo & ~eq
        up = ((y > ytol) | at_ub) & fin_up & ~eq

        for _ in range(4):
            res = self._polish_solve(P2s, As, q2s, lbs, ubs, eq, low, up)
            if res is None:
                return None
            x_hat, y_hat = res
            Px = P2s @ x_hat
            r_dual = np.max(np.abs((Px + q2s + As.T @ y_hat) / D))
            if not np.isfinite(r_dual):
                return None
            Ax = (As @ x_hat) / E
            y0 = E * y_hat
            viol_lo = prob.lb - Ax
            viol_up = Ax - prob.ub
            sign_tol = 1e-8 * max(1.0, float(np.max(np.abs(y0))))
            bad_low = low & (y0 > sign_tol)
            bad_up = up & (y0 < -sign_tol)
            feasible = not (
                np.any(viol_lo > s.eps_prim) or np.any(viol_up > s.eps_prim)
            )
            if r_dual > _dual_tol(s.eps_dual, Px / D, prob.q):
                return None
            if feasible and not bad_low.any() and not bad_up.any():
                return D * x_hat, y0
            if not feasible:
                # expand only; releasing while infeasible makes the set thrash
                new_low = (low | (viol_lo > s.eps_prim)) & fin_lo & ~eq
                new_up = ((up | (viol_up > s.eps_prim)) & fin_up & ~eq) & ~new_low
                if np.array_equal(new_low, low) and np.array_equal(new_up, up):
                    return None
                low, up = new_low, new_up
            else:
                # feasible with a wrong-sign multiplier: release the worst one
                score = np.where(bad_low, y0, 0.0) - np.where(bad_up, y0, 0.0)
                worst = int(np.argmax(score))
                low[worst] = False
                up[worst] = False
        return None

    def _polish_box(self, prob, P2s, q2s, D, E, lbs, ubs, a, z):
        """Active-set finish when the constraints are a pure box.

        The condensed builders emit A = I, which survives equilibration as a
        positive diagonal, so bounds act componentwise on the variables and
        the reduced systems are Cholesky solves of the free block.  The walk
        is the classic bending one: take the free-block Newton direction
        (strict descent), stop at the first bound it crosses and pin that
        coordinate, and at each subspace optimum release the single worst
        wrong-sign multiplier.  Strict decrease over finitely many sets
        terminates; the result is only returned after the full KKT gates.
        """
        s = self.settings
        lx = lbs / a
        ux = ubs / a
        fixed = lx == ux
        fin_lo = np.isfinite(lx)
        fin_up = np.isfinite(ux)
        # a coordinate within 1e-12 relative of a finite bound sits on it
        on_lo = np.full(lx.size, -np.inf)
        on_up = np.full(ux.size, np.inf)
        on_lo[fin_lo] = lx[fin_lo] + 1e-12 * (1.0 + np.abs(lx[fin_lo]))
        on_up[fin_up] = ux[fin_up] - 1e-12 * (1.0 + np.abs(ux[fin_up]))

        x = np.clip(z / a, lx, ux)
        x[fixed] = lx[fixed]
        g = P2s @ x + q2s
        low = fin_lo & (x <= on_lo) & (g > 0) & ~fixed
        up = fin_up & (x >= on_up) & (g < 0) & ~fixed & ~low
        converged = False
        for _ in range(150):
            free = ~(fixed | low | up)
            if free.any():
                try:
                    cho = sla.cho_factor(P2s[np.ix_(free, free)])
                except (sla.LinAlgError, ValueError):
                    return None
                d_free = sla.cho_solve(cho, -g[free])
                idx = np.flatnonzero(free)
                # pin coordinates sitting on a bound the step would cross
                out_lo = (x[idx] <= on_lo[idx]) & (d_free < 0) & fin_lo[idx]
                out_up = (x[idx] >= on_up[idx]) & (d_free > 0) & fin_up[idx]
                if out_lo.any() or out_up.any():
                    x[idx[out_lo]] = lx[idx[out_lo]]
                    x[idx[out_up]] = ux[idx[out_up]]
                    low[idx[out_lo]] = True
                    up[idx[out_up]] = True
                    continue
                with np.errstate(divide="ignore", invalid="ignore"):
                    dist = np.where(
                        d_free < 0, (lx[idx] - x[idx]) / d_free,
                        np.where(d_free > 0, (ux[idx] - x[idx]) / d_free, np.inf),
                    )
                stepmax = float(np.min(dist))
                if stepmax < 1.0:
                    x[idx] += stepmax * d_free
                    hit = dist <= stepmax
                    hit_lo = hit & (d_free < 0)
                    hit_up = hit & (d_free > 0)
                    x[idx[hit_lo]] = lx[idx[hit_lo]]
                    x[idx[hit_up]] = ux[idx[hit_up]]
                    low[idx[hit_lo]] = True
                    up[idx[hit_up]] = True
                    g = P2s @ x + q2s
                    continue
                x[idx] += d_free
                g = P2s @ x + q2s
            # subspace optimum: release the worst wrong-sign multiplier, if any
            score = np.where(low, -g, 0.0) + np.where(up, g, 0.0)
            worst = int(np.argmax(score))
            if score[worst] <= 1e-9 * (1.0 + float(np.max(np.abs(g)))):
                converged = True
                break
            low[worst] = False
            up[worst] = False
        if not converged:
            return None

        y_hat = np.zeros_like(x)
        bnd = fixed | low | up
        y_hat[bnd] = -g[bnd] / a[bnd]
        Px = P2s @ x
        r_dual = np.max(np.abs((Px + q2s + a * y_hat) / D))
        if not np.isfinite(r_dual) or r_dual > _dual_tol(s.eps_dual, Px / D, prob.q):
            return None
        Ax = (a * x) / E
        if np.any(Ax < prob.lb - s.eps_prim) or np.any(Ax > prob.ub + s.eps_prim):
            return None
        y0 = E * y_hat
        sign_tol = 1e-8 * max(1.0, float(np.max(np.abs(y0))))
        if np.any(y0[low] > sign_tol) or np.any(y0[up] < -sign_tol):
            return None
        return D * x, y0

    def _polish_solve(self, P2s, As, q2s, lbs, ubs, eq, low, up):
        """Equality-solve on one active-set guess, scaled quantities in/out."""
        act = eq | low | up
        k = int(np.count_nonzero(act))
        d = q2s.size
        b_act = np.where(up[act], ubs[act], lbs[act])

        delta = 1e-9
        A_act = As.tocsr()[act].tocsc()
        try:
            K = sp.bmat(
                [[P2s + delta * sp.eye(d), A_act.T], [A_act, -delta * sp.eye(k)]],
                format="csc",
            )
            lu = spla.splu(K)
        except (RuntimeError, ValueError):
            return None

        rhs = np.concatenate([-q2s, b_act])
        sol = lu.solve(rhs)
        # two refinement sweeps against the unregularized system
        for _ in range(2):
            xs_, ys_ = sol[:d], sol[d:]
            resid = rhs - np.concatenate([P2s @ xs_ + A_act.T @ ys_, A_act @ xs_])
            sol = sol + lu.solve(resid)
        x_hat = sol[:d]
        y_hat = np.zeros(lbs.size)
        y_hat[act] = sol[d:]
        return x_hat, y_hat


def _dual_tol(eps_dual: float, Pz2: np.ndarray, q: np.ndarray) -> float:
    """Stationarity tolerance for accepting a polished candidate.

    ``Pz2`` is the unscaled 2Pz.  Forming 2Pz + 2q + A'y rounds at about
    machine epsilon times the largest term, so on a badly scaled problem
    (|q| ~ 1e11) a bare eps_dual of 1e-6 is below what any candidate can
    reach.  The fixed relative allowance of 1e-13 (a few hundred ulps)
    covers that rounding floor; the ADMM termination test does not use it.
    """
    scale = max(np.max(np.abs(Pz2), initial=0.0), 2.0 * np.max(np.abs(q), initial=0.0))
    return eps_dual + 1e-13 * scale


def _col_inf_norm(M) -> np.ndarray:
    if sp.issparse(M):
        return np.asarray(abs(M.tocsc()).max(axis=0).todense()).ravel()
    return np.max(np.abs(M), axis=0) if M.shape[0] else np.zeros(M.shape[1])


def _row_inf_norm(M) -> np.ndarray:
    if sp.issparse(M):
        return np.asarray(abs(M.tocsr()).max(axis=1).todense()).ravel()
    return np.max(np.abs(M), axis=1) if M.shape[1] else np.zeros(M.shape[0])


def _scale_sym(M, dvec):
    if sp.issparse(M):
        Dm = sp.diags(dvec)
        return (Dm @ M @ Dm).tocsc()
    return dvec[:, None] * M * dvec[None, :]


def _scale_rows_cols(M, rvec, cvec):
    if sp.issparse(M):
        return (sp.diags(rvec) @ M @ sp.diags(cvec)).tocsc()
    return rvec[:, None] * M * cvec[None, :]


def _ruiz(P2, A, iters):
    """Ruiz equilibration of the KKT blocks.

    Returns positive diagonal vectors D (variables) and E (constraints)
    and the scaled matrices D@P2@D and E@A@D.  No cost scalar: with a
    fixed penalty, scaling the objective only unbalances the iteration.
    Scaling changes the iteration geometry, not the problem; callers
    undo it on the iterates and test convergence on unscaled residuals.
    """
    d = P2.shape[0]
    D = np.ones(d)
    E = np.ones(A.shape[0])
    P2s, As = P2, A
    for _ in range(iters):
        col = np.maximum(_col_inf_norm(P2s), _col_inf_norm(As))
        dd = np.where(col > 1e-12, 1.0 / np.sqrt(col), 1.0)
        row = _row_inf_norm(As)
        de = np.where(row > 1e-12, 1.0 / np.sqrt(row), 1.0)
        P2s = _scale_sym(P2s, dd)
        As = _scale_rows_cols(As, de, dd)
        D *= dd
        E *= de
    return D, E, P2s, As


def _normalize(P, A, box):
    """Bring P and A into the representation of the chosen path."""
    if box:
        Pn = P.toarray() if sp.issparse(P) else np.asarray(P, float)
        An = np.asarray(A, float)
    else:
        Pn = sp.csc_matrix(P)
        An = sp.csc_matrix(A)
    return Pn, An


def _same_matrix(M1, M2) -> bool:
    if sp.issparse(M1) != sp.issparse(M2) or M1.shape != M2.shape:
        return False
    if sp.issparse(M1):
        return (
            np.array_equal(M1.indptr, M2.indptr)
            and np.array_equal(M1.indices, M2.indices)
            and np.array_equal(M1.data, M2.data)
        )
    return np.array_equal(M1, M2)


def _infeasibility_certificate(At_dy, dy, lb, ub, eps) -> bool:
    norm_dy = np.max(np.abs(dy)) if dy.size else 0.0
    if norm_dy <= 1e-14:
        return False
    if np.max(np.abs(At_dy)) > eps * norm_dy:
        return False
    dyp = np.clip(dy, 0.0, None)
    dym = np.clip(dy, None, 0.0)
    fin_ub = np.isfinite(ub)
    fin_lb = np.isfinite(lb)
    # an unbounded row cannot support a certificate on that side
    if np.any(dyp[~fin_ub] > 0) or np.any(dym[~fin_lb] < 0):
        return False
    val = ub[fin_ub] @ dyp[fin_ub] + lb[fin_lb] @ dym[fin_lb]
    return val <= -eps * norm_dy


def solve_qp(
    prob: QpProblem,
    warm: tuple[np.ndarray, np.ndarray] | None = None,
    settings: QpSettings | None = None,
) -> QpSolution:
    """One-shot solve with a fresh solver instance."""
    return AdmmSolver(settings).solve(prob, warm=warm)
