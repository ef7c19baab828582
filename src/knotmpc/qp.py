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
problem's type picks one of two straight paths.  A ``BoxQp`` bounds z
itself, so after scaling its A is the identity and the KKT system reduces
to (P~ + diag(sigma + rho)) x = sigma x - q~ + rho z - y as in OSQP,
factored by a d x d LAPACK LU; a ``QpProblem``, whatever its A, goes
through a sparse LU of the full KKT matrix.  A solve builds that factor
once, and only if it iterates.  Only the sparse path tests for primal
infeasibility: a validated box is never empty.

Condensed MPC problems can be badly scaled (prediction matrices stack
powers of A_d), so the iteration runs on an equilibrated copy of the
problem.  The sparse path runs Ruiz passes at every solve.  A box has
Ruiz's fixed point in closed form (``_box_scaling``), so its scaled A
stays the identity and its scaled box is lb/D <= x <= ub/D.
Termination always tests the residuals of the original, unscaled problem,
so reported accuracy is unaffected by scaling.

Both paths share one start rule.  A warm start goes first to the exact
finish (polish): it reads the active set off the iterate and its dual,
solves that equality-constrained subproblem exactly, and accepts the
result only if it passes the full KKT conditions at the configured
tolerances (stationarity allowing for the rounding floor of its own
computation, see ``_dual_tol``).  A row (or box coordinate) whose dual has
a bound's sign, beyond a dead zone of 1e-12 max(1, |y|), starts active at
that bound; so a warm start begins from the previous solve's active set, as
in qpOASES, and the box walk pins at once the bounds it would otherwise find
one factorization at a time.  A cold start runs ADMM from x = 0, y = 0, and
builds ADMM's penalties and factor only then.  The box finish, an
active-set walk, is tried at every residual check from ADMM's iterate
alone; the sparse one refactors, so it is tried on convergence and at
checks 1, 2, 4, ....  The bare ADMM iterate is returned only if the finish
fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_EQ_TOL = 1e-12
_RHO = 0.1  # ADMM penalty on inequality rows
_RHO_EQ_SCALE = 1e3
_SIGMA = 1e-6  # proximal regularization of the x-update
_ALPHA = 1.6  # over-relaxation
_EPS_INFEAS = 1e-5  # tolerance of the primal infeasibility certificate
_SCALING_ITERS = 10  # Ruiz equilibration passes
_CHECK_INTERVAL = 25  # ADMM iterations between residual checks


@dataclass
class QpSettings:
    """Solver knobs; the defaults suit the control problems in this package.
    Residuals are checked, and the exact finish tried, every
    ``_CHECK_INTERVAL`` ADMM iterations up to ``max_iters``."""

    eps_prim: float = 1e-6
    eps_dual: float = 1e-6
    max_iters: int = 20000


@dataclass(frozen=True)
class QpProblem:
    """One QP with general constraint rows; ``A`` (at least one row) and
    ``P`` may be dense or scipy-sparse.  Only the bounds may be infinite (a
    free side), and nothing may be NaN.  ``offset`` is the constant the
    quadratic form drops: ``objective + offset`` is the cost the problem
    was built from (the MPC tracking cost for the condense builders)."""

    P: object
    q: np.ndarray
    A: object
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        r = self.A.shape[0]
        _validate(self, r)
        if r == 0 or self.A.shape[1] != self.q.size:
            raise ValueError(f"A must have {self.q.size} columns and at least one row, got {self.A.shape}")
        if not _all_finite(self.A):
            raise ValueError("A must be finite")


@dataclass(frozen=True)
class BoxQp:
    """``minimize z'Pz + 2q'z s.t. lb <= z <= ub`` with a dense P: the
    bounds act on each variable directly.  Fields and checks are those of
    ``QpProblem`` without ``A``."""

    P: np.ndarray
    q: np.ndarray
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "P", np.asarray(self.P, float))
        _validate(self, np.size(self.q))

    @classmethod
    def _from_symmetric(cls, P: np.ndarray, q, lb, ub, offset: float) -> BoxQp:
        """A ``BoxQp`` from a builder whose float P is symmetric by
        construction: every check of ``BoxQp(...)`` but the symmetry one."""
        prob = object.__new__(cls)
        for name, value in zip(("P", "q", "lb", "ub", "offset"), (P, q, lb, ub, offset)):
            object.__setattr__(prob, name, value)
        _validate(prob, np.size(q), symmetric=True)
        return prob

    @property
    def A(self) -> np.ndarray:
        """The identity, for readers of lb <= Az <= ub; the solver never uses it."""
        return np.eye(self.q.size)


def _validate(prob, r: int, symmetric: bool = False) -> None:
    """Check and normalize the fields both problem types share, with ``r``
    bound rows; a missing bound is a free side.  ``symmetric`` skips the
    symmetry check of a P its builder made symmetric."""
    object.__setattr__(prob, "offset", float(prob.offset))
    if not np.isfinite(prob.offset):
        raise ValueError("offset must be finite")
    q = np.asarray(prob.q, float).ravel()
    object.__setattr__(prob, "q", q)
    d = q.size
    if d == 0:
        raise ValueError("a QP needs at least one variable")
    if prob.P.shape != (d, d):
        raise ValueError(f"P must be {d}x{d}, got {prob.P.shape}")
    if not (_all_finite(prob.P) and _all_finite(q)):
        raise ValueError("P and q must be finite")
    if not symmetric and _max_abs(prob.P - prob.P.T) > 1e-8 * (1.0 + _max_abs(prob.P)):
        raise ValueError("P must be symmetric")
    lb = np.full(r, -np.inf) if prob.lb is None else np.asarray(prob.lb, float).ravel()
    ub = np.full(r, np.inf) if prob.ub is None else np.asarray(prob.ub, float).ravel()
    if lb.size != r or ub.size != r:
        raise ValueError("lb and ub must match the number of constraint rows")
    # each comparison is also false on NaN; lb = +inf or ub = -inf admits no z
    if not (np.all(lb <= ub) and np.all(lb < np.inf) and np.all(ub > -np.inf)):
        raise ValueError("need lb <= ub elementwise, with no NaN, lb = +inf or ub = -inf")
    object.__setattr__(prob, "lb", lb)
    object.__setattr__(prob, "ub", ub)


@dataclass
class QpSolution:
    z: np.ndarray
    status: str  # solved | max_iters | primal_infeasible
    iterations: int
    objective: float
    dual: np.ndarray


def _max_abs(M) -> float:
    if sp.issparse(M):
        return 0.0 if M.nnz == 0 else float(np.max(np.abs(M.data)))
    return float(np.max(np.abs(M))) if M.size else 0.0


def _all_finite(M) -> bool:
    return bool(np.all(np.isfinite(M.data if sp.issparse(M) else np.asarray(M, float))))


class AdmmSolver:
    """A solver with fixed settings; it keeps no state between solves."""

    def __init__(self, settings: QpSettings | None = None):
        self.settings = settings or QpSettings()

    def solve(self, prob: QpProblem | BoxQp, warm: tuple[np.ndarray, np.ndarray] | None = None) -> QpSolution:
        """Solve ``prob``, from ``warm`` = (z, dual) of an earlier solve if given."""
        if isinstance(prob, BoxQp):
            return self._solve_box(prob, warm)
        return self._solve_sparse(prob, warm)

    def _solve_box(self, prob: BoxQp, warm) -> QpSolution:
        s = self.settings
        P2 = prob.P * 2.0
        D = _box_scaling(P2)
        E = 1.0 / D
        P2s = D[:, None] * P2 * D[None, :]
        q2s = D * (2.0 * prob.q)
        lbs = E * prob.lb
        ubs = E * prob.ub

        x, y = _scaled_start(warm, D, E)
        # a warm (z, dual) often names the active set outright, leaving ADMM a
        # fallback whose data is built only when it runs
        if warm is not None:
            polished = self._polish_box(prob, P2s, q2s, D, E, lbs, ubs, x, y)
            if polished is not None:
                return _solution(prob, polished, "solved", 0)

        z = np.clip(x, lbs, ubs)
        rho_vec, inv_rho = _penalty(prob.lb, prob.ub)
        # LU, not Cholesky: it tolerates a numerically indefinite condensed P
        lu = sla.lu_factor(P2s + np.diag(_SIGMA + rho_vec))
        for i in range(1, s.max_iters + 1):
            xt = sla.lu_solve(lu, _SIGMA * x - q2s + (rho_vec * z - y))
            x, z, y, _ = _relax(x, z, y, xt, xt, rho_vec, inv_rho, lbs, ubs)
            if i % _CHECK_INTERVAL == 0 or i == s.max_iters:
                # a failed walk is discarded, as acceptance is gated on the full KKT check
                polished = self._polish_box(prob, P2s, q2s, D, E, lbs, ubs, z)
                if polished is not None:
                    return _solution(prob, polished, "solved", i)
                if _converged(x - z, P2s @ x + q2s + y, D, E, s):
                    return _solution(prob, (D * x, E * y), "solved", i)
        return _solution(prob, (D * x, E * y), "max_iters", s.max_iters)

    def _solve_sparse(self, prob: QpProblem, warm) -> QpSolution:
        s = self.settings
        rho_vec, inv_rho = _penalty(prob.lb, prob.ub)
        D, E, P2s, As = _ruiz(sp.csc_matrix(prob.P) * 2.0, sp.csc_matrix(prob.A), _SCALING_ITERS)
        q2s = D * (2.0 * prob.q)
        lbs = E * prob.lb
        ubs = E * prob.ub

        x, y = _scaled_start(warm, D, E)
        if warm is not None:
            polished = self._try_polish(prob, P2s, As, q2s, D, E, lbs, ubs, y)
            if polished is not None:
                return _solution(prob, polished, "solved", 0)

        z = np.clip(As @ x, lbs, ubs)
        d = prob.q.size
        K = sp.bmat([[P2s + _SIGMA * sp.eye(d), As.T], [As, -sp.diags(inv_rho)]], format="csc")
        lu = spla.splu(K)
        check_no = 0
        for i in range(1, s.max_iters + 1):
            sol = lu.solve(np.concatenate([_SIGMA * x - q2s, z - inv_rho * y]))
            x, z, y, dy = _relax(x, z, y, sol[:d], z + inv_rho * (sol[d:] - y), rho_vec, inv_rho, lbs, ubs)
            if i % _CHECK_INTERVAL == 0 or i == s.max_iters:
                converged = _converged(As @ x - z, P2s @ x + q2s + As.T @ y, D, E, s)
                check_no += 1
                # each attempt refactors, so it is due at checks 1, 2, 4, ... only
                if converged or check_no & (check_no - 1) == 0:
                    polished = self._try_polish(prob, P2s, As, q2s, D, E, lbs, ubs, y)
                    if polished is not None:
                        return _solution(prob, polished, "solved", i)
                if converged:
                    return _solution(prob, (D * x, E * y), "solved", i)
                if _infeasibility_certificate((As.T @ dy) / D, E * dy, prob.lb, prob.ub, _EPS_INFEAS):
                    return _solution(prob, (D * x, E * y), "primal_infeasible", i)
        return _solution(prob, (D * x, E * y), "max_iters", s.max_iters)

    def _try_polish(self, prob, P2s, As, q2s, D, E, lbs, ubs, y):
        """Active-set finish from the current dual iterate of a general problem.

        Rows are classified active by the sign of their dual alone; a dual
        inside the rounding dead zone marks no bound.  The guessed set is
        refined a few rounds: rows the candidate violates are added, rows
        with wrong-sign multipliers dropped.  Returns unscaled (z, dual) only when a
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
        low = (y < -ytol) & fin_lo & ~eq
        up = (y > ytol) & fin_up & ~eq

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

    def _polish_box(self, prob, P2s, q2s, D, E, lx, ux, z, y=None):
        """Active-set finish of a ``BoxQp``, from a warm (z, y) at iteration 0
        or from the ADMM iterate z at a residual check, all scaled.

        Equilibration keeps the box a box, lx <= x <= ux in the scaled
        variables, so bounds act componentwise and the reduced systems are
        Cholesky solves of the free block.  The walk starts from z clipped
        into the box, with every coordinate within 1e-12 relative of a
        bound snapped onto it.  Such a coordinate starts pinned if the
        gradient pushes it out of the box or, given a warm dual y, if y has
        that bound's sign (below -ytol at lx, above ytol at ux, ytol =
        1e-12 max(1, |y|)): a warm start resumes the previous solve's
        active set.  ADMM's dual is not used, because after 25 iterations
        it still names bounds that the optimum leaves free, and each wrong
        pin costs a pivot (cold ``small`` solves took ~18 % more
        factorizations with it).  The walk is the classic bending one: take
        the free-block Newton direction (strict descent), pin a coordinate
        sitting on a bound the direction would cross, else stop at the
        first bound it crosses and pin that coordinate, and at each
        subspace optimum release the single worst wrong-sign multiplier, so
        a stale or wrong pin costs pivots, never accuracy.
        Strict decrease over finitely many sets terminates; the result is
        only returned after the full KKT gates.  Every free block is a
        submatrix of P2s, so P2s and q2s are checked for finiteness once here
        and each pivot factors and solves without checks.  A condensed P can
        be indefinite at its rounding floor, so a block of size k whose
        Cholesky fails is retried once shifted by k eps max|diag| and the
        gates judge the outcome; a second failure ends the attempt.
        """
        if not (np.isfinite(P2s).all() and np.isfinite(q2s).all()):
            return None
        s = self.settings
        fixed = lx == ux
        # a coordinate within 1e-12 relative of a finite bound sits on it; the
        # cap keeps the threshold of an infinite bound infinite, never inf - inf
        on_lo = lx + 1e-12 * np.minimum(1.0 + np.abs(lx), 1e300)
        on_up = ux - 1e-12 * np.minimum(1.0 + np.abs(ux), 1e300)

        x = np.clip(z, lx, ux)
        at_lo = x <= on_lo
        at_up = (x >= on_up) & ~at_lo
        np.copyto(x, lx, where=at_lo)
        np.copyto(x, ux, where=at_up)
        g = P2s @ x + q2s
        low = at_lo & ~fixed & (g > 0)
        up = at_up & (g < 0)
        if y is not None:
            # the dead zone of _try_polish: a numerically silent dual names no bound
            ytol = 1e-12 * max(1.0, float(np.abs(y).max()))
            low |= at_lo & ~fixed & (y < -ytol)
            up |= at_up & (y > ytol)
        converged = False
        for _ in range(150):
            bnd = fixed | low | up
            idx = np.flatnonzero(~bnd)
            if idx.size:
                Pf = P2s.take(idx, 0).take(idx, 1)
                try:
                    c, lower = sla.cho_factor(Pf, check_finite=False)
                except sla.LinAlgError:
                    # indefinite at the rounding floor of its size: shift by it once
                    floor = idx.size * np.finfo(float).eps * np.abs(np.diagonal(Pf)).max()
                    Pf[np.diag_indices_from(Pf)] += floor
                    try:
                        c, lower = sla.cho_factor(Pf, check_finite=False)
                    except sla.LinAlgError:
                        return None
                d_free, info = sla.lapack.dpotrs(c, -g.take(idx), lower=lower)
                if info:
                    return None
                xi = x.take(idx)
                dec = d_free < 0
                inc = d_free > 0
                # pin coordinates sitting on a bound the step would cross
                out_lo = idx[(xi <= on_lo.take(idx)) & dec]
                out_up = idx[(xi >= on_up.take(idx)) & inc]
                if out_lo.size or out_up.size:
                    x[out_lo] = lx[out_lo]
                    x[out_up] = ux[out_up]
                    low[out_lo] = True
                    up[out_up] = True
                    continue
                dist = np.full(idx.size, np.inf)
                np.divide(lx.take(idx) - xi, d_free, out=dist, where=dec)
                np.divide(ux.take(idx) - xi, d_free, out=dist, where=inc)
                stepmax = float(dist.min())
                if stepmax < 1.0:
                    x[idx] = xi + stepmax * d_free
                    hit = dist <= stepmax
                    hit_lo = idx[hit & dec]
                    hit_up = idx[hit & inc]
                    x[hit_lo] = lx[hit_lo]
                    x[hit_up] = ux[hit_up]
                    low[hit_lo] = True
                    up[hit_up] = True
                    g = P2s @ x + q2s
                    continue
                x[idx] = xi + d_free
                g = P2s @ x + q2s
            # subspace optimum: release the worst wrong-sign multiplier, if any
            score = np.where(low, -g, np.where(up, g, 0.0))
            worst = score.argmax()
            if score[worst] <= 1e-9 * (1.0 + float(np.abs(g).max())):
                converged = True
                break
            low[worst] = False
            up[worst] = False
        if not converged:
            return None

        y_hat = np.where(bnd, -g, 0.0)
        Px = P2s @ x
        r_dual = float(np.abs((Px + q2s + y_hat) / D).max())
        if not np.isfinite(r_dual) or r_dual > _dual_tol(s.eps_dual, Px / D, prob.q):
            return None
        Ax = x / E
        if np.count_nonzero((Ax < prob.lb - s.eps_prim) | (Ax > prob.ub + s.eps_prim)):
            return None
        y0 = E * y_hat
        sign_tol = 1e-8 * max(1.0, float(np.abs(y0).max()))
        if np.count_nonzero(low & (y0 > sign_tol) | up & (y0 < -sign_tol)):
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


def _solution(prob, xy, status, iters) -> QpSolution:
    """Package unscaled (z, dual) with its objective."""
    xs, ys = xy
    obj = float(xs @ (prob.P @ xs) + 2.0 * prob.q @ xs)
    return QpSolution(xs, status, iters, obj, ys)


def _penalty(lb, ub):
    """The ADMM penalty of each row, boosted on equality rows, and its inverse."""
    eq = np.isfinite(lb) & (ub - lb < _EQ_TOL)
    rho_vec = np.full(lb.size, _RHO)
    rho_vec[eq] *= _RHO_EQ_SCALE
    return rho_vec, 1.0 / rho_vec


def _scaled_start(warm, D, E):
    """The scaled start (x, y): the origin, or the checked warm (z, dual) over (D, E)."""
    if warm is None:
        return np.zeros(D.size), np.zeros(E.size)
    xw = np.array(warm[0], float).ravel()
    yw = np.array(warm[1], float).ravel()
    if xw.size != D.size or yw.size != E.size:
        raise ValueError("warm start has wrong dimensions")
    if not (np.isfinite(xw).all() and np.isfinite(yw).all()):
        raise ValueError("warm start must be finite")
    return xw / D, yw / E


def _relax(x, z, y, xt, zt, rho_vec, inv_rho, lbs, ubs):
    """Over-relaxed ADMM update of (x, z, y) from the KKT step (xt, zt), and the dual step."""
    x = _ALPHA * xt + (1.0 - _ALPHA) * x
    z_relax = _ALPHA * zt + (1.0 - _ALPHA) * z
    z_new = np.clip(z_relax + inv_rho * y, lbs, ubs)
    dy = rho_vec * (z_relax - z_new)
    return x, z_new, y + dy, dy


def _converged(prim, dual, D, E, s: QpSettings) -> bool:
    """The termination test: the scaled residuals Ax - z and P~x + q~ + A'y, unscaled."""
    r_prim = np.max(np.abs(prim / E))
    r_dual = np.max(np.abs(dual / D))
    return r_prim <= s.eps_prim and r_dual <= s.eps_dual


def _dual_tol(eps_dual: float, Pz2: np.ndarray, q: np.ndarray) -> float:
    """Stationarity tolerance for accepting a polished candidate.

    ``Pz2`` is the unscaled 2Pz.  Forming 2Pz + 2q + A'y rounds at about
    machine epsilon times the largest term, so on a badly scaled problem
    (|q| ~ 1e11) a bare eps_dual of 1e-6 is below what any candidate can
    reach.  The fixed relative allowance of 1e-13 (a few hundred ulps)
    covers that rounding floor; the ADMM termination test does not use it.
    """
    scale = max(np.abs(Pz2).max(initial=0.0), 2.0 * np.abs(q).max(initial=0.0))
    return eps_dual + 1e-13 * scale


def _ruiz(P2, A, iters):
    """Ruiz equilibration of the sparse KKT blocks.

    Returns positive diagonal vectors D (variables) and E (constraints)
    and the scaled matrices D@P2@D and E@A@D.  No cost scalar: with a
    fixed penalty, scaling the objective only unbalances the iteration.
    Scaling changes the iteration geometry, not the problem; callers
    undo it on the iterates and test convergence on unscaled residuals.
    """
    D = np.ones(P2.shape[0])
    E = np.ones(A.shape[0])
    P2s, As = P2, A
    for _ in range(iters):
        col = np.maximum(abs(P2s).max(axis=0).toarray(), abs(As).max(axis=0).toarray()).ravel()
        dd = np.where(col > 1e-12, 1.0 / np.sqrt(col), 1.0)
        row = abs(As).max(axis=1).toarray().ravel()
        de = np.where(row > 1e-12, 1.0 / np.sqrt(row), 1.0)
        P2s = (sp.diags(dd) @ P2s @ sp.diags(dd)).tocsc()
        As = (sp.diags(de) @ As @ sp.diags(dd)).tocsc()
        D *= dd
        E *= de
    return D, E, P2s, As


def _box_scaling(P2):
    """The variable scaling D of a box QP, with E = 1 / D: a fixed point of
    ``_ruiz`` on [P2; I], the one its passes from D = 1 approach.  It
    leaves [D P2 D; E I D] = [D P2 D; I] with every column of max-norm 1,
    since |P2_ij| <= sqrt(P2_ii P2_jj) for a PSD P2 and
    diag(D P2 D) = min(diag(P2), 1)."""
    return 1.0 / np.sqrt(np.maximum(np.diagonal(P2), 1.0))


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

