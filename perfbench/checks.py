"""Output checks of the closed-loop benchmark.

Both take data the control loop produced and return a list of problems,
empty when the output is correct, so a caller can count and report them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Slack on the solver's own tolerances (QpSettings.eps_prim / eps_dual) for
# residuals recomputed here in a different order of operations.
KKT_MARGIN = 10.0


def episode_problems(states, inputs, u_min, u_max, tol: float) -> list[str]:
    """Finite states, and finite inputs within [u_min - tol, u_max + tol]."""
    problems = []
    if not np.isfinite(states).all():
        problems.append("non-finite state")
    if not np.isfinite(inputs).all():
        problems.append("non-finite input")
    elif (inputs < u_min - tol).any() or (inputs > u_max + tol).any():
        problems.append("input outside [u_min, u_max]")
    return problems


def kkt_problems(prob, z, y, eps_prim: float, eps_dual: float) -> list[str]:
    """Unscaled KKT conditions of ``min z'Pz + 2q'z s.t. lb <= Az <= ub``.

    Checks primal feasibility, stationarity ``2Pz + 2q + A'y = 0`` and the
    multiplier signs: a positive multiplier needs its upper bound active,
    a negative one its lower bound.
    """
    z = np.asarray(z, float)
    y = np.asarray(y, float)
    if not (np.isfinite(z).all() and np.isfinite(y).all()):
        return ["non-finite solution"]
    A = prob.A if sp.issparse(prob.A) else np.asarray(prob.A, float)
    Az = A @ z
    Pz2 = 2.0 * (prob.P @ z)
    # rounding in the recomputation grows with the size of the terms summed
    scale = max(1.0, np.max(np.abs(Pz2), initial=0.0), np.max(np.abs(2.0 * prob.q), initial=0.0))
    grad = Pz2 + 2.0 * prob.q + A.T @ y
    tol_prim = KKT_MARGIN * eps_prim
    tol_dual = KKT_MARGIN * eps_dual + 1e-12 * scale
    problems = []
    if np.any(Az < prob.lb - tol_prim) or np.any(Az > prob.ub + tol_prim):
        problems.append("primal residual above tolerance")
    if np.max(np.abs(grad), initial=0.0) > tol_dual:
        problems.append("dual residual above tolerance")
    # the solver treats multipliers this small as zero (its sign dead zone)
    tol_y = 1e-8 * max(1.0, float(np.max(np.abs(y), initial=0.0)))
    with np.errstate(invalid="ignore"):
        upper_slack = np.where(y > tol_y, prob.ub - Az, 0.0)
        lower_slack = np.where(y < -tol_y, Az - prob.lb, 0.0)
    if np.any(upper_slack > tol_prim) or np.any(lower_slack > tol_prim):
        problems.append("multiplier sign does not match an active bound")
    return problems
