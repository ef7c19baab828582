"""Robot models, linearization, and discretization.

One plant family is provided: a planar chain of N revolute links with a
point mass at the distal end of each link, its angles measured from the
hanging position.  The torque-driven pendulum is the one-link chain.  The
plant exposes continuous dynamics ``xdot = f(x, u)`` on the state
``x = [q, qd]`` in two forms:

- ``ode`` also takes row-stacked (k, n)/(k, m) inputs, which ``linearize``
  requires: it evaluates all of its points in one call.
- ``ode1`` takes one state and one input, and serves the closed loop's
  plant integration, whose RK4 stages depend on each other.  It solves
  the SPD inertia matrix by Cholesky and so agrees with ``ode`` to
  rounding.

The rest of the module turns those nonlinear models into the discrete
affine models consumed by the controllers:

    xdot ~= A x + B u + w          (linearize)
    x[k+1] = Ad x[k] + Bd u[k] + wd  (discretize, then step/rollout)

``rk4_step``/``integrate`` are the ground-truth integrators used when a
closed-loop simulation advances the real plant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dposv


class SingularInertiaError(RuntimeError):
    """Raised when an inertia matrix cannot be inverted numerically."""


# ---------------------------------------------------------------------------
# planar N-link chain

# The chain is modeled with absolute link angles th_i (measured from the
# downward vertical, along which gravity acts) where th = cumsum(q) for
# joint angles q.  With point masses at the link tips the kinetic energy is
#     T = 1/2 * sum_{j,k} G[j,k] l_j l_k cos(th_j - th_k) thd_j thd_k,
# with G[j,k] = sum of the masses at or beyond link max(j,k), and the
# potential is V = sum_j g cummass[j] l_j (1 - cos th_j).  Lagrange's
# equations in th then reduce to
#     M_th(th) thdd + c_th(th, thd) + dV/dth = L^{-T} (tau - b qd),
# where L is the lower-triangular matrix of ones mapping q -> th.  Joint
# quantities follow by congruence with L.


@dataclass(frozen=True)
class NLinkParams:
    """Planar serial chain of ``links`` revolute joints, point tip masses.

    At q = 0 the chain hangs straight down, at rest under any gravity.
    With ``links=1`` it is the torque-driven pendulum
    m l^2 qdd + b qd + m g l sin(q) = tau.  Every field must be finite.

    ``inertia_weights`` (G[j,k] l_j l_k) and ``gravity_weights``
    (g cummass[j] l_j, with cummass[j] the mass at or beyond link j) are
    derived from the other fields when the params are built, so the
    dynamics never recompute them; ``dataclasses.replace`` rebuilds them.
    """

    links: int
    mass: float | np.ndarray = 1.0
    length: float | np.ndarray = 0.25
    damping: float = 0.01
    gravity: float = 0.0
    inertia_weights: np.ndarray = field(init=False, repr=False, compare=False)
    gravity_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.links < 1:
            raise ValueError("links must be >= 1")
        object.__setattr__(self, "mass", np.broadcast_to(np.asarray(self.mass, float), (self.links,)).copy())
        object.__setattr__(self, "length", np.broadcast_to(np.asarray(self.length, float), (self.links,)).copy())
        if not np.isfinite([*self.mass, *self.length, self.damping, self.gravity]).all():
            raise ValueError("mass, length, damping and gravity must be finite")
        if np.any(self.mass <= 0) or np.any(self.length <= 0):
            raise ValueError("masses and lengths must be positive")
        if self.damping < 0:
            raise ValueError("damping must be non-negative")
        l = self.length
        cummass = np.cumsum(self.mass[::-1])[::-1]
        idx = np.arange(self.links)
        G = cummass[np.maximum.outer(idx, idx)]
        object.__setattr__(self, "inertia_weights", G * np.outer(l, l))
        object.__setattr__(self, "gravity_weights", self.gravity * cummass * l)


def nlink_mass_matrix(params: NLinkParams, q: np.ndarray) -> np.ndarray:
    """Joint-space inertia matrix M(q), symmetric positive definite."""
    th = np.cumsum(np.asarray(q, float))
    M_th = params.inertia_weights * np.cos(np.subtract.outer(th, th))
    # congruence with the cumulative-sum map is a reversed 2-D cumsum
    return np.flip(np.cumsum(np.cumsum(np.flip(M_th), axis=0), axis=1))


def nlink_accel(params: NLinkParams, q: np.ndarray, qd: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Joint accelerations under joint torques tau; leading axes of q, qd, tau (..., N) batch."""
    q, qd, tau = (np.asarray(a, float) for a in (q, qd, tau))
    th = np.add.accumulate(q, axis=-1)  # cumsum, without its dispatch cost
    thd = np.add.accumulate(qd, axis=-1)

    dth = th[..., :, None] - th[..., None, :]
    M_th = params.inertia_weights * np.cos(dth)
    c_th = ((params.inertia_weights * np.sin(dth)) @ (thd**2)[..., None])[..., 0]
    grav_th = params.gravity_weights * np.sin(th)

    f = tau - params.damping * qd
    # generalized force in absolute coordinates: y with sum_{k>=j} y_k = f_j
    y = f.copy()
    y[..., :-1] -= f[..., 1:]

    try:
        thdd = np.linalg.solve(M_th, (y - c_th - grav_th)[..., None])[..., 0]
    except np.linalg.LinAlgError as e:
        raise SingularInertiaError(f"inertia matrix is singular at q={q}") from e
    qdd = thdd.copy()
    qdd[..., 1:] -= thdd[..., :-1]
    return qdd


class NLinkArm:
    """Planar N-link plant with state [q, qd] and one torque per joint."""

    def __init__(self, params: NLinkParams):
        self.params = params
        self.n = 2 * params.links
        self.m = params.links

    def ode(self, x, u):
        """State derivative; leading axes of ``x`` (..., 2N) and ``u`` (..., N) batch."""
        N = self.params.links
        q, qd = x[..., :N], x[..., N:]
        return np.concatenate([qd, nlink_accel(self.params, q, qd, u)], axis=-1)

    def ode1(self, x, u):
        """State derivative of one state ``x`` (2N,) under ``u`` (N,).

        The physics of ``nlink_accel`` in the fewest numpy calls, for the
        serial RK4 stages of the plant: the inertia matrix is SPD, so one
        LAPACK ``dposv`` solves for the absolute accelerations.  Agrees with
        ``ode`` to rounding, not to the byte.
        """
        p = self.params
        N = p.links
        th, thd = np.add.accumulate(x.reshape(2, N), axis=1)
        dth = th[:, None] - th
        W = p.inertia_weights
        qd = x[N:]
        # L^{-T}(u - b qd) - c - g, with L the cumulative-sum map q -> th
        f = u - p.damping * qd
        rhs = f.copy()
        rhs[:-1] -= f[1:]
        rhs -= (W * np.sin(dth)) @ (thd * thd)
        rhs -= p.gravity_weights * np.sin(th)
        # W * cos(dth) is symmetric, so its transpose is the Fortran-ordered
        # array dposv overwrites
        _, thdd, info = dposv((W * np.cos(dth)).T, rhs, overwrite_a=1, overwrite_b=1)
        if info > 0:
            raise SingularInertiaError(f"inertia matrix is not positive definite at q={x[:N]}")
        out = np.empty(2 * N)
        out[:N] = qd
        out[N] = thdd[0]
        np.subtract(thdd[1:], thdd[:-1], out=out[N + 1 :])
        return out


def total_energy(params: NLinkParams, state) -> float:
    """Kinetic plus potential energy; zero at rest hanging straight down."""
    state = np.asarray(state, float)
    N = params.links
    th = np.cumsum(state[:N])
    thd = np.cumsum(state[N:])
    M_th = params.inertia_weights * np.cos(np.subtract.outer(th, th))
    ke = 0.5 * thd @ M_th @ thd
    pe = np.sum(params.gravity_weights * (1.0 - np.cos(th)))
    return float(ke + pe)


# ---------------------------------------------------------------------------
# linearization and discretization

_FD_EPS = 1e-6  # central-difference step of ``linearize``


@dataclass(frozen=True)
class ContinuousLinearModel:
    """Affine continuous-time model xdot = A x + B u + w."""

    A: np.ndarray
    B: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class DiscreteLinearModel:
    """Affine discrete-time model x[k+1] = Ad x[k] + Bd u[k] + wd."""

    Ad: np.ndarray
    Bd: np.ndarray
    wd: np.ndarray
    dt: float

    @property
    def n(self) -> int:
        return self.Ad.shape[0]

    @property
    def m(self) -> int:
        return self.Bd.shape[1]


def linearize(f, x0, u0) -> ContinuousLinearModel:
    """Linearize ``xdot = f(x, u)`` about (x0, u0) by central differences.

    ``f`` must accept row-stacked inputs: given X (k, n) and U (k, m) it
    returns the k derivatives as (k, n).  All 2(n+m)+1 points, each state
    and input perturbed by +-``_FD_EPS`` and then the point itself, go to
    ``f`` in one call.  The affine residual ``w = f(x0, u0) - A x0 - B u0``
    makes the returned model exact at the linearization point, so a linear
    plant is recovered to rounding error.
    """
    x0 = np.asarray(x0, float)
    u0 = np.asarray(u0, float)
    n = x0.size
    z0 = np.concatenate([x0, u0])
    E = _FD_EPS * np.eye(z0.size)
    Z = np.vstack([z0 + E, z0 - E, z0])
    F = np.asarray(f(Z[:, :n], Z[:, n:]), float)
    J = ((F[: z0.size] - F[z0.size : -1]) / (2 * _FD_EPS)).T
    A, B = J[:, :n].copy(), J[:, n:].copy()
    w = F[-1] - A @ x0 - B @ u0
    return ContinuousLinearModel(A, B, w)


def discretize(model: ContinuousLinearModel, dt: float) -> DiscreteLinearModel:
    """Discretize an affine continuous model with time step dt.

    The affine system is integrated exactly under a zero-order hold via the
    matrix exponential of the augmented system.
    """
    if not 0 < dt < np.inf:  # NaN fails too
        raise ValueError("dt must be positive and finite")
    n, m = model.n, model.m
    aug = np.zeros((n + m + 1, n + m + 1))
    aug[:n, :n] = model.A
    aug[:n, n : n + m] = model.B
    aug[:n, -1] = model.w
    E = expm(aug * dt)
    return DiscreteLinearModel(E[:n, :n], E[:n, n : n + m], E[:n, -1], dt)


def step(model: DiscreteLinearModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One discrete update x[k+1] = Ad x + Bd u + wd."""
    return model.Ad @ x + model.Bd @ u + model.wd


def rollout(model: DiscreteLinearModel, x0: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Roll the discrete model forward under the input sequence U (T, m).

    Returns the (T+1, n) state trace starting at x0.
    """
    U = np.atleast_2d(np.asarray(U, float))
    T = U.shape[0]
    X = np.empty((T + 1, model.n))
    X[0] = x0
    for k in range(T):
        X[k + 1] = step(model, X[k], U[k])
    return X


# ---------------------------------------------------------------------------
# ground-truth integration


def rk4_step(f, x, u, dt: float) -> np.ndarray:
    """Classic fourth-order Runge-Kutta step with the input held constant."""
    k1 = f(x, u)
    k2 = f(x + 0.5 * dt * k1, u)
    k3 = f(x + 0.5 * dt * k2, u)
    k4 = f(x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate(f, x, u, dt: float, substeps: int) -> np.ndarray:
    """Advance the plant one control period using RK4 substeps."""
    if not substeps >= 1:
        raise ValueError("substeps must be at least 1")
    h = dt / substeps
    for _ in range(substeps):
        x = rk4_step(f, x, u, h)
    return x
