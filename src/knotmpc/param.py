"""Knot-point parameterization of input trajectories.

A horizon of T inputs is represented by p knot points spread evenly over
the horizon; the input applied at step k is the linear interpolation of
the two knots bracketing k.  The spacing (T - 1) / (p - 1) is kept as a
real number so any 1 <= p <= T is valid, and p = T reproduces the
unparameterized trajectory exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# interpolation positions are rational; fractions this small can only be
# floating-point noise from the division by the spacing
_SNAP = 1e-9


def interp_coeffs(k: int, spacing: float) -> tuple[int, int, float]:
    """Bracketing knot indices and blend weight for step k.

    Returns (idx1, idx2, c) with the step's input given by
    (1 - c) * U[idx1] + c * U[idx2].  When k lands on a knot, c == 0 and
    idx2 is clamped to idx1.
    """
    if k < 0:
        raise ValueError("step index must be non-negative")
    pos = k / spacing
    idx1 = int(np.floor(pos))
    c = pos - idx1
    if c <= _SNAP:
        return idx1, idx1, 0.0
    if c >= 1.0 - _SNAP:
        return idx1 + 1, idx1 + 1, 0.0
    return idx1, idx1 + 1, c


@dataclass(frozen=True)
class KnotSchedule:
    """Placement of p knots on a T-step horizon."""

    T: int
    p: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("horizon must be at least one step")
        if not 1 <= self.p <= self.T:
            raise ValueError(f"knot count must satisfy 1 <= p <= T, got p={self.p}, T={self.T}")

    @property
    def spacing(self) -> float | None:
        """Knot spacing in (real) steps; None for the single-knot (constant) case."""
        return None if self.p == 1 else (self.T - 1) / (self.p - 1)

    def coeffs(self, k: int) -> tuple[int, int, float]:
        if not 0 <= k <= self.T - 1:
            raise ValueError(f"step {k} outside horizon of {self.T} steps")
        if self.p == 1:
            return 0, 0, 0.0
        return interp_coeffs(k, self.spacing)


def interpolation_matrix(sched: KnotSchedule) -> np.ndarray:
    """Dense (T, p) weight matrix W: knots U (p, m) expand to the inputs W @ U.

    Each row holds the convex weights of the knots for one step, so rows
    sum to one and have at most two nonzeros.  Row k carries the same
    weights as ``sched.coeffs(k)``, computed for all steps at once.
    """
    T, p = sched.T, sched.p
    W = np.zeros((T, p))
    if p == 1:
        W[:, 0] = 1.0
        return W
    steps = np.arange(T)
    pos = steps / sched.spacing
    idx1 = np.floor(pos).astype(int)
    c = pos - idx1
    on_next = c >= 1.0 - _SNAP
    idx1[on_next] += 1
    c[on_next | (c <= _SNAP)] = 0.0
    W[steps, idx1] = 1.0 - c
    mid = c > 0.0
    W[steps[mid], idx1[mid] + 1] = c[mid]
    return W
