"""Span and counter recording for the traced benchmark run.

The wrappers are installed from outside on the module attributes that the
control loop looks up at call time (``knotmpc.closedloop.linearize``,
``knotmpc.qp.AdmmSolver.solve``, ...), so the package under test is not
modified.  Spans stay in memory; per-layer figures are derived from them
once the run has ended.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter
from unittest import mock


class Tracer:
    """Spans (name, start, end, parent) and call counters of one run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.solves: list = []  # (QpProblem, QpSolution) pairs not yet checked
        self._open: list[int] = []

    def span(self, name: str, fn):
        """Wrap ``fn`` so every call records a span nested in the open one."""

        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._open.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.spans[idx] = (name, t0, t1, parent)

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so every call increments ``counts[name]``."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> Counter:
        """Seconds per span name, each span less the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] += t1 - t0 - c
        return out

    def top_level_seconds(self, exclude: str) -> float:
        """Summed duration of the spans with no parent, except ``exclude``."""
        return sum(t1 - t0 for name, t0, t1, parent in self.spans if parent < 0 and name != exclude)


class _CountingModule:
    """Stands in for a module and counts calls to some of its functions."""

    def __init__(self, module, names, count):
        self._module = module
        for name in names:
            setattr(self, name, count(getattr(module, name)))

    def __getattr__(self, attr):
        return getattr(self._module, attr)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install span and counter wrappers on the layers the loop calls."""
    from knotmpc import closedloop, condense, dynamics, empc, qp

    timed_solve = tracer.span("qp.solve", qp.AdmmSolver.solve)

    def solve(solver, prob, warm=None):
        sol = timed_solve(solver, prob, warm=warm)
        tracer.solves.append((prob, sol))
        return sol

    def factor_count(fn):
        return tracer.counter("qp.factor_calls", fn)

    patches = [
        (closedloop, "linearize", tracer.span("dynamics.linearize", closedloop.linearize)),
        (closedloop, "discretize", tracer.span("dynamics.discretize", closedloop.discretize)),
        (closedloop, "build", tracer.span("condense.build", closedloop.build)),
        (closedloop, "solve_empc", tracer.span("empc.search", closedloop.solve_empc)),
        (empc, "build_small_param", tracer.span("empc.condense", empc.build_small_param)),
        (qp.AdmmSolver, "solve", solve),
        (dynamics, "nlink_accel", tracer.counter("dynamics.accel_calls", dynamics.nlink_accel)),
        (condense, "interpolation_matrix", tracer.counter("param.interp_calls", condense.interpolation_matrix)),
        (empc, "interpolation_matrix", tracer.counter("param.interp_calls", empc.interpolation_matrix)),
        (qp, "sla", _CountingModule(qp.sla, ("lu_factor", "cho_factor"), factor_count)),
        (qp, "spla", _CountingModule(qp.spla, ("splu",), factor_count)),
    ]
    with contextlib.ExitStack() as stack:
        for obj, attr, new in patches:
            stack.enter_context(mock.patch.object(obj, attr, new))
        yield
