"""Knot-parameterized model predictive control.

Condensed QP builders for linear MPC (with and without a knot-point
input parameterization), a compact ADMM solver, a vectorized
evolutionary solver over the same knot decision space, closed-loop
simulation against a nonlinear planar n-link arm plant (the pendulum is
its one-link case, ``bench.make_plant("pendulum", 1)``), and a benchmark
harness with CSV output.
"""

from .bench import ConfigError, ExperimentConfig, PRESETS, load_config, preset_config, run_experiment
from .closedloop import CONTROLLER_KINDS, Controller, MetricsReport, SimResult, compute_metrics, run_closed_loop
from .condense import FORMULATIONS, MpcSpec, build
from .dynamics import (
    DiscreteLinearModel,
    NLinkArm,
    NLinkParams,
    SingularInertiaError,
    discretize,
    linearize,
)
from .empc import EmpcResult, Population, solve_empc
from .param import KnotSchedule
from .qp import AdmmSolver, BoxQp, QpProblem, QpSettings, QpSolution

__version__ = "0.1.0"

__all__ = [
    "AdmmSolver",
    "BoxQp",
    "CONTROLLER_KINDS",
    "ConfigError",
    "Controller",
    "DiscreteLinearModel",
    "EmpcResult",
    "ExperimentConfig",
    "FORMULATIONS",
    "KnotSchedule",
    "MetricsReport",
    "MpcSpec",
    "NLinkArm",
    "NLinkParams",
    "Population",
    "PRESETS",
    "QpProblem",
    "QpSettings",
    "QpSolution",
    "SimResult",
    "SingularInertiaError",
    "build",
    "compute_metrics",
    "discretize",
    "linearize",
    "load_config",
    "preset_config",
    "run_closed_loop",
    "run_experiment",
    "solve_empc",
]
