"""Order-2 Carleman moment prediction for the stochastically forced van de Vusse reactor.

The package embeds the reactor's quadratic Ito SDE as a bilinear SDE on
the augmented state (x, pairwise products of x), propagates conditional
means and covariances with the resulting moment ODEs, and benchmarks the
prediction against a continuous-time EKF and seeded Monte Carlo
ensembles.
"""
from .carleman import (
    QuadraticSde,
    build_vandevusse,
    embed_order2,
    vandevusse_coefficients,
    write_blocks,
)
from .ekf import ekf_predict
from .experiments import builtin_scenario, emit_charts, emit_csv, load_scenario, run_scenario
from .model import PARAM_SET1, PARAM_SET2, X0_SET1
from .moments import crosscheck_mean_paths, integrate_augmented, integrate_physical, ou_variance

__version__ = "0.1.0"

# The names the CLI, the acceptance checks and the README's library section use.
__all__ = [
    "PARAM_SET1",
    "PARAM_SET2",
    "QuadraticSde",
    "X0_SET1",
    "build_vandevusse",
    "builtin_scenario",
    "crosscheck_mean_paths",
    "ekf_predict",
    "embed_order2",
    "emit_charts",
    "emit_csv",
    "integrate_augmented",
    "integrate_physical",
    "load_scenario",
    "ou_variance",
    "run_scenario",
    "vandevusse_coefficients",
    "write_blocks",
]
