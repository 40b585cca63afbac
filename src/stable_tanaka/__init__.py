"""Local times of strictly stable Levy processes.

The package is organized bottom-up:

* :mod:`stable_tanaka.params`    -- coefficient triplets and derived constants
* :mod:`stable_tanaka.kernel`    -- the explicit kernel F and its smoothings
* :mod:`stable_tanaka.spectral`  -- symbols, densities and generator tools
* :mod:`stable_tanaka.pathsim`   -- exact-marginal and jump-decomposition paths
* :mod:`stable_tanaka.localtime` -- local-time curves over a grid of levels
* :mod:`stable_tanaka.experiments` -- reproducible experiment runner (+ CLI)
"""

from .experiments import (
    ConfigError,
    ExperimentReport,
    ExperimentSpec,
    Verdict,
    emit_report,
    run_experiment,
)
from .kernel import (
    MollifierSpec,
    compensator_density,
    kernel_convolve,
    kernel_F,
    kernel_F_prime,
    kernel_F_second,
    standard_bump,
)
from .pathsim import (
    CharFunctionEstimate,
    PathSample,
    SimConfig,
    empirical_char_function,
    path_rng,
    sample_stable_increment,
    sample_terminal_jumpdecomp,
    simulate_path_jumpdecomp,
    simulate_path_marginal,
)
from .localtime import (
    default_a_grid,
    default_mollifier,
    hat_function,
    martingale_l2_bound,
    martingale_part,
    occupation_curve,
    occupation_formula_check,
    tanaka_curve,
)
from .params import (
    StableParams,
    derive_params,
    nu_tail_mass,
    nu_tail_mean,
    small_jump_variance,
    stability_constant,
)

__version__ = "0.1.0"

__all__ = [
    "StableParams",
    "derive_params",
    "stability_constant",
    "nu_tail_mass",
    "nu_tail_mean",
    "small_jump_variance",
    "MollifierSpec",
    "standard_bump",
    "kernel_F",
    "kernel_F_prime",
    "kernel_F_second",
    "kernel_convolve",
    "compensator_density",
    "SimConfig",
    "PathSample",
    "CharFunctionEstimate",
    "path_rng",
    "sample_stable_increment",
    "simulate_path_marginal",
    "simulate_path_jumpdecomp",
    "sample_terminal_jumpdecomp",
    "empirical_char_function",
    "occupation_curve",
    "martingale_part",
    "tanaka_curve",
    "occupation_formula_check",
    "default_a_grid",
    "default_mollifier",
    "hat_function",
    "martingale_l2_bound",
    "ExperimentSpec",
    "ExperimentReport",
    "Verdict",
    "ConfigError",
    "run_experiment",
    "emit_report",
    "__version__",
]
