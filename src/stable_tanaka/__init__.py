"""Local times of strictly stable Levy processes.

The package is organized bottom-up:

* :mod:`stable_tanaka.params`    -- coefficient triplets and derived constants
* :mod:`stable_tanaka.spectral`  -- symbols, densities and generator tools
* :mod:`stable_tanaka.kernel`    -- the explicit kernel F and its smoothings
* :mod:`stable_tanaka.pathsim`   -- exact-marginal and jump-decomposition paths
* :mod:`stable_tanaka.localtime` -- occupation and martingale-based estimators
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
    smooth_F,
    standard_bump,
)
from .pathsim import (
    CharFunctionEstimate,
    PathSample,
    SimConfig,
    absolute_moment_scan,
    empirical_char_function,
    path_rng,
    sample_stable_increment,
    sample_terminal_jumpdecomp,
    simulate_path_jumpdecomp,
    simulate_path_marginal,
)
from .localtime import (
    DEFAULT_SMALL_JUMP_IN_M,
    LocalTimeEstimate,
    default_a_grid,
    default_mollifier,
    hat_function,
    martingale_l2_bound,
    martingale_part,
    occupation_curve,
    occupation_estimator,
    occupation_formula_check,
    tanaka_curve,
    tanaka_estimator,
)
from .params import (
    StableParams,
    derive_params,
    gamma_reflect,
    nu_tail_mass,
    nu_tail_mean,
    rescale_params,
    small_jump_variance,
    stability_constant,
)

__version__ = "0.1.0"

__all__ = [
    "StableParams",
    "derive_params",
    "rescale_params",
    "gamma_reflect",
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
    "smooth_F",
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
    "absolute_moment_scan",
    "LocalTimeEstimate",
    "DEFAULT_SMALL_JUMP_IN_M",
    "occupation_estimator",
    "occupation_curve",
    "martingale_part",
    "tanaka_estimator",
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
