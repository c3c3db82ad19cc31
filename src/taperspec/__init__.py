"""Frequency-domain inference for tapered stationary time series."""

__version__ = "0.1.0"

from . import (errors, functionals, gof, harness, models, robustness,
               spectrum, taper, toeplitz, whittle)
from .functionals import (GeneratingFunction, asymptotic_variance, cosine,
                          fejer_smoothing_error, indicator, plugin_estimate,
                          quadratic_form, true_functional)
from .gof import (GofResult, TestBasis, ar_example_basis, b_matrix,
                  composite_test, cosine_basis, gamma_matrix, mixture_weights,
                  phi_vector, simple_test)
from .harness import (ExperimentConfig, load_config_file,
                      normality_diagnostics, run_experiment)
from .models import (AR1, ARFIMA0d0, ARMA, FGN, ArfimaPDQ, Model, NoiseDriver,
                     TimeSeries, WhiteNoise, centered_exponential, derive_seed,
                     gaussian, get_driver, laplace, make_rng, parse_model)
from .robustness import (GapLadder, RobustnessReport, Trend, contaminate,
                         gap_ladder, power_decay, robustness_report, zero_trend)
from .spectrum import (FrequencyGrid, Periodogram, tapered_dft,
                       tapered_periodogram)
from .taper import (Taper, dirichlet_kernel, fejer_kernel, get_taper,
                    tapering_factor)
from .toeplitz import (QFDistribution, build_matrix, qf_cumulant,
                       qf_distribution, trace_limit, trace_product)
from .whittle import (InfoMatrices, WhittleFit, default_bounds, info_matrices,
                      whittle_estimate, whittle_objective)

# taper.custom and functionals.custom share a name on purpose (each is the
# escape hatch of its own module); neither is re-exported flat.

__all__ = [
    "AR1", "ARFIMA0d0", "ARMA", "ArfimaPDQ", "ExperimentConfig", "FGN",
    "FrequencyGrid", "GapLadder", "GeneratingFunction", "GofResult",
    "InfoMatrices", "Model", "NoiseDriver",
    "Periodogram", "QFDistribution", "RobustnessReport", "Taper",
    "TestBasis", "TimeSeries", "Trend",
    "WhiteNoise", "WhittleFit", "__version__", "ar_example_basis",
    "asymptotic_variance", "b_matrix", "build_matrix",
    "centered_exponential", "composite_test", "contaminate", "cosine",
    "cosine_basis", "default_bounds",
    "derive_seed", "dirichlet_kernel", "errors", "fejer_kernel",
    "fejer_smoothing_error", "functionals", "gamma_matrix",
    "gap_ladder", "gaussian", "get_driver", "get_taper", "gof", "harness",
    "indicator",
    "info_matrices", "laplace", "load_config_file",
    "make_rng", "mixture_weights", "models", "normality_diagnostics",
    "parse_model", "phi_vector", "plugin_estimate", "power_decay",
    "qf_cumulant", "qf_distribution", "quadratic_form",
    "robustness", "robustness_report", "run_experiment", "simple_test",
    "spectrum", "taper", "tapered_dft", "tapered_periodogram", "tapering_factor", "toeplitz",
    "trace_limit", "trace_product", "true_functional",
    "whittle", "whittle_estimate", "whittle_objective",
    "zero_trend",
]
