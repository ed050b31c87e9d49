"""Numerical laboratory for weakly coupled damped sigma-evolution systems."""

from .exponents import (
    ConditionReport,
    Regime,
    RegimeVerdict,
    SystemParams,
    TheoreticalRates,
    check_conditions,
    classify_regime,
    critical_q,
    gamma_exponents,
    gn_theta,
    loss_of_decay,
    theoretical_rates,
)
from .fitting import DecayFit, NormSeries, compare_rates, fit_power_law
from .multipliers import PropagatorValue, ode_residual, propagator, roots
from .oracle import NormKind, decay_series, linear_norm
from .profiles import GaussianProfile
from .testfn import (
    BracketCombo,
    Functionals,
    FunctionalValues,
    TestFunctionSpec,
    fractional_laplacian_bracket,
    fractional_laplacian_fourier,
    fractional_laplacian_gamma,
    integer_laplacian_bracket,
)
from .torus import (
    GridSpec,
    InitialData,
    RunResult,
    SpectralState,
    detect_blowup,
    duhamel_step,
    init,
    linear_step,
    run,
    six_norms,
    t_valid,
)

__version__ = "0.1.0"
