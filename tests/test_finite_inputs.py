"""Every library entry point rejects a NaN or infinite time, step, length,
value or parameter, and an order or exponent out of its range, with a
ValueError that names it, as the CLI's field rules do.  It checks types as
well: a bool, a string or a complex number is not taken for a real one, so
True is not 1 and '1' is not a number."""

import dataclasses
import math
import re

import numpy as np
import pytest

from sevolab.exponents import SystemParams
from sevolab.fitting import DecayFit, NormSeries, compare_rates
from sevolab.multipliers import (
    duhamel_weights,
    ode_residual,
    propagator,
    propagator_arrays,
)
from sevolab.oracle import NormKind, linear_norm
from sevolab.profiles import GaussianProfile
from sevolab.quadutil import adaptive_quad, gauss_kronrod, gauss_kronrod_estimates
from sevolab.testfn import (
    BracketCombo,
    TestFunctionSpec,
    envelope_ratio,
    eta,
    eta_derivs,
    eta_ratio_sup,
    fd_neg_laplacian,
    fractional_laplacian_bracket,
    fractional_laplacian_fourier,
    frac_lap_normalization,
    fractional_laplacian_gamma,
    integer_laplacian_bracket,
)
from sevolab.torus import (
    GridSpec,
    InitialData,
    detect_blowup,
    duhamel_step,
    init,
    linear_step,
    run,
)

NAN, INF = math.nan, math.inf
PARAMS = SystemParams(1, 1.0, 1.0, 3.0, 4.0)
GRID = GridSpec(1, 64, 20.0)
G = GaussianProfile(0.01, 1.0)
DATA = InitialData(u0=G, v1=G)
MU = np.array([0.0, 0.3, 40.0])
COMBO = BracketCombo(((1.0, 3.0),))
FIT = DecayFit(-0.5, 0.0, 1.0)


def state():
    return init(GRID, DATA, PARAMS)


def observer(times):
    """A run observer that keeps nothing, called at ``times``."""
    def observe(t, state):
        pass
    observe.times = times
    return observe


CASES = {
    "GridSpec.half_length=nan": lambda: GridSpec(1, 64, NAN),
    "GridSpec.half_length=inf": lambda: GridSpec(1, 64, INF),
    "GaussianProfile.width=nan": lambda: GaussianProfile(1.0, NAN),
    "GaussianProfile.width=inf": lambda: GaussianProfile(1.0, INF),
    "GaussianProfile.amplitude=nan": lambda: GaussianProfile(NAN, 1.0),
    "GaussianProfile.amplitude=-inf": lambda: GaussianProfile(-INF, 1.0),
    "SystemParams.sigma1=nan": lambda: SystemParams(1, NAN, 1.0, 3.0, 4.0),
    "SystemParams.sigma2=inf": lambda: SystemParams(1, 1.0, INF, 3.0, 4.0),
    "SystemParams.p=nan": lambda: SystemParams(1, 1.0, 1.0, NAN, 4.0),
    "SystemParams.q=inf": lambda: SystemParams(1, 1.0, 1.0, 3.0, INF),
    "SystemParams.eps=nan": lambda: SystemParams(1, 1.0, 1.0, 3.0, 4.0, NAN),
    "run.t_max=nan": lambda: run(GRID, DATA, PARAMS, NAN, []),
    "run.t_max=inf": lambda: run(GRID, DATA, PARAMS, INF, []),
    "run.dt=nan": lambda: run(GRID, DATA, PARAMS, 1.0, [1.0], dt=NAN),
    "run.dt=inf": lambda: run(GRID, DATA, PARAMS, 1.0, [1.0], dt=INF),
    # a bool or a string other than "auto" is not coerced to a number
    "run.dt=True": lambda: run(GRID, DATA, PARAMS, 1.0, [1.0], dt=True),
    "run.dt=fast": lambda: run(GRID, DATA, PARAMS, 1.0, [1.0], dt="fast"),
    "run.blowup_threshold=True":
        lambda: run(GRID, DATA, PARAMS, 1.0, [1.0], blowup_threshold=True),
    "run.blowup_threshold=x": lambda: run(GRID, DATA, PARAMS, 1.0, [1.0], blowup_threshold="x"),
    "linear_step.dt=nan": lambda: linear_step(state(), NAN),
    # the public steps and constructors take no bool for a number either
    "linear_step.dt=True": lambda: linear_step(state(), True),
    "duhamel_step.dt=True": lambda: duhamel_step(state(), True, 3.0, 4.0),
    "GridSpec.half_length=True": lambda: GridSpec(1, 64, True),
    "GridSpec.n_dim=True": lambda: GridSpec(True, 64, 20.0),
    "GaussianProfile.width=True": lambda: GaussianProfile(1.0, True),
    "GaussianProfile.amplitude=True": lambda: GaussianProfile(True, 1.0),
    "duhamel_step.dt=nan": lambda: duhamel_step(state(), NAN, 3.0, 4.0),
    "duhamel_step.dt=inf": lambda: duhamel_step(state(), INF, 3.0, 4.0),
    "propagator.t=nan": lambda: propagator(NAN, 0.5, 1.0),
    "propagator.t=inf": lambda: propagator(INF, 0.5, 1.0),
    "propagator.xi_mag=nan": lambda: propagator(1.0, NAN, 1.0),
    "propagator.sigma=nan": lambda: propagator(1.0, 0.5, NAN),
    "propagator.sigma=-1": lambda: propagator(1.0, 0.5, -1.0),
    "propagator.sigma=inf": lambda: propagator(1.0, 0.5, INF),
    "propagator_arrays.t=nan": lambda: propagator_arrays(NAN, MU),
    "duhamel_weights.dt=nan": lambda: duhamel_weights(NAN, MU),
    "ode_residual.t=inf": lambda: ode_residual(INF, 0.5, 1.0, 1e-3),
    "ode_residual.sigma=nan": lambda: ode_residual(1.0, 0.5, NAN, 1e-3),
    "ode_residual.sigma=0": lambda: ode_residual(1.0, 0.5, 0.0, 1e-3),
    "linear_norm.t=nan": lambda: linear_norm(G, None, NAN, 1.0, 1, NormKind.SOLUTION_L2),
    "linear_norm.sigma=nan": lambda: linear_norm(G, None, 1.0, NAN, 1, NormKind.SOLUTION_L2),
    "linear_norm.sigma=-1": lambda: linear_norm(G, None, 1.0, -1.0, 1, NormKind.SOLUTION_L2),
    "linear_norm.rel_tol=nan":
        lambda: linear_norm(G, None, 1.0, 1.0, 1, NormKind.SOLUTION_L2, rel_tol=NAN),
    "adaptive_quad.rel_tol=nan": lambda: adaptive_quad(np.cos, 0.0, 1.0, rel_tol=NAN),
    "gauss_kronrod.rel_tol=inf": lambda: gauss_kronrod(np.cos, 0.0, 1.0, rel_tol=INF),
    "gauss_kronrod_estimates.rel_tol=nan": lambda: gauss_kronrod_estimates(
        lambda x, _: np.cos(x), [0.0, 0.0], [1.0, 2.0], rel_tol=NAN),
    # one rel_tol per batch: a list is refused as a list, whatever it holds
    "gauss_kronrod_estimates.rel_tol=list": lambda: gauss_kronrod_estimates(
        lambda x, _: np.cos(x), [0.0, 0.0], [1.0, 2.0], rel_tol=[1e-10, NAN]),
    "TestFunctionSpec.gamma=nan": lambda: TestFunctionSpec(gamma=NAN, r=2.0, R=4.0),
    "TestFunctionSpec.gamma=inf": lambda: TestFunctionSpec(gamma=INF, r=2.0, R=4.0),
    "TestFunctionSpec.r=nan": lambda: TestFunctionSpec(gamma=1.5, r=NAN, R=4.0),
    "TestFunctionSpec.R=inf": lambda: TestFunctionSpec(gamma=1.5, r=2.0, R=INF),
    "eta.lam=nan": lambda: eta(0.7, NAN),
    "eta.lam=inf": lambda: eta(0.7, INF),
    "eta.lam=0.5": lambda: eta(0.7, 0.5),
    "eta_derivs.lam=nan": lambda: eta_derivs(0.7, NAN),
    "integer_laplacian_bracket.r=nan": lambda: integer_laplacian_bracket(NAN, 1, 1),
    "integer_laplacian_bracket.r=inf": lambda: integer_laplacian_bracket(INF, 1, 1),
    "fractional_laplacian_bracket.x=nan": lambda: fractional_laplacian_bracket(COMBO, 0.5, NAN, 1),
    "fractional_laplacian_bracket.x=inf": lambda: fractional_laplacian_bracket(COMBO, 0.5, INF, 1),
    "fractional_laplacian_bracket.x=-inf":
        lambda: fractional_laplacian_bracket(COMBO, 0.5, -INF, 2),
    "fractional_laplacian_bracket.x=[0.7,nan]":
        lambda: fractional_laplacian_bracket(COMBO, 0.5, np.array([0.7, NAN]), 3),
    "fractional_laplacian_bracket.x=[[inf],[0.7]]":
        lambda: fractional_laplacian_bracket(COMBO, 0.5, np.array([[INF], [0.7]]), 1),
    "fractional_laplacian_gamma.x=[0.7,-inf]": lambda: fractional_laplacian_gamma(
        TestFunctionSpec(gamma=1.5, r=2.0, R=4.0), np.array([0.7, -INF]), 2),
    "fractional_laplacian_fourier.x=nan": lambda: fractional_laplacian_fourier(COMBO, 0.5, NAN),
    "fractional_laplacian_fourier.x=inf": lambda: fractional_laplacian_fourier(COMBO, 0.5, INF),
    "fractional_laplacian_fourier.s=nan": lambda: fractional_laplacian_fourier(COMBO, NAN, 0.7),
    "fractional_laplacian_fourier.s=0": lambda: fractional_laplacian_fourier(COMBO, 0.0, 0.7),
    "fractional_laplacian_fourier.s=1": lambda: fractional_laplacian_fourier(COMBO, 1.0, 0.7),
    "eta_ratio_sup.kappa=nan": lambda: eta_ratio_sup(6.0, NAN),
    "eta_ratio_sup.kappa=inf": lambda: eta_ratio_sup(6.0, INF),
    "eta_ratio_sup.kappa=1": lambda: eta_ratio_sup(6.0, 1.0),
    "eta_ratio_sup.kappa=0.5": lambda: eta_ratio_sup(6.0, 0.5),
    "fractional_laplacian_bracket.scale=nan":
        lambda: fractional_laplacian_bracket(COMBO, 0.5, 1.0, 1, scale=NAN),
    "fractional_laplacian_bracket.scale=inf":
        lambda: fractional_laplacian_bracket(COMBO, 0.5, 1.0, 1, scale=INF),
    "fractional_laplacian_bracket.scale=0":
        lambda: fractional_laplacian_bracket(COMBO, 0.5, 1.0, 1, scale=0.0),
    "NormSeries.value=nan": lambda: NormSeries([(1.0, 1.0), (2.0, NAN), (3.0, 1.0)]),
    "NormSeries.value=inf": lambda: NormSeries([(1.0, 1.0), (2.0, INF)]),
    "NormSeries.t=nan": lambda: NormSeries([(NAN, 1.0), (2.0, 1.0)]),
    "NormSeries.t=inf": lambda: NormSeries([(1.0, 1.0), (INF, 1.0)]),
    "compare_rates.tol=nan": lambda: compare_rates(FIT, -0.5, NAN),
    "compare_rates.tol=inf": lambda: compare_rates(FIT, -0.5, INF),
    # a dimension in [1, 3], an order that counts from 0 and a positive step
    "fd_neg_laplacian.n=7": lambda: fd_neg_laplacian(math.cos, 0.5, 7),
    "fd_neg_laplacian.n=True": lambda: fd_neg_laplacian(math.cos, 0.5, True),
    "fd_neg_laplacian.m=-1": lambda: fd_neg_laplacian(math.cos, 0.5, 1, m=-1),
    "fd_neg_laplacian.m=True": lambda: fd_neg_laplacian(math.cos, 0.5, 1, m=True),
    "fd_neg_laplacian.m=2.5": lambda: fd_neg_laplacian(math.cos, 0.5, 1, m=2.5),
    "fd_neg_laplacian.h=0": lambda: fd_neg_laplacian(math.cos, 0.5, 1, h=0.0),
}

#: each scalar parameter of the entry points, as a call with its value left
#: open and a value the call takes (so in each table below)
PARAMETERS = {
    "SystemParams.n": (lambda v: SystemParams(v, 1.0, 1.0, 3.0, 4.0), 2),
    "SystemParams.sigma1": (lambda v: SystemParams(1, v, 1.0, 3.0, 4.0), 1.1),
    "SystemParams.sigma2": (lambda v: SystemParams(1, 1.0, v, 3.0, 4.0), 1.1),
    "SystemParams.p": (lambda v: SystemParams(1, 1.0, 1.0, v, 4.0), 3.3),
    "SystemParams.q": (lambda v: SystemParams(1, 1.0, 1.0, 3.0, v), 4.3),
    "SystemParams.eps": (lambda v: SystemParams(1, 1.0, 1.0, 3.0, 4.0, v), 0.1),
    "GaussianProfile.width": (lambda v: GaussianProfile(1.0, v), 1.1),
    "GaussianProfile.amplitude": (lambda v: GaussianProfile(v, 1.0), 0.3),
    "GridSpec.n_dim": (lambda v: GridSpec(v, 64, 20.0), 2),
    "GridSpec.points_per_dim": (lambda v: GridSpec(1, v, 20.0), 32),
    "GridSpec.half_length": (lambda v: GridSpec(1, 64, v), 10.1),
    "TestFunctionSpec.gamma": (lambda v: TestFunctionSpec(gamma=v, r=2.0, R=4.0), 1.3),
    "TestFunctionSpec.r": (lambda v: TestFunctionSpec(gamma=1.5, r=v, R=4.0), 2.3),
    "TestFunctionSpec.R": (lambda v: TestFunctionSpec(gamma=1.5, r=2.0, R=v), 4.1),
    "linear_norm.t": (lambda v: linear_norm(G, None, v, 1.0, 1, NormKind.SOLUTION_L2), 1.1),
    "linear_norm.sigma": (lambda v: linear_norm(G, None, 1.0, v, 1, NormKind.SOLUTION_L2), 1.1),
    "linear_norm.rel_tol":
        (lambda v: linear_norm(G, None, 1.0, 1.0, 1, NormKind.SOLUTION_L2, rel_tol=v), 1e-9),
    "linear_norm.n": (lambda v: linear_norm(G, None, 1.0, 1.0, v, NormKind.SOLUTION_L2), 2),
    "propagator.t": (lambda v: propagator(v, 0.5, 1.0), 1.1),
    "propagator.xi_mag": (lambda v: propagator(1.0, v, 1.0), 0.7),
    "propagator.sigma": (lambda v: propagator(1.0, 0.5, v), 1.1),
    "propagator_arrays.t": (lambda v: propagator_arrays(v, MU), 1.1),
    "duhamel_weights.dt": (lambda v: duhamel_weights(v, MU), 0.1),
    "ode_residual.h": (lambda v: ode_residual(1.0, 0.5, 1.0, v), 1e-3),
    "linear_step.dt": (lambda v: linear_step(state(), v), 0.1),
    "duhamel_step.dt": (lambda v: duhamel_step(state(), v, 3.0, 4.0), 0.1),
    "duhamel_step.p": (lambda v: duhamel_step(state(), 0.1, v, 4.0), 3.3),
    "duhamel_step.q": (lambda v: duhamel_step(state(), 0.1, 3.0, v), 4.3),
    "run.t_max": (lambda v: run(GRID, DATA, PARAMS, v, []), 1.1),
    "run.dt": (lambda v: run(GRID, DATA, PARAMS, 1.0, [1.0], dt=v), 0.1),
    "run.blowup_threshold":
        (lambda v: run(GRID, DATA, PARAMS, 1.0, [1.0], blowup_threshold=v), 10.1),
    "detect_blowup.threshold": (lambda v: detect_blowup(state(), v), 0.01),
    "adaptive_quad.rel_tol": (lambda v: adaptive_quad(math.cos, 0.0, 1.0, rel_tol=v), 1e-9),
    "gauss_kronrod.rel_tol": (lambda v: gauss_kronrod(np.cos, 0.0, 1.0, rel_tol=v), 1e-9),
    "integer_laplacian_bracket.r": (lambda v: integer_laplacian_bracket(v, 1, 1), 2.3),
    "integer_laplacian_bracket.m": (lambda v: integer_laplacian_bracket(2.0, v, 1), 2),
    "frac_lap_normalization.s": (lambda v: frac_lap_normalization(1, v), 0.3),
    "fractional_laplacian_bracket.s":
        (lambda v: fractional_laplacian_bracket(COMBO, v, 1.0, 1), 0.3),
    "fractional_laplacian_bracket.n":
        (lambda v: fractional_laplacian_bracket(COMBO, 0.5, 1.0, v), 2),
    "fractional_laplacian_bracket.scale":
        (lambda v: fractional_laplacian_bracket(COMBO, 0.5, 1.0, 1, scale=v), 1.3),
    "fractional_laplacian_fourier.s": (lambda v: fractional_laplacian_fourier(COMBO, v, 0.7), 0.3),
    "fractional_laplacian_fourier.x": (lambda v: fractional_laplacian_fourier(COMBO, 0.5, v), 0.7),
    "eta.lam": (lambda v: eta(0.7, v), 2.3),
    "eta_derivs.lam": (lambda v: eta_derivs(0.7, v), 2.3),
    "eta_ratio_sup.kappa": (lambda v: eta_ratio_sup(6.0, v), 1.7),
    "compare_rates.tol": (lambda v: compare_rates(FIT, -0.5, v), 0.1),
    "eta_derivs.t": (lambda v: eta_derivs(v, 2.0), 0.7),
    "fd_neg_laplacian.x": (lambda v: fd_neg_laplacian(math.cos, v, 1), 0.7),
    "fd_neg_laplacian.h": (lambda v: fd_neg_laplacian(math.cos, 0.5, 1, h=v), 0.01),
    "fd_neg_laplacian.n": (lambda v: fd_neg_laplacian(math.cos, 0.5, v), 2),
    "fd_neg_laplacian.m": (lambda v: fd_neg_laplacian(math.cos, 0.5, 1, m=v), 2),
    "envelope_ratio.n": (lambda v: envelope_ratio(1.5, 1.0, v, [0.5, 3.0]), 2),
    "NormSeries.value": (lambda v: NormSeries([(0.5, 1.0), (1.0, v)]), 0.7),
}
#: times, which are reals too: a run's record and observer times and a series' time stamps
TIMES = {
    "run.record_times": (lambda v: run(GRID, DATA, PARAMS, 1.0, [0.5, v]), 0.7),
    "run.observer.times":
        (lambda v: run(GRID, DATA, PARAMS, 1.0, [1.0], observers=[observer([v])]), 0.7),
    "NormSeries.t": (lambda v: NormSeries([(0.5, 1.0), (v, 1.0)]), 0.7),
}
#: interval counts, integers >= 1
COUNTS = {
    "gauss_kronrod.limit": (lambda v: gauss_kronrod(np.cos, 0.0, 50.0, limit=v), 100),
    "gauss_kronrod_estimates.limit": (lambda v: gauss_kronrod_estimates(
        lambda x, _: np.cos(x), [0.0, 0.0], [1.0, 2.0], limit=v), 100),
}
#: points, which may be arrays: their dtype must be of integers or floats, and
#: each point finite
POINTS = {
    "fractional_laplacian_bracket.x":
        (lambda v: fractional_laplacian_bracket(COMBO, 0.5, v, 1), 0.7),
    "fractional_laplacian_gamma.x": (lambda v: fractional_laplacian_gamma(
        TestFunctionSpec(gamma=1.5, r=2.0, R=4.0), v, 2), 0.7),
    # an integer order takes the bracket recursion alone, with no quadrature
    "fractional_laplacian_gamma.gamma_2.x": (lambda v: fractional_laplacian_gamma(
        TestFunctionSpec(gamma=2.0, r=2.0, R=4.0), v, 2), 0.7),
    "eta.x": (lambda v: eta(v, 2.0), 0.7),
    "envelope_ratio.x_samples": (lambda v: envelope_ratio(1.5, 1.0, 1, v), 0.7),
}
# a bool is not 1, a string not a number, a complex number not a real one, no
# point NaN or infinite, and no number that a float cannot hold
for table, values in ((PARAMETERS, (True, "1", 1j, NAN, 10**400)),
                      (TIMES, (True, "1", 10**400)), (COUNTS, (True, 0, 2.5, 2**1400)),
                      (POINTS, ("1", True, [True], 1j, NAN, INF, [1.0, NAN]))):
    for param, (call, _) in table.items():
        for value in values:
            CASES.setdefault(f"{param}={value!r}", lambda call=call, value=value: call(value))


@pytest.mark.parametrize("case,call", CASES.items(), ids=CASES.keys())
def test_non_finite_input_rejected(case, call):
    """A ValueError whose message names the parameter: the id's name before
    ``=``, its index dropped, opens a clause "<name>... must"."""
    name = re.sub(r"\[.*", "", case.split("=")[0].split(".")[-1])
    with pytest.raises(ValueError, match=rf"\b{name}\w* must\b"):
        call()


def _bits(value):
    """A key equal for two results only if they agree in type and bits: numbers
    and arrays by their bytes, dataclasses field by field, tuples, lists and
    dicts item by item."""
    if isinstance(value, np.ndarray):
        return type(value), value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.generic)):
        return type(value), np.asarray(value).tobytes()
    if dataclasses.is_dataclass(value):
        return type(value), tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return type(value), tuple((key, _bits(item)) for key, item in value.items())
    if isinstance(value, (tuple, list)):
        return type(value), tuple(_bits(item) for item in value)
    return type(value), value


VALID = {**PARAMETERS, **TIMES, **COUNTS, **POINTS}


@pytest.mark.parametrize("call,valid", VALID.values(), ids=VALID.keys())
def test_numpy_scalar_computes_as_the_number_it_holds(call, valid):
    """A checked number is computed with as what the check returns: a numpy
    float32 gives what its float gives, a numpy int64 what its int gives."""
    numpy_value = np.int64(valid) if type(valid) is int else np.float32(valid)
    plain = int(valid) if type(valid) is int else float(numpy_value)
    assert _bits(call(numpy_value)) == _bits(call(plain))
