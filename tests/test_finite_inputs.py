"""Every library entry point rejects a NaN or infinite time, step, length or
parameter with ValueError, as the CLI's field rules do."""

import math

import numpy as np
import pytest

from sevolab.exponents import SystemParams
from sevolab.multipliers import (
    duhamel_weights,
    ode_residual,
    propagator,
    propagator_arrays,
    roots,
)
from sevolab.oracle import NormKind, linear_norm
from sevolab.profiles import GaussianProfile
from sevolab.torus import GridSpec, InitialData, duhamel_step, init, linear_step, run

NAN, INF = math.nan, math.inf
PARAMS = SystemParams(1, 1.0, 1.0, 3.0, 4.0)
GRID = GridSpec(1, 64, 20.0)
G = GaussianProfile(0.01, 1.0)
DATA = InitialData.from_profiles(G, None, None, G, 1.0, 1.0, 1)
MU = np.array([0.0, 0.3, 40.0])


def state():
    return init(GRID, DATA, PARAMS)


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
    "linear_step.dt=nan": lambda: linear_step(state(), NAN),
    "duhamel_step.dt=nan": lambda: duhamel_step(state(), NAN, 3.0, 4.0),
    "duhamel_step.dt=inf": lambda: duhamel_step(state(), INF, 3.0, 4.0),
    "propagator.t=nan": lambda: propagator(NAN, 0.5, 1.0),
    "propagator.t=inf": lambda: propagator(INF, 0.5, 1.0),
    "propagator.xi_mag=nan": lambda: propagator(1.0, NAN, 1.0),
    "roots.xi_mag=inf": lambda: roots(INF, 1.0),
    "propagator_arrays.t=nan": lambda: propagator_arrays(NAN, MU),
    "duhamel_weights.dt=nan": lambda: duhamel_weights(NAN, MU),
    "ode_residual.t=inf": lambda: ode_residual(INF, 0.5, 1.0, 1e-3),
    "linear_norm.t=nan": lambda: linear_norm(G, None, NAN, 1.0, 1, NormKind.SOLUTION_L2),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_non_finite_input_rejected(call):
    with pytest.raises(ValueError):
        call()
