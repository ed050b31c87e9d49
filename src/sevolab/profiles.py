"""Radial data profiles with closed-form transforms and norms.

Only Gaussians are shipped: their Fourier transform is again Gaussian, so
the frequency-side oracle needs no second quadrature.  The transform
convention is unitary with symmetric normalisation,

    f(x) = A * exp(-|x|**2 / (2 w**2))   =>   fhat(xi) = A * w**n * exp(-w**2 |xi|**2 / 2),

under which Plancherel holds without extra constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._inputs import require


def sphere_surface(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2, 2*pi, 4*pi for n = 1, 2, 3)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class GaussianProfile:
    """A * exp(-|x|**2 / (2 w**2)); width w > 0."""

    amplitude: float
    width: float

    def __post_init__(self):
        object.__setattr__(self, "amplitude", require(self.amplitude, "amplitude"))
        object.__setattr__(self, "width", require(self.width, "width", 0.0))

    def value(self, r):
        """Profile value at radius r (array friendly)."""
        r = np.asarray(r, dtype=float)
        return self.amplitude * np.exp(-r * r / (2.0 * self.width**2))

    def hat_coefficients(self, n: int) -> tuple[float, float]:
        """(a, b) with the unitary Fourier transform in R^n at frequency
        radius rho equal to a * exp(b * rho * rho)."""
        return self.amplitude * self.width**n, -self.width**2 / 2.0

    def mass(self, n: int) -> float:
        """Integral over R^n (signed)."""
        return self.amplitude * (2.0 * math.pi) ** (n / 2.0) * self.width**n

    def l2(self, n: int) -> float:
        return abs(self.amplitude) * math.pi ** (n / 4.0) * self.width ** (n / 2.0)

    def dsigma_l2(self, sigma: float, n: int) -> float:
        """L2 norm of |D|^sigma applied to the profile (closed Gamma form)."""
        sq = (self.amplitude**2 * sphere_surface(n) * math.gamma(sigma + n / 2.0)
              * self.width ** (n - 2.0 * sigma) / 2.0)
        return math.sqrt(sq)

    def tail_mass_fraction(self, half_length: float, n: int) -> float:
        """Upper bound on the |f|-mass fraction outside the box [-L, L)^n."""
        z = half_length / (math.sqrt(2.0) * self.width)
        return n * math.erfc(z)
