"""Cartan coordinates on the diagonal flow.

The group is the set of complex matrices (alpha, beta; conj(beta),
conj(alpha)) with |alpha|^2 - |beta|^2 = 1.  The diagonal flow is

    a_t = (cosh t, sinh t; sinh t, cosh t),   x = tanh(t)^2 in [0, 1),

so alpha(a_x) = 1/sqrt(1-x) and beta(a_x) = sqrt(x)/sqrt(1-x).  Every
element is K a_t K with cosh t = |alpha|, which pins the Cartan coordinate
of a general element to x = |beta/alpha|^2.
"""

import math
from dataclasses import dataclass

from .errors import PreconditionError


@dataclass(frozen=True)
class CartanCoord:
    """Point on the diagonal flow, carried in both parametrizations."""
    x: float
    t: float

    def __post_init__(self):
        if not (0.0 <= self.x < 1.0) or self.t < 0.0:
            raise PreconditionError(f"need 0 <= x < 1, t >= 0; got x={self.x}, t={self.t}")
        if abs(self.x - math.tanh(self.t) ** 2) > 1e-14 * (1.0 + self.x):
            raise PreconditionError(
                f"inconsistent coordinates: x={self.x}, tanh(t)^2={math.tanh(self.t)**2}")


def cartan_from_t(t):
    if t < 0.0:
        raise PreconditionError(f"need t >= 0, got {t}")
    return CartanCoord(x=math.tanh(t) ** 2, t=float(t))


def cartan_from_x(x):
    if not (0.0 <= x < 1.0):
        raise PreconditionError(f"need 0 <= x < 1, got {x}")
    return CartanCoord(x=float(x), t=math.atanh(math.sqrt(x)))
