"""Exact rational structural constants for the rank-one families.

Everything in this module is bookkeeping over a handful of closed forms:
the growth constant of the minimal principal series, the resulting gap
bound, and the Sobolev thresholds above which the unitary norm dominates.
All arithmetic is done in fractions.Fraction; no value here is ever a
float unless the caller feeds one in.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PreconditionError

FAMILIES = ("so1n", "su1n", "sp1n", "f4m20", "slnR")

# threshold selectors for domination_threshold
PRINCIPAL_MPS = "principal-mps"
GENERALIZED_VERMA = "generalized-verma"
OTHER_DISCRETE = "other-discrete"
SERIES_KINDS = (PRINCIPAL_MPS, GENERALIZED_VERMA, OTHER_DISCRETE)


@dataclass(frozen=True)
class LieType:
    """One of the real rank-one families (or sl(n,R) for the growth
    constant alone).  n is the defining integer and is unused for the
    exceptional entry."""

    family: str
    n: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r};"
                              f" expected one of {FAMILIES}")
        if self.family != "f4m20":
            if not isinstance(self.n, int) or self.n < 2:
                raise PreconditionError(
                    f"{self.family} needs an integer n >= 2, got {self.n!r}")

    @property
    def rank_k(self):
        """Rank of the maximal compact subalgebra."""
        if self.family == "so1n":
            return self.n // 2
        if self.family == "su1n":
            return self.n
        if self.family == "sp1n":
            return self.n + 1
        if self.family == "f4m20":
            return 4
        return self.n - 1

    def label(self):
        if self.family == "so1n":
            return f"so(1,{self.n})"
        if self.family == "su1n":
            return f"su(1,{self.n})"
        if self.family == "sp1n":
            return f"sp(1,{self.n})"
        if self.family == "f4m20":
            return "f4(-20)"
        return f"sl({self.n},R)"


def structural_constant(t):
    """Growth constant of the minimal principal series, as an exact
    fraction: the half-sum of positive roots evaluated on the chamber
    element with all simple roots equal to one."""
    if t.family == "so1n":
        return Fraction(t.n - 1, 2)
    if t.family == "su1n":
        return Fraction(t.n)
    if t.family == "sp1n":
        return Fraction(2 * t.n + 1)
    if t.family == "f4m20":
        return Fraction(11)
    if t.family == "slnR":
        return Fraction(t.n * (t.n * t.n - 1), 12)
    raise DomainError(f"unknown family {t.family!r}")


def mps_gap_bound(t, c, R=0):
    """Uniform gap bound 2 c_g + rank_k + c R.

    c is the geometry-dependent scale of the R term and has no canonical
    default; it must always be passed, even when R = 0 makes it inert.
    Exact (Fraction) when c and R are exact, affine in R with slope c.
    """
    if not c > 0:
        raise PreconditionError(f"need c > 0, got {c!r}")
    if R < 0:
        raise PreconditionError(f"need R >= 0, got {R!r}")
    return 2 * structural_constant(t) + t.rank_k + c * R


def domination_threshold(t, series):
    """Sobolev exponent above which the unitary norm dominates the given
    series, for the two families where the closed form is known."""
    if series not in SERIES_KINDS:
        raise DomainError(f"unknown series kind {series!r};"
                          f" expected one of {SERIES_KINDS}")
    if t.family == "so1n":
        return Fraction(t.n - 1, 2)
    if t.family == "su1n":
        if series == PRINCIPAL_MPS:
            return Fraction(2 * t.n - 1, 2)
        if series == GENERALIZED_VERMA:
            return Fraction(t.n, 2)
        return Fraction(t.n - 1)
    raise DomainError(
        f"no domination threshold tabulated for {t.label()}")


def lorentz_sobolev_bound(n):
    """For the Lorentz family so(1,n): the K-type growth exponent and the
    Sobolev domination threshold, as the exact pair ((n-1)/2, n/2)."""
    if not isinstance(n, int) or n < 2:
        raise PreconditionError(f"need an integer n >= 2, got {n!r}")
    return Fraction(n - 1, 2), Fraction(n, 2)
