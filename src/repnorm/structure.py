"""Exact rational structural constants for the rank-one families.

Everything in this module is bookkeeping over a handful of closed forms:
the growth constant of the minimal principal series, the resulting gap
bound, and the Sobolev thresholds above which the unitary norm dominates.
All arithmetic is done in fractions.Fraction; no value here is ever a
float unless the caller feeds one in.
"""

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PreconditionError

# threshold selectors for domination_threshold
PRINCIPAL_MPS = "principal-mps"
GENERALIZED_VERMA = "generalized-verma"
OTHER_DISCRETE = "other-discrete"
SERIES_KINDS = (PRINCIPAL_MPS, GENERALIZED_VERMA, OTHER_DISCRETE)

# The facts of each family as functions of its defining integer n: its
# labels (the first is the printed one; {n} stands for n), the rank of the
# maximal compact subalgebra, the growth constant c_g of the minimal
# principal series (the half-sum of positive roots on the chamber element
# with all simple roots equal to one) and, where the closed form is known,
# the Sobolev exponents above which the unitary norm dominates each series.
_Family = namedtuple("_Family", "labels rank_k c_g thresholds")
_TABLE = {
    "so1n": _Family(("so(1,{n})",), lambda n: n // 2,
                    lambda n: Fraction(n - 1, 2),
                    lambda n: dict.fromkeys(SERIES_KINDS, Fraction(n - 1, 2))),
    "su1n": _Family(("su(1,{n})",), lambda n: n, lambda n: Fraction(n),
                    lambda n: {PRINCIPAL_MPS: Fraction(2 * n - 1, 2),
                               GENERALIZED_VERMA: Fraction(n, 2),
                               OTHER_DISCRETE: Fraction(n - 1)}),
    "sp1n": _Family(("sp(1,{n})",), lambda n: n + 1,
                    lambda n: Fraction(2 * n + 1), None),
    "f4m20": _Family(("f4(-20)", "f4m20"), lambda n: 4,
                     lambda n: Fraction(11), None),
    "slnR": _Family(("sl({n},R)", "sl({n})"), lambda n: n - 1,
                    lambda n: Fraction(n * (n * n - 1), 12), None),
}
FAMILIES = tuple(_TABLE)


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
        if "{n}" in _TABLE[self.family].labels[0]:
            if not isinstance(self.n, int) or self.n < 2:
                raise PreconditionError(
                    f"{self.family} needs an integer n >= 2, got {self.n!r}")

    @property
    def rank_k(self):
        """Rank of the maximal compact subalgebra."""
        return _TABLE[self.family].rank_k(self.n)

    def label(self):
        return _TABLE[self.family].labels[0].format(n=self.n)

    def thresholds(self):
        """The domination thresholds by series kind, in SERIES_KINDS order;
        empty where the closed form is not known."""
        known = _TABLE[self.family].thresholds
        return known(self.n) if known else {}


def parse_lie_type(text):
    """The LieType named by one of its labels (so sl(4,R), sl(4), f4(-20)
    and f4m20) or by family:n, in any case and with spaces ignored; any
    other text is refused."""
    key = str(text).strip().lower().replace(" ", "")
    for family, entry in _TABLE.items():
        for form in entry.labels + (family + ":{n}",):
            pattern = re.escape(form.lower()).replace(
                re.escape("{n}"), "([0-9]+)")
            match = re.fullmatch(pattern, key)
            if match:
                return LieType(family, *map(int, match.groups()))
    raise PreconditionError(f"cannot parse Lie type {text!r}")


def structural_constant(t):
    """Growth constant of the minimal principal series, as an exact
    fraction."""
    return _TABLE[t.family].c_g(t.n)


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
    series, for the families where the closed form is known."""
    if series not in SERIES_KINDS:
        raise DomainError(f"unknown series kind {series!r};"
                          f" expected one of {SERIES_KINDS}")
    thresholds = t.thresholds()
    if not thresholds:
        raise DomainError(
            f"no domination threshold tabulated for {t.label()}")
    return thresholds[series]
