"""Flow coordinates."""

import pytest

from repnorm.errors import PreconditionError
from repnorm.group import CartanCoord, cartan_from_t, cartan_from_x


class TestCartanCoord:
    def test_round_trip(self):
        for t in (0.0, 0.4, 2.7):
            a = cartan_from_t(t)
            b = cartan_from_x(a.x)
            assert b.t == pytest.approx(t, abs=1e-12)
        for x in (0.0, 0.25, 0.97):
            assert cartan_from_x(x).x == x

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(PreconditionError):
            CartanCoord(x=0.5, t=0.1)

    def test_range_validation(self):
        with pytest.raises(PreconditionError):
            cartan_from_x(1.0)
        with pytest.raises(PreconditionError):
            cartan_from_t(-0.1)
