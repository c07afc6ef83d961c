"""Exact rational constants: every value here must come out as a Fraction,
never as a float."""

from fractions import Fraction

import pytest

from repnorm.errors import DomainError, PreconditionError
from repnorm.structure import (FAMILIES, GENERALIZED_VERMA, OTHER_DISCRETE,
                               PRINCIPAL_MPS, LieType, domination_threshold,
                               mps_gap_bound, parse_lie_type,
                               structural_constant)


class TestLieType:
    def test_labels(self):
        assert LieType("so1n", 4).label() == "so(1,4)"
        assert LieType("su1n", 2).label() == "su(1,2)"
        assert LieType("f4m20").label() == "f4(-20)"
        assert LieType("slnR", 3).label() == "sl(3,R)"

    def test_rank_defaults(self):
        assert LieType("so1n", 7).rank_k == 3
        assert LieType("su1n", 5).rank_k == 5
        assert LieType("sp1n", 2).rank_k == 3
        assert LieType("f4m20").rank_k == 4
        assert LieType("slnR", 6).rank_k == 5

    def test_every_label_parses_back(self):
        for family in FAMILIES:
            for n in range(2, 11) if family != "f4m20" else (0,):
                t = LieType(family, n)
                assert parse_lie_type(t.label()) == t
                assert parse_lie_type(f" {t.label().upper()} ") == t

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            LieType("e8", 8)

    def test_n_floor(self):
        with pytest.raises(PreconditionError):
            LieType("su1n", 1)
        with pytest.raises(PreconditionError):
            LieType("slnR", 2.5)


class TestStructuralConstant:
    def test_table_up_to_ten(self):
        for n in range(2, 11):
            assert structural_constant(LieType("so1n", n)) == Fraction(
                n - 1, 2)
            assert structural_constant(LieType("su1n", n)) == Fraction(n)
            assert structural_constant(LieType("sp1n", n)) == Fraction(
                2 * n + 1)
            assert structural_constant(LieType("slnR", n)) == Fraction(
                n * (n * n - 1), 12)
        assert structural_constant(LieType("f4m20")) == Fraction(11)

    def test_values_are_exact(self):
        v = structural_constant(LieType("so1n", 4))
        assert isinstance(v, Fraction) and v == Fraction(3, 2)

    def test_low_rank_spot_values(self):
        assert structural_constant(LieType("so1n", 2)) == Fraction(1, 2)
        assert structural_constant(LieType("slnR", 2)) == Fraction(1, 2)
        assert structural_constant(LieType("slnR", 4)) == 5


class TestGapBound:
    def test_affine_in_r(self):
        t = LieType("su1n", 3)
        c = Fraction(1, 2)
        base = mps_gap_bound(t, c)
        assert base == 2 * Fraction(3) + 3
        assert mps_gap_bound(t, c, 4) - base == c * 4
        assert isinstance(mps_gap_bound(t, c, Fraction(7, 3)), Fraction)

    def test_exceptional_entry(self):
        assert mps_gap_bound(LieType("f4m20"), Fraction(1, 2), 3) == (
            22 + 4 + Fraction(3, 2))

    def test_c_has_no_default(self):
        with pytest.raises(TypeError):
            mps_gap_bound(LieType("so1n", 3))

    def test_parameter_signs(self):
        t = LieType("so1n", 3)
        with pytest.raises(PreconditionError):
            mps_gap_bound(t, 0)
        with pytest.raises(PreconditionError):
            mps_gap_bound(t, Fraction(1, 2), -1)


class TestDominationThreshold:
    def test_lorentz_any_series(self):
        for series in (PRINCIPAL_MPS, GENERALIZED_VERMA, OTHER_DISCRETE):
            assert domination_threshold(LieType("so1n", 5), series) == 2

    def test_su_splits_by_series(self):
        t = LieType("su1n", 4)
        assert domination_threshold(t, PRINCIPAL_MPS) == Fraction(7, 2)
        assert domination_threshold(t, GENERALIZED_VERMA) == 2
        assert domination_threshold(t, OTHER_DISCRETE) == 3

    def test_unknown_series(self):
        with pytest.raises(DomainError):
            domination_threshold(LieType("so1n", 3), "tempered")

    def test_unsupported_family(self):
        with pytest.raises(DomainError):
            domination_threshold(LieType("sp1n", 2), PRINCIPAL_MPS)
