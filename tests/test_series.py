from __future__ import annotations

import hashlib
import random
from dataclasses import fields
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import apexobs.series
from apexobs.series import (
    PowerSeries,
    _CheckFailed,
    _exact_div,
    _square_coeff,
    coefficient_table,
    mset,
    solve_T_diamond,
    solve_system,
)

from oracles import (
    FracSeries,
    count_multisets,
    exp_log_mset,
    fraction_system,
    mset2,
    series_exp,
    substitute_power,
)

# the printed opening coefficients of the two counting series
T_KNOWN = [0, 1, 1, 3, 7, 25, 88, 366, 1583, 7336, 34982]
G_KNOWN = [1, 1, 2, 5, 13, 41, 143, 558, 2346, 10546, 49397]


def P(values, n):
    """The Fraction reference series with the given leading coefficients."""
    return FracSeries.of(values, n)


def ints(values, n):
    """The library's int series with the given leading coefficients."""
    return PowerSeries(tuple((list(values) + [0] * (n + 1))[: n + 1]))


def as_fractions(a: PowerSeries) -> FracSeries:
    return P(a.coeffs, a.truncation)


class TestArithmetic:
    """The Fraction reference algebra the system is checked against."""

    def test_add(self):
        a = P([1, 1], 4)
        b = P([1, -1], 4)
        assert (a + b).coeffs[:2] == (Fraction(2), Fraction(0))

    def test_mul(self):
        a = P([1, 1], 4)
        assert (a * a).coeffs[:3] == (Fraction(1), Fraction(2), Fraction(1))

    def test_scale(self):
        assert P([0, 1], 3).scale(Fraction(1, 2))[1] == Fraction(1, 2)

    def test_truncation_mismatch(self):
        with pytest.raises(ValueError):
            P([1], 3) + P([1], 4)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8),
           st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    def test_mul_commutes(self, xs, ys):
        n = 10
        a, b = P(xs, n), P(ys, n)
        assert (a * b).coeffs == (b * a).coeffs

    def test_substitute_power(self):
        a = P([0, 1, 1], 8)
        assert substitute_power(a, 2).coeffs[:5] == tuple(
            Fraction(v) for v in (0, 0, 1, 0, 1)
        )
        assert substitute_power(a, 1).coeffs == a.coeffs
        b = P([0, 0, 0, 1], 8)  # x^3 with k=3 -> x^9, truncated away
        assert all(c == 0 for c in substitute_power(b, 3).coeffs)
        with pytest.raises(ValueError):
            substitute_power(a, 0)


class TestExp:
    def test_exp_zero(self):
        assert series_exp(FracSeries.zero(5)).coeffs == FracSeries.one(5).coeffs

    def test_exp_x(self):
        e = series_exp(FracSeries.x(8))
        assert all(e[j] == Fraction(1, factorial(j)) for j in range(9))

    def test_exp_hand_expansion(self):
        # 1 + (x+x^2) + (x+x^2)^2/2 + ... : coefficient of x^2 is 3/2
        e = series_exp(P([0, 1, 1], 6))
        assert e[2] == Fraction(3, 2)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            series_exp(FracSeries.one(4))


class TestMset:
    """`series.mset`, the Euler transform on int series."""

    def test_mset_of_one_atom(self):
        # multisets of a single size-1 object: exactly one per size
        m = mset(ints([0, 1], 7))
        assert m.coeffs == (1,) * 8

    def test_mset_empty(self):
        assert mset(ints([0], 5)).coeffs == (1, 0, 0, 0, 0, 0)

    def test_mset_small_alphabets_vs_enumeration(self):
        # one size-1 and two size-2 objects: 3 multisets of total size 3
        m = mset(ints([0, 1, 2], 8))
        assert m[3] == count_multisets([1, 2, 2], 3) == 3
        # one size-1 and one size-2 object: 2 multisets of total size 3
        m2 = mset(ints([0, 1, 1], 8))
        assert m2[3] == count_multisets([1, 2], 3) == 2
        for total in range(8):
            assert m[total] == count_multisets([1, 2, 2], total)
            assert m2[total] == count_multisets([1, 2], total)

    def test_mset_truncation_stability(self):
        lo = mset(ints([0, 1, 2, 1, 3], 10))
        hi = mset(ints([0, 1, 2, 1, 3], 15))
        assert lo.coeffs == hi.coeffs[:11]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 9), max_size=12), st.integers(1, 14))
    def test_matches_exp_log_reference(self, tail, n):
        a = ints([0] + tail, n)
        got = mset(a)
        assert all(type(c) is int for c in got.coeffs)
        assert got.coeffs == exp_log_mset(as_fractions(a)).coeffs

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError, match="zero constant term"):
            mset(ints([1, 1], 4))

    def test_solve_system_calls_mset_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return mset(*args, **kwargs)

        monkeypatch.setattr(apexobs.series, "mset", counted)
        solve_system(16)
        assert len(calls) == 1

    def test_mset2(self):
        # the Fraction reference's unordered pairs
        assert mset2(FracSeries.x(5))[2] == 1
        assert mset2(FracSeries.x(5).scale(2))[2] == 3  # {aa},{ab},{bb}
        assert all(c == 0 for c in mset2(FracSeries.zero(5)).coeffs)


class TestTDiamond:
    def test_first_coefficient(self):
        d, a = solve_T_diamond(6)
        assert d[0] == 0 and d[1] == 1

    def test_fixed_point_property(self):
        # re-evaluating the defining equation in the Fraction reference
        # reproduces the series
        n = 16
        d, a = solve_T_diamond(n)
        fd, fa = as_fractions(d), as_fractions(a)
        rhs = ((fa * fa * fa) + (fa * substitute_power(fa, 2))).scale(Fraction(1, 2)).shift()
        assert rhs.coeffs == d.coeffs
        assert exp_log_mset(fd).coeffs == a.coeffs
        assert mset(d) == a

    def test_matches_naive_fixed_point_iteration(self):
        # the literal iterate-from-zero computation stabilizes to the same series
        n = 10
        d, _ = solve_T_diamond(n)
        y = FracSeries.zero(n)
        for _ in range(n + 1):
            a = exp_log_mset(y)
            y = ((a * a * a) + (a * substitute_power(a, 2))).scale(
                Fraction(1, 2)
            ).shift()
        assert y.coeffs == d.coeffs

    def test_positive_integers(self):
        d, a = solve_T_diamond(24)
        for series in (d, a):
            ints = series.integer_coeffs()
            assert all(v >= 0 for v in ints)
        assert all(v > 0 for v in d.integer_coeffs()[1:])


class TestSystem:
    def test_printed_series(self):
        sol = solve_system(16)
        assert list(sol.T.integer_coeffs()[:11]) == T_KNOWN
        assert list(sol.G.integer_coeffs()[:11]) == G_KNOWN

    def test_integrality_at_larger_order(self):
        sol = solve_system(48)
        assert sol.G.integer_coeffs() == sol.G.coeffs
        assert all(v >= 0 for v in sol.T.integer_coeffs())

    def test_integer_coeffs_names_a_non_int(self):
        with pytest.raises(_CheckFailed, match=r"x\^2 is not an integer: 1/2"):
            PowerSeries((0, 1, Fraction(1, 2))).integer_coeffs()

    def test_counts_match_generated_families(self):
        from apexobs.cacti import generate_Z

        sol = solve_system(8)
        t = sol.T.integer_coeffs()
        for k in range(1, 7):
            assert t[k] == len(generate_Z(k))

    def test_coefficient_table(self):
        sol = solve_system(12)
        rows = coefficient_table(sol, 10)
        assert rows[10] == (10, 34982, 49397)
        assert coefficient_table(sol, 0) == [(0, 0, 1)]
        with pytest.raises(ValueError, match="up_to must be non-negative, got -1"):
            coefficient_table(sol, -1)
        with pytest.raises(ValueError, match="truncation must be >= 1, got 0"):
            solve_system(0)

    def test_truncated_view(self):
        sol = solve_system(20)
        sub = sol.truncated(10)
        assert sub.T.truncation == 10
        assert sub.T.coeffs == sol.T.coeffs[:11]

    def test_truncated_at_its_own_order_is_itself(self):
        # frozen, so the solution (and all it keeps) is shared, not copied
        sol = solve_system(20)
        assert sol.truncated(20) is sol
        assert sol.truncated(19) is not sol
        assert tuple(f.name for f in fields(sol)) == SYSTEM_FIELDS

    def test_negative_truncation_rejected(self):
        # a negative slice end would keep all but the last coefficients
        with pytest.raises(ValueError, match="truncation must be >= 0, got -2"):
            PowerSeries((0, 1, 2, 3, 4)).truncate(-2)
        with pytest.raises(ValueError, match="truncation must be >= 0, got -3"):
            solve_system(8).truncated(-3)
        assert PowerSeries((0, 1, 2)).truncate(0).coeffs == (0,)

    def test_truncating_above_the_truncation_rejected(self):
        with pytest.raises(ValueError, match="^cannot extend a truncated series$"):
            PowerSeries((0, 1, 2)).truncate(3)
        assert PowerSeries((0, 1, 2)).truncate(2).coeffs == (0, 1, 2)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="^a series needs at least the constant coefficient$"):
            PowerSeries(())

    def test_index_outside_truncation_rejected(self):
        # a negative index would read from the end of the coefficients
        s = PowerSeries((0, 1, 2, 3))
        assert [s[n] for n in range(4)] == [0, 1, 2, 3]
        for n in (-1, 4):
            with pytest.raises(IndexError, match=rf"index {n} outside 0\.\.3 \(the truncation\)"):
                s[n]


SYSTEM_FIELDS = ("T_diamond", "T_star", "T_circ", "T_square", "T_triangle",
                 "T_tri_to_circ", "T", "G")


class TestIntegerSystem:
    def test_matches_fraction_reference(self):
        got, want = solve_system(40), fraction_system(40)
        for name in SYSTEM_FIELDS:
            assert getattr(got, name).coeffs == want[name].coeffs, name

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_fraction_reference_at_small_orders(self, n):
        # the stretched A(x^2)^2 and the sparse A^2 A(x^2) at their edge cases
        got, want = solve_system(n), fraction_system(n)
        for name in SYSTEM_FIELDS:
            assert getattr(got, name).coeffs == want[name].coeffs, name

    def test_coefficients_are_ints(self):
        sol = solve_system(64)
        for name in SYSTEM_FIELDS:
            assert all(type(c) is int for c in getattr(sol, name).coeffs), name

    def test_order_512(self):
        sol = solve_system(512)
        assert sol.truncation == 512
        assert list(sol.T.coeffs[:11]) == T_KNOWN
        assert list(sol.G.coeffs[:11]) == G_KNOWN

    @staticmethod
    def digest(n: int) -> str:
        """sha256 over the reprs of all eight coefficient tuples, in field order."""
        sol = solve_system(n)
        h = hashlib.sha256()
        for name in SYSTEM_FIELDS:
            h.update(repr(getattr(sol, name).coeffs).encode())
        return h.hexdigest()

    def test_pinned_at_256(self):
        # taken from the full-product solver before the half-sum squares
        assert self.digest(256) == "e0e31f5db214dd80db48874a83b536b7b1100cde5a2a3975234502ca864a15cc"

    @pytest.mark.slow
    def test_pinned_at_1024(self):
        assert self.digest(1024) == "95cc9f4ff3ad09adfc7b3d64c85aaeaaa84dae34d07c7513622c8cdfebfccb4a"

    def test_square_coeff_is_the_full_product(self):
        # odd and even m, with the middle term, on signed and multi-word ints
        rng = random.Random(40)
        for length in range(1, 13):
            for _ in range(20):
                a = [rng.randint(-(10 ** 30), 10 ** 30) for _ in range(length)]
                for m in range(length):
                    full = sum(a[i] * a[m - i] for i in range(m + 1))
                    assert _square_coeff(a, m) == full, (a, m)

    def test_inexact_division_raises(self):
        assert _exact_div(-12, 4, "T_square", 3) == -3
        with pytest.raises(ArithmeticError, match=r"T_square: coefficient of x\^3"):
            _exact_div(14, 4, "T_square", 3)


class TestDissymmetrySanity:
    def test_unrooted_tree_counts(self):
        # same pointing/dissymmetry mechanics on ordinary unlabeled trees:
        # rooted R = x*MSET(R); unrooted T = R + MSET2(R) - R^2 (vertex-rooted
        # + edge-rooted - oriented-edge-rooted); counts 1,1,1,2,3,6,11,23
        n = 8
        r = FracSeries.zero(n)
        for _ in range(n + 1):
            r = exp_log_mset(r).shift()
        t = r + mset2(r) - r * r
        got = t.integer_coeffs()[1:9]
        assert list(got) == [1, 1, 1, 2, 3, 6, 11, 23]

    def test_against_explicit_tree_census(self):
        from oracles import unlabeled_trees

        for n in range(1, 9):
            n_trees = len(unlabeled_trees(n))
            r = FracSeries.zero(10)
            for _ in range(11):
                r = exp_log_mset(r).shift()
            t = r + mset2(r) - r * r
            assert t.integer_coeffs()[n] == n_trees
