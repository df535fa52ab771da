from __future__ import annotations

import math
import re
import weakref
from fractions import Fraction

import pytest

import apexobs.asymptotics
from apexobs.asymptotics import (
    SADDLE_MAX_ITER,
    SADDLE_START,
    FDerivatives,
    NewtonDivergence,
    _F_at,
    _tail_series,
    _tails,
    asymptotics_report,
    check_Z1_vanishes,
    estimate_constant,
    eval_F,
    expansion_coeffs,
    solve_saddle,
    solve_y_at,
)
from apexobs.cli import run
from apexobs.series import PowerSeries, _CheckFailed, solve_system

from oracles import eval_series, z1_identity_residual

# one system solve shared by the whole module
N = 192


@pytest.fixture(scope="module")
def sol():
    return solve_system(N)


@pytest.fixture(scope="module")
def sp(sol):
    return solve_saddle(sol)


class TestEvalF:
    def test_positive_at_y_zero(self, sol):
        p = eval_F(0.05, 0.0, sol)
        assert p.F > 0.0

    def test_vanishes_as_x_to_zero(self, sol):
        assert eval_F(1e-12, 0.3, sol).F == pytest.approx(0.0, abs=1e-11)

    def test_domain_checked(self, sol):
        with pytest.raises(ValueError):
            eval_F(0.0, 0.1, sol)
        with pytest.raises(ValueError):
            eval_F(1.5, 0.1, sol)

    def test_x_whose_square_underflows_rejected(self, sol):
        # x * x underflowed to 0 and the tails raised ZeroDivisionError
        with pytest.raises(ValueError, match=r"^x = 1e-300 is too small"):
            eval_F(1e-300, 0.0, sol)

    @pytest.mark.parametrize(
        "x, y, truncation, message",
        [
            (0.5, 0.0, 512, r"^x = 0\.5 puts "),
            (0.5, 1e6, 64, r"^x = 0\.5 puts "),  # F overflows there at y = 0 already
            (0.1, 700.0, 64, r"^y = 700\.0 puts "),
        ],
    )
    def test_overflow_names_the_argument(self, x, y, truncation, message):
        # each raised a bare OverflowError: math range error
        with pytest.raises(ValueError, match=message):
            eval_F(x, y, solve_system(truncation))

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_y_must_be_finite(self, sol, y):
        # y = NaN gave NaN for F and every partial
        with pytest.raises(ValueError, match=f"^y must be a finite number, got {y}$"):
            eval_F(0.1, y, sol)

    def test_non_finite_y_reported_before_the_tails(self):
        # the tails overflow at x = 0.99 for N = 512, but a NaN y is named first
        long_sol = solve_system(512)
        with pytest.raises(ValueError, match=r"^y must be a finite number, got nan$"):
            eval_F(0.99, math.nan, long_sol)
        with pytest.raises(ValueError, match=r"^x = 0\.99 puts the tails "):
            eval_F(0.99, 0.0, long_sol)

    def test_x_derivative_by_finite_differences(self, sol):
        x, y, h = 0.12, 0.35, 1e-6
        p = eval_F(x, y, sol)
        fd = (eval_F(x + h, y, sol).F - eval_F(x - h, y, sol).F) / (2 * h)
        assert p.Fx == pytest.approx(fd, rel=1e-7)
        fd_xy = (eval_F(x + h, y, sol).Fy - eval_F(x - h, y, sol).Fy) / (2 * h)
        assert p.Fxy == pytest.approx(fd_xy, rel=1e-7)
        fd_xx = (eval_F(x + h, y, sol).Fx - eval_F(x - h, y, sol).Fx) / (2 * h)
        assert p.Fxx == pytest.approx(fd_xx, rel=1e-5)

    def test_y_derivatives_by_finite_differences(self, sol):
        x, y, h = 0.12, 0.35, 1e-6
        p = eval_F(x, y, sol)
        fd = (eval_F(x, y + h, sol).F - eval_F(x, y - h, sol).F) / (2 * h)
        assert p.Fy == pytest.approx(fd, rel=1e-8)
        fd2 = (eval_F(x, y + h, sol).Fy - eval_F(x, y - h, sol).Fy) / (2 * h)
        assert p.Fyy == pytest.approx(fd2, rel=1e-7)
        fd_xyyy = (eval_F(x + h, y, sol).Fyyy - eval_F(x - h, y, sol).Fyyy) / (2 * h)
        assert p.Fxyyy == pytest.approx(fd_xyyy, rel=1e-6)


def exact_tails(d: tuple[int, ...], x: float) -> tuple[float, ...]:
    """(t, t', t'', u, u', u'') of the order-N tail series, in exact Fractions.

    t = sum_{k>=2} T_diamond(x^k)/k cut at x^N, and
    u = sum_{k>=1} T_diamond(x^(2k))/k cut at x^(2N), both
    differentiated term by term in x itself.
    """
    n = len(d) - 1
    t_coef = [Fraction(0)] * (n + 1)     # of x^m
    u_coef = [Fraction(0)] * (2 * n + 1)  # of x^m
    for k in range(1, n + 1):
        for q in range(1, n // k + 1):
            if k >= 2:
                t_coef[q * k] += Fraction(d[q], k)
            u_coef[2 * q * k] += Fraction(d[q], k)
    xf = Fraction(x)

    def derivs(coef):
        f = f1 = f2 = Fraction(0)
        for m, c in enumerate(coef):
            if c:
                f += c * xf ** m
                f1 += m * c * xf ** (m - 1)
                f2 += m * (m - 1) * c * xf ** (m - 2)
        return f, f1, f2

    return tuple(float(v) for v in derivs(t_coef) + derivs(u_coef))


RHO = 0.15926382314075604


class TestTails:
    @pytest.mark.parametrize("n", (14, 64))
    @pytest.mark.parametrize("x", (0.05, 0.15, RHO))
    def test_match_exact_order_n_series(self, n, x):
        d = solve_system(n).T_diamond
        got = _tails(_tail_series(d), x)
        want = exact_tails(d.coeffs, x)
        for name, g, w in zip(("t", "t'", "t''", "u", "u'", "u''"), got, want):
            assert g == pytest.approx(w, rel=1e-13), name

    def test_built_once_per_live_series(self, monkeypatch):
        builds, evaluations = [], []

        class Terms(list):  # a list that a weak reference can watch
            pass

        def counted_build(d):
            tails = tuple(map(Terms, _tail_series(d)))
            builds.append((d.truncation, weakref.ref(tails[0])))
            return tails

        def counted_F(x, y, sol):
            evaluations.append((x, y))  # not sol: a held solution keeps its tails
            return eval_F(x, y, sol)

        monkeypatch.setattr(apexobs.asymptotics, "_tail_series", counted_build)
        monkeypatch.setattr(apexobs.asymptotics, "eval_F", counted_F)
        sol = solve_system(64)
        report = asymptotics_report(sol)
        # solve_saddle, expansion_coeffs and check_Z1_vanishes share one
        assert [n for n, _ in builds] == [64]
        assert len(evaluations) > 5 * len(builds)  # 7 evaluations at N = 64
        # every later call on the same live sol reuses it, and gives the report's floats
        sp = solve_saddle(sol)
        ec = expansion_coeffs(sp, sol)
        backsub = [
            (eps, solve_y_at(sol, sp.x0 * (1.0 - eps * eps)) - (sp.y0 - ec.h0 * eps))
            for eps, _ in ec.backsub_residuals
        ]
        p = eval_F(sp.x0, sp.y0, sol)
        z1 = check_Z1_vanishes(sol, truncations=(64,), saddle=sp)
        assert check_Z1_vanishes(sol, truncations=(64,)) == z1  # solves on sol itself
        assert [n for n, _ in builds] == [64]
        assert (report["rho"], report["y0"]) == (sp.x0, sp.y0)
        assert report["residuals"] == list(sp.residuals) == [sp.y0 - p.F, 1.0 - p.Fy]
        assert (report["h0"], report["h1"], report["q1"]) == (ec.h0, ec.h1, ec.q1)
        assert report["x2_coefficient_fit"] == ec.x2_coefficient_fit
        assert backsub == list(ec.backsub_residuals)
        assert report["z1_residuals"] == {"64": z1.residuals[64]}
        # a truncated solution is another solution: it builds its own
        short = sol.truncated(48)
        assert solve_y_at(short, 0.1) == pytest.approx(solve_y_at(sol, 0.1), rel=1e-12)
        assert [n for n, _ in builds] == [64, 48]
        # nothing outlives its solution: the tails go with it
        held, gone = weakref.ref(sol), weakref.ref(short)
        del short
        assert gone() is None and builds[1][1]() is None
        assert builds[0][1]() is not None
        del sol
        assert held() is None and builds[0][1]() is None
        # a new solve builds them again
        assert asymptotics_report(solve_system(64)) == report
        assert [n for n, _ in builds] == [64, 48, 64]


class TestSaddle:
    def test_location(self, sp):
        assert sp.x0 == pytest.approx(0.15926, abs=1e-4)
        assert sp.y0 == pytest.approx(0.41738, abs=1e-4)
        assert sp.growth_rate == pytest.approx(6.27888, abs=1e-3)

    def test_residuals_tiny(self, sp):
        assert all(abs(r) < 1e-12 for r in sp.residuals)

    def test_saddle_conditions(self, sol, sp):
        p = eval_F(sp.x0, sp.y0, sol)
        assert p.F == pytest.approx(sp.y0, abs=1e-12)
        assert p.Fy == pytest.approx(1.0, abs=1e-12)

    def test_requires_enough_coefficients(self):
        small = solve_system(32)
        with pytest.raises(ValueError, match="truncation 32 is below 64"):
            solve_saddle(small)

    def test_tolerance_the_start_point_meets_refused(self, sol):
        # the start point's residual is 0.132: a tol above it returned the
        # start point unsolved, with 0 iterations, as the saddle
        with pytest.raises(ValueError, match=r"tol 0\.5 is met by the start point \(residual 0\.132\)"):
            solve_saddle(sol, tol=0.5)
        with pytest.raises(ValueError, match=r"tol 0\.5 is met"):
            asymptotics_report(solve_system(64), tol=0.5)
        assert solve_saddle(sol, tol=0.1).iterations >= 1

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-13])
    def test_tolerance_finite_and_positive(self, sol, tol):
        # an infinite tol accepted the start point; tol <= 0 or NaN ran
        # every iteration into NewtonDivergence
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_saddle(sol, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            asymptotics_report(solve_system(64), tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            check_Z1_vanishes(sol, truncations=(64,), tol=tol)

    @pytest.mark.parametrize(
        "fx, fyy, message", [(0.0, 0.0, "singular Jacobian"), (1e-12, 1.0, "step underflow")]
    )
    def test_newton_divergence_exits(self, sol, monkeypatch, capsys, fx, fyy, message):
        # fixed partials, F = y + 1 and F_y = 0.5, so the start point misses
        # the tolerance.  F_x = F_xy = 0 make the Jacobian singular; F_x =
        # 1e-12 with F_yy = 1 gives dx ~ 7.5e11, and the trial x stays
        # outside (0, 1) at every step down to 1e-12
        def fixed(x, y, sol):
            return FDerivatives(F=y + 1.0, Fx=fx, Fy=0.5, Fyy=fyy, Fyyy=0.0, Fyyyy=0.0,
                                Fxy=0.0, Fxyyy=0.0, Fxx=0.0, E=1.0, W=1.0)

        monkeypatch.setattr(apexobs.asymptotics, "eval_F", fixed)
        with pytest.raises(NewtonDivergence, match=f"^{message}$") as exc:
            solve_saddle(sol)
        assert exc.value.last_iterate == SADDLE_START
        assert run(["asymptotics", "--N", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f": {message}\n") and err.count("\n") == 1


class TestExpansion:
    def test_h0_positive(self, sol, sp):
        ec = expansion_coeffs(sp, sol)
        assert ec.h0 > 0

    def test_back_substitution_order(self, sol, sp):
        # |y(rho(1-eps^2)) - (y0 - h0 eps)| = O(eps^2), checked at the gate's
        # eps = 0.05, 0.02: the ratio of residuals tracks (eps1/eps2)^2
        ec = expansion_coeffs(sp, sol)
        (e1, r1), (e2, r2) = sorted(ec.backsub_residuals)
        assert (e1, e2) == (0.02, 0.05)
        assert abs(r1) <= 0.5 * e1 * e1  # comfortably quadratic
        assert abs(r2) <= 0.5 * e2 * e2
        ratio = r2 / r1
        assert ratio == pytest.approx((e2 / e1) ** 2, rel=0.15)

    def test_h0_matches_coefficient_asymptotics(self, sol, sp):
        # the leaf-rooted series has singular exponent 1/2:
        # a_n ~ (h0 / (2 sqrt(pi))) n^(-3/2) rho^(-n)
        ec = expansion_coeffs(sp, sol)
        est = estimate_constant(sol.T_diamond, sp.x0, alpha=0.5)
        assert est.c_fit == pytest.approx(ec.h0 / (2 * math.sqrt(math.pi)), rel=1e-3)

    def test_q1_reported_with_consistency_flag(self, sol, sp):
        # the printed two-line q1 display does not match the empirical X^2
        # coefficient (which instead tracks 2*h1); the implementation must
        # report the discrepancy rather than silently correct the formula
        ec = expansion_coeffs(sp, sol)
        assert not ec.q1_consistent
        assert ec.x2_coefficient_fit == pytest.approx(2 * ec.h1, rel=0.02)
        assert ec.q1 == pytest.approx(0.4366, abs=2e-3)


class TestEstimateConstant:
    def test_calibration_exact(self):
        geo = PowerSeries(tuple(2 ** n for n in range(129)))
        est = estimate_constant(geo, 0.5, alpha=-1.0)
        assert est.c == 1.0

    def test_scale_equivariance(self, sol, sp):
        est = estimate_constant(sol.T, sp.x0)
        scaled = estimate_constant(PowerSeries(tuple(3 * c for c in sol.T.coeffs)), sp.x0)
        assert scaled.c == pytest.approx(3 * est.c, rel=1e-12)

    def test_constants_near_printed_values(self, sol, sp):
        est_T = estimate_constant(sol.T, sp.x0)
        est_G = estimate_constant(sol.G, sp.x0)
        assert est_T.c == pytest.approx(0.27160, rel=0.01)
        assert est_G.c == pytest.approx(0.33995, rel=0.01)
        # the raw fitted limit differs from the printed normalization by
        # Gamma(-3/2) exactly
        assert est_T.c / est_T.c_fit == pytest.approx(math.gamma(-1.5), rel=1e-12)

    def test_estimate_reproduces_coefficients(self, sol, sp):
        est = estimate_constant(sol.T, sp.x0, window=(N // 2, N - 8))
        for n in (N - 4, N - 1):  # held out of the fit window
            assert est.predict(n) == pytest.approx(float(sol.T.coeffs[n]), rel=5e-3)

    def test_window_validation(self, sol):
        with pytest.raises(ValueError):
            estimate_constant(sol.T, 0.16, window=(10, 5))
        # two points fit the half window too, and the spread came out 0.0
        with pytest.raises(ValueError, match=r"bad fit window \(40, 41\)"):
            estimate_constant(sol.T, 0.16, window=(40, 41))
        assert estimate_constant(sol.T, 0.16, window=(40, 42)).spread > 0.0
        # a non-positive coefficient is a wrong series, not a bad argument
        with pytest.raises(_CheckFailed, match="non-positive coefficient at n=1"):
            estimate_constant(PowerSeries((0, -1, 2, 1)), 0.5)

    @pytest.mark.parametrize("rho", [0.0, -0.1, math.inf, math.nan])
    def test_rho_must_be_finite_and_positive(self, sol, rho):
        with pytest.raises(ValueError, match="rho must be finite and positive"):
            estimate_constant(sol.T, rho)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_alpha_must_be_finite(self, sol, alpha):
        # a NaN alpha returned NaN constants, an infinite one a bare math domain error
        with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
            estimate_constant(sol.T, 0.16, alpha=alpha)

    @pytest.mark.parametrize("alpha", [400.0, 1e6, -200.5])
    def test_alpha_beyond_float_range(self, alpha):
        # n^(alpha + 1) or Gamma(-alpha) raised a bare OverflowError
        with pytest.raises(ValueError, match=f"^alpha = {re.escape(str(alpha))} puts"):
            estimate_constant(solve_system(64).T, 0.159, alpha=alpha)

    @pytest.mark.parametrize("rho", [1e5, 1e-300])
    def test_constant_beyond_float_range(self, rho):
        # the fit returned c = inf (rho = 1e5) or c = 0.0 (rho = 1e-300) with no error
        with pytest.raises(ValueError, match=f"^rho = {re.escape(str(rho))} and alpha = 1.5 put"):
            estimate_constant(solve_system(64).T, rho)

    def test_rho_beyond_float_range(self):
        # a_n rho^n raised "integer division result too large for a float"
        with pytest.raises(ValueError, match=r"^rho = 1e\+300 puts a_n rho\^n beyond float range$"):
            estimate_constant(solve_system(64).T, 1e300)


def empirical_radius(series: PowerSeries) -> float:
    """Radius of convergence from coefficient ratios, 1/n-extrapolated.

    r_n = a_n / a_{n+1} drifts like rho (1 + (alpha+1)/n); one elimination
    step removes the 1/n term.
    """
    a = series.coeffs
    n = series.truncation - 2
    r0, r1 = a[n] / a[n + 1], a[n + 1] / a[n + 2]
    return r1 + n * (r1 - r0)


def coefficient_slope(series: PowerSeries, rho: float, lo: int, hi: int) -> float:
    """Least-squares slope of log(a_n rho^n) against log n over [lo, hi]."""
    xs = [math.log(n) for n in range(lo, hi + 1)]
    ys = [math.log(series.coeffs[n]) + n * math.log(rho) for n in range(lo, hi + 1)]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


class TestRadiusAndSlope:
    def test_empirical_radius_close(self, sol, sp):
        r = empirical_radius(sol.T)
        assert abs(r - sp.x0) / sp.x0 < 0.005

    def test_slope_is_minus_five_halves(self, sol, sp):
        slope = coefficient_slope(sol.G, sp.x0, N // 2, N)
        assert slope == pytest.approx(-2.5, abs=0.1)


class TestZ1Identity:
    def test_residual_small_and_nonincreasing(self, sol):
        rep = check_Z1_vanishes(sol, truncations=(64, 96, 128))
        rs = [rep.residuals[n] for n in (64, 96, 128)]
        assert rep.final_residual < 1e-6
        # truncation error is geometric (ratio rho); past N ~ 20 it sits
        # below double precision, so monotone improvement is asserted up to
        # floating noise
        assert rs[1] <= rs[0] + 1e-12
        assert rs[2] <= rs[1] + 1e-12

    def test_visible_truncation_trend_at_small_N(self, sol):
        # with N small enough for truncation to matter, the improvement is
        # genuinely monotone (and steep)
        rep = check_Z1_vanishes(sol, truncations=(6, 10, 14))
        rs = [rep.residuals[n] for n in (6, 10, 14)]
        assert rs[0] > rs[1] > rs[2]
        assert rs[0] > 1e-8

    def test_given_saddle_stands_for_the_full_truncation(self, sol, sp, monkeypatch):
        solved = []

        def counted(sub, **kwargs):
            solved.append(sub.truncation)
            return solve_saddle(sub, **kwargs)

        monkeypatch.setattr(apexobs.asymptotics, "solve_saddle", counted)
        reused = check_Z1_vanishes(sol, truncations=(128, N), saddle=sp)
        assert solved == [128]
        monkeypatch.undo()
        assert reused == check_Z1_vanishes(sol, truncations=(128, N))

    def test_truncation_above_the_series_refused(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solved before the truncations were checked")

        monkeypatch.setattr(apexobs.asymptotics, "solve_saddle", never)
        with pytest.raises(ValueError, match="truncation 96 exceeds the series truncation 64"):
            check_Z1_vanishes(solve_system(64))

    def test_truncation_below_the_floor_refused(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solved before the truncations were checked")

        monkeypatch.setattr(apexobs.asymptotics, "solve_saddle", never)
        with pytest.raises(ValueError, match="truncation 3 is below 4"):
            check_Z1_vanishes(solve_system(64), truncations=(64, 32, 3))

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_tolerance_checked_before_any_work(self, sol, sp, tol, monkeypatch):
        # with the saddle given no solve ran, and a bad tol returned residuals
        def never(*args, **kwargs):
            raise AssertionError("evaluated before the tol was checked")

        monkeypatch.setattr(apexobs.asymptotics, "solve_saddle", never)
        monkeypatch.setattr(apexobs.asymptotics, "eval_F", never)
        with pytest.raises(ValueError, match=f"tol must be finite and positive, got {tol}"):
            check_Z1_vanishes(sol, truncations=(N,), tol=tol, saddle=sp)

    def test_empty_truncations_refused(self, sol):
        with pytest.raises(ValueError, match="at least one truncation"):
            check_Z1_vanishes(sol, truncations=())

    def test_perturbed_rho_has_power(self, sol):
        sp = solve_saddle(sol)
        assert abs(z1_identity_residual(sol, sp)) < 1e-12
        assert abs(z1_identity_residual(sol, sp, rho=sp.x0 + 0.01)) > 1e-3


class TestScalarSolve:
    def test_matches_series_summation_away_from_singularity(self, sol, sp):
        # far from rho the direct sum converges fine and must agree
        x = 0.05
        direct = eval_series(sol.T_diamond, x)
        assert solve_y_at(sol, x) == pytest.approx(direct, rel=1e-10)

    def test_stops_near_the_singularity(self, sol, sp, monkeypatch):
        # at eps = 0.02 the iterate ends up alternating between two doubles;
        # the stop on a step that no longer shrinks must end the solve there
        x = sp.x0 * (1.0 - 0.02 ** 2)
        steps = []

        def counted(*args, **kwargs):
            steps.append(args)
            return _F_at(*args, **kwargs)

        monkeypatch.setattr(apexobs.asymptotics, "_F_at", counted)
        y = solve_y_at(sol, x)
        assert 0 < len(steps) < 30
        assert abs(eval_F(x, y, sol).F - y) <= 1e-14

    def test_tails_evaluated_once_per_x(self, sol, sp, monkeypatch):
        # x is fixed through the solve, so each Newton step reuses its tails
        x = sp.x0 * (1.0 - 0.05 ** 2)
        evaluations, steps = [], []

        def counted_tails(tails, at):
            evaluations.append(at)
            return _tails(tails, at)

        def counted_step(*args):
            steps.append(args)
            return _F_at(*args)

        monkeypatch.setattr(apexobs.asymptotics, "_tails", counted_tails)
        monkeypatch.setattr(apexobs.asymptotics, "_F_at", counted_step)
        solve_y_at(sol, x)
        assert evaluations == [x]
        assert len(steps) > 1

    def test_bad_x_is_not_read_as_past_the_singularity(self, sol):
        # the solve stops only on eval_F's float-range error
        with pytest.raises(ValueError, match=r"^x must lie in \(0, 1\), got 1\.5$"):
            solve_y_at(sol, 1.5)

    @pytest.mark.parametrize("factor", [1.1, 2.0, 5.0])
    def test_no_root_past_the_singularity(self, sol, sp, factor):
        # Newton would stop on a y with F - y far from 0, or overflow at 5 rho
        with pytest.raises(ValueError, match="past the singularity"):
            solve_y_at(sol, factor * sp.x0)


class TestEvalSeries:
    def test_coefficient_beyond_float_range(self):
        # 10**400 overflows a double; the sum goes through logarithms
        big = 10 ** 400
        want = 1e100
        assert eval_series(PowerSeries((0, big)), 1e-300) == pytest.approx(want, rel=1e-12)
        assert eval_series(PowerSeries((0, -big)), 1e-300) == pytest.approx(-want, rel=1e-12)

    def test_zero_reads_the_constant_coefficient(self):
        # no logarithm is taken at z = 0, so a coefficient beyond float range is never read
        assert eval_series(PowerSeries((7, 10 ** 400)), 0.0) == 7.0

    @pytest.mark.parametrize(
        "series, z",
        [
            (solve_system(64).T, 1e200),  # a term's exp overflows
            (PowerSeries((0, 10 ** 308, 10 ** 308)), 0.95),  # each term fits, their sum does not
        ],
    )
    def test_beyond_float_range_names_z(self, series, z):
        # the first raised a bare OverflowError: math range error
        with pytest.raises(ValueError, match=f"^z = {re.escape(str(z))} puts "):
            eval_series(series, z)

    @pytest.mark.parametrize("z", [0.0, 0.5])
    def test_constant_beyond_float_range_is_named(self, z):
        # it raised a bare OverflowError: int too large to convert to float
        with pytest.raises(ValueError, match="^the constant coefficient a_0 is beyond float range$"):
            eval_series(PowerSeries((10 ** 400, 1)), z)

    @pytest.mark.parametrize("z", [-0.5, float("nan"), float("inf")])
    def test_rejects_negative_and_nan(self, z):
        with pytest.raises(ValueError, match="only non-negative arguments"):
            eval_series(PowerSeries((1, 2, 3)), z)


class TestReportRegression:
    """asymptotics_report at N=64, pinned to the values of the Fraction-based
    solver it replaced."""

    @pytest.fixture(scope="class")
    def report(self):
        return asymptotics_report(solve_system(64))

    def test_pinned_values(self, report):
        assert report["rho"] == pytest.approx(0.15926382314075604, rel=1e-12)
        assert report["h0"] == pytest.approx(0.5773490598522706, rel=1e-12)
        assert report["c_T"] == pytest.approx(0.27160778986849554, rel=1e-12)
        assert report["c_G"] == pytest.approx(0.33997646454813896, rel=1e-12)
        assert report["x2_coefficient_fit"] == pytest.approx(0.23820064532403082, rel=1e-9)

    def test_saddle_iterations_reported(self, report):
        assert type(report["saddle_iterations"]) is int
        assert 1 <= report["saddle_iterations"] <= SADDLE_MAX_ITER

    def test_one_saddle_solve(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_saddle(*args, **kwargs)

        monkeypatch.setattr(apexobs.asymptotics, "solve_saddle", counted)
        asymptotics_report(solve_system(64))
        assert len(calls) == 1

    def test_spreads_reported(self, report):
        for name in ("c_T", "c_G"):
            spread = report[f"{name}_spread"]
            assert math.isfinite(spread)
            assert 0.0 <= spread < 0.01 * report[name]
