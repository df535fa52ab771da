"""Numerical singularity analysis of the cactus-obstruction series.

The leaf-rooted series y = T_diamond satisfies y = F(x, y) with

    F(x, y) = (x/2) * exp(y + t(x)) * (exp(2y + 2t(x)) + exp(u(x))),
    t(x) = sum_{k>=2} T_diamond(x^k)/k,   u(x) = sum_{k>=1} T_diamond(x^(2k))/k.

The square-root singularity rho is located by solving the saddle system
{y = F, 1 = F_y} with damped Newton; the expansion coefficients h0/h1/q1
come from the stated closed forms in the partial derivatives of F, and the
asymptotic constants of T and G are recovered from their exact coefficients
by Richardson extrapolation of a_n * n^(alpha+1) * rho^n.

The tails are evaluated as two power series of the truncation order N of
T_diamond: t(x) = sum_{m<=N} c_m x^m and u(x) = v(x^2) with
v(z) = sum_{m<=N} w_m z^m, where m*c_m collects n*d_n over the proper
divisors n of m and m*w_m over all of them (the Euler-transform weights of
T_star = MSET(T_diamond)).  N is the one truncation: t is cut at x^N and u
at x^(2N), which bounds k too, since T_diamond(x^k) starts at x^k.

All reals are double precision.  Series coefficients can exceed the float
range, so series evaluation goes through logarithms of the exact integers.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

from .series import PowerSeries, SeriesSystemSolution, _add_divisor_terms, _CheckFailed

MIN_SADDLE_TRUNCATION = 64  # solve_saddle's default floor on the series truncation
Z1_MIN_TRUNCATION = 4  # check_Z1_vanishes's floor on each of its truncations
SADDLE_START = (0.15, 0.4)  # (x, y) where the saddle Newton starts
SADDLE_MAX_ITER = 200
BACKSUB_EPS = (0.05, 0.02)  # eps of the q1 gate's points x = rho(1 - eps^2)
RICHARDSON_LEVELS = 3
Y_AT_TOL = 1e-12  # largest |F(x, y) - y| that solve_y_at accepts as a root


# (m, log|a_m|, sign, sign*m, sign*m*(m-1)) for every non-zero a_m, m >= 1:
# one pass gives f, z*f' and z^2*f'' of f(z) = sum a_m z^m
LogTerms = list[tuple[int, float, float, float, float]]


def _log_terms(numerators: list[int]) -> LogTerms:
    """The terms of sum_m (numerators[m]/m) z^m, logarithms taken from the ints."""
    terms = []
    for m, a in enumerate(numerators):
        if m and a:
            sign = 1.0 if a > 0 else -1.0
            terms.append((m, math.log(abs(a)) - math.log(m), sign, sign * m, sign * m * (m - 1)))
    return terms


def _moments(terms: LogTerms, lz: float) -> tuple[float, float, float]:
    """(f, z*f', z^2*f'') at z = exp(lz).  Every term is summed: the
    coefficients are not monotone in m, so one small term proves nothing
    about the rest, and a term whose exp underflows adds 0."""
    exp = math.exp
    f = f1 = f2 = 0.0
    for m, la, s0, s1, s2 in terms:
        e = exp(la + m * lz)
        f += s0 * e
        f1 += s1 * e
        f2 += s2 * e
    return f, f1, f2


def eval_series(series: PowerSeries, z: float) -> float:
    """sum a_n z^n in doubles, robust to coefficients beyond float range."""
    if z == 0.0:
        return float(series.coeffs[0])
    if not z >= 0:  # NaN too
        raise ValueError("only non-negative arguments are supported")
    terms = _log_terms([n * a for n, a in enumerate(series.coeffs)])
    return float(series.coeffs[0]) + _moments(terms, math.log(z))[0]


_TAIL_SERIES = weakref.WeakKeyDictionary()  # T_diamond -> the (t, u) of `_tail_series`


def _tail_series(d: PowerSeries) -> tuple[LogTerms, LogTerms]:
    """t and u as two series of the order N of d = T_diamond (d_0 = 0):

        t(x) = sum_{m<=N} c_m x^m,  m*c_m = sum_{n|m, m/n >= 2} n*d_n,
        u(x) = v(x^2),  v(z) = sum_{m<=N} w_m z^m,  m*w_m = m*c_m + m*d_m.

    Built once per series and kept, under a weak key, while that series is
    alive: every call on one solution shares them, and none outlives it.
    """
    tails = _TAIL_SERIES.get(d)
    if tails is None:
        u_num = [0] * len(d.coeffs)  # m*w_m: the Euler weights of MSET(T_diamond)
        for q in range(1, len(u_num)):
            _add_divisor_terms(u_num, q, d.coeffs[q])
        t_num = [w - m * a for m, (w, a) in enumerate(zip(u_num, d.coeffs))]
        tails = _TAIL_SERIES[d] = (_log_terms(t_num), _log_terms(u_num))
    return tails


def _tails(tails: tuple[LogTerms, LogTerms], x: float) -> tuple[float, ...]:
    """(t, t', t'', u, u', u'') at x > 0: the two series of `_tail_series`
    and their first two x-derivatives, by the chain rule through z = x^2 for u."""
    t_terms, u_terms = tails
    lx = math.log(x)
    t, t1, t2 = _moments(t_terms, lx)
    u, u1, u2 = _moments(u_terms, 2.0 * lx)
    z = x * x
    return t, t1 / x, t2 / z, u, 2.0 * u1 / x, (4.0 * u2 + 2.0 * u1) / z


@dataclass(frozen=True)
class FDerivatives:
    """F and the partial derivatives needed by the expansion formulas."""

    F: float
    Fx: float
    Fy: float
    Fyy: float
    Fyyy: float
    Fyyyy: float
    Fxy: float
    Fxyyy: float
    Fxx: float
    E: float  # exp(y + t(x))  (= T_star(x) at the solution)
    W: float  # exp(u(x))      (= T_star(x^2))


def eval_F(x: float, y: float, sol: SeriesSystemSolution) -> FDerivatives:
    """Evaluate F(x, y) and its partials at a point with 0 < x < 1.

    y-derivatives are exact in form: every pure y-derivative of order m is
    (x/2)(3^m E^3 + E W).  x-derivatives differentiate the tails analytically.
    """
    return _F(x, y, _tail_series(sol.T_diamond))


def _F(x: float, y: float, tails: tuple[LogTerms, LogTerms]) -> FDerivatives:
    """`eval_F` on tail series already built."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    t, tp, tpp, u, up, upp = _tails(tails, x)
    E = math.exp(y + t)
    W = math.exp(u)
    E3 = E ** 3

    def pure(c3: float) -> float:
        return (x / 2.0) * (c3 * E3 + E * W)

    def crossed(c3: float) -> float:
        # d/dx of (x/2)(c3 E^3 + E W)
        return 0.5 * (c3 * E3 + E * W) + (x / 2.0) * (3 * c3 * E3 * tp + E * W * (tp + up))

    Fxx = (3 * E3 * tp + E * W * (tp + up)) + (x / 2.0) * (
        9 * E3 * tp * tp + 3 * E3 * tpp + E * W * ((tp + up) ** 2 + tpp + upp)
    )
    return FDerivatives(
        F=pure(1),
        Fx=crossed(1),
        Fy=pure(3),
        Fyy=pure(9),
        Fyyy=pure(27),
        Fyyyy=pure(81),
        Fxy=crossed(3),
        Fxyyy=crossed(27),
        Fxx=Fxx,
        E=E,
        W=W,
    )


@dataclass(frozen=True)
class SaddlePoint:
    """Solution of {y = F(x,y), 1 = F_y(x,y)} locating the singularity."""

    x0: float
    y0: float
    residuals: tuple[float, float]
    iterations: int

    @property
    def rho(self) -> float:
        return self.x0

    @property
    def growth_rate(self) -> float:
        return 1.0 / self.x0


class NewtonDivergence(RuntimeError):
    def __init__(self, message: str, last: tuple[float, float]):
        super().__init__(message)
        self.last_iterate = last


def solve_saddle(
    sol: SeriesSystemSolution,
    tol: float = 1e-13,
    min_truncation: int = MIN_SADDLE_TRUNCATION,
) -> SaddlePoint:
    """Damped 2-d Newton on (y - F, 1 - F_y) from the standard start point.

    A ``tol`` the start point already meets raises ValueError: the solve
    would return the start point unsolved.
    """
    if sol.truncation < min_truncation:
        raise ValueError(f"series truncation {sol.truncation} is below {min_truncation}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    x, y = SADDLE_START
    tails = _tail_series(sol.T_diamond)

    def residuals(p: FDerivatives, yy: float) -> tuple[float, float]:
        return (yy - p.F, 1.0 - p.Fy)

    p = _F(x, y, tails)
    r1, r2 = residuals(p, y)
    norm = abs(r1) + abs(r2)
    if norm < tol:
        raise ValueError(f"tol {tol} is met by the start point (residual {norm:.3g}); use a smaller tol")
    for it in range(1, SADDLE_MAX_ITER + 1):
        # Jacobian of (y - F, 1 - F_y)
        a11, a12 = -p.Fx, 1.0 - p.Fy
        a21, a22 = -p.Fxy, -p.Fyy
        det = a11 * a22 - a12 * a21
        if det == 0.0:
            raise NewtonDivergence("singular Jacobian", (x, y))
        dx = (r1 * a22 - a12 * r2) / det
        dy = (a11 * r2 - r1 * a21) / det
        step = 1.0
        while True:
            nx, ny = x - step * dx, y - step * dy
            if 0.0 < nx < 1.0:
                pn = _F(nx, ny, tails)
                nr1, nr2 = residuals(pn, ny)
                if abs(nr1) + abs(nr2) <= norm or step < 1e-6:
                    break
            step /= 2.0
            if step < 1e-12:
                raise NewtonDivergence("step underflow", (x, y))
        x, y, p, r1, r2 = nx, ny, pn, nr1, nr2
        norm = abs(r1) + abs(r2)
        if norm < tol:
            return SaddlePoint(x, y, (r1, r2), it)
    raise NewtonDivergence(f"no convergence after {SADDLE_MAX_ITER} iterations", (x, y))


# -- square-root expansion coefficients ----------------------------------------


@dataclass(frozen=True)
class ExpansionCoefficients:
    """h0, h1 and q1 for the square-root expansion of T_diamond at rho.

    h0 > 0 always (genuine square-root singularity); the local behavior is
    y(x) ~ y0 - h0*X + (X^2 coefficient)*X^2 - ... with X = sqrt(1 - x/rho).
    q1 is evaluated exactly as the source prints it; the printed display is
    ambiguous, so `x2_coefficient_fit` carries an empirical fit of the X^2
    coefficient from back-substitution and `q1_consistent` records whether
    the printed value matches it.
    """

    h0: float
    h1: float
    q1: float
    x2_coefficient_fit: float
    q1_consistent: bool
    backsub_residuals: tuple[tuple[float, float], ...]  # (eps, residual)


def solve_y_at(sol: SeriesSystemSolution, x: float) -> float:
    """y(x) for 0 < x <= rho, by scalar Newton on y = F(x, y).

    Direct summation of the T_diamond series is useless near rho (the terms
    decay like n^(-3/2) there); the functional equation converges to machine
    precision instead.  F(x, y) - y is convex in y, positive at 0 and
    decreasing up to its root, so Newton from y = 0 rises monotonically
    onto the root.  A step that does not shrink is float noise: the
    iterate is returned without it.  Past rho there is no root, and the
    solve raises ValueError.
    """
    tails = _tail_series(sol.T_diamond)
    y, step = 0.0, math.inf
    while True:
        try:
            p = _F(x, y, tails)
        except OverflowError:
            break
        new_step = (p.F - y) / (1.0 - p.Fy)
        if not abs(new_step) < abs(step):
            if abs(p.F - y) <= Y_AT_TOL:
                return y
            break
        y, step = y + new_step, new_step
    raise ValueError(f"y = F(x, y) has no root at x = {x}: x lies past the singularity")


def expansion_coeffs(sp: SaddlePoint, sol: SeriesSystemSolution) -> ExpansionCoefficients:
    """Evaluate the closed-form expansion coefficients and gate q1.

    h0 = sqrt(2 rho F_x / F_yy); h1 = (1/6)(-F_yyy h0^2 + 6 F_xy rho)/(2 F_yy);
    q1 is the two-line display taken literally.  The gate solves y(x) at
    x = rho(1 - eps^2), subtracts the first-order expansion y0 - h0*eps and
    fits the X^2 coefficient; a mismatch is reported, never corrected.
    """
    rho, y0 = sp.x0, sp.y0
    p = _F(rho, y0, _tail_series(sol.T_diamond))
    if abs(p.Fyy) < 1e-9:
        raise _CheckFailed("degenerate saddle: F_yy vanishes")
    h0 = math.sqrt(2.0 * rho * p.Fx / p.Fyy)
    h1 = (1.0 / 6.0) * (-p.Fyyy * h0 ** 2 + 6.0 * p.Fxy * rho) / (2.0 * p.Fyy)
    q1 = (
        -(1.0 / 24.0)
        * (p.Fyyyy * h0 ** 4 - 12.0 * p.Fxyyy * h0 ** 2 * rho + 12.0 * p.Fyyy * h1 * h0 ** 2)
        / (p.Fyy * h0)
        + (12.0 * p.Fxx * rho ** 2 - 24.0 * p.Fxy * h1 * rho + 12.0 * p.Fxx * h1 ** 2)
        / (p.Fyy * h0)
    )
    # back-substitution: residual r(eps) = y(rho(1-eps^2)) - (y0 - h0*eps)
    pairs = []
    for eps in BACKSUB_EPS:
        xx = rho * (1.0 - eps * eps)
        try:  # x below the saddle always has a root
            r = solve_y_at(sol, xx) - (y0 - h0 * eps)
        except ValueError as exc:
            raise _CheckFailed(f"back-substitution at eps = {eps}: {exc}") from None
        pairs.append((eps, r))
    # fit r = A2 eps^2 + A3 eps^3 through the two smallest eps
    (e1, r1), (e2, r2) = sorted(pairs)[:2]
    a3 = (r2 / e2 ** 2 - r1 / e1 ** 2) / (e2 - e1)
    a2 = r1 / e1 ** 2 - a3 * e1
    consistent = abs(q1 - a2) <= 0.05 * max(abs(a2), 1e-12)
    return ExpansionCoefficients(
        h0=h0,
        h1=h1,
        q1=q1,
        x2_coefficient_fit=a2,
        q1_consistent=consistent,
        backsub_residuals=tuple(pairs),
    )


# -- coefficient asymptotics -----------------------------------------------------


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Fitted asymptotic law a_n ~ (c / Gamma(-alpha)) * n^(-alpha-1) * rho^(-n).

    `c` follows the source's normalization (the singular amplitude; for the
    cactus series this is the printed 0.27160 / 0.33995); `c_fit` is the raw
    extrapolated limit of a_n n^(alpha+1) rho^n, so c = c_fit * Gamma(-alpha).
    `spread` is the extrapolation spread used as an error bar.
    """

    rho: float
    alpha: float
    c: float
    c_fit: float
    spread: float
    fit_window: tuple[int, int]

    def predict(self, n: int) -> float:
        return self.c_fit * n ** (-self.alpha - 1.0) * self.rho ** (-n)


def _richardson(points: list[tuple[int, float]]) -> float:
    """Eliminate 1/n, 1/n^2, ... corrections from a sequence c_n -> c."""
    rows = points
    for level in range(1, RICHARDSON_LEVELS + 1):
        nxt = []
        for (n1, c1), (n2, c2) in zip(rows, rows[1:]):
            f1, f2 = n1 ** -level, n2 ** -level
            nxt.append((n2, (c2 * f1 - c1 * f2) / (f1 - f2)))
        if not nxt:
            break
        rows = nxt
    return rows[-1][1]


def estimate_constant(
    series: PowerSeries,
    rho: float,
    alpha: float = 1.5,
    window: tuple[int, int] | None = None,
) -> AsymptoticEstimate:
    """Extrapolate the asymptotic constant from exact coefficients.

    c_n = a_n * n^(alpha+1) * rho^n is Richardson-extrapolated in 1/n over
    the top half of the window.  rho must be finite and positive, the
    window must hold at least 3 points (with 2 the half-window fit is the
    full fit, and the spread a false 0), and its coefficients positive.
    """
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and positive, got {rho}")
    hi = series.truncation if window is None else window[1]
    lo = hi // 2 if window is None else window[0]
    if hi > series.truncation or lo < 1 or hi - lo < 2:
        raise ValueError(f"bad fit window ({lo}, {hi}): needs 3 or more points in 1..{series.truncation}")
    # a_n rho^n is an exact quotient of integers rounded once (coefficients
    # overflow floats long before n = 512; rho = num/den exactly); only the
    # n^(alpha+1) factor is floating.  The sequence is normalized by its
    # first element before extrapolation, so scaling the series rescales
    # the result exactly (one final multiply).
    num, den = rho.as_integer_ratio()
    a_ref = series.coeffs[lo]
    if a_ref <= 0:
        raise _CheckFailed(f"non-positive coefficient at n={lo} inside the fit window")
    c_ref = a_ref * num ** lo / den ** lo * lo ** (alpha + 1.0)
    pnum, pden = 1, a_ref  # rho^(n-lo) / a_ref
    pts: list[tuple[int, float]] = []
    for n in range(lo, hi + 1):
        c = series.coeffs[n]
        if c <= 0:
            raise _CheckFailed(f"non-positive coefficient at n={n} inside the fit window")
        pts.append((n, c * pnum / pden * (n / lo) ** (alpha + 1.0)))
        pnum *= num
        pden *= den
    c_fit = _richardson(pts) * c_ref
    c_half = _richardson(pts[: max(2, len(pts) // 2)]) * c_ref
    spread = abs(c_fit - c_half)
    neg = -alpha
    if neg > 0 or not float(neg).is_integer():
        gamma = math.gamma(neg)
    else:
        gamma = 1.0  # Gamma pole: report the raw fitted constant unscaled
    return AsymptoticEstimate(
        rho=rho,
        alpha=alpha,
        c=c_fit * gamma,
        c_fit=c_fit,
        spread=spread,
        fit_window=(lo, hi),
    )


# -- the Z1-vanishing identity -----------------------------------------------------


@dataclass(frozen=True)
class Z1Report:
    """Residuals of the identity (3 rho A0^3)/2 + (rho A0 C0)/2 - 1 = 0.

    A0 = T_star(rho) evaluated through exp(y0 + t(rho)) (the identity the
    source itself uses; the direct series sum converges like N^(-1/2) at the
    singularity and would drown the check), C0 = T_star(rho^2) = exp(u(rho)).
    """

    residuals: dict[int, float]
    values: dict[int, tuple[float, float, float]]  # N -> (rho, A0, C0)

    @property
    def final_residual(self) -> float:
        return self.residuals[max(self.residuals)]


def _z1_residual(x: float, p: FDerivatives) -> float:
    return 1.5 * x * p.E ** 3 + 0.5 * x * p.E * p.W - 1.0


def z1_identity_residual(
    sol: SeriesSystemSolution, sp: SaddlePoint, rho: float | None = None
) -> float:
    """The identity residual at the saddle (or at a perturbed rho)."""
    x = sp.x0 if rho is None else rho
    return _z1_residual(x, eval_F(x, sp.y0, sol))


def check_Z1_vanishes(
    sol: SeriesSystemSolution,
    truncations: tuple[int, ...] = (64, 96, 128),
    tol: float = 1e-13,
    saddle: SaddlePoint | None = None,
) -> Z1Report:
    """Solve the saddle at each truncation; evaluate the identity against
    the reference (full-truncation) series.  ``saddle``, if given, is the
    saddle already solved on ``sol`` itself at ``tol`` and stands for the
    truncation ``sol.truncation``.  An empty ``truncations``, or a
    truncation above ``sol.truncation`` or below ``Z1_MIN_TRUNCATION``,
    raises ValueError before any saddle is solved.

    The residual then measures how far truncation displaces the saddle from
    the true identity.  At truncation N the tails are cut at x^N (t) and
    x^(2N) (u); the cut terms of t shrink like sqrt(rho)^N ~ 0.4^N, so past
    N ~ 32 the effect sits below double precision and the residual bottoms
    out at the Newton tolerance; improvement with N is monotone up to float
    noise (genuinely visible for N below ~30).
    """
    if not truncations:
        raise ValueError("truncations must name at least one truncation")
    for n in truncations:
        if n > sol.truncation:
            raise ValueError(
                f"truncation {n} exceeds the series truncation {sol.truncation}"
            )
        if n < Z1_MIN_TRUNCATION:
            raise ValueError(f"truncation {n} is below {Z1_MIN_TRUNCATION}")
    ref_tails = _tail_series(sol.T_diamond)
    residuals = {}
    values = {}
    for n in truncations:
        if saddle is not None and n == sol.truncation:
            sp = saddle
        else:
            sp = solve_saddle(sol.truncated(n), tol=tol, min_truncation=Z1_MIN_TRUNCATION)
        p = _F(sp.x0, sp.y0, ref_tails)
        residuals[n] = abs(_z1_residual(sp.x0, p))
        values[n] = (sp.x0, p.E, p.W)
    return Z1Report(residuals=residuals, values=values)


# -- one-call summary ----------------------------------------------------------------


def asymptotics_report(sol: SeriesSystemSolution, tol: float = 1e-13) -> dict:
    """The full numeric pipeline as one JSON-ready dictionary."""
    sp = solve_saddle(sol, tol=tol)
    ec = expansion_coeffs(sp, sol)
    n = sol.truncation
    est_T = estimate_constant(sol.T, sp.x0)
    est_G = estimate_constant(sol.G, sp.x0)
    z1 = check_Z1_vanishes(
        sol,
        truncations=tuple(t for t in (64, 96, 128) if t <= n),
        tol=tol,
        saddle=sp,
    )
    return {
        "N": n,
        "rho": sp.x0,
        "rho_inv": 1.0 / sp.x0,
        "y0": sp.y0,
        "residuals": list(sp.residuals),
        "saddle_iterations": sp.iterations,
        "h0": ec.h0,
        "h1": ec.h1,
        "q1": ec.q1,
        "q1_consistent_with_backsubstitution": ec.q1_consistent,
        "x2_coefficient_fit": ec.x2_coefficient_fit,
        "c_T": est_T.c,
        "c_G": est_G.c,
        "c_T_fit": est_T.c_fit,
        "c_G_fit": est_G.c_fit,
        "c_T_spread": est_T.spread,
        "c_G_spread": est_G.spread,
        "fit_window": list(est_T.fit_window),
        "z1_residuals": {str(k): v for k, v in z1.residuals.items()},
    }
