"""Truncated power series, and the functional-equation system counting
butterfly-cacti.

The counting goes through a tree encoding: a connected cactus obstruction
with k butterflies corresponds to a tree with three vertex types (square
vertices for butterfly centers, triangle vertices for the two triangles of
each butterfly, circle vertices for the remaining graph vertices), with
size = number of square vertices.  Rooting the trees in the various ways,
translating multisets with the usual exp(sum B(x^k)/k) operator and
unordered pairs with (B(x)^2 + B(x^2))/2, and combining through the
dissymmetry relation (unrooted = vertex-rooted + edge-rooted - oriented-
edge-rooted) yields the unrooted count series T(x); the full (possibly
disconnected) count is G(x) = MSET(T).

`PowerSeries` and its operators (`mset`, `series_exp`, `mset2`) work on
exact rational coefficients.  The system itself (`solve_T_diamond`,
`solve_system`) runs on Python ints: every division in it (the /2 of
T_diamond, the /m of the Euler transform, the /8, /4, /2 of the rooted
pieces) is checked to be exact, so integrality is proved while the series
are computed.  T and G come out with non-negative integer coefficients
(checked), growing like 6.279^n.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from operator import mul
from typing import Iterable, Union

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class PowerSeries:
    """A formal power series truncated at a fixed order.

    coeffs[i] is the coefficient of x^i; len(coeffs) == truncation + 1.
    Binary operations require equal truncation orders.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_coeffs(values: Iterable[Rational], truncation: int | None = None) -> PowerSeries:
        cs = [Fraction(v) for v in values]
        if truncation is not None:
            cs = (cs + [Fraction(0)] * (truncation + 1))[: truncation + 1]
        return PowerSeries(tuple(cs))

    @staticmethod
    def zero(truncation: int) -> PowerSeries:
        return PowerSeries((Fraction(0),) * (truncation + 1))

    @staticmethod
    def one(truncation: int) -> PowerSeries:
        return PowerSeries((Fraction(1),) + (Fraction(0),) * truncation)

    @staticmethod
    def x(truncation: int) -> PowerSeries:
        if truncation < 1:
            raise ValueError("truncation must be >= 1 for the atom series")
        return PowerSeries.from_coeffs([0, 1], truncation)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def _check(self, other: PowerSeries) -> None:
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: PowerSeries) -> PowerSeries:
        self._check(other)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        self._check(other)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: PowerSeries) -> PowerSeries:
        self._check(other)
        n = self.truncation
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return PowerSeries(tuple(out))

    def scale(self, factor: Rational) -> PowerSeries:
        f = Fraction(factor)
        return PowerSeries(tuple(f * a for a in self.coeffs))

    def shift(self, k: int = 1) -> PowerSeries:
        """Multiply by x^k (truncated)."""
        if k < 0:
            raise ValueError("negative shift")
        return PowerSeries((Fraction(0),) * k + self.coeffs[: self.truncation + 1 - k])

    def truncate(self, truncation: int) -> PowerSeries:
        if truncation > self.truncation:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: truncation + 1])

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def integer_coeffs(self) -> tuple[int, ...]:
        if not self.is_integral():
            bad = next(i for i, c in enumerate(self.coeffs) if c.denominator != 1)
            raise ValueError(f"coefficient of x^{bad} is not an integer: {self.coeffs[bad]}")
        return tuple(int(c) for c in self.coeffs)


def substitute_power(a: PowerSeries, k: int) -> PowerSeries:
    """A(x^k): coefficient j of the input lands at exponent j*k."""
    if k < 1:
        raise ValueError("substitution power must be >= 1")
    n = a.truncation
    out = [Fraction(0)] * (n + 1)
    for j in range(n // k + 1):
        out[j * k] = a.coeffs[j]
    return PowerSeries(tuple(out))


def series_exp(a: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term, by the B' = A'B recurrence."""
    if a.coeffs[0] != 0:
        raise ValueError("series_exp needs zero constant term")
    n = a.truncation
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if a.coeffs[j]:
                acc += j * a.coeffs[j] * out[m - j]
        out[m] = acc / m
    return PowerSeries(tuple(out))


def _mset_log(a: PowerSeries) -> PowerSeries:
    """sum_{k>=1} A(x^k)/k, the exponent of the multiset operator."""
    n = a.truncation
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for d in range(1, m + 1):
            if m % d == 0 and a.coeffs[d]:
                acc += Fraction(a.coeffs[d], m // d)
        out[m] = acc
    return PowerSeries(tuple(out))


def mset(a: PowerSeries) -> PowerSeries:
    """Multiset construction: exp(sum_{k>=1} A(x^k)/k)."""
    if a.coeffs[0] != 0:
        raise ValueError("mset needs zero constant term")
    return series_exp(_mset_log(a))


def mset2(a: PowerSeries) -> PowerSeries:
    """Unordered pairs: (A(x)^2 + A(x^2))/2."""
    return (a * a + substitute_power(a, 2)).scale(Fraction(1, 2))


# -- the functional-equation system -------------------------------------------


def _exact_div(num: int, den: int, what: str, n: int) -> int:
    """num / den, raising if it is not an integer (the system's integrality proof)."""
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{what}: coefficient of x^{n} is {num}/{den}, not an integer")
    return quo


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Truncated product of two integer coefficient lists of equal length."""
    return [sum(map(mul, a[: m + 1], b[m::-1])) for m in range(len(a))]


def _add_divisor_terms(s: list[int], q: int, b_q: int) -> None:
    """Add q*b_q to s[m] for every multiple m of q: s[m] = sum_{q|m} q*b_q."""
    if b_q:
        for m in range(q, len(s), q):
            s[m] += q * b_q


def _int_mset(b: list[int]) -> list[int]:
    """MSET of an integer series by the Euler transform
    m*M_m = sum_{j=1..m} (sum_{q|j} q*b_q) * M_{m-j}, each /m checked exact."""
    if b[0]:
        raise ValueError("mset needs zero constant term")
    n = len(b) - 1
    s = [0] * (n + 1)
    for q in range(1, n + 1):
        _add_divisor_terms(s, q, b[q])
    out = [1] + [0] * n
    for m in range(1, n + 1):
        out[m] = _exact_div(sum(map(mul, s[1 : m + 1], out[m - 1 :: -1])), m, "MSET", m)
    return out


def solve_T_diamond(truncation: int) -> tuple[PowerSeries, PowerSeries]:
    """Solve the leaf-rooted tree equation; returns (T_diamond, T_star).

    With A = T_star = MSET(T_diamond), the equation collapses to
        T_diamond = (x/2) * (A(x)^3 + A(x)*A(x^2)),
    since exp(2*sum T(x^k)/k) = A(x)^2 and exp(sum T(x^(2k))/k) = A(x^2).
    The unique fixed point with zero constant term is computed order by
    order: each new coefficient depends only on lower-order ones, which is
    the same sequence naive re-iteration from 0 stabilizes to, one order per
    round.  A is extended by the Euler transform as each coefficient of
    T_diamond appears; both come out as ints.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    n = truncation
    d = [0] * (n + 1)   # T_diamond
    a = [0] * (n + 1)   # T_star
    a[0] = 1
    a2 = [0] * (n + 1)  # running A^2
    s = [0] * (n + 1)   # s[m] = sum_{q|m} q*d[q], the Euler transform's weights
    for m in range(1, n + 1):
        p = m - 1
        rev = a[p::-1]  # a[p], ..., a[0]
        a2[p] = sum(map(mul, a[:m], rev))
        a3 = sum(map(mul, a2[:m], rev))
        aax2 = sum(map(mul, a[: p // 2 + 1], a[p::-2]))  # [x^p] A(x) A(x^2)
        d[m] = _exact_div(a3 + aax2, 2, "T_diamond", m)
        _add_divisor_terms(s, m, d[m])
        a[m] = _exact_div(sum(map(mul, s[1 : m + 1], rev)), m, "T_star", m)
    return PowerSeries(tuple(d)), PowerSeries(tuple(a))


@dataclass(frozen=True)
class SeriesSystemSolution:
    """All series of the tree system at one truncation order.

    The coefficients are ints.  T_triangle also counts the trees rooted at
    a square-to-triangle edge (each triangle node has exactly one square
    neighbour), so the dissymmetry sum holds no separate field for them.
    """

    T_diamond: PowerSeries
    T_star: PowerSeries
    T_circ: PowerSeries
    T_square: PowerSeries
    T_triangle: PowerSeries
    T_tri_to_circ: PowerSeries
    T: PowerSeries
    G: PowerSeries

    @property
    def truncation(self) -> int:
        return self.T.truncation

    def truncated(self, truncation: int) -> SeriesSystemSolution:
        return SeriesSystemSolution(
            *(getattr(self, f.name).truncate(truncation) for f in fields(self))
        )


def solve_system(truncation: int) -> SeriesSystemSolution:
    """Evaluate the rooted series, combine by dissymmetry, and count multisets.

    With A = T_star, C = A(x^2) and Q = A(x^4), the rooted pieces are
        T_circ      = A - 1,
        T_square    = x (A^4 + 2 A^2 C + 3 C^2 + 2 Q) / 8,
        T_triangle  = x (A^4 + 2 A^2 C + C^2) / 4  (= T_sq_to_tri),
        T_tri_to_circ = x (A^4 + A^2 C) / 2,
    and T = T_square + T_triangle + T_circ - T_sq_to_tri - T_tri_to_circ
          = T_circ + T_square - T_tri_to_circ;  G = MSET(T).
    Every division is checked exact, and T and G must have non-negative
    coefficients (they count graphs); a failure of either raises, nothing
    is rounded.
    """
    d, star = solve_T_diamond(truncation)
    n = truncation
    a = list(star.coeffs)
    c = [0] * (n + 1)
    c[::2] = a[: n // 2 + 1]   # A(x^2)
    q = [0] * (n + 1)
    q[::4] = a[: n // 4 + 1]   # A(x^4)
    a2 = _int_mul(a, a)
    a4 = _int_mul(a2, a2)
    a2c = _int_mul(a2, c)
    c2 = _int_mul(c, c)

    def rooted(numerator: list[int], den: int, what: str) -> list[int]:
        # x * numerator / den, truncated
        return [0] + [_exact_div(v, den, what, i + 1) for i, v in enumerate(numerator[:n])]

    t_circ = [0] + a[1:]
    t_square = rooted([w + 2 * y + 3 * z + 2 * u for w, y, z, u in zip(a4, a2c, c2, q)],
                      8, "T_square")
    t_triangle = rooted([w + 2 * y + z for w, y, z in zip(a4, a2c, c2)], 4, "T_triangle")
    t_tri_to_circ = rooted([w + y for w, y in zip(a4, a2c)], 2, "T_tri_to_circ")
    t = [ci + sq - tc for ci, sq, tc in zip(t_circ, t_square, t_tri_to_circ)]
    g = _int_mset(t)
    for name, ints in (("T", t), ("G", g)):
        if any(v < 0 for v in ints):
            raise AssertionError(f"{name} has a negative coefficient")
    return SeriesSystemSolution(
        T_diamond=d,
        T_star=star,
        T_circ=PowerSeries(tuple(t_circ)),
        T_square=PowerSeries(tuple(t_square)),
        T_triangle=PowerSeries(tuple(t_triangle)),
        T_tri_to_circ=PowerSeries(tuple(t_tri_to_circ)),
        T=PowerSeries(tuple(t)),
        G=PowerSeries(tuple(g)),
    )


def coefficient_table(sol: SeriesSystemSolution, up_to: int | None = None) -> list[tuple[int, int, int]]:
    """Rows (n, t_n, g_n) of exact integers."""
    hi = sol.truncation if up_to is None else min(up_to, sol.truncation)
    t = sol.T.integer_coeffs()
    g = sol.G.integer_coeffs()
    return [(n, t[n], g[n]) for n in range(hi + 1)]
