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

All series are int-only.  `PowerSeries` carries a tuple of Python ints,
and `mset` is the multiset operator as the Euler transform (Flajolet-
Sedgewick, *Analytic Combinatorics*, 2009, §I.2) with its /m checked exact.
The system (`solve_T_diamond`, `solve_system`) checks every other division
too (the /2 of T_diamond, the /8, /4, /2 of the rooted pieces), so
integrality is proved while the series are computed.  The squares A^2 and
A^4 = (A^2)^2 come from half sums (`_square_coeff`): each cross pair of a
symmetric product is multiplied once and doubled.  T and G come out
with non-negative integer coefficients (checked), growing like 6.279^n.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from operator import mul


class _CheckFailed(ArithmeticError):
    """A computed result failed one of its own checks: a wrong result, not bad
    input.  The CLI exits 1 on it, where a ``ValueError`` exits 2."""


@dataclass(frozen=True)
class PowerSeries:
    """A formal power series with int coefficients, truncated at a fixed order.

    coeffs[i] is the coefficient of x^i; len(coeffs) == truncation + 1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        """The coefficient of x^n, for n in 0..truncation."""
        if not 0 <= n <= self.truncation:
            raise IndexError(f"index {n} outside 0..{self.truncation} (the truncation)")
        return self.coeffs[n]

    def truncate(self, truncation: int) -> PowerSeries:
        if truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {truncation}")
        if truncation > self.truncation:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: truncation + 1])

    def integer_coeffs(self) -> tuple[int, ...]:
        for i, c in enumerate(self.coeffs):
            if not isinstance(c, int):
                raise _CheckFailed(f"coefficient of x^{i} is not an integer: {c}")
        return tuple(self.coeffs)


# -- the functional-equation system -------------------------------------------


def _exact_div(num: int, den: int, what: str, n: int) -> int:
    """num / den, raising if it is not an integer (the system's integrality proof)."""
    quo, rem = divmod(num, den)
    if rem:
        raise _CheckFailed(f"{what}: coefficient of x^{n} is {num}/{den}, not an integer")
    return quo


def _square_coeff(a: list[int], m: int) -> int:
    """[x^m] A(x)^2 from a[0..m]: 2 sum_{i<m/2} a_i a_{m-i}, plus a_{m/2}^2
    for even m, so each cross pair is multiplied once."""
    h = (m + 1) // 2
    s = 2 * sum(map(mul, a[:h], a[m : m - h : -1]))
    if m % 2 == 0:
        s += a[h] * a[h]
    return s


def _add_divisor_terms(s: list[int], q: int, b_q: int) -> None:
    """Add q*b_q to s[m] for every multiple m of q: s[m] = sum_{q|m} q*b_q."""
    if b_q:
        for m in range(q, len(s), q):
            s[m] += q * b_q


def mset(a: PowerSeries) -> PowerSeries:
    """MSET(A) = exp(sum_{k>=1} A(x^k)/k) by the Euler transform
    m*M_m = sum_{j=1..m} (sum_{q|j} q*a_q) * M_{m-j}, each /m checked exact."""
    b = a.coeffs
    if b[0]:
        raise ValueError("mset needs zero constant term")
    n = len(b) - 1
    s = [0] * (n + 1)
    for q in range(1, n + 1):
        _add_divisor_terms(s, q, b[q])
    out = [1] + [0] * n
    for m in range(1, n + 1):
        out[m] = _exact_div(sum(map(mul, s[1 : m + 1], out[m - 1 :: -1])), m, "MSET", m)
    return PowerSeries(tuple(out))


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
    d, a, _ = _solve_T_diamond(truncation)
    return PowerSeries(tuple(d)), PowerSeries(tuple(a))


def _solve_T_diamond(truncation: int) -> tuple[list[int], list[int], list[int]]:
    """`solve_T_diamond` as coefficient lists, with the A^2 its recurrence
    builds (to x^(truncation-1))."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    n = truncation
    d = [0] * (n + 1)   # T_diamond
    a = [0] * (n + 1)   # T_star
    a[0] = 1
    a2 = [0] * n        # running A^2
    s = [0] * (n + 1)   # s[m] = sum_{q|m} q*d[q], the Euler transform's weights
    for m in range(1, n + 1):
        p = m - 1
        rev = a[p::-1]  # a[p], ..., a[0]
        a2[p] = _square_coeff(a, p)
        a3 = sum(map(mul, a2[:m], rev))
        aax2 = sum(map(mul, a[: p // 2 + 1], a[p::-2]))  # [x^p] A(x) A(x^2)
        d[m] = _exact_div(a3 + aax2, 2, "T_diamond", m)
        _add_divisor_terms(s, m, d[m])
        a[m] = _exact_div(sum(map(mul, s[1 : m + 1], rev)), m, "T_star", m)
    return d, a, a2


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
        if truncation == self.truncation:
            return self  # frozen, so sharing it (and its tails) is safe
        return SeriesSystemSolution(
            *(getattr(self, f.name).truncate(truncation) for f in fields(self))
        )

    @cached_property
    def _tail_terms(self) -> tuple[list, list]:
        """`asymptotics._tail_series` of T_diamond, built on first use and
        kept on this solution: every call on it shares them, and they are
        freed with it."""
        from .asymptotics import _tail_series

        return _tail_series(self.T_diamond)


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
    d, a, a2 = _solve_T_diamond(truncation)
    n = truncation
    # the rooted pieces are x * (...), so every numerator stops at x^(n-1)
    q = [0] * n
    q[::4] = a[: (n - 1) // 4 + 1]   # A(x^4)
    c2 = [0] * n
    c2[::2] = a2[: (n - 1) // 2 + 1]  # A(x^2)^2 is A^2 at x^2
    a4 = [_square_coeff(a2, m) for m in range(n)]
    # [x^m] A^2 A(x^2) = sum_j a2[m - 2j] a[j]
    a2c = [sum(map(mul, a[: m // 2 + 1], a2[m::-2])) for m in range(n)]

    def rooted(numerator: list[int], den: int, what: str) -> list[int]:
        # x * numerator / den
        return [0] + [_exact_div(v, den, what, i + 1) for i, v in enumerate(numerator)]

    t_circ = [0] + a[1:]
    t_square = rooted([w + 2 * y + 3 * z + 2 * u for w, y, z, u in zip(a4, a2c, c2, q)],
                      8, "T_square")
    t_triangle = rooted([w + 2 * y + z for w, y, z in zip(a4, a2c, c2)], 4, "T_triangle")
    t_tri_to_circ = rooted([w + y for w, y in zip(a4, a2c)], 2, "T_tri_to_circ")
    t = PowerSeries(
        tuple(ci + sq - tc for ci, sq, tc in zip(t_circ, t_square, t_tri_to_circ))
    )
    g = mset(t)
    for name, series in (("T", t), ("G", g)):
        if any(v < 0 for v in series.coeffs):
            raise _CheckFailed(f"{name} has a negative coefficient")
    return SeriesSystemSolution(
        T_diamond=PowerSeries(tuple(d)),
        T_star=PowerSeries(tuple(a)),
        T_circ=PowerSeries(tuple(t_circ)),
        T_square=PowerSeries(tuple(t_square)),
        T_triangle=PowerSeries(tuple(t_triangle)),
        T_tri_to_circ=PowerSeries(tuple(t_tri_to_circ)),
        T=t,
        G=g,
    )


def coefficient_table(sol: SeriesSystemSolution, up_to: int | None = None) -> list[tuple[int, int, int]]:
    """Rows (n, t_n, g_n) of exact integers, n up to ``up_to`` (>= 0)."""
    if up_to is not None and up_to < 0:
        raise ValueError(f"up_to must be non-negative, got {up_to}")
    hi = sol.truncation if up_to is None else min(up_to, sol.truncation)
    t = sol.T.integer_coeffs()
    g = sol.G.integer_coeffs()
    return [(n, t[n], g[n]) for n in range(hi + 1)]
