"""Counting the cactus obstructions: exact series and their growth rate.

The connected count T(x) and the full count G(x) = MSET(T) solve a small
system of functional equations (multisets and unordered pairs of a
leaf-rooted auxiliary series, combined by the dissymmetry relation).  Their
coefficients grow like c * n^(-5/2) * 6.27889^n; the growth rate comes from
a two-equation saddle system and the constants from Richardson-extrapolated
exact coefficients.

Run:  python demos/05_enumeration_and_asymptotics.py   (about a second)
"""

import time

from apexobs import (
    check_Z1_vanishes,
    estimate_constant,
    expansion_coeffs,
    solve_saddle,
    solve_system,
)

t0 = time.time()
sol = solve_system(256)
print(f"series system solved to order 256 in {time.time()-t0:.1f}s")
print("n   :", list(range(11)))
print("t_n :", [int(c) for c in sol.T.coeffs[:11]])
print("g_n :", [int(c) for c in sol.G.coeffs[:11]])

sp = solve_saddle(sol)
print(f"\nsingularity: rho = {sp.x0:.6f}  (growth rate 1/rho = {1/sp.x0:.5f})")
print(f"saddle height y0 = {sp.y0:.6f}, residuals {sp.residuals}")

ec = expansion_coeffs(sp, sol)
print(f"\nsquare-root expansion of the leaf-rooted series:")
print(f"  h0 = {ec.h0:.6f}  h1 = {ec.h1:.6f}")
print(f"  q1 (as printed)  = {ec.q1:.6f}")
print(f"  X^2 coefficient by back-substitution = {ec.x2_coefficient_fit:.6f}"
      f"  -> consistent: {ec.q1_consistent}")

for label, series, printed in (("T", sol.T, 0.27160), ("G", sol.G, 0.33995)):
    est = estimate_constant(series, sp.x0)
    print(f"\n{label}: amplitude c = {est.c:.5f} (printed value {printed}), "
          f"fitted limit of a_n n^(5/2) rho^n = {est.c_fit:.5f}")
    n = est.fit_window[1]
    print(f"   check: a_{n} = {float(series.coeffs[n]):.4e}, "
          f"predicted {est.predict(n):.4e}")

z1 = check_Z1_vanishes(sol)
print("\nX^1 coefficient of T vanishes (identity residuals):",
      {n: f"{r:.1e}" for n, r in z1.residuals.items()})
