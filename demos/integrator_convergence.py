"""Empirical order check of the package's Runge-Kutta scheme.

The 11-stage scheme of Cooper and Verner is embedded as literal
coefficients; nothing stops a typo in a tableau from silently degrading
it to low order, so the order is measured rather than trusted: on
y' = y the endpoint error must shrink by ~2**8 when the step halves.
For contrast, the classical RK4, built here through the public
ButcherTableau, shrinks it by ~2**4.
"""

import math

from powerlaw_blasius import COOPER_VERNER_8, ButcherTableau, GridSpec, integrate

CLASSIC_RK4 = ButcherTableau(
    nodes=(0.0, 1 / 2, 1 / 2, 1.0),
    weights=(1 / 6, 1 / 3, 1 / 3, 1 / 6),
    coupling=((), (1 / 2,), (0, 1 / 2), (0, 0, 1.0)),
    declared_order=4,
)

rhs = lambda t, y: (y[0],)

for tableau, name in ((COOPER_VERNER_8, "Cooper-Verner 8"), (CLASSIC_RK4, "classical RK4")):
    print(f"{name} (declared order {tableau.declared_order}, {tableau.stage_count} stages)")
    previous = None
    for step in (0.1, 0.05, 0.025):
        _, states = integrate(rhs, tableau, GridSpec(step, 1.0), (1.0,))
        error = abs(states[-1, 0] - math.e)
        note = "" if previous is None else f"  ratio {previous / error:7.1f} ~ 2**{math.log2(previous / error):.2f}"
        print(f"  h = {step:<5} error = {error:.3e}{note}")
        previous = error
    print()

print("the 8th-order ratio stays near 256 until the error reaches the")
print("rounding floor; that empirical slope is what the tests pin.")
