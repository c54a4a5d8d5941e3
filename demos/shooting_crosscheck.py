"""Validating the transformation with an old-fashioned shooting solver.

Shooting brackets the unknown wall curvature and iterates on it until
the far-field slope hits one -- three to eight integrations against the
transformation's single one, all on a coarse grid.  For P <= 1 one more
shot at half the coarse step certifies the root (step doubling); for
P > 1, or when the two coarse grids disagree, chord steps along the
last coarse chord certify it on the fine grid instead, in one to three
shots.  Because the two solvers share nothing but the Runge-Kutta
stepper, agreement is strong evidence the scaling algebra is right.

One subtlety: for P < 1 the curvature decays only algebraically, so the
truncated problem on [0, 10] and the truncated problem on [0, 17] have
measurably different wall curvatures.  A fair comparison shoots on the
same physical domain the transform certified, which is what
``matched_grid`` builds.
"""

from powerlaw_blasius import ShootingConfig, make_parameter, matched_grid, shoot, solve, solve_by_shooting

param = make_parameter(0.3)
result = solve(param)
grid = matched_grid(result)
print(f"physical domain certified by the transform: [0, {grid.endpoint:.6f}]")

print("\nresidual f'(eta_inf) - 1 is monotone in the curvature guess:")
for guess in (0.2, 0.391515, 0.6):
    print(f"  f''(0) guess {guess:<9} -> residual {shoot(param, guess, grid):+.6f}")

config = ShootingConfig(bracket_low=0.05, bracket_high=2.0, grid=grid, residual_tol=1e-10)
root = solve_by_shooting(param, config)
print(f"\nshooting root      : {root:.12f}")
print(f"transform, no loop : {result.skin_friction:.12f}")
print(f"disagreement       : {abs(root - result.skin_friction):.2e}")
