"""How one starred integration turns into the physical solution.

For a shear-thinning index (P = 0.3 here) the group parameter lambda
comes out below one and the scaling exponent delta = 4.25 is positive,
so the physical domain is a stretched image of the starred one:
integrating to eta* = 10 delivers the solution out to eta ~ 17.  That
asymmetry is the computational point of the method -- the short grid is
the one you pay for.

Writes both profiles as CSV next to this script and, when matplotlib is
importable, a two-panel figure of (f', f'') in each frame.
"""

from pathlib import Path

from powerlaw_blasius import cli, make_parameter, solve

here = Path(__file__).resolve().parent
result = solve(make_parameter(0.3), step=0.001, eta_inf=10.0)

print(f"lambda = {result.lam:.9f} (< 1), delta = {result.param.delta}")
print(f"starred domain : [0, {result.starred.abscissae[-1]:g}]")
print(f"physical domain: [0, {result.physical.abscissae[-1]:.6f}]")
print(f"wall shear f''(0) = {result.skin_friction:.9f}")

# the CLI exports the same solve as p03_starred.csv and p03_physical.csv
cli.main(["solve", "--p", "0.3", "--step", "0.001", "--eta-inf", "10", "--out", str(here / "p03")])

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, (top, bottom) = plt.subplots(2, 1, figsize=(8, 9), sharex=True)
    top.plot(result.starred.abscissae, result.starred.df, label="df*/deta*")
    top.plot(result.starred.abscissae, result.starred.d2f, label="d2f*/deta*2")
    top.set_title("starred variables (what gets integrated)")
    top.legend()
    bottom.plot(result.physical.abscissae, result.physical.df, label="df/deta")
    bottom.plot(result.physical.abscissae, result.physical.d2f, label="d2f/deta2")
    bottom.set_title("physical variables (after rescaling)")
    bottom.set_xlabel("eta* resp. eta")
    bottom.legend()
    out = here / "p03_profiles.png"
    fig.savefig(out, dpi=120)
    print(f"wrote {out}")
