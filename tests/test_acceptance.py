"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict
line per criterion.  Two checks fail deliberately and are kept failing:
both trace to the shear-thickening row P = 1.5, where the curvature has
compact support (it reaches zero at a finite station).  First, the
published reference value 0.398432 there is not reproducible from the
stated procedure on any defensible variant we tried -- this package and
its independent shooting oracle agree on 0.364774 to 2.7e-12, close
to the 0.363215 of Acrivos, Shah & Petersen.  Second, a
centered-difference residual cannot stay below 1e-5 across the
touchdown kink at step 1e-3 no matter how accurate the integration is;
the error of the difference stencil itself is O(step) there.
"""

import re
import time

import numpy as np

from powerlaw_blasius import (
    COOPER_VERNER_8,
    GridSpec,
    ShootingConfig,
    integrate,
    matched_grid,
    pohlhausen_skin_friction,
    solve_by_shooting,
)
from powerlaw_blasius.cli import main

BLASIUS_SKIN = 0.332057336215

#: Published transform-method column: (P, reference value, tolerance).
TABLE_REGRESSION = (
    (0.05, 1.540752, 5e-3),
    (0.1, 0.826478, 5e-4),
    (0.2, 0.490342, 5e-4),
    (0.3, 0.391515, 5e-4),
    (0.4, 0.350396, 5e-4),
    (0.6, 0.3239457, 5e-4),
    (0.7, 0.3220337, 5e-4),
    (0.8, 0.323544, 5e-4),
    (0.9, 0.327139, 5e-4),
    (1.5, 0.398432, 5e-4),
)

ORACLE_P = (0.1, 0.2, 0.3, 0.4, 0.8, 1.0, 1.5)


def _verdict(number: int, ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {label}{suffix}")


def test_criterion_1_newtonian_benchmark(capsys, solve_cached):
    start = time.perf_counter()
    code = main(["solve", "--p", "1", "--step", "0.001", "--eta-inf", "10"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    printed = float(re.search(r"skin friction\s+= ([0-9.eE+-]+)", out).group(1))
    exact = solve_cached(1.0).skin_friction
    ok = (
        code == 0
        and abs(printed - BLASIUS_SKIN) <= 1e-8
        and abs(exact - BLASIUS_SKIN) <= 1e-8
        and elapsed < 1.0
    )
    with capsys.disabled():
        _verdict(1, ok, "solve --p 1 reproduces 0.332057336215 within 1e-8",
                 f"got {exact!r} in {elapsed:.2f}s")
    assert abs(exact - BLASIUS_SKIN) <= 1e-8
    assert code == 0
    assert elapsed < 1.0


def test_criterion_2_table_regression(capsys):
    start = time.perf_counter()
    code = main(["table"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    computed = {}
    for line in out.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 8:
            try:
                computed[float(fields[0])] = float(fields[5])
            except ValueError:
                continue
    misses = []
    for p, reference, tol in TABLE_REGRESSION:
        diff = abs(computed[p] - reference)
        if diff > tol:
            misses.append(f"P={p}: |{computed[p]:.9g} - {reference}| = {diff:.2e} > {tol:g}")
    ok = not misses and elapsed < 30.0
    with capsys.disabled():
        _verdict(2, ok, "published-table regression, full sweep under 30 s",
                 f"{elapsed:.1f}s" + ("; " + "; ".join(misses) if misses else ""))
    assert elapsed < 30.0
    assert not misses, (
        "published transform-method column not reproduced: "
        + "; ".join(misses)
        + " -- the P=1.5 entry is a known defect of the published table; the "
        "shooting oracle confirms this package's value (see module docstring)"
    )


def test_criterion_3_pohlhausen_formula(capsys):
    value = pohlhausen_skin_friction(1.0)
    agrees_at_one = abs(value - 0.32321) <= 5e-6 and abs(value - 0.323) <= 5e-4
    # elsewhere the printed formula disagrees with its published column,
    # which is expected and reported rather than fixed
    disagreement = abs(pohlhausen_skin_friction(0.05) - 0.214892)
    ok = agrees_at_one and disagreement > 0.1
    with capsys.disabled():
        _verdict(3, ok, "closed-form estimate: 0.32321 at P=1, reported mismatch elsewhere",
                 f"P=1 -> {value:.6f}; P=0.05 deviates by {disagreement:.3f}")
    assert agrees_at_one
    assert disagreement > 0.1


def test_criterion_4_recovery_exponent_sign(capsys, solve_cached):
    result = solve_cached(1.0)
    slope = result.starred_slope_at_infinity
    relative = abs(result.skin_friction - slope**-1.5) / (slope**-1.5)
    wrong_lambda = slope ** (1.0 / (result.param.delta - 1.0))
    wrong_skin = wrong_lambda ** (2.0 * result.param.delta - 1.0)
    ok = relative <= 1e-12 and abs(wrong_skin - 3.01) < 0.01 and abs(result.skin_friction - wrong_skin) > 1.0
    with capsys.disabled():
        _verdict(4, ok, "skin = slope**(-3/2) at P=1; sign-flipped exponent rejected",
                 f"relative error {relative:.2e}; flipped exponent would give {wrong_skin:.4f}")
    assert relative <= 1e-12
    assert abs(result.skin_friction - wrong_skin) > 1.0


def test_criterion_5_oracle_equivalence(capsys, solve_cached):
    worst = 0.0
    rows = []
    for p in ORACLE_P:
        result = solve_cached(p)
        config = ShootingConfig(0.05, 2.5, grid=matched_grid(result), residual_tol=1e-10)
        shot = solve_by_shooting(result.param, config)
        diff = abs(result.skin_friction - shot)
        worst = max(worst, diff)
        rows.append((p, diff))
    ok = worst <= 1e-6
    with capsys.disabled():
        _verdict(5, ok, "transform and shooting agree within 1e-6 on seven indices",
                 f"worst |diff| = {worst:.2e}")
    assert worst <= 1e-6, rows


def test_criterion_6_order_of_convergence(capsys):
    rhs = lambda t, y: (y[0],)
    exact = np.e
    coarse = abs(integrate(rhs, COOPER_VERNER_8, GridSpec(0.1, 1.0), (1.0,))[1][-1, 0] - exact)
    fine = abs(integrate(rhs, COOPER_VERNER_8, GridSpec(0.05, 1.0), (1.0,))[1][-1, 0] - exact)
    ratio = coarse / fine
    ok = ratio >= 2.0**7.5
    with capsys.disabled():
        _verdict(6, ok, "halving the step cuts the error by at least 2**7.5",
                 f"ratio {ratio:.1f} vs bound {2.0**7.5:.1f}")
    assert ratio >= 2.0**7.5


def test_criterion_7_invariant_suite(capsys, solve_cached):
    failures = []
    for p, _, _ in TABLE_REGRESSION:
        result = solve_cached(p)
        d = result.param.delta
        slope = result.starred_slope_at_infinity
        expected_lam = slope ** (1.0 / (1.0 - d))
        if abs(result.lam - expected_lam) > 1e-12 * expected_lam:
            failures.append(f"P={p}: lambda identity")
        if abs(result.skin_friction * slope ** (3.0 / (p + 1.0)) - 1.0) > 1e-10:
            failures.append(f"P={p}: lambda elimination identity")
        phys = result.physical
        if phys.f[0] != 0.0 or phys.df[0] != 0.0 or abs(phys.df[-1] - 1.0) > 1e-6:
            failures.append(f"P={p}: boundary conditions")
        if np.diff(result.starred.df).min() < -1e-10 or np.diff(result.starred.d2f).max() > 1e-10:
            failures.append(f"P={p}: starred monotonicity")
        h = phys.spacing
        d3f = (phys.d2f[2:] - phys.d2f[:-2]) / (2.0 * h)
        residual = np.abs(p * (p + 1.0) * d3f + phys.f[1:-1] * phys.d2f[1:-1] ** (2.0 - p)).max()
        if residual > 1e-5:
            failures.append(f"P={p}: residual {residual:.2e} > 1e-5")
    ok = not failures
    with capsys.disabled():
        _verdict(7, ok, "transform invariants across the published sweep",
                 "; ".join(failures) if failures else "all identities hold")
    assert not failures, (
        "; ".join(failures)
        + " -- the P=1.5 residual is a property of differencing across the "
        "compact-support touchdown, not of the solution (see module docstring)"
    )


def test_criterion_8_domain_extends_beyond_truncation(capsys, solve_cached):
    result = solve_cached(0.3)
    final = float(result.physical.abscissae[-1])
    ok = final > 10.0
    with capsys.disabled():
        _verdict(8, ok, "P=0.3 physical domain reaches past the starred boundary 10",
                 f"eta_inf = {final:.6f}")
    assert final > 10.0
