"""Sweep the power-law index and compare against published values.

Each row is one non-iterative solve on the benchmark grid.  The embedded
reference table collects skin-friction values reported in the
literature: the Acrivos-Shah-Petersen column, a Pohlhausen
momentum-integral column, and a transformation-method column this
package regresses against.

Two things are worth noticing in the output.  The Pohlhausen column
cannot be regenerated from the published closed-form formula except
near P = 1 (run the ``pohlhausen`` CLI command for that comparison).
And at P = 1.5 the published transformation-method value 0.398432 is
irreproducible: the curvature reaches zero at eta* ~ 3.68 and stays
there, which pins the asymptotic slope at 2.3172909767 and hence
f''(0) = 0.364774 -- confirmed independently by shooting, and close to
the 0.363215 of Acrivos et al.
"""

from powerlaw_blasius import make_parameter, reference_table, solve

print(f"{'P':>5}  {'f-prime-prime(0)':>16}  {'published':>10}  {'|diff|':>9}")
for row in reference_table():
    result = solve(make_parameter(row.p))
    if row.nonitm is None:
        # P = 0.5: the table has only Acrivos' value, no transform value
        print(f"{row.p:>5}  {result.skin_friction:>16.9f}  {'-':>10}  {'-':>9}   (Acrivos {row.acrivos})")
        continue
    diff = abs(result.skin_friction - row.nonitm)
    flag = "" if diff < 5e-3 else "   <-- published value not reproducible"
    print(f"{row.p:>5}  {result.skin_friction:>16.9f}  {row.nonitm:>10}  {diff:>9.2e}{flag}")
