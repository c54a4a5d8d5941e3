"""Record the reference f''(0) values the benchmark checks every op against.

Run once from the repository root, on the commit whose numbers are the
reference, and commit the result:

    python3 perfbench/record_references.py

It writes ``perfbench/references.json`` with one entry per P in each
workload's pool.  Takes about two minutes on one core.
"""

from __future__ import annotations

import json

import harness


def sweep_pool() -> list[float]:
    return [p for p in (round(0.05 + 0.025 * k, 3) for k in range(77)) if p != 0.5]


def auto_pool() -> list[float]:
    return [round(0.6 + 0.02 * k, 2) for k in range(66)]


ORACLE_POOL = [0.1, 0.2, 0.3, 0.4, 0.8, 1.0, 1.5]


def main() -> None:
    pkg, _ = harness.load_package()
    out = {"sweep_fixed": {}, "auto_export": {}, "oracle_validate": {}}
    for p in sweep_pool():
        out["sweep_fixed"][repr(p)] = harness.sweep_op(pkg, p)
    for p in auto_pool():
        # the solve that ``cli.main(["solve", ..., "--eta-inf", "auto"])`` makes,
        # at full precision instead of the CSV's 12 digits
        result = pkg.solve(pkg.make_parameter(p), eta_inf="auto")
        out["auto_export"][repr(p)] = {
            "eta_inf": result.truncated_boundary,
            "skin_friction": result.skin_friction,
        }
    for p in ORACLE_POOL:
        transform, shooting = harness.oracle_op(pkg, p)
        out["oracle_validate"][repr(p)] = {"transform": transform, "shooting": shooting}
    with open(harness.REFERENCES, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
