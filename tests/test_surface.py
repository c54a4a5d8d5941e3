"""The package's public names, and the attributes the benchmark's tracer wraps."""

import powerlaw_blasius
from powerlaw_blasius import cli, shooting, transform

PUBLIC = [
    "BlowUpError", "BoundaryLayerError", "BracketError", "ButcherTableau", "CLASSIC_RK4",
    "COOPER_VERNER_8", "ConvergenceError", "CurvatureError", "DomainError", "GridSpec",
    "ModelParameter", "NoPlateauError", "ReferenceRow", "ShootingConfig", "ShotDivergedError",
    "SolutionProfile", "TransformResult", "find_truncated_boundary", "integrate",
    "integrate_starred", "make_parameter", "matched_grid", "pohlhausen_skin_friction",
    "recover_lambda", "reference_table", "rescale_profile", "shoot", "solve", "solve_by_shooting",
]

#: perfbench/tracing.py looks these up by name; one that is renamed or
#: gone drops out of the trace with no error, only a "missing" entry.
TRACED = {
    cli: ["main", "solve", "make_parameter", "_write_profile_csv"],
    transform: ["integrate", "integrate_starred", "find_truncated_boundary", "rescale_profile", "SolutionProfile"],
    shooting: ["integrate", "shoot"],
    powerlaw_blasius: [
        "COOPER_VERNER_8", "CLASSIC_RK4", "ShootingConfig", "make_parameter", "matched_grid", "solve",
        "solve_by_shooting",
    ],
}


def test_public_names_and_traced_attributes():
    assert sorted(powerlaw_blasius.__all__) == sorted(PUBLIC)
    missing = [f"{module.__name__}.{name}" for module, names in TRACED.items() for name in names
               if not hasattr(module, name)]
    assert missing == []
