"""The package's public names, and the attributes the benchmark's tracer wraps."""

import powerlaw_blasius
from powerlaw_blasius import cli, errors, model, runge_kutta, shooting, transform

PUBLIC = [
    "BlowUpError", "BoundaryLayerError", "BracketError", "ButcherTableau", "COOPER_VERNER_8",
    "ConvergenceError", "CurvatureError", "DomainError", "GridSpec", "ModelParameter",
    "NoPlateauError", "ReferenceRow", "ShootingConfig", "ShotDivergedError", "SolutionProfile",
    "TransformResult", "find_truncated_boundary", "integrate", "integrate_starred", "make_parameter",
    "matched_grid", "pohlhausen_skin_friction", "reference_table", "rescale_profile",
    "shoot", "solve", "solve_by_shooting",
]

#: perfbench/tracing.py looks these up by name; one that is renamed or
#: gone drops out of the trace with no error, only a "missing" entry.
#: It also reads ``CLASSIC_RK4`` to label a non-CV8 ``integrate`` call,
#: but only for such a call, and no solver makes one.
TRACED = {
    cli: ["main", "solve", "make_parameter", "_write_profile_csv"],
    transform: ["integrate", "integrate_starred", "find_truncated_boundary", "rescale_profile", "SolutionProfile"],
    shooting: ["integrate", "shoot"],
    powerlaw_blasius: [
        "COOPER_VERNER_8", "ShootingConfig", "make_parameter", "matched_grid", "solve", "solve_by_shooting",
    ],
}

MODULES = [errors, model, runge_kutta, shooting, transform]


def test_public_names_and_traced_attributes():
    assert sorted(powerlaw_blasius.__all__) == sorted(PUBLIC)
    missing = [f"{module.__name__}.{name}" for module, names in TRACED.items() for name in names
               if not hasattr(module, name)]
    assert missing == []


def test_surface_is_declared_once_in_the_modules():
    declared = [name for module in MODULES for name in module.__all__]
    assert powerlaw_blasius.__all__ == declared
    assert len(set(declared)) == len(declared)
    assert [name for module in MODULES for name in module.__all__
            if getattr(powerlaw_blasius, name) is not getattr(module, name)] == []


def test_no_classical_rk4_in_the_package():
    assert not hasattr(runge_kutta, "CLASSIC_RK4")
