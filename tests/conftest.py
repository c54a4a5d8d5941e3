import pytest

from powerlaw_blasius import make_parameter, model, runge_kutta, solve


def stepping(param):
    """``ivp_rhs(param)`` without its absorbing test, so ``integrate`` steps every row."""
    rhs = model.ivp_rhs(param)
    del rhs.absorbing
    return rhs


@pytest.fixture(scope="session")
def solve_cached():
    """Memoized transform solves; several test modules share the slow runs."""
    cache = {}

    def get(p, **kwargs):
        key = (p, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = solve(make_parameter(p), **kwargs)
        return cache[key]

    return get


@pytest.fixture
def stepped_rows(monkeypatch):
    """``count(module, run)``: the rows ``run()`` steps in its calls of ``module.integrate``,
    that is the rows of those calls less the rows filled past an absorbing state."""

    def count(module, run):
        calls, filled = [], []
        real_integrate, real_fill = module.integrate, runge_kutta._constant_rows

        def counting(rhs, tableau, grid, y0):
            calls.append(grid.step_count)
            return real_integrate(rhs, tableau, grid, y0)

        def filling(tableau, h, k, rows, r=0):
            filled.append(len(rows) - 1)
            real_fill(tableau, h, k, rows, r)

        monkeypatch.setattr(module, "integrate", counting)
        monkeypatch.setattr(runge_kutta, "_constant_rows", filling)
        run()
        return sum(calls) - sum(filled)

    return count
