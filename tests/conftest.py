from __future__ import annotations

import pytest
from hypothesis import settings

import squigonometry as sg
from squigonometry import series

# Selected with --hypothesis-profile=ci: the same examples on every run, and
# a failure prints the blob that replays it.
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(scope="session")
def ctx2() -> sg.EvalContext:
    return sg.build_context(2)


@pytest.fixture(scope="session")
def ctx3() -> sg.EvalContext:
    return sg.build_context(3)


@pytest.fixture(scope="session")
def ctx4() -> sg.EvalContext:
    return sg.build_context(4)


@pytest.fixture(scope="session")
def pi4() -> sg.PiRecord:
    return sg.compute_pi(4)


@pytest.fixture
def watch_evaluators(monkeypatch):
    """watch(ctx) logs each call of ctx's evaluators as (name, t) in the list it returns."""
    def watch(ctx: sg.EvalContext) -> list:
        calls = []
        real = ctx.evaluators

        def counting(name, f):
            def evaluator(t):
                calls.append((name, t))
                return f(t)
            return evaluator

        monkeypatch.setitem(vars(ctx), "evaluators", type(real)(
            **{name: counting(name, f) for name, f in vars(real).items()}
        ))
        return calls
    return watch


@pytest.fixture
def node_values(monkeypatch) -> list:
    """(t0, (x0, y0, G_0, H_0)) of each node the test makes, in 128-bit fixed point, as series makes them."""
    made = []
    real = series._node_values

    def recording(p, t0, start):
        made.append((t0, values := real(p, t0, start)))
        return values

    monkeypatch.setattr(series, "_node_values", recording)
    return made
