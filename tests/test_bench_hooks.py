"""The traced benchmark wraps package functions by name; keep those names.

bench/run.py is loaded under a module name of its own, so it cannot clash
with the benchmark's own tests, which import it as `run`.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import qclique

from conftest import HIGHS_BACKEND

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture
def run(monkeypatch):
    # run.py puts bench/ on sys.path; the copy keeps that change local.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("qclique_bench_run_hooks", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_spans_restores_every_patched_attribute(run):
    tracer = run.tracing.Tracer()
    run.install_spans(tracer, qclique)
    patched = list(tracer._patches)
    try:
        names = {(owner.__name__, attr) for owner, attr, _ in patched}
        for name in ("driver", "lazy"):
            assert (f"qclique.{name}", "solve_external") in names
        assert ("qclique.lazy", "build_m1") in names
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


# A static cell reaches the child through driver.solve_external, a lazy one
# through lazy.solve_external: the span around each sits under its caller's.
@pytest.mark.parametrize(
    "mode, caller",
    [(qclique.Connectivity.CFLOW, "dispatch"), (qclique.Connectivity.LAZY, "lazy")],
)
def test_hooked_solve_external_is_on_the_call_path(run, mode, caller):
    tracer = run.tracing.Tracer()
    run.install_spans(tracer, qclique)
    try:
        g = qclique.Graph.build(4, [(0, 1), (1, 2), (2, 3)])
        spec = qclique.ProblemSpec.dks(3, mode=mode)
        cfg = qclique.BackendConfig(HIGHS_BACKEND)
        solution = qclique.driver.solve_problem(g, spec, cfg)
    finally:
        tracer.restore()
    assert solution.status is qclique.SolveStatus.OPTIMAL
    spans = tracer.take()
    backend = [s for s in spans if s.name == "backend"]
    assert backend
    assert all(spans[s.parent].name == caller for s in backend)


def test_grid_ceilings_reach_a_four_argument_wrapper(tmp_path, monkeypatch):
    # The benchmark's grid workload replaces grid.solve_problem with a
    # wrapper of exactly (g, spec, engine, limits), so the ceiling must
    # travel inside Limits.
    calls = []
    dispatch = qclique.grid.solve_problem

    def capture(g, spec, engine, limits):
        calls.append(limits)
        return dispatch(g, spec, engine, limits)

    monkeypatch.setattr(qclique.grid, "solve_problem", capture)
    g = qclique.Graph.build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    spec = qclique.GridSpec(name="toy", family=qclique.Problem.MQC)
    qclique.run_grid(g, spec, tmp_path / "grid.csv")
    assert len(calls) == 91
    assert all(isinstance(limits, qclique.Limits) for limits in calls)
    assert calls[0].ceiling is None
    assert all(limits.ceiling is not None for limits in calls[1:])
