"""The traced benchmark wraps package functions by name; keep those names.

bench/run.py is loaded under a module name of its own, so it cannot clash
with the benchmark's own tests, which import it as `run`.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import qclique

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_install_spans_restores_every_patched_attribute(monkeypatch):
    # run.py puts bench/ on sys.path; the copy keeps that change local.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("qclique_bench_run_hooks", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

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
