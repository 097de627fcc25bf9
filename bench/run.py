#!/usr/bin/env python3
"""Benchmark for qclique: whole rounds of solver cells, timed and checked.

    python3 bench/run.py --workload grid-bnb --seed 1 --seconds 30 --trace 0

The package is imported from src/ next to this directory. The run times
the package's import in fresh interpreters and sets its workload up several
times (instance, parse, largest component and one warm-up cell each time),
then repeats whole rounds of the workload's cells until --seconds have
passed. Every answer is checked by checker.py, which does not use qclique.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 rounds
alternate between untraced and traced, and the metrics are per layer, taken
from spans around the package's public functions, plus the tracing
overhead. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
MODES = ("none", "mpr", "cstree", "cflow", "lazy")
# The modes whose model builds a workload times; the others build nothing.
BUILT_MODES = ("cstree", "cflow")

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "cell_s.p50": "s",
    "cell_s.tail": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.parse_s": "s",
    "graphs.component_s": "s",
    "formulations.build_s": "s",
    **{f"formulations.build_s.{mode}": "s" for mode in BUILT_MODES},
    "formulations.vars": "count",
    "formulations.nnz": "count",
    "highs.solve_model_s": "s",
    "lpio.export_lp_s": "s",
    "lpio.export_mps_s": "s",
    "lpio.model_bytes": "bytes",
    "lpio.parse_lp_s": "s",
    "lpio.parse_mps_s": "s",
    "lpio.parse_solution_s": "s",
    "backend.child_s": "s",
    "backend.self_s": "s",
    "milp.evaluate_s": "s",
    "solve.bnb_s": "s",
    "solve.nodes": "count",
    "solve.nodes_per_s": "1/s",
    "lazy.cut_rounds": "count",
    "lazy.nodes": "count",
    "lazy.cuts_s": "s",
    "lazy.self_s": "s",
    "dispatch.self_s": "s",
    "grid.self_s": "s",
    "grid.csv_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def load_package():
    """qclique from this checkout's src/, and nothing else."""
    package = SRC / "qclique" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"no qclique sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import qclique

    if Path(qclique.__file__).resolve() != package.resolve():
        raise SystemExit(f"imported qclique from {qclique.__file__}, not {package}")
    return qclique


def import_seconds() -> float:
    """The median time a fresh interpreter takes to import qclique, as a
    user's process does; the benchmark's own modules are not counted."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import qclique; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True
        )
        times.append(float(child.stdout))
    return statistics.median(times)


class _Subprocess:
    """The subprocess module as qclique.backend sees it, with run traced."""

    def __init__(self, module, run) -> None:
        self._module = module
        self.run = run

    def __getattr__(self, name):
        return getattr(self._module, name)


def install_spans(tracer: tracing.Tracer, q) -> None:
    """Wrap every layer entry point at the attribute the program calls."""
    drv, lazy, backend = q.driver, q.lazy, q.backend

    def model_size(args, kwargs, result):
        model = result[0]
        return {
            "formulations.vars": len(model.variables),
            "formulations.nnz": sum(len(row.terms) for row in model.constraints),
        }

    tracer.patch(q.graphs, "parse_edge_list", "graphs.parse")
    tracer.patch(q.graphs, "largest_component", "graphs.component")
    tracer.patch(q.grid, "largest_component", "graphs.component")
    tracer.patch(q.grid, "run_grid", "grid", lambda a, k, r: {"grid.csv_bytes": os.path.getsize(a[2])})
    tracer.patch(q.grid, "solve_problem", "dispatch")
    tracer.patch(drv, "solve_problem", "dispatch")
    tracer.patch(drv, "branch_and_bound", "solve.bnb", lambda a, k, r: {"solve.nodes": r.nodes_explored})
    tracer.patch(
        drv,
        "solve_lazy",
        "lazy",
        lambda a, k, r: {"lazy.cut_rounds": r.cut_rounds or 0, "lazy.nodes": r.nodes_explored},
    )
    tracer.patch(lazy, "lazy_cuts", "lazy.cuts")
    tracer.patch(
        drv, "build_problem_model", lambda a, k: f"formulations.build.{a[1].mode.value}", model_size
    )
    tracer.patch(lazy, "build_m1", "formulations.build.lazy", model_size)
    # qclique imports its HiGHS module lazily, on the in-process milp path,
    # which neither workload takes; it is wrapped only where it is loaded.
    highs = sys.modules.get("qclique.highs")
    if highs is not None:
        tracer.patch(highs, "solve_model", "highs.solve_model")
    tracer.patch(drv, "solve_external", "backend")
    tracer.patch(lazy, "solve_external", "backend")
    tracer.patch(backend, "export_lp", "lpio.export_lp", lambda a, k, r: {"lpio.model_bytes": len(r)})
    tracer.patch(backend, "export_mps", "lpio.export_mps", lambda a, k, r: {"lpio.model_bytes": len(r)})
    tracer.patch(backend, "parse_solution_file", "lpio.parse_solution")
    run = tracer.span("backend.child", backend.subprocess.run)
    tracer.replace(backend, "subprocess", _Subprocess(backend.subprocess, run))
    tracer.patch(q.milp.LinearModel, "evaluate", "milp.evaluate")


def layer_metrics(t: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one traced round from its span totals."""

    def get(key):
        return t.get(key, 0.0)

    bnb_s = get("solve.bnb_s")
    return {
        "formulations.build_s": sum(get(f"formulations.build.{m}_s") for m in MODES),
        **{f"formulations.build_s.{m}": get(f"formulations.build.{m}_s") for m in BUILT_MODES},
        "formulations.vars": int(get("formulations.vars")),
        "formulations.nnz": int(get("formulations.nnz")),
        "highs.solve_model_s": get("highs.solve_model_s"),
        "lpio.export_lp_s": get("lpio.export_lp_s"),
        "lpio.export_mps_s": get("lpio.export_mps_s"),
        "lpio.model_bytes": int(get("lpio.model_bytes")),
        "lpio.parse_lp_s": get("lpio.parse_lp_s"),
        "lpio.parse_mps_s": get("lpio.parse_mps_s"),
        "lpio.parse_solution_s": get("lpio.parse_solution_s"),
        "backend.child_s": get("backend.child_s"),
        "backend.self_s": get("backend.self_s"),
        "milp.evaluate_s": get("milp.evaluate_s"),
        "solve.bnb_s": bnb_s,
        "solve.nodes": int(get("solve.nodes")),
        "solve.nodes_per_s": get("solve.nodes") / bnb_s if bnb_s else 0.0,
        "lazy.cut_rounds": int(get("lazy.cut_rounds")),
        "lazy.nodes": int(get("lazy.nodes")),
        "lazy.cuts_s": get("lazy.cuts_s"),
        "lazy.self_s": get("lazy.self_s"),
        "dispatch.self_s": get("dispatch.self_s"),
        "grid.self_s": get("grid.self_s"),
        "grid.csv_bytes": int(get("grid.csv_bytes")),
    }


def tail(values: list[float]) -> float:
    """The highest whole percentile with at least ten values beyond it
    (nearest rank); the largest value when there are fewer than forty."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        return ordered[-1]
    percentile = 100 * (n - 10) // n
    rank = -(-percentile * n // 100)
    return ordered[rank - 1]


def judge(workload, outcomes, problems: list[str]) -> tuple[int, int]:
    """Check one round; returns (attempted, failed) and extends problems
    with the cross-cell violations among the cells that passed."""
    passed = []
    failed = 0
    for o in outcomes:
        wrong = [o.error] if o.error else checker.check_answer(workload.adj, o.answer)
        if wrong:
            failed += 1
            print(f"cell {o.key} failed: {'; '.join(wrong)}", file=sys.stderr)
        else:
            passed.append(o.answer)
    problems.extend(checker.check_properties(workload.adj, passed, workload.inst.blocks))
    return len(outcomes), failed


def read_child_spans(tracer: tracing.Tracer, path: Path) -> None:
    if not path.exists():
        return
    for line in path.read_text(encoding="utf-8").splitlines():
        for s in json.loads(line):
            tracer.add(s["name"], s["start"], s["end"])
    path.unlink()


def main() -> None:
    parser = argparse.ArgumentParser(description="qclique benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    q = load_package()
    imports_s = import_seconds()

    out = HERE / "out" / f"{args.workload}-{os.getpid()}"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(out / "tmp")
    os.environ["TMPDIR"] = str(out / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    try:
        result, epochs = measure(q, args, out, imports_s)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(epochs) + "\n", encoding="utf-8")
    print(json.dumps(result))


def measure(q, args, out: Path, imports_s: float):
    workload = WORKLOADS[args.workload](q, args.seed, out)
    tracer = tracing.Tracer()
    epochs = []

    setup_times, setup_layers = [], []
    for _ in range(SETUP_REPS):
        if args.trace:
            install_spans(tracer, q)
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        tracer.restore()
        spans = tracer.take()
        setup_layers.append(tracing.layer_totals(spans))
        if args.trace:
            epochs.append({"kind": "setup", "spans": [vars(s) for s in spans]})

    spans_path = out / "child-spans.jsonl"
    plain, traced, per_cell, layers = [], [], {}, []
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        with_spans = bool(args.trace) and len(plain) > len(traced)
        if with_spans:
            install_spans(tracer, q)
            workload.child_spans = spans_path
        start = time.perf_counter()
        outcomes = workload.round()
        seconds = time.perf_counter() - start
        if with_spans:
            tracer.restore()
            workload.child_spans = None
            read_child_spans(tracer, spans_path)
            spans = tracer.take()
            layers.append(layer_metrics(tracing.layer_totals(spans)))
            epochs.append({"kind": "round", "spans": [vars(s) for s in spans]})
            traced.append(seconds)
        else:
            plain.append(seconds)
            for o in outcomes:
                per_cell.setdefault(o.key, []).append(o.seconds)
        a, f = judge(workload, outcomes, problems)
        attempted += a
        failed += f
        # Stop at the whole number of rounds that comes nearest to the
        # run length; a traced run needs one round of each kind.
        rounds = plain + traced
        elapsed = time.perf_counter() - started
        enough = not args.trace or traced
        if enough and elapsed + statistics.mean(rounds) / 2 >= args.seconds:
            break

    print(
        f"imports {imports_s:.3f} s, set-ups " + ", ".join(f"{t:.3f}" for t in setup_times) + " s",
        file=sys.stderr,
    )
    print("round seconds: " + ", ".join(f"{t:.3f}" for t in plain), file=sys.stderr)
    if traced:
        print("traced round seconds: " + ", ".join(f"{t:.3f}" for t in traced), file=sys.stderr)
    if args.trace:
        metrics = {
            name: statistics.mean(layer[name] for layer in layers)
            for name in layer_metrics({})
        }
        for name in ("graphs.parse_s", "graphs.component_s"):
            metrics[name] = statistics.median(t.get(name, 0.0) for t in setup_layers)
        for name in layer_metrics({}):
            if PER_LAYER[name] in ("count", "bytes") and len({layer[name] for layer in layers}) > 1:
                problems.append(f"{name} differs between traced rounds: {[l[name] for l in layers]}")
        overhead = statistics.mean(traced) - statistics.mean(plain)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100 * overhead / statistics.mean(plain)
        units = PER_LAYER
    else:
        # Means over rounds, not medians: the machine's speed can change
        # from one round to the next, and a mean blends those phases where
        # the median of a few rounds lands on one of them.
        cell_means = {key: statistics.mean(times) for key, times in per_cell.items()}
        slowest = sorted(cell_means, key=lambda key: -cell_means[key])[:10]
        print(
            "slowest cells: " + ", ".join(f"{key} {cell_means[key]:.3f}s" for key in slowest),
            file=sys.stderr,
        )
        metrics = {
            "setup_s": imports_s + statistics.median(setup_times),
            "sweep_s": statistics.mean(plain),
            "cell_s.p50": statistics.median(cell_means.values()),
            "cell_s.tail": tail(list(cell_means.values())),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, epochs


if __name__ == "__main__":
    main()
