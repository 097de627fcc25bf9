"""The bundled HiGHS backend with spans, for traced backend-io runs.

    python3 bench/highs_shim.py SPANS MODEL SOLUTION [TIME_LIMIT]

Wraps parse_lp, parse_mps and solve_model where qclique.highs calls them,
runs qclique.highs.main on the remaining arguments, and appends the spans
as one JSON line to SPANS. Untraced runs call python -m qclique.highs.
"""

from __future__ import annotations

import json
import sys

import qclique.highs as highs
import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.patch(highs, "parse_lp", "lpio.parse_lp")
    tracer.patch(highs, "parse_mps", "lpio.parse_mps")
    tracer.patch(highs, "solve_model", "highs.solve_model")
    code = highs.main(sys.argv[2:])
    with open(sys.argv[1], "a", encoding="utf-8") as handle:
        handle.write(json.dumps([vars(s) for s in tracer.spans]) + "\n")
    raise SystemExit(code)
