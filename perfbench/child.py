"""One workload process: set up, run passes of the operation list, gate.

Started by run.py with BLAS pinned to one thread; writes its result as
JSON to the path given by --result.  Modes:

- ``setup``: set up and exit, to sample set-up time;
- ``measure``: set up, then run whole passes of the fixed operation list,
  as many as fit in --seconds at the speed of the first pass (at least one);
- ``traced``: install the tracer, set up, run one pass, write the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    parser.add_argument("--launch", type=float, required=True, help="time.monotonic() when the process was started")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import rdmft

    if not Path(rdmft.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rdmft imported from {rdmft.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    state = workload.setup(args.work, args.seed)
    setup_s = time.monotonic() - args.launch
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        result.update(_measure(workload, state, args.seconds, tracer, args.mode == "traced"))
        result["environment"] = _environment()
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracing.per_layer_metrics(tracer.spans, tracer.counters)
        if args.spans is not None:
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


def _measure(workload, state, seconds: float, tracer, single_pass: bool) -> dict:
    passes, latencies, problems = [], [], []
    attempted = failed = 0
    wanted = 1
    while len(passes) < wanted:
        ops = workload.ops(state)
        outcomes = []
        t_pass = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op_id = attempted + len(outcomes)
            t_op = time.perf_counter()
            try:
                outcome = op()
            except Exception as exc:  # an operation that raises counts as failed
                outcome = exc
                traceback.print_exc()
            latencies.append(time.perf_counter() - t_op)
            outcomes.append(outcome)
        passes.append(time.perf_counter() - t_pass)
        with tracer.paused() if tracer is not None else nullcontext():
            for outcome in outcomes:
                attempted += 1
                errors = [repr(outcome)] if isinstance(outcome, Exception) else workload.gate(state, outcome)
                if errors:
                    failed += 1
                    problems.extend(errors)
        if not single_pass:
            wanted = max(1, math.floor(seconds / passes[0]))
    for problem in problems[:20]:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    return {
        "passes": passes,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    sys.exit(main())
