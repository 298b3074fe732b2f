"""Benchmark of rdmft: one workload per invocation, metrics as a JSON last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; rdmft is imported from its ``src/``.
Each workload process is started by this script with BLAS pinned to one
thread (see child.py).  With ``--trace 0`` the run reports the end-to-end
metrics: ``setup_s`` is the median over SETUP_SAMPLES processes of the time
from process start to the first timed operation, the other metrics come from
one measuring process.  With ``--trace 1`` it reports the per-layer metrics
of one traced pass, and ``trace_overhead_frac`` against one untraced pass.
The environment (Python, numpy, BLAS, nproc, commit) is printed before the
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_default", "invert_nb10")
SETUP_SAMPLES = 5
PIN_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))


def _commit() -> str:
    """HEAD of the checkout read from .git without leaving it, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _child(args, mode: str, work: Path, index: int, seconds: float, spans: Path | None = None) -> dict:
    result = work / f"result-{mode}-{index}.json"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--mode", mode,
        "--work", str(work / "io"),
        "--result", str(result),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = {**os.environ, **PIN_ONE_THREAD}
    launch = time.monotonic()
    completed = subprocess.run(
        command + ["--launch", repr(launch)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{mode} process of {args.workload} exited with code {completed.returncode}")
    return json.loads(result.read_text())


def _end_to_end(args, work: Path) -> tuple[dict, dict]:
    setups = [_child(args, "setup", work, i, 0.0)["setup_s"] for i in range(SETUP_SAMPLES - 1)]
    run = _child(args, "measure", work, 0, args.seconds)
    setups.append(run["setup_s"])
    values = {
        "setup_s": median(setups),
        "wall_s": median(run["passes"]),
        "op_p50_s": median(run["latencies"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    print(
        f"{args.workload}: {len(run['passes'])} passes, {len(run['latencies'])} operations, "
        f"failed_frac {run['failed'] / run['attempted']:.3g}, setup samples {[round(s, 4) for s in setups]}"
    )
    return run, metrics


def _per_layer(args, work: Path) -> tuple[dict, dict]:
    from tracing import PER_LAYER

    plain = _child(args, "measure", work, 0, 0.0)
    traced = _child(args, "traced", work, 1, 0.0, spans=ROOT / ".perfbench" / f"spans-{args.workload}.tsv.gz")
    values = dict(traced["per_layer"])
    values["trace_overhead_frac"] = traced["passes"][0] / plain["passes"][0] - 1.0
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    run = {**traced, "attempted": plain["attempted"] + traced["attempted"], "failed": plain["failed"] + traced["failed"]}
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "rdmft" / "__init__.py").is_file():
        print(f"rdmft sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir()
    try:
        run, metrics = (_per_layer if args.trace else _end_to_end)(args, work)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"environment: {json.dumps({**run['environment'], 'commit': _commit()}, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
