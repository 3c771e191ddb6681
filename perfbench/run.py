"""Whole-cell and serving benchmark of the dynamic-subgraph simulator.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cell_p2p --seed 0 --seconds 20 --trace 0

It imports the package from ``src/``, records the workload's inputs from the
seed, then runs passes over them for ``--seconds`` (at least two passes, so
every op can be compared with another).  Every op is correctness-gated (see
:func:`workloads.gate`); one failed op makes the command exit 1.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer split with ``--trace 1``.  The per-layer run alternates untraced
and traced passes, requires them to produce identical records, and fails when
more than 5% of the traced op wall is unattributed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cell_p2p", "cell_flicker_100k", "serve_flicker", "serve_p2p")
DEFAULT_SEED = 0

#: The end-to-end metrics: (name, unit).  In a cell workload the op the
#: client waits for is the whole cell, so there a "batch" is one cell.
E2E_METRICS = [
    ("setup_s", "s"),
    ("cell_s", "s"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("batches_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

#: Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 3
SETUP_PROBE_TIMEOUT_S = 120
#: Largest share of the traced op wall that may go unattributed.
MAX_UNATTRIBUTED = 0.05
#: Where the cell ops' result store goes, under the checkout.
OUT_DIR = ".perfbench_out"


def environment(engine_mode: str, root: Path) -> Dict[str, object]:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha = "unknown"
    if (root / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            done = None
        if done is not None and done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
        "engine_mode": engine_mode,
    }


def setup_times(workload: str, seed: int, size: Dict[str, int], root: Path) -> List[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes, import included."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), json.dumps(size)],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def end_to_end(passes, setups: List[float]) -> Dict[str, float]:
    """Each timing is the median over passes of that pass's own figure.

    A pass's p95 rests on its own ops (a serving pass has 262 to 320 batches,
    so at least 13 lie beyond it); the median over passes then keeps a slow
    spell of the host inside one pass from moving the run's figure.  A cell
    pass is one op, so there every latency figure is the median cell.
    """
    from repro.experiments.store import percentile

    return {
        "setup_s": statistics.median(setups),
        "cell_s": statistics.median(run.wall for run in passes),
        "batch_p50_ms": statistics.median(percentile(run.latencies, 50) for run in passes) * 1e3,
        "batch_p95_ms": statistics.median(percentile(run.latencies, 95) for run in passes) * 1e3,
        "batches_per_s": statistics.median(len(run.latencies) / run.wall for run in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, plain, traced) -> Dict[str, float]:
    ops_per_pass = len(traced[0].latencies)
    out = tracer.per_op()
    out["tracing_overhead_s"] = (
        statistics.median(run.wall for run in traced)
        - statistics.median(run.wall for run in plain)
    ) / ops_per_pass
    out["serve.register_s"] = statistics.median(run.register_s for run in traced)
    return out


def main(argv: Optional[List[str]] = None, sizes: Optional[Dict[str, Dict]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from layers import LAYER_METRICS, LayerTracer
    from workloads import SIZES, direct, gate, make_workload

    size = (sizes or SIZES)[args.workload]
    pinned = None
    if args.seed == DEFAULT_SEED and size == SIZES[args.workload]:
        pinned = json.loads((HERE / "pinned.json").read_text())[args.workload]

    out_dir = root / OUT_DIR / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        workload = make_workload(args.workload, args.seed, size, out_dir)
        setups = [] if args.trace else setup_times(args.workload, args.seed, size, root)
        workload.record_inputs()

        tracer = LayerTracer()
        plain, traced = [], []
        problems: List[str] = []
        start = perf_counter()
        while perf_counter() - start < args.seconds or len(plain) + len(traced) < 2:
            plain.append(workload.run_pass(direct))
            if args.trace:
                with tracer.installed():
                    traced.append(workload.run_pass(tracer.op))
                if traced[-1].records != plain[-1].records:
                    problems.append("a traced pass produced other records or firings than untraced")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    passes = plain + traced
    failed = gate(passes, pinned)
    attempted = sum(len(run.latencies) for run in passes)
    env_extra = {}
    if args.trace:
        values = per_layer(tracer, plain, traced)
        units = [(name, unit) for name, unit, _, _ in LAYER_METRICS]
        share = tracer.totals["unattributed"].self_s / tracer.op_wall_s
        env_extra["unattributed_share"] = share
        if share > MAX_UNATTRIBUTED:
            problems.append(f"{share:.1%} of traced op wall unattributed (limit {MAX_UNATTRIBUTED:.0%})")
    else:
        values = end_to_end(passes, setups)
        units = E2E_METRICS

    for run in passes:
        for i, why in enumerate(run.failures):
            if why:
                problems.append(f"op {i}: {'; '.join(why)}")
    for line in problems[:20]:
        print(f"FAILED {line}")
    env = environment(passes[0].engine_mode, root)
    env.update(workload=args.workload, seed=args.seed, pinned_checked=pinned is not None,
               attempted=attempted, failed=failed,
               pass_walls_s=[round(run.wall, 6) for run in passes], **env_extra)
    print("env " + json.dumps(env, sort_keys=True))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
