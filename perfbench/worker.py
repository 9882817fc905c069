"""One workload run in a fresh process; started by ``run.py``, not by hand.

Prints human-readable lines (environment, every end-to-end or per-layer
metric with its unit, failures) and, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# set-up is repeated at least this often and for at least this long; the
# median is reported, so a cheap set-up is not one noisy sample
SETUP_REPS = 3
SETUP_MIN_S = 1.0
DIRECT_REPS = 5

# the end-to-end metrics every untraced run reports, with their units
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "round_s": "s", "peak_rss_mb": "MB"}

# human-readable names for each kind of operation's timing
KIND_METRICS = {
    "solve": ("solve_s", "s"),
    "probe": ("probe_s", "s"),
    "recon": ("recon_s", "s"),
    "recon_256": ("recon_256_s", "s"),
    "cli": ("cli_command_s", "s"),
    "normal": ("normal_s", "s"),
    "conv": ("conv_s", "s"),
    "adjoint": ("adjoint_s", "s"),
}


def import_library():
    """Import roitomo from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import roitomo
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import roitomo from {src}: {exc}")
    if Path(roitomo.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: roitomo imported from {roitomo.__file__}, not {src}")


def run_cycles(workload, state, ledger, seconds: float) -> None:
    """Closed loop over the workload's steps, in order, cycle after cycle.

    The first cycle always runs whole.  After it, a step starts only if the
    time it took last still fits within ``seconds``, so a run ends near
    ``seconds`` instead of up to a whole cycle later.
    """
    steps = workload.steps(state)
    took = [0.0] * len(steps)
    t0 = perf_counter()
    try:
        for cycle in itertools.count():
            for i, step in enumerate(steps):
                start = perf_counter()
                if cycle and start - t0 + took[i] > seconds:
                    return
                ledger.cycle = cycle
                step(ledger)
                took[i] = perf_counter() - start
    finally:
        ledger.cycle = None


def cycle_summary(ledger, primary: str):
    """op_s and round_s from the median time of each named operation.

    op_s is the mean, over the primary kind's variants, of each variant's
    median; round_s is one cycle's operations, each at its median time.
    """
    import stats

    times = {}
    for op in ledger.ops:
        if op.cycle is not None:
            times.setdefault(op.name, []).append(op.seconds)
    med = {name: stats.median(ts) for name, ts in times.items()}
    per_cycle = Counter(op.name for op in ledger.ops if op.cycle == 0)
    prim = [m for name, m in med.items() if name.split(":")[0] == primary]
    return sum(prim) / len(prim), sum(n * med[name] for name, n in per_cycle.items())


def untraced(workload, seconds, import_s):
    from workloads import Ledger
    import stats

    ledger = Ledger()
    setups = []
    t_setup = perf_counter()
    while len(setups) < SETUP_REPS or perf_counter() - t_setup < SETUP_MIN_S:
        t0 = perf_counter()
        state = workload.setup()
        setups.append(perf_counter() - t0)
    workload.verify(state, ledger)
    run_cycles(workload, state, ledger, seconds)
    op_s, round_s = cycle_summary(ledger, workload.primary)
    metrics = {
        "setup_s": stats.median(setups),
        "op_s": op_s,
        "round_s": round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# set-up: import {import_s:.4f} s; {stats.describe(setups, 's')}")
    return ledger, metrics, END_TO_END_UNITS


def direct_applies(workload, state) -> dict:
    """Median cached forward and back-projection through ``Projector``."""
    import numpy as np
    from roitomo import project
    import stats

    grid, ls = workload.working_set(state)
    proj = project.Projector(grid, ls)
    rng = np.random.default_rng(workload.seed)
    values = rng.standard_normal(grid.shape)
    line_values = rng.standard_normal(len(ls))
    out = {}
    for key, fn, arg in (("forward", proj.forward, values), ("backproject", proj.backproject, line_values)):
        times = []
        for _ in range(DIRECT_REPS):
            t0 = perf_counter()
            fn(arg)
            times.append(perf_counter() - t0)
        out[key] = 1e3 * stats.median(times)
    return out


def traced(workload, out_dir: Path):
    """One untraced then one traced set-up + cycle; per-layer metrics from spans."""
    from workloads import Ledger
    import tracing

    ledger = Ledger()
    t0 = perf_counter()
    state = workload.setup()
    workload.verify(state, ledger)
    run_cycles(workload, state, ledger, 0.0)
    plain_s = perf_counter() - t0
    direct_ms = direct_applies(workload, state)
    del state

    tracer = tracing.Tracer(f"{workload.name}-{workload.seed}-{os.getpid()}")
    with tracer.installed(tracing.targets()):
        t0 = perf_counter()
        with tracer.span("bench.setup"):
            state = workload.setup()
        with tracer.span("bench.verify"):
            workload.verify(state, ledger)
        with tracer.span("bench.cycle"):
            run_cycles(workload, state, ledger, 0.0)
        traced_s = perf_counter() - t0

    kept = len(workload.working_set(state)[1])
    metrics = tracing.per_layer(tracer, kept, direct_ms, traced_s - plain_s)
    print(f"# trace: untraced set-up+cycle {plain_s:.4f} s, traced {traced_s:.4f} s, "
          f"overhead {traced_s - plain_s:+.4f} s over {len(tracer.spans)} spans")
    parts = tracing.solve_accounting(tracer)
    if parts:
        print("# solve accounting: " + ", ".join(f"{k} {v:.4f}" for k, v in parts.items()))
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{workload.seed}.json"
    with open(path, "w") as fh:
        json.dump({"run": tracer.run_id, "per_layer": metrics, "spans": tracer.dump()}, fh)
    print(f"# spans written to {path}")
    return ledger, metrics, tracing.PER_LAYER_UNITS


def print_operations(ledger):
    import stats

    kinds, names = {}, {}
    for op in ledger.ops:
        kinds.setdefault(op.kind, []).append(op.seconds)
        if op.cycle is not None:
            names.setdefault(op.name, []).append(op.seconds)
    for kind, times in kinds.items():
        name, unit = KIND_METRICS[kind]
        print(f"# {name}: {stats.describe(times, unit)}")
    for name, times in names.items():
        if ":" in name:
            print(f"#   {name}: {stats.describe(times, 's')}")
    if "recon" in kinds:
        print(f"# recon_per_s: {len(kinds['recon']) / sum(kinds['recon']):.6g} 1/s")
    if "cli:forward" in names and "cli:reconstruct" in names:
        cli_s = stats.median(names["cli:forward"]) + stats.median(names["cli:reconstruct"])
        print(f"# cli_s (forward + reconstruct, each at its median): {cli_s:.6g} s")
    print(f"# cycles: {ledger.cycles}")
    for name, values in ledger.values.items():
        print(f"# {name}: worst {max(values):.6g}, best {min(values):.6g}, n={len(values)}")
    failed = ledger.failed
    print(f"# fail_ratio: {len(failed)}/{len(ledger.ops)} = {len(failed) / max(1, len(ledger.ops)):.4g}")
    for op in failed:
        print(f"# FAILED {op.name} (cycle {op.cycle}): {op.error or '; '.join(op.problems)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_library()
    import numpy  # noqa: F401  (part of the reported import time)
    import scipy.sparse  # noqa: F401
    import stats
    from workloads import WORKLOADS

    import_s = perf_counter() - T_START
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    print(f"# environment: {json.dumps(stats.environment(), sort_keys=True)}")
    print(f"# workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    if args.trace:
        ledger, metrics, units = traced(workload, ROOT / ".perfbench_out")
    else:
        ledger, metrics, units = untraced(workload, args.seconds, import_s)
    print_operations(ledger)
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    result = {
        "correct": not ledger.failed,
        "attempted": len(ledger.ops),
        "failed": len(ledger.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
