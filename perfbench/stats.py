"""Summary statistics and the environment record used by the benchmark."""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import statistics

# the tail percentile reported beside a median must have at least this many
# samples beyond it, so that one outlier cannot be the whole tail
TAIL_SAMPLES = 10

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(values, beyond: int = TAIL_SAMPLES):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``, or ``None`` when there are too few
    samples for any percentile to have that many beyond it.
    """
    xs = sorted(values)
    k = len(xs) - 1 - beyond
    if k < 0:
        return None
    return math.floor(100 * (k + 1) / len(xs)), float(xs[k])


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (``statistics.quantiles``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def describe(values, unit: str) -> str:
    """``median`` plus the tail percentile and the sample count, as one phrase."""
    text = f"median {median(values):.6g} {unit}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]} {tail[1]:.6g} {unit}"
    return text + f", n={len(values)}"


def environment() -> dict:
    """Core count, library versions, BLAS build and the thread caps in effect."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(blas_build.split()),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_VARS},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
    }
