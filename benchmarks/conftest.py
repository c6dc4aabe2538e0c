"""Shared benchmark fixtures and report helpers.

Benchmarks run at a reduced default scale so the whole suite finishes on a
laptop; set ``REPRO_BENCH_SCALE`` (float, default 1.0) to scale workload
sizes up toward the paper's parameters.  Every benchmark prints the
table/series its figure reports, next to the paper's number where the
figure has one.

Benchmarks additionally leave ``BENCH_<name>.json`` perf records behind
via :func:`bench_record` (re-exported from :mod:`repro.obs.bench`) — CI
asserts at least one record exists and uploads them as artifacts, so each
PR carries its measured performance with it.
"""

import os

import numpy as np
import pytest

from repro.obs.bench import bench_record  # noqa: F401 - shared helper
from repro.storage import clear_simulated_buckets
from repro.util.ids import seed_ids

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 4) -> int:
    return max(minimum, int(n * SCALE))


@pytest.fixture(autouse=True)
def _deterministic():
    seed_ids(7)
    clear_simulated_buckets()
    yield
    seed_ids(None)
    clear_simulated_buckets()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def print_table(title: str, rows, note: str = "") -> None:
    """Aligned table of dict rows, printed under the figure's title."""
    print(f"\n=== {title} ===")
    if note:
        print(f"    {note}")
    if not rows:
        print("    (no rows)")
        return
    keys = list(rows[0].keys())
    widths = {
        k: max(len(str(k)), *(len(str(r.get(k, ""))) for r in rows))
        for k in keys
    }
    header = "  ".join(f"{k:>{widths[k]}}" for k in keys)
    print("    " + header)
    print("    " + "-" * len(header))
    for r in rows:
        print("    " + "  ".join(f"{str(r.get(k, '')):>{widths[k]}}" for k in keys))
