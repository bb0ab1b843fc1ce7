"""Run claim catalogs and property suites into canonical reports.

Workers come from the THROTTLE_WORKERS environment variable unless an
explicit count is given.  Records are sorted by case id after the pool
returns, so reports are value-identical across worker counts.
"""

from __future__ import annotations

import importlib.metadata
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from .claims import claims_matching, evaluate_claim
from .suites import build_cases, run_case

SCHEMA_VERSION = 1

try:
    TOOL_VERSION = importlib.metadata.version("throttlekit")
except importlib.metadata.PackageNotFoundError:  # running from a checkout
    TOOL_VERSION = "0+unknown"


@dataclass
class Report:
    suite: str
    records: list[dict]
    wall_time_seconds: float
    parameters: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r["passed"])

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "suite": self.suite,
            "parameters": dict(self.parameters),
            "summary": {
                "total": self.total,
                "passed": self.total - self.failed,
                "failed": self.failed,
            },
            "wall_time_seconds": round(self.wall_time_seconds, 3),
            "records": self.records,
        }


def resolve_workers(explicit: Optional[int] = None) -> int:
    name, workers = "workers", explicit
    if workers is None:
        env = os.environ.get("THROTTLE_WORKERS", "").strip()
        if not env:
            return max(1, min(os.cpu_count() or 1, 8))
        name = "THROTTLE_WORKERS"
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"THROTTLE_WORKERS must be an integer, got {env!r}")
    if workers < 1:
        raise ValueError(f"{name} must be positive, got {workers}")
    return workers


def _pool_map(func, items: list, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    chunk = max(1, len(items) // (workers * 8))
    with multiprocessing.Pool(workers) as pool:
        return pool.map(func, items, chunksize=chunk)


def run_suite(name: str, nmax: Optional[int] = None,
              budget: Optional[int] = None, seed: int = 0,
              workers: Optional[int] = None) -> Report:
    """Expand one property suite and execute every case.

    The wall time covers building the cases (enumeration included) as
    well as running them."""
    count = resolve_workers(workers)
    start = time.perf_counter()
    cases = build_cases(name, nmax=nmax, budget=budget, seed=seed)
    records = _pool_map(run_case, cases, count)
    elapsed = time.perf_counter() - start
    records.sort(key=lambda r: r["id"])
    return Report(suite=name, records=records, wall_time_seconds=elapsed,
                  parameters={"nmax": nmax, "budget": budget, "seed": seed,
                              "workers": count})


def run_claims(filters: Optional[dict[str, str]] = None,
               workers: Optional[int] = None) -> Report:
    """Evaluate the documented-value catalog, optionally filtered.

    Filters that select no claim are an error, not an empty pass."""
    filters = filters or {}
    selected = claims_matching(filters)
    if not selected:
        wanted = ", ".join(f"{k}={v}" for k, v in filters.items())
        raise ValueError(f"no claim is tagged with {wanted}")
    count = resolve_workers(workers)
    start = time.perf_counter()
    records = _pool_map(evaluate_claim, selected, count)
    elapsed = time.perf_counter() - start
    records.sort(key=lambda r: r["id"])
    return Report(suite="paper-suite", records=records,
                  wall_time_seconds=elapsed,
                  parameters={"filters": filters, "workers": count})
