#!/usr/bin/env python3
"""Wall-clock benchmark: object engine vs array-state fast engine.

Measures, with the same methodology as ``bench_parallel_runner.py``
(fresh hierarchy per run, construction time included, quick-scale mix,
inclusive/LRU, each window ``--instructions`` retired instructions long):

* ``object_instructions_per_s`` / ``object_accesses_per_s`` -- the
  reference object engine, in retired instructions (gap + 1 per trace
  record) and in memory accesses (trace records) per second;
* ``fast_instructions_per_s`` / ``fast_accesses_per_s`` --
  ``repro.sim.fast.FastHierarchy``, the same two units;
* ``fast_speedup`` -- the ratio of the instruction rates (one workload,
  so the access rates give the same ratio);

and then runs the differential grid (every supported scheme x policy x
directory mode, audited) so the speedup number is only ever reported
next to a machine-checked zero-divergence count.  The report is printed
as JSON; ``--out PATH`` also writes it to a file:

    PYTHONPATH=src python benchmarks/bench_fast_engine.py --out /tmp/b.json

``--min-speedup N`` turns the report into a gate (exit code 1 below N);
CI's perf-smoke job runs with ``--min-speedup 5``.  The committed
``BENCH_pr6.json`` came from this script's earlier form, whose
``*_access_rate_per_s`` fields counted instructions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


def measure_rates(
    engine: str, n_instructions: int = 240_000
) -> tuple[float, float]:
    """Raw hot-path throughput for one engine: (instructions/s,
    accesses/s).

    Same methodology as ``bench_parallel_runner.measure_access_rate``:
    a fresh hierarchy is built for every run (construction is part of
    the cost for both engines) and the quick-scale mix is replayed until
    ``n_instructions`` retired instructions accumulate.  The default
    window is 4x the parallel-runner bench's: the fast engine retires
    the old 60k window in ~0.1s, short enough for scheduler noise to
    dominate."""
    from repro.experiments.common import get_scale, mix_population
    from repro.params import scaled_config
    from repro.sim.engine import Simulation

    wl = mix_population(get_scale("quick"))[0]
    cfg = scaled_config("256KB")
    instructions = accesses = 0
    t0 = time.perf_counter()
    while instructions < n_instructions:
        if engine == "fast":
            from repro.sim.fast import FastHierarchy

            h = FastHierarchy(cfg, "inclusive", llc_policy="lru")
        else:
            from repro.hierarchy.cmp import CacheHierarchy
            from repro.schemes import make_scheme

            h = CacheHierarchy(cfg, make_scheme("inclusive"),
                               llc_policy="lru")
        r = Simulation(h, wl).run()
        instructions += sum(c.instructions for c in r.stats.cores)
        accesses += sum(c.accesses for c in r.stats.cores)
    seconds = time.perf_counter() - t0
    return instructions / seconds, accesses / seconds


def run_differential_grid():
    """The full supported grid on one quick-scale workload, audited."""
    from repro.experiments.common import get_scale, mix_population
    from repro.sim.differential import diff_grid, summarize

    wl = mix_population(get_scale("quick"))[0]
    reports = diff_grid([wl])
    return reports, summarize(reports)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the JSON report to this path")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit 1 if fast/object falls below this")
    parser.add_argument("--instructions", type=int, default=240_000,
                        help="retired instructions per throughput "
                             "measurement")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurements per engine; the best is kept")
    args = parser.parse_args()

    # Best-of-N: each trial's rate is depressed only by interference, so
    # the maximum is the least-contended estimate of the engine's speed.
    rates = {}
    for engine in ("object", "fast"):
        instr_rate, access_rate = max(
            measure_rates(engine, args.instructions)
            for _ in range(args.repeats)
        )
        rates[engine] = (instr_rate, access_rate)
        print(f"{engine + ' engine:':14s} {instr_rate:8.0f} instructions/s "
              f"{access_rate:8.0f} accesses/s")
    speedup = rates["fast"][0] / rates["object"][0]
    print(f"speedup:       {speedup:8.2f}x")

    reports, verdict = run_differential_grid()
    print(verdict)
    divergences = sum(len(r.divergences) for r in reports)

    payload = {
        "bench": "fast_engine",
        "cpus": os.cpu_count() or 1,
        "scale": "quick",
        "methodology": "bench_parallel_runner.measure_access_rate: fresh "
                       "hierarchy per run, construction included, "
                       "quick-scale mix, inclusive/lru, windows of "
                       f"{args.instructions} retired instructions; best "
                       f"of {args.repeats} runs per engine; *_accesses_"
                       "per_s count trace records, *_instructions_per_s "
                       "retired instructions (gap + 1 per record)",
        "instructions_per_measurement": args.instructions,
        "repeats": args.repeats,
        "object_instructions_per_s": round(rates["object"][0]),
        "object_accesses_per_s": round(rates["object"][1]),
        "fast_instructions_per_s": round(rates["fast"][0]),
        "fast_accesses_per_s": round(rates["fast"][1]),
        "fast_speedup": round(speedup, 2),
        "differential_grid_cells": len(reports),
        "differential_divergences": divergences,
        "differential_audit_clean": divergences == 0,
    }
    text = json.dumps(payload, indent=2) + "\n"
    print(text, end="")
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {args.out}")

    if divergences:
        print(f"FAIL: {divergences} divergence(s) on the grid")
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < required "
              f"{args.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
