#!/usr/bin/env python3
"""Regenerate every paper figure (plus the ablations) and dump the tables.

Usage:  REPRO_SCALE=standard python scripts/run_all_experiments.py \\
            [--jobs N] [outfile]

All experiment modules are imported up front so the run is unaffected by
concurrent edits to the working tree.  Every module exposes the recipes
its figure needs, so the script submits the union of all simulations to
``run_many`` first -- fanned out over ``--jobs`` worker processes (or
REPRO_JOBS; default: one per CPU) -- and the per-figure loops below then
resolve entirely from the result cache.  Total wall-clock is roughly the
longest individual simulation times (grid / cores), not the serial sum.
"""

import argparse
import importlib
import os
import time

from repro.experiments import ALL_FIGURES
from repro.sim.parallel import run_many

MODULES = {
    name: importlib.import_module(f"repro.experiments.{name}")
    for name in ALL_FIGURES
}
ablations = importlib.import_module("repro.experiments.ablations")


def collect_recipes(scale):
    """Union of every figure's (and the ablations') submissions, deduped
    by recipe key but kept in first-seen order."""
    seen = set()
    recipes = []
    for module in [*MODULES.values(), ablations]:
        enumerate_ = getattr(module, "recipes", None)
        if enumerate_ is None:
            continue
        for recipe in enumerate_(scale):
            key = recipe.key()
            if key not in seen:
                seen.add(key)
                recipes.append(recipe)
    return recipes


def fast_path_share(recipes):
    """Share of the simulated accesses whose recipe runs on the fast
    engine (``RunRecipe.engine()``: ``engine="auto"`` resolved)."""
    total = fast = 0
    for recipe in recipes:
        accesses = recipe.workload.total_accesses()
        total += accesses
        if recipe.engine() == "fast":
            fast += accesses
    return fast / total if total else 0.0


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int,
        default=int(os.environ.get("REPRO_JOBS", "0")),
        help="worker processes for the up-front simulation fan-out "
             "(<=0: one per CPU; default REPRO_JOBS or one per CPU)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print a live progress line (completed/total, cache "
             "provenance, accesses/s, ETA) to stderr during the fan-out",
    )
    parser.add_argument("outfile", nargs="?",
                        default="docs/experiments_output.txt")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    scale = os.environ.get("REPRO_SCALE", "standard")
    out_path = args.outfile
    t_start = time.time()

    recipes = collect_recipes(scale)
    print(f"submitting {len(recipes)} unique simulations "
          f"(jobs={args.jobs if args.jobs > 0 else 'auto'})")
    if args.progress:
        from repro.sim.telemetry import ProgressPrinter

        printer = ProgressPrinter()
        run_many(recipes, jobs=args.jobs, heartbeat=printer)
        printer.done()
    else:
        run_many(recipes, jobs=args.jobs)
    print(f"simulations done in {time.time() - t_start:.0f}s; "
          f"formatting figures")
    print(f"fast-path access share: {fast_path_share(recipes):.3f} "
          f"({sum(r.engine() == 'fast' for r in recipes)} of "
          f"{len(recipes)} recipes on the fast engine)")
    with open(out_path, "w") as out:
        def emit(text=""):
            print(text)
            out.write(text + "\n")
            out.flush()

        emit(f"# ZIV reproduction: all figures at scale={scale}")
        emit()
        for name in ALL_FIGURES:
            t0 = time.time()
            fig = MODULES[name].run(scale)
            emit(fig.format_table())
            emit(f"[{name}: {time.time() - t0:.1f}s]")
            emit()
        for fn in (
            ablations.run_property_ladder,
            ablations.run_round_robin,
            ablations.run_char_threshold,
        ):
            t0 = time.time()
            fig = fn(scale)
            emit(fig.format_table())
            emit(f"[{fn.__name__}: {time.time() - t0:.1f}s]")
            emit()
        # Shape-at-a-glance charts for the headline comparisons.
        from repro.experiments.ascii_chart import bar_chart

        for name, col in (
            ("fig08_lru_perf", 2),
            ("fig11_hawkeye_perf", 2),
        ):
            emit(bar_chart(MODULES[name].run(scale), value_col=col,
                           baseline=1.0))
            emit()
        emit(f"total: {time.time() - t_start:.0f}s")


if __name__ == "__main__":
    main()
