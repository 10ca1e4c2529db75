#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload repro-cold --seed 1 --seconds 25 \\
        --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same workload with spans recorded
around every layer call (written to ``.perfbench/out/``) and prints the
per-layer metrics instead.  Either way every simulated result is checked
(see README.md), a human-readable report goes first and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 when every check passed, 1 when one failed, and 2
when the program to measure (``src/repro``) is not there.
``--write-reference`` recomputes the stored result digests of the
default seed instead of measuring.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOADS = {
    "repro-cold": "wl_repro_cold",
    "engine-fast": "wl_engine_fast",
    "service-mix": "wl_service_mix",
}
#: Settings that would change what the program simulates or records.
_SCRUBBED_ENV = ("REPRO_AUDIT", "REPRO_TELEMETRY", "REPRO_PROFILE",
                 "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_LEDGER",
                 "REPRO_MP_START", "REPRO_SCALE", "REPRO_JOBS")


def parse_args(argv):
    from measure import DEFAULT_SEED

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; smoke is for the benchmark's "
                             "own tests")
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    for name in _SCRUBBED_ENV:
        os.environ.pop(name, None)
    tmp = root / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(root / "src"))

    import ladder
    from measure import Bench, Rounds, repeat_setup

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.size, root, args.write_reference)
    # Nothing may land in the default ./.repro_cache; each workload
    # points the cache at its own directories.
    os.environ["REPRO_CACHE_DIR"] = str(bench.work / "cache")
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        build, teardown = module.setup(bench)
        state = repeat_setup(bench, build, teardown)
        if args.write_reference:
            return write_reference(bench, module, state)
        rounds = Rounds(module.NOMINAL_ROUND_S)
        info = module.run(bench, state, rounds)
        rounds.finish(bench)
        if bench.traced:
            ladder.measure(bench, info, rounds)
            report_spans(bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    metrics = bench.per_layer if bench.traced else bench.end_to_end
    correct = not bench.failures
    for line in bench.report:
        print(line)
    for failure in bench.failures[:20]:
        print(f"FAILED: {failure}")
    print(f"error_rate = {len(bench.failures)} / {bench.attempted} "
          f"(failed / attempted); reference digests "
          f"{'checked' if bench.reference is not None else 'not checked'}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0 if correct else 1


def report_spans(bench) -> None:
    """Self time per layer, plus the spans themselves for later study."""
    path = bench.out / f"{bench.workload}-seed{bench.seed}-spans.json"
    bench.tracer.write(path)
    spans, cost = len(bench.tracer.spans), bench.tracer.span_cost()
    bench.say(f"spans: {spans} written to {path}; at {1e6 * cost:.2f} us "
              f"each they cost {1e3 * spans * cost:.2f} ms in all")
    bench.say("self time per layer (traced rounds and probe):")
    for name, seconds in sorted(bench.tracer.self_times().items(),
                                key=lambda kv: -kv[1]):
        bench.say(f"  {name:<40} {1e3 * seconds:12.3f} ms")


def write_reference(bench, module, state) -> int:
    from measure import DEFAULT_SEED, REFERENCE_DIR

    if bench.seed != DEFAULT_SEED:
        print(f"references are kept for the default seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    digests = module.reference(bench, state)
    path = REFERENCE_DIR / f"{bench.workload}-{bench.size}.json"
    path.write_text(json.dumps({"workload": bench.workload,
                                "seed": bench.seed, "size": bench.size,
                                "digests": digests}, indent=1,
                               sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
