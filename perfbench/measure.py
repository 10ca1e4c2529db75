"""Shared measurement plumbing: the run context, statistics, memory,
ledger seeding and scraping, recipe identities and result digests."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import time
from collections import defaultdict
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

from tracing import Tracer

#: Digests are compared on this seed only; every other seed runs the
#: cross-checks alone.
DEFAULT_SEED = 1
#: A seed kept out of tuning, to check that a claim holds on fresh inputs.
HELD_OUT_SEED = 7919

#: Set-up repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Bench:
    """Everything one benchmark run shares: arguments, the work
    directory, the tracer, the correctness tally and the metrics."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, size: str, root: Path,
                 writing_reference: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.size = size
        self.root = root
        self.work = root / ".perfbench" / f"{workload}-{os.getpid()}"
        self.out = root / ".perfbench" / "out"
        self.tracer = Tracer(traced)
        self.attempted = 0
        self.failures: list = []
        self.end_to_end: dict = {}
        self.per_layer: dict = {}
        self.report: list = []
        self.setup_times: list = []
        self.setup_parts: list = []
        self.reference = None
        if seed == DEFAULT_SEED and not writing_reference:
            self.reference = self._load_reference()

    # -- correctness ------------------------------------------------------

    def _load_reference(self) -> dict:
        """The stored digests of the default seed.  A missing or unreadable
        file fails the run: only the seed turns digest checking off."""
        path = REFERENCE_DIR / f"{self.workload}-{self.size}.json"
        try:
            return json.loads(path.read_text())["digests"]
        except (OSError, ValueError, KeyError) as exc:
            self.mismatch(f"reference digests unreadable: {exc}")
            return {}

    def attempt(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed one is recorded with its reason."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def mismatch(self, what: str) -> None:
        """A correctness cross-check failed on an operation already
        counted: it fails without a second attempt."""
        self.failures.append(what)

    def check_digest(self, recipe, payload: bytes) -> None:
        """Compare ``payload`` with the stored digest of ``recipe``, looked
        up by its :func:`identity`."""
        if self.reference is None:
            return
        name = identity(recipe)
        want = self.reference.get(name)
        if want != digest(payload):
            self.mismatch(f"digest of {name}: reference "
                          f"{(want or 'missing')[:12]}, got "
                          f"{digest(payload)[:12]}")

    # -- metrics ----------------------------------------------------------

    def metric(self, name: str, value: float, unit: str,
               samples: Optional[int] = None) -> None:
        self.end_to_end[name] = {"value": value, "unit": unit}
        self._note(name, value, unit, samples)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.per_layer[name] = {"value": value, "unit": unit}
        self._note(name, value, unit, None)

    def _note(self, name: str, value: float, unit: str,
              samples: Optional[int]) -> None:
        count = f"  (n={samples})" if samples is not None else ""
        self.report.append(f"{name:<44} {value:>16.6g} {unit}{count}")

    def say(self, line: str) -> None:
        self.report.append(line)


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _flatten(tree: dict, prefix: str = "") -> dict:
    out = {}
    for name, value in tree.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{name}."))
        else:
            out[f"{prefix}{name}"] = value
    return out


@lru_cache(maxsize=1)
def _default_config() -> dict:
    from repro.config_io import config_to_dict
    from repro.params import scaled_config

    return _flatten(config_to_dict(scaled_config()))


def identity(recipe) -> str:
    """What a recipe runs, named without ``recipe.key()``: mix, scheme,
    policy, scheduling, keyword arguments and the config fields that
    differ from the default ``scaled_config()`` (the L2, LLC and
    directory variant, the engine).  The key hashes CACHE_VERSION and
    every config field, so a version bump or a new field would change
    the sample and orphan the stored digests; neither changes this."""
    from repro.config_io import config_to_dict

    base = _default_config()
    own = _flatten(config_to_dict(recipe.config))
    variant = ",".join(f"{k}={v}" for k, v in sorted(own.items())
                       if base.get(k) != v)
    return "|".join([recipe.workload.name, recipe.scheme, recipe.policy,
                     recipe.scheduling, json.dumps(list(recipe.scheme_kwargs)),
                     json.dumps(list(recipe.policy_kwargs)), variant])


def collect_recipes(root: Path, scale: str) -> list:
    """The reproduction's recipe set, collected exactly as
    ``scripts/run_all_experiments.py`` collects it."""
    spec = importlib.util.spec_from_file_location(
        "run_all_experiments", root / "scripts" / "run_all_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.collect_recipes(scale)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank q-th percentile."""
    return count - int(max(1, -(-count * q // 100)))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (Linux reports KiB; a child's figure covers its own reaped
    children, so the service's pool workers are included)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def repeat_setup(bench: Bench, build: Callable, teardown: Callable):
    """Run ``build`` SETUP_REPEATS times from a clean state, tearing all
    but the last down; records ``setup_s`` as the median and returns the
    last state."""
    times = []
    state = None
    for i in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        state, seconds = timed(build, i)
        times.append(seconds)
    bench.setup_times = times
    return state


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def reproduction_records(recipes: list) -> list:
    """The ``run`` records one cold reproduction of ``recipes`` leaves in
    its ledger: one per recipe, with its real key, mix, scheme, policy,
    scheduling, engine and access count.  The run-time fields (wall time,
    cycles) are zero, as nothing is run to fill them."""
    from repro.obs.ledger import LEDGER_VERSION, LedgerRecord, config_digest

    return [LedgerRecord(
        version=LEDGER_VERSION, ts=1.7e9 + i, recipe_key=r.key(),
        workload=r.workload.name,
        workload_fingerprint=r.workload.fingerprint(), scheme=r.scheme,
        policy=r.policy, scheduling=r.scheduling, engine=r.config.engine,
        config_digest=config_digest(r.config), source="run",
        cache_hit=False, trace_path="", resumed_from="", wall_s=0.0,
        accesses=r.workload.total_accesses(), accesses_per_s=0.0, cycles=0,
        audit_violations=0, telemetry_samples=0, telemetry_events=0,
        profile_phases={}, host_cpus=os.cpu_count() or 1,
    ) for i, r in enumerate(recipes)]


def seed_ledger(path: Path, records: list) -> None:
    """Append ``records`` through the public ledger API, so every scrape
    reads a ledger of a stated size: that of a reproduction already run."""
    from repro.obs.ledger import append_record

    for record in records:
        append_record(record, path=path)


def scrape_ledger(path: Path) -> str:
    """What ``repro obs export`` and the service's ``/metrics`` do with a
    ledger: read every record, aggregate, render Prometheus text."""
    from repro.obs.ledger import read_ledger
    from repro.obs.registry import MetricsRegistry, registry_from_ledger

    registry = MetricsRegistry()
    registry_from_ledger(read_ledger(path), registry=registry)
    return registry.to_prometheus()


class Rounds:
    """Per-round samples of the two passes every workload makes over its
    batch -- ``cold``, the first resolution, and ``warm``, the second --
    plus the ledger scrapes made during each round.

    A run makes a fixed number of rounds, ``--seconds`` divided by the
    workload's nominal round time: the work is the same on every commit,
    so a faster program finishes sooner instead of doing more (which
    would also change what its ledger and job table hold)."""

    def __init__(self, nominal_round_s: float) -> None:
        self.nominal_round_s = nominal_round_s
        self.cold_walls: list = []
        self.warm_walls: list = []
        self.cold_items: list = []  # (item key, seconds)
        self.warm_items: list = []
        self.scrapes: list = []
        self.traced: list = []
        self.slices: list = []  # (cold, warm) item slices of each round

    def count(self, bench: Bench, limit: Optional[int] = None) -> int:
        """Rounds this run makes; a traced run needs an untraced and a
        traced one."""
        rounds = max(2 if bench.tracer.enabled else 1,
                     int(bench.seconds // self.nominal_round_s))
        return min(rounds, limit) if limit else rounds

    def run(self, bench: Bench, one_round: Callable,
            limit: Optional[int] = None) -> None:
        """Call ``one_round(index)`` ``count()`` times.  A traced run
        alternates untraced and traced rounds, so it measures its own
        overhead."""
        enabled = bench.tracer.enabled
        for index in range(self.count(bench, limit)):
            bench.tracer.enabled = enabled and index % 2 == 1
            self.traced.append(bench.tracer.enabled)
            starts = len(self.cold_items), len(self.warm_items)
            with bench.tracer.span("round"):
                one_round(index)
            self.slices.append((slice(starts[0], len(self.cold_items)),
                                slice(starts[1], len(self.warm_items))))
        bench.tracer.enabled = enabled

    def scrape(self, bench: Bench, fn: Callable, times: int = 1) -> float:
        """Time ``times`` scrapes; returns the seconds they took.  The
        workloads spread their scrapes over each round, so short bursts
        of host noise do not land on all of them."""
        total = 0.0
        for _ in range(times):
            with bench.tracer.span("scrape"):
                _, seconds = timed(fn)
            self.scrapes.append(seconds)
            total += seconds
        return total

    def finish(self, bench: Bench) -> None:
        """The end-to-end metrics every workload reports."""
        bench.metric("setup_s", median(bench.setup_times), "s",
                     len(bench.setup_times))
        bench.metric("peak_rss_mb", peak_rss_mb(), "MiB")
        bench.metric("cold_wall_s", median(self.cold_walls), "s",
                     len(self.cold_walls))
        bench.metric("warm_wall_s", median(self.warm_walls), "s",
                     len(self.warm_walls))
        bench.metric("cold_p50_ms", 1e3 * item_median(self.cold_items), "ms",
                     len(self.cold_items))
        bench.metric("warm_p50_ms", 1e3 * item_median(self.warm_items), "ms",
                     len(self.warm_items))
        bench.metric("scrape_p50_ms", 1e3 * median(self.scrapes), "ms",
                     len(self.scrapes))
        for name, items in (("cold", self.cold_items),
                            ("warm", self.warm_items)):
            times = [seconds for _key, seconds in items]
            for q in (90, 99):
                if beyond(len(times), q) >= 10:
                    bench.say(f"  {name}_p{q}_ms = "
                              f"{1e3 * percentile(times, q):.3f} ms "
                              f"(n={len(times)})")

    def overhead(self) -> float:
        """Tracing overhead: per pass, the median item time of traced
        rounds over that of untraced rounds; the mean of the two ratios,
        minus one."""
        ratios = []
        for which, items in ((0, self.cold_items), (1, self.warm_items)):
            on = [x for (s, t) in zip(self.slices, self.traced) if t
                  for _key, x in items[s[which]]]
            off = [x for (s, t) in zip(self.slices, self.traced) if not t
                   for _key, x in items[s[which]]]
            if on and off:
                ratios.append(median(on) / median(off))
        return sum(ratios) / len(ratios) - 1.0 if ratios else 0.0


def item_median(items: list) -> float:
    """Median over items of each item's median time.  The items of a
    workload differ in cost (a grid cell, a recipe), so pooling every
    sample would let rounds at different host speeds reorder the items
    and move the median from one cluster of items to another."""
    by_key = defaultdict(list)
    for key, seconds in items:
        by_key[key].append(seconds)
    return median([median(v) for v in by_key.values()])
