"""Per-layer metrics for the traced run.

Every layer is measured from outside, by timing calls into its public
functions on inputs taken from the workload just run -- its own
recipes, results, ledger and trace -- so each workload reports the whole
ladder, from trace decode to the HTTP front.  Run-derived figures (hit
ratio, pool efficiency, fast-path share, outcome counts, the job views
of a live service) come from the workload's own resolutions.

The per-family and per-cell loop figures run on the first
``PROBE_ACCESSES_PER_CORE`` accesses of each core of the workload's first
trace; caches start empty there, as everywhere in this benchmark.
"""

from __future__ import annotations

import collections
import json
import os
import pickle
import time

from measure import median, reset_dir, timed

PROBE_ACCESSES_PER_CORE = 500
REPEATS = 5

#: Object-engine families: scheme, LLC policy, scheduling.
FAMILIES = {
    "lru": ("inclusive", "lru", "timing"),
    "hawkeye": ("inclusive", "hawkeye", "timing"),
    "belady-lockstep": ("inclusive", "belady", "lockstep"),
    "ziv": ("ziv:likelydead", "lru", "timing"),
    "qbs-sharp-charonbase": ("qbs", "lru", "timing"),
}
FAST_GRID = tuple(
    (s, p) for s in ("inclusive", "noninclusive", "ziv:notinprc",
                     "ziv:lrunotinprc", "ziv:maxrrpvnotinprc")
    for p in ("lru", "srrip", "nru"))
DRIVER_CELLS = (("inclusive", "lru"), ("noninclusive", "nru"),
                ("ziv:notinprc", "srrip"))
OUTCOMES = ("fresh", "coalesced", "memo", "disk", "failed", "rejected")


def cell_name(scheme: str, policy: str) -> str:
    return f"{scheme.replace(':', '-')}.{policy}"


#: Every per-layer metric: name, unit, and which way is better.  The
#: ``accesses`` and ``instructions`` counts must instead repeat exactly.
METRICS = (
    [("workloads.generate_s", "s", "lower"),
     ("experiments.collect_recipes_s", "s", "lower"),
     ("tracebin.convert_s", "s", "lower"),
     ("tracebin.decode_records_per_s", "1/s", "higher"),
     ("config_io.body_bytes", "bytes", "lower"),
     ("config_io.json_decode_ms", "ms", "lower"),
     ("config_io.recipe_from_dict_ms", "ms", "lower"),
     ("parallel.key_ms", "ms", "lower"),
     ("parallel.memo_hit_us", "us", "lower"),
     ("parallel.disk_hit_ms", "ms", "lower"),
     ("parallel.store_ms", "ms", "lower"),
     ("parallel.hit_ratio", "ratio", "higher"),
     ("parallel.pool_efficiency", "ratio", "higher"),
     ("parallel.fast_path_access_share", "ratio", "higher"),
     ("jobs.submit_ms", "ms", "lower"),
     ("jobs.queue_wait_ms", "ms", "lower"),
     ("jobs.execute_ms", "ms", "lower")]
    + [(f"jobs.outcome.{o}", "count",
        "lower" if o in ("fresh", "failed", "rejected") else "higher")
       for o in OUTCOMES]
    + [("api.result_to_json_ms", "ms", "lower"),
       ("api.result_bytes", "bytes", "lower"),
       ("server.healthz_ms", "ms", "lower"),
       ("server.self_ms", "ms", "lower")]
    + [(f"hierarchy.construct_ms.{f}", "ms", "lower") for f in FAMILIES]
    + [(f"engine.object_us_per_access.{f}", "us", "lower")
       for f in FAMILIES]
    + [("fast.construct_ms", "ms", "lower"), ("fast.decode_ms", "ms", "lower"),
       ("engine.flush_ms", "ms", "lower"),
       ("engine.driver_us_per_access", "us", "lower")]
    + [(f"fast.loop_us_per_access.{cell_name(s, p)}", "us", "lower")
       for s, p in FAST_GRID]
    + [("ledger.append_us", "us", "lower"),
       ("ledger.records", "count", "lower"),
       ("ledger.read_ms", "ms", "lower"),
       ("registry.from_ledger_ms", "ms", "lower"),
       ("accesses", "count", "higher"),
       ("instructions", "count", "higher"),
       ("trace.overhead", "ratio", "lower")]
)


def _med(fn, repeats: int = REPEATS) -> float:
    return median([timed(fn)[1] for _ in range(repeats)])


def truncate(workload):
    from repro.sim.trace import CoreTrace, Workload

    return Workload([CoreTrace(t.records[:PROBE_ACCESSES_PER_CORE], t.name)
                     for t in workload.traces], name=workload.name)


def measure(bench, info: dict, rounds) -> None:
    """Fill ``bench.per_layer`` with every metric in METRICS."""
    from repro.sim.parallel import run_many

    values: dict = {}
    probe_dir = reset_dir(bench.work / "probe")
    saved_env = {k: os.environ.get(k) for k in
                 ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_LEDGER")}
    os.environ.update(REPRO_CACHE="on", REPRO_CACHE_DIR=str(probe_dir),
                      REPRO_LEDGER="on")
    try:
        recipe = info["recipes"][0]
        result = (info["results"][0] if info.get("results")
                  else run_many([recipe])[0])
        with bench.tracer.span("probe"):
            _setup_parts(bench, values)
            _wire_and_storage(values, recipe, result, info)
            _ledger(values, info, recipe, result, probe_dir)
            _tracebin(values, recipe.workload, probe_dir, info)
            _object_families(values, truncate(recipe.workload))
            _fast_cells(values, truncate(recipe.workload), probe_dir)
            _service(values, info, recipe, truncate(recipe.workload))
        _run_derived(values, info, rounds)
    finally:
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    for name, unit, _better in METRICS:
        bench.layer(name, values[name], unit)


def _setup_parts(bench, values: dict) -> None:
    for name in ("workloads.generate_s", "experiments.collect_recipes_s",
                 "tracebin.convert_s"):
        parts = [p[name] for p in bench.setup_parts if name in p]
        if parts:
            values[name] = median(parts)


def _wire_and_storage(values: dict, recipe, result, info: dict) -> None:
    from repro.config_io import recipe_from_dict, recipe_to_dict
    from repro.service.api import result_to_json
    from repro.sim.parallel import clear_memo, lookup_result, store_result

    body = json.dumps(recipe_to_dict(recipe)).encode()
    values["config_io.body_bytes"] = len(body)
    values["config_io.json_decode_ms"] = 1e3 * _med(lambda: json.loads(body))
    data = json.loads(body)
    values["config_io.recipe_from_dict_ms"] = 1e3 * _med(
        lambda: recipe_from_dict(data))
    # A freshly decoded recipe has no cached key, so the workload
    # fingerprint is part of what is timed.
    fresh = [recipe_from_dict(data) for _ in range(REPEATS)]
    values["parallel.key_ms"] = 1e3 * median(
        [timed(r.key)[1] for r in fresh])
    key = recipe.key()
    values["parallel.store_ms"] = 1e3 * _med(lambda: store_result(key,
                                                                  result))
    disk = []
    for _ in range(REPEATS):
        clear_memo()
        hit, seconds = timed(lookup_result, key)
        if hit is None or hit[1] != "disk":
            raise RuntimeError("probe store did not read back from disk")
        disk.append(seconds)
    values["parallel.disk_hit_ms"] = 1e3 * median(disk)
    values["parallel.memo_hit_us"] = 1e6 * _med(lambda: lookup_result(key),
                                                200)
    payload = result_to_json(result)
    values["api.result_bytes"] = len(payload)
    values["api.result_to_json_ms"] = 1e3 * _med(
        lambda: result_to_json(result))
    info["children_ms"] = (values["config_io.json_decode_ms"]
                           + values["config_io.recipe_from_dict_ms"]
                           + values["parallel.key_ms"]
                           + values["parallel.memo_hit_us"] / 1e3
                           + values["api.result_to_json_ms"])


def _ledger(values: dict, info: dict, recipe, result, probe_dir) -> None:
    from repro.obs.ledger import append_record, read_ledger, record_from_result
    from repro.obs.registry import registry_from_ledger

    record = record_from_result(recipe_key=recipe.key(), result=result,
                                source="run", wall_s=0.5,
                                config=recipe.config)
    target = probe_dir / "append.jsonl"
    values["ledger.append_us"] = 1e6 * _med(
        lambda: append_record(record, path=target), 50)
    records = read_ledger(info["ledger"])
    values["ledger.records"] = len(records)
    values["ledger.read_ms"] = 1e3 * _med(lambda: read_ledger(info["ledger"]))
    values["registry.from_ledger_ms"] = 1e3 * _med(
        lambda: registry_from_ledger(records))


def _tracebin(values: dict, workload, probe_dir, info: dict) -> None:
    from repro.sim.tracebin import TraceBinReader, save_workload_bin

    path = info.get("trace_path")
    if path is None:
        path = probe_dir / "probe.tracebin"
        _, seconds = timed(save_workload_bin, workload, path)
        values["tracebin.convert_s"] = seconds

    def read_all():
        count = 0
        with TraceBinReader(path) as reader:
            for core in range(reader.cores):
                for ci in range(reader.chunk_count(core)):
                    count += len(reader.chunk(core, ci))
        return count

    count, _ = timed(read_all)
    values["tracebin.decode_records_per_s"] = count / _med(read_all, 3)


def _object_families(values: dict, workload) -> None:
    from repro.cache.replacement import NextUseOracle
    from repro.hierarchy.cmp import CacheHierarchy
    from repro.params import scaled_config
    from repro.schemes import make_scheme
    from repro.sim.engine import Simulation
    from repro.sim.trace import lockstep_stream

    config = scaled_config("256KB")
    for family, (scheme, policy, scheduling) in FAMILIES.items():
        def build():
            oracle = (NextUseOracle(lockstep_stream(workload))
                      if policy == "belady" else None)
            return CacheHierarchy(config, make_scheme(scheme),
                                  llc_policy=policy, oracle=oracle)
        values[f"hierarchy.construct_ms.{family}"] = 1e3 * _med(build, 3)
        sim = Simulation(build(), workload, scheduling=scheduling,
                         llc_policy_name=policy)
        result, seconds = timed(sim.run)
        values[f"engine.object_us_per_access.{family}"] = (
            1e6 * seconds / result.stats.total_accesses)


def _fast_cells(values: dict, workload, probe_dir) -> None:
    from repro.params import scaled_config
    from repro.sim.engine import Simulation
    from repro.sim.fast import FastHierarchy
    from repro.sim.tracebin import open_trace, save_workload_bin

    config = scaled_config("256KB").replace(engine="fast")
    blob = pickle.dumps(workload)
    construct, decode, flush = [], [], []
    for scheme, policy in FAST_GRID:
        hierarchy, seconds = timed(FastHierarchy, config, scheme,
                                   llc_policy=policy)
        construct.append(seconds)
        result = Simulation(hierarchy, pickle.loads(blob),
                            profile="on").run()
        phases = result.profile.phase_s
        decode.append(phases.get("decode", 0.0))
        flush.append(phases.get("flush", 0.0))
        values[f"fast.loop_us_per_access.{cell_name(scheme, policy)}"] = (
            1e6 * phases["access_loop"] / result.stats.total_accesses)
    values["fast.construct_ms"] = 1e3 * median(construct)
    values["fast.decode_ms"] = 1e3 * median(decode)
    values["engine.flush_ms"] = 1e3 * median(flush)

    path = probe_dir / "driver.tracebin"
    save_workload_bin(workload, path)
    gaps = []
    for scheme, policy in DRIVER_CELLS:
        def inmem():
            Simulation(FastHierarchy(config, scheme, llc_policy=policy),
                       pickle.loads(blob)).run()

        def streamed():
            trace = open_trace(path)
            try:
                Simulation(FastHierarchy(config, scheme, llc_policy=policy),
                           trace).run()
            finally:
                trace.close()
        gaps.append((_med(streamed, 3) - _med(inmem, 3))
                    / workload.total_accesses())
    values["engine.driver_us_per_access"] = 1e6 * median(gaps)


def _service(values: dict, info: dict, recipe, short) -> None:
    """Job and HTTP figures: from the live service when the workload ran
    one, else from an in-process thread-mode server (fresh jobs on the
    shortened probe trace, warm requests on the probe recipe itself).
    Outcome counts of the library workloads come from their ledgers."""
    live = info.get("service")
    facts = live or _probe_server(recipe, short)
    warm = info["warm_items"] if live else facts["warm"]
    outcomes = live["outcomes"] if live else info["outcomes_from_ledger"]
    values["jobs.submit_ms"] = 1e3 * median(facts["submit"])
    values["jobs.queue_wait_ms"] = 1e3 * median(facts["queue_wait"])
    values["jobs.execute_ms"] = 1e3 * median(facts["execute"])
    for outcome in OUTCOMES:
        values[f"jobs.outcome.{outcome}"] = outcomes.get(outcome, 0)
    values["server.healthz_ms"] = 1e3 * median(facts["healthz"])
    values["server.self_ms"] = 1e3 * median(warm) - info["children_ms"]


def _probe_server(recipe, short) -> dict:
    """The probe recipe's result is already stored, so its requests are
    warm; the family recipes on the shortened trace are fresh jobs."""
    from repro.config_io import recipe_to_dict
    from repro.service import create_server
    from repro.sim.parallel import make_recipe

    from wl_service_mix import queue_wait, request

    bodies = [json.dumps(recipe_to_dict(make_recipe(
        short, scheme, policy=policy, scheduling=scheduling))).encode()
        for scheme, policy, scheduling in FAMILIES.values()]
    warm_body = json.dumps(recipe_to_dict(recipe)).encode()
    server = create_server(workers=1, mode="thread").start()
    try:
        url = server.url
        healthz = [timed(request, "GET", url + "/healthz")[1]
                   for _ in range(30)]
        submit, views = [], []
        for body in bodies:
            job, seconds = timed(lambda: json.loads(
                request("POST", url + "/v1/jobs", body))["job"])
            submit.append(seconds)
            request("GET", f"{url}/v1/jobs/{job['id']}/result?wait=60")
            views.append(json.loads(
                request("GET", f"{url}/v1/jobs/{job['id']}"))["job"])
        warm = []
        for _ in range(20):
            t0 = time.perf_counter()
            job = json.loads(request("POST", url + "/v1/jobs",
                                     warm_body))["job"]
            request("GET", f"{url}/v1/jobs/{job['id']}/result")
            warm.append(time.perf_counter() - t0)
    finally:
        server.close()
    return {"submit": submit, "healthz": healthz, "warm": warm,
            "queue_wait": [queue_wait(v) for v in views],
            "execute": [v["wall_s"] for v in views]}


def _run_derived(values: dict, info: dict, rounds) -> None:
    from repro.service.api import result_to_dict

    records = info["records"]
    fresh = [r for r in records if r.source in ("run", "direct")]
    hits = [r for r in records if r.source in ("memo", "disk")]
    values["parallel.hit_ratio"] = len(hits) / max(1, len(records))
    total = sum(r.accesses for r in fresh)
    fast = sum(r.accesses for r in fresh if r.engine == "fast")
    values["parallel.fast_path_access_share"] = fast / max(1, total)
    values["parallel.pool_efficiency"] = info["pool_efficiency"]
    summaries = info.get("summaries") or [
        result_to_dict(r)["summary"] for r in info["results"]]
    values["accesses"] = sum(s["accesses"] for s in summaries)
    values["instructions"] = sum(s["instructions"] for s in summaries)
    values["trace.overhead"] = rounds.overhead()


def ledger_outcomes(records) -> dict:
    """Resolution provenance of a library workload, in job-outcome terms."""
    counts = collections.Counter(
        "fresh" if r.source in ("run", "direct") else r.source
        for r in records)
    return {o: counts.get(o, 0) for o in OUTCOMES}
