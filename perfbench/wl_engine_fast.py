"""Workload ``engine-fast``: the fast engine's whole supported grid,
with the result cache off.

Set-up generates the seeded quick-scale mix population, takes its first
mix and converts it to a tracebin file.  Each round runs every scheme x policy
cell of ``repro.sim.fast`` twice through ``run_workload``, one run of
each pass after the other, so both passes sample the whole round rather
than one half of it each (the host's speed drifts over seconds):

* cold pass: streamed from the tracebin file (the per-access driver of
  ``repro.sim.engine`` over ``repro.sim.tracebin`` chunks);
* warm pass: in memory (the fused ``run_trace`` loop), on a workload
  object unpickled afresh for each cell, so trace decode is paid the way
  a pool worker pays it.

Every run appends one ``direct`` ledger record; nothing is stored.
"""

from __future__ import annotations

import os
import pickle
import time

from ladder import ledger_outcomes
from measure import (Rounds, collect_recipes, digest, identity, reset_dir,
                     reproduction_records, scrape_ledger, seed_ledger, timed)

SCHEMES = ("inclusive", "noninclusive", "ziv:notinprc", "ziv:lrunotinprc",
           "ziv:maxrrpvnotinprc")
POLICIES = ("lru", "srrip", "nru")
GRID = tuple((s, p) for s in SCHEMES for p in POLICIES)
SCALE = {"full": "quick", "smoke": "smoke"}
#: Host seconds one full-size round takes (2 vCPUs); sets the round count.
NOMINAL_ROUND_S = 8.0


def make_mix(scale_name: str, seed: int):
    """The first mix of ``mix_population(scale, seed=seed)``: a
    homogeneous mix whose application does not depend on the seed, so
    every seed simulates the same access pattern, drawn afresh.  (The
    heterogeneous mixes draw their applications from the seed, and their
    cost per access differs by a third between seeds.)"""
    from repro.experiments import clear_caches, get_scale, mix_population

    clear_caches()
    mix = mix_population(get_scale(scale_name), seed=seed)[0]
    clear_caches()
    return mix


def fast_config():
    from repro.params import scaled_config

    return scaled_config("256KB").replace(engine="fast")


def setup(bench):
    import repro.sim.fast  # noqa: F401  (imported lazily by the first run)
    from repro.sim.parallel import make_recipe
    from repro.sim.tracebin import make_trace_ref, save_workload_bin

    # The ledger a reproduction leaves; writing it is set-up, collecting
    # it is not (it is repro-cold's set-up).
    history = reproduction_records(collect_recipes(bench.root,
                                                   SCALE[bench.size]))

    def build(_i):
        work = reset_dir(bench.work)
        with bench.tracer.span("workloads.generate"):
            mix, generate_s = timed(make_mix, SCALE[bench.size], bench.seed)
        config = fast_config()
        with bench.tracer.span("experiments.collect_recipes"):
            recipes, collect_s = timed(lambda: [
                make_recipe(mix, s, policy=p, config=config)
                for s, p in GRID])
        blob = pickle.dumps(mix)
        path = work / "mix.tracebin"
        with bench.tracer.span("tracebin.convert"):
            _, convert_s = timed(save_workload_bin, mix, path)
        ref = make_trace_ref(path)
        cache = work / "cache"
        seed_ledger(cache / "ledger.jsonl", history)
        bench.setup_parts.append({"workloads.generate_s": generate_s,
                                  "experiments.collect_recipes_s": collect_s,
                                  "tracebin.convert_s": convert_s})
        return {"config": config, "recipes": recipes, "blob": blob,
                "ref": ref, "path": path, "cache": cache}

    return build, lambda state: None


def run(bench, state, rounds: Rounds) -> dict:
    from repro.obs.ledger import read_ledger
    from repro.service.api import result_to_json
    from repro.sim.engine import run_workload

    os.environ["REPRO_CACHE"] = "off"
    os.environ["REPRO_CACHE_DIR"] = str(state["cache"])
    ledger = state["cache"] / "ledger.jsonl"
    config, ref, blob = state["config"], state["ref"], state["blob"]
    recipes = state["recipes"]
    kept = {}

    def one_round(_index):
        before = len(read_ledger(ledger))
        streamed, inmem = [], []
        cold_wall = warm_wall = 0.0
        for cell, (scheme, policy) in enumerate(GRID):
            with bench.tracer.span("pass.cold"):
                with bench.tracer.span("engine.run_workload.streamed"):
                    result, seconds = timed(run_workload, config, ref,
                                            scheme, policy)
            rounds.cold_items.append(((scheme, policy), seconds))
            cold_wall += seconds
            streamed.append(result)
            with bench.tracer.span("pass.warm"):
                t0 = time.perf_counter()
                with bench.tracer.span("pickle.loads"):
                    workload = pickle.loads(blob)
                with bench.tracer.span("engine.run_workload.inmem"):
                    result, seconds = timed(run_workload, config, workload,
                                            scheme, policy)
                warm_wall += time.perf_counter() - t0
            rounds.warm_items.append(((scheme, policy), seconds))
            inmem.append(result)
            if cell % 3 == 2:
                rounds.scrape(bench, lambda: scrape_ledger(ledger))
        rounds.cold_walls.append(cold_wall)
        rounds.warm_walls.append(warm_wall)

        records = read_ledger(ledger)[before:]
        if [r.source for r in records] != ["direct"] * 2 * len(GRID):
            bench.mismatch(f"ledger gained {len(records)} records, "
                           f"expected {2 * len(GRID)} direct runs")
        for recipe, a, b in zip(recipes, streamed, inmem):
            payload = result_to_json(b)
            bench.attempt(result_to_json(a) == payload,
                          f"streamed != in-memory for {identity(recipe)}")
            bench.check_digest(recipe, payload)
        kept["results"] = inmem
        kept["records"] = records

    rounds.run(bench, one_round)
    busy = sum(x for _cell, x in rounds.cold_items + rounds.warm_items)
    return {"recipes": state["recipes"], "results": kept["results"],
            "ledger": ledger, "records": kept["records"],
            "trace_path": state["path"],
            "pool_efficiency": busy / (sum(rounds.cold_walls)
                                       + sum(rounds.warm_walls)),
            "outcomes_from_ledger": ledger_outcomes(kept["records"])}


def reference(bench, state) -> dict:
    """Digests of every cell's result; each is checked once against the
    object engine's result for the same recipe."""
    from repro.service.api import result_to_json
    from repro.sim.engine import run_workload

    os.environ["REPRO_LEDGER"] = "off"
    object_config = state["config"].replace(engine="object")
    out = {}
    for recipe, (scheme, policy) in zip(state["recipes"], GRID):
        fast = result_to_json(run_workload(
            state["config"], pickle.loads(state["blob"]), scheme, policy))
        slow = result_to_json(run_workload(
            object_config, pickle.loads(state["blob"]), scheme, policy))
        if fast != slow:
            raise SystemExit(f"fast != object engine for {scheme}/{policy}")
        out[identity(recipe)] = digest(fast)
    return out
