"""Workload ``repro-cold``: a stratified sample of the paper's
reproduction, resolved cold through ``run_many`` and then again from the
disk cache.

Set-up collects the quick-scale recipe set exactly as
``scripts/run_all_experiments.py`` does and draws a seeded sample whose
strata -- scheme family x LLC policy x scheduling x trace length (the
multithreaded mixes are the long traces) -- keep their share of the full
set.  Each round then points the result cache at an empty directory:

* cold pass: ``run_many(sample, jobs=nproc)``, every recipe simulated in
  the process pool, stored on disk and appended to the ledger;
* warm pass: the in-process memo is cleared and each recipe is resolved
  again through ``run_many``, so every one is a disk hit.  Disk hits
  take well under a millisecond, so the warm pass is repeated
  WARM_REPEATS times, each followed by one scrape of the ledger as it
  stood after the cold pass.  The repeats spread the disk-hit and
  scrape samples over about ten seconds of each round rather than a
  burst of under one: the host's speed swings over seconds, and the
  longer the samples' window, the more of those swings it averages.
"""

from __future__ import annotations

import collections
import os
import random
import shutil

from ladder import ledger_outcomes
from measure import (Rounds, collect_recipes, digest, identity, reset_dir,
                     reproduction_records, scrape_ledger, seed_ledger, timed)

#: Recipes in the sample, by size.
SAMPLE_SIZE = {"full": 32, "smoke": 6}
SCALE = {"full": "quick", "smoke": "smoke"}
WARM_REPEATS = 200
#: Host seconds one full-size round takes (2 vCPUs); sets the round count.
NOMINAL_ROUND_S = 12.0


def stratum(recipe) -> tuple:
    return (recipe.scheme.split(":")[0], recipe.policy, recipe.scheduling,
            recipe.workload.total_accesses())


def stratified_sample(recipes: list, size: int, seed: int) -> list:
    """``size`` recipes whose per-stratum counts follow the full set's
    shares (largest remainder, so the counts do not depend on the seed).
    Within a stratum the picks sit at evenly spaced points of its
    members ordered by mix, so each pick's mix is fixed too, and the
    seed draws which recipe of that mix (an L2, LLC or directory
    variant) is taken.  Mixes differ most in cost, so samples of
    different seeds cost about the same.  Members are ordered by their
    :func:`identity`, not their cache key, so a CACHE_VERSION bump or a
    new config field leaves the sample as it is.  Submission order is
    kept."""
    groups = collections.defaultdict(list)
    for index, recipe in enumerate(recipes):
        groups[stratum(recipe)].append(index)
    quotas = {k: size * len(v) / len(recipes) for k, v in groups.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    spare = size - sum(counts.values())
    for k in sorted(quotas, key=lambda k: (counts[k] - quotas[k], k))[:spare]:
        counts[k] += 1
    rng = random.Random(seed)
    chosen = []
    for k in sorted(groups):
        members = sorted(groups[k], key=lambda i: (
            recipes[i].workload.name, identity(recipes[i])))
        step = len(members) / max(1, counts[k])
        wanted = collections.Counter(
            recipes[members[int((j + 0.5) * step)]].workload.name
            for j in range(counts[k]))
        for mix, n in sorted(wanted.items()):
            same_mix = [i for i in members if recipes[i].workload.name == mix]
            chosen.extend(rng.sample(same_mix, n))
    return [recipes[i] for i in sorted(chosen)]


def setup(bench):
    # Imported here, as the reproduction script's imports do, so forked
    # pool workers inherit the simulator instead of importing it per round.
    import repro.hierarchy.cmp  # noqa: F401
    import repro.schemes  # noqa: F401
    from repro.experiments import clear_caches, get_scale, mix_population

    work = bench.work

    def build(_i):
        clear_caches()
        # The mix population is generated first (and memoized), so the
        # collection that follows times recipe building plus the
        # multithreaded traces only.
        with bench.tracer.span("workloads.generate"):
            _, generate_s = timed(mix_population,
                                  get_scale(SCALE[bench.size]))
        with bench.tracer.span("experiments.collect_recipes"):
            recipes, collect_s = timed(collect_recipes, bench.root,
                                       SCALE[bench.size])
        bench.setup_parts.append({"workloads.generate_s": generate_s,
                                  "experiments.collect_recipes_s":
                                      collect_s})
        sample = stratified_sample(recipes, SAMPLE_SIZE[bench.size],
                                   bench.seed)
        template = work / "ledger-seed.jsonl"
        reset_dir(work)
        seed_ledger(template, reproduction_records(recipes))
        del recipes
        clear_caches()  # the sample keeps its own workloads alive
        return {"sample": sample, "template": template}

    return build, lambda state: None


def _resolve_pass(bench, run_many, recipes, jobs):
    """Warm pass: each recipe through ``run_many`` on its own, so each
    disk hit is timed."""
    items, out = [], []
    for recipe in recipes:
        with bench.tracer.span("parallel.run_many"):
            (result,), seconds = timed(run_many, [recipe], jobs=jobs)
        items.append(seconds)
        out.append(result)
    return out, items


def run(bench, state, rounds: Rounds) -> dict:
    from repro.obs.ledger import read_ledger
    from repro.service.api import result_to_json
    from repro.sim.parallel import clear_memo, run_many

    sample = state["sample"]
    keys = [r.key() for r in sample]
    jobs = os.cpu_count() or 1
    kept = {}

    def one_round(index):
        cache = reset_dir(bench.work / f"round-{index}")
        ledger = cache / "ledger.jsonl"
        shutil.copyfile(state["template"], ledger)
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        clear_memo()
        with bench.tracer.span("pass.cold"):
            with bench.tracer.span("parallel.run_many"):
                cold, seconds = timed(run_many, sample, jobs=jobs)
        rounds.cold_walls.append(seconds)
        fresh = [r for r in read_ledger(ledger)[-len(sample):]
                 if r.source == "run"]
        rounds.cold_items.extend((r.recipe_key, r.wall_s) for r in fresh)
        snapshot = cache / "scraped.jsonl"
        shutil.copyfile(ledger, snapshot)
        for _ in range(WARM_REPEATS):
            clear_memo()
            with bench.tracer.span("pass.warm"):
                (warm, items), seconds = timed(_resolve_pass, bench,
                                               run_many, sample, jobs)
            rounds.warm_walls.append(seconds)
            rounds.warm_items.extend(zip(keys, items))
            rounds.scrape(bench, lambda: scrape_ledger(snapshot))

        records = read_ledger(ledger)[-(1 + WARM_REPEATS) * len(sample):]
        sources = collections.Counter((r.recipe_key, r.source)
                                      for r in records)
        for recipe, key, a, b in zip(sample, keys, cold, warm):
            cold_bytes = result_to_json(a)
            ok = bench.attempt(cold_bytes == result_to_json(b),
                               f"warm != cold bytes for {key[:12]}")
            if ok and sources[(key, "run")] != 1:
                bench.mismatch(f"{sources[(key, 'run')]} run records "
                               f"for {key[:12]}")
            if ok and sources[(key, "disk")] != WARM_REPEATS:
                bench.mismatch(f"{sources[(key, 'disk')]} disk records "
                               f"for {key[:12]}")
            bench.check_digest(recipe, cold_bytes)
        kept["ledger"] = ledger
        kept["records"] = records
        kept["results"] = cold
        if index > 0:
            shutil.rmtree(bench.work / f"round-{index - 1}",
                          ignore_errors=True)

    rounds.run(bench, one_round)
    busy = sum(r.wall_s for r in kept["records"] if r.source == "run")
    return {"recipes": sample, "results": kept["results"],
            "ledger": kept["ledger"], "records": kept["records"],
            "pool_efficiency": busy / (jobs * rounds.cold_walls[-1]),
            "outcomes_from_ledger": ledger_outcomes(kept["records"])}


def reference(bench, state) -> dict:
    """Digests of every sampled result, computed with the cache off."""
    from repro.service.api import result_to_json
    from repro.sim.parallel import run_many

    os.environ["REPRO_CACHE"] = "off"
    os.environ["REPRO_LEDGER"] = "off"
    results = run_many(state["sample"], jobs=os.cpu_count() or 1)
    return {identity(r): digest(result_to_json(res))
            for r, res in zip(state["sample"], results)}
