"""Workload ``service-mix``: ``repro serve`` in its own process, driven by
a closed loop of two client threads.

Set-up generates the seeded quick-scale mix population, builds one fresh
recipe per mix x scheme/policy pair and encodes each request body, seeds
the server's ledger with the records a quick reproduction leaves and
starts ``python -m repro serve`` with process workers (one per CPU) on
an empty cache directory.  The rounds grow one sweep, a batch at a time;
round ``r``:

* cold pass: POSTs batch ``r`` -- never seen by the server, every
  scheme/policy pair once -- and waits for each result's bytes;
* warm pass: resubmits the whole sweep so far (batches ``0..r``, each
  recipe once, in seeded order), as a caller re-running
  ``ServiceClient.run_recipes`` over its sweep does, and fetches the
  result bytes;
* scrapes ``/metrics`` SCRAPES_PER_ROUND times.

A request's latency runs from the start of its POST to the last byte of
its result.  Closed loop: each thread sends its next request only after
the previous one completed, as ``ServiceClient`` callers do.

Assumed, not derived from a caller: the eight scheme/policy pairs of a
batch (one per family the reproduction runs), the two client threads and
the scrape count, which only sets how many samples the scrape median
has -- a scraper polls on its own timer, not per request.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter

from measure import (Rounds, collect_recipes, digest, identity, reset_dir,
                     reproduction_records, seed_ledger, timed)

#: Scheme/policy pairs; every round submits each once (see make_recipes).
PAIRS = (
    ("inclusive", "lru"), ("noninclusive", "lru"), ("ziv:notinprc", "lru"),
    ("ziv:likelydead", "lru"), ("qbs", "lru"), ("inclusive", "hawkeye"),
    ("ziv:maxrrpvnotinprc", "hawkeye"), ("sharp", "hawkeye"),
)
CLIENT_THREADS = 2
SCRAPES_PER_ROUND = 5
SCALE = {"full": "quick", "smoke": "smoke"}
REQUEST_TIMEOUT_S = 120.0
#: Host seconds one full-size round takes (2 vCPUs); sets the round count.
NOMINAL_ROUND_S = 5.0


def make_recipes(mixes: list) -> list:
    """One batch per round: batch r pairs PAIRS[j] with mix (r + j) mod
    len(mixes), a Latin square, so every round submits every pair and
    (with eight mixes) every mix once, and no recipe repeats."""
    from repro.sim.parallel import make_recipe

    return [[make_recipe(mixes[(r + j) % len(mixes)], scheme, policy=policy)
             for j, (scheme, policy) in enumerate(PAIRS)]
            for r in range(len(mixes))]


class Server:
    """``python -m repro serve`` as a child process on a free port."""

    def __init__(self, bench, cache) -> None:
        env = dict(os.environ, PYTHONPATH=str(bench.root / "src"),
                   REPRO_CACHE_DIR=str(cache), PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(os.cpu_count() or 1), "--mode", "process"],
            cwd=bench.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            self.url = self._read_url(timeout=60.0)
            self._wait_healthy(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_url(self, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError("service did not start")
        line = self.proc.stdout.readline().decode()
        if "listening on " not in line:
            raise RuntimeError(f"unexpected service banner: {line!r}")
        return line.split("listening on ")[1].split()[0]

    def _wait_healthy(self, timeout: float) -> None:
        end = time.perf_counter() + timeout
        while True:
            try:
                request("GET", self.url + "/healthz")
                return
            except OSError:
                if time.perf_counter() > end:
                    raise
                time.sleep(0.05)

    def stop(self) -> None:
        """SIGINT is the CLI's graceful stop: it closes the worker pool."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()


def request(method: str, url: str, body: bytes = None) -> bytes:
    headers = {"Accept": "application/json"}
    if body is not None:
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=body, headers=headers,
                                 method=method)
    with urllib.request.urlopen(req, timeout=REQUEST_TIMEOUT_S) as resp:
        return resp.read()


def queue_wait(view: dict) -> float:
    """Time a fresh job spent dispatched but not executing: the view's
    submit-to-finish span less the worker-timed execution (``wall_s``).
    It covers the pool queue, pickling both ways and the completion
    callback."""
    return view["finished_ts"] - view["submitted_ts"] - view["wall_s"]


def setup(bench):
    from repro.config_io import recipe_to_dict
    from repro.experiments import clear_caches, get_scale, mix_population

    # The ledger a reproduction leaves; writing it is set-up, collecting
    # it is not (it is repro-cold's set-up).
    history = reproduction_records(collect_recipes(bench.root,
                                                   SCALE[bench.size]))

    def build(_i):
        work = reset_dir(bench.work)
        clear_caches()
        with bench.tracer.span("workloads.generate"):
            mixes, generate_s = timed(mix_population,
                                      get_scale(SCALE[bench.size]),
                                      seed=bench.seed)
        with bench.tracer.span("experiments.collect_recipes"):
            batches, collect_s = timed(make_recipes, mixes)
        with bench.tracer.span("config_io.encode"):
            bodies, encode_s = timed(lambda: [
                [json.dumps(recipe_to_dict(r)).encode() for r in batch]
                for batch in batches])
        cache = work / "server"
        seed_ledger(cache / "ledger.jsonl", history)
        with bench.tracer.span("server.start"):
            server, start_s = timed(Server, bench, cache)
        bench.setup_parts.append({"workloads.generate_s": generate_s,
                                  "experiments.collect_recipes_s": collect_s,
                                  "config_io.encode_s": encode_s,
                                  "server.start_s": start_s})
        return {"batches": batches, "bodies": bodies, "cache": cache,
                "server": server, "history": len(history)}

    return build, lambda state: state["server"].stop()


def _drive(bench, url: str, items: list) -> list:
    """Send ``(key, body)`` items from CLIENT_THREADS closed-loop threads;
    returns ``(key, seconds, payload, job)`` per item, in item order
    (payload None on failure)."""
    out = [None] * len(items)
    cursor = iter(range(len(items)))
    lock = threading.Lock()
    caller = bench.tracer.current()

    def client():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            key, body = items[index]
            rid = f"{key[:12]}-{index}"
            t0 = time.perf_counter()
            try:
                with bench.tracer.span("http.request", request=rid,
                                       parent=caller):
                    with bench.tracer.span("http.post"):
                        job = json.loads(request("POST", url + "/v1/jobs",
                                                 body))["job"]
                    posted = time.perf_counter()
                    with bench.tracer.span("http.get_result"):
                        payload = request(
                            "GET", f"{url}/v1/jobs/{job['id']}/result"
                                   f"?wait={REQUEST_TIMEOUT_S}")
                out[index] = (key, time.perf_counter() - t0, payload, job,
                              posted - t0)
            except (OSError, ValueError, KeyError) as exc:
                out[index] = (key, time.perf_counter() - t0, None,
                              {"error": str(exc)}, 0.0)

    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def run(bench, state, rounds: Rounds) -> dict:
    server = state["server"]
    url = server.url
    stored: dict = {}
    cold_jobs: list = []
    posts: list = []
    rng = random.Random(bench.seed)

    def one_round(index):
        batch, bodies = state["batches"][index], state["bodies"][index]
        items = [(r.key(), b) for r, b in zip(batch, bodies)]
        with bench.tracer.span("pass.cold"):
            done, seconds = timed(_drive, bench, url, items)
        rounds.cold_walls.append(seconds)
        for (key, latency, payload, job, post_s), body, recipe in zip(
                done, bodies, batch):
            if bench.attempt(payload is not None,
                             f"cold request {key[:12]}: {job.get('error')}"):
                rounds.cold_items.append((key, latency))
                stored[key] = (payload, body)
                cold_jobs.append(job["id"])
                posts.append(post_s)
                bench.check_digest(recipe, payload)
        # The sweep so far, in submission order, then shuffled.
        items = [(k, body) for k, (_payload, body) in stored.items()]
        rng.shuffle(items)
        with bench.tracer.span("pass.warm"):
            done, seconds = timed(_drive, bench, url, items)
        rounds.warm_walls.append(seconds)
        for key, latency, payload, job, _post in done:
            if bench.attempt(payload is not None,
                             f"warm request {key[:12]}: {job.get('error')}"):
                rounds.warm_items.append((key, latency))
                if payload != stored[key][0]:
                    bench.mismatch(f"warm != cold bytes for {key[:12]}")
        rounds.scrape(bench, lambda: request("GET", url + "/metrics"),
                      SCRAPES_PER_ROUND)

    try:
        rounds.run(bench, one_round, limit=len(state["batches"]))
        facts = _service_facts(bench, url, cold_jobs, posts)
    finally:
        server.stop()
    # The rounds resubmit 8, 16, ... recipes, so no one round stands for
    # the others: the warm wall is that of every resubmission in the run.
    rounds.warm_walls[:] = [sum(rounds.warm_walls)]
    ledger = state["cache"] / "ledger.jsonl"
    records = _check_ledger(bench, ledger, state["history"], stored,
                            len(rounds.warm_items))
    first = state["batches"][0]
    workers = os.cpu_count() or 1
    busy = sum(facts.get("execute", ()))
    return {"recipes": first, "results": None, "ledger": ledger,
            "records": records, "service": facts,
            "warm_items": [x for _key, x in rounds.warm_items],
            "pool_efficiency": busy / (workers * sum(rounds.cold_walls)),
            "summaries": [json.loads(stored[r.key()][0])["summary"]
                          for r in first if r.key() in stored]}


def _service_facts(bench, url: str, cold_jobs: list, posts: list) -> dict:
    """Per-layer facts only the live service knows: the public job views
    of the cold jobs, the outcome counters and the HTTP floor."""
    from repro.obs.registry import parse_prometheus

    if not bench.traced:
        return {}
    views = [json.loads(request("GET", f"{url}/v1/jobs/{j}"))["job"]
             for j in cold_jobs]
    metrics = parse_prometheus(request("GET", url + "/metrics").decode())
    outcomes = {labels[0][1]: value for (name, labels), value
                in metrics.items() if name == "repro_service_jobs_total"}
    healthz = []
    for _ in range(50):
        _, seconds = timed(request, "GET", url + "/healthz")
        healthz.append(seconds)
    return {
        "submit": posts,
        "queue_wait": [queue_wait(v) for v in views],
        "execute": [v["wall_s"] for v in views],
        "outcomes": outcomes, "healthz": healthz,
    }


def _check_ledger(bench, path, seeded: int, stored: dict, warm: int) -> list:
    """Exactly one ``run`` record per fresh key, one hit per warm request;
    returns the records the workload added after the ``seeded`` ones."""
    from repro.obs.ledger import read_ledger

    records = read_ledger(path)[seeded:]
    runs = Counter(r.recipe_key for r in records if r.source == "run")
    for key in stored:
        if runs[key] != 1:
            bench.mismatch(f"{runs[key]} run records for {key[:12]}")
    hits = sum(1 for r in records if r.source != "run")
    if hits != warm or len(runs) != len(stored):
        bench.mismatch(f"ledger has {hits} hit records for {warm} warm "
                       f"requests and {len(runs)} runs for {len(stored)} keys")
    return records


def reference(bench, state) -> dict:
    """Digests of every fresh recipe's result, computed in-process with
    the cache off (the server must send the very same bytes)."""
    from repro.service.api import result_to_json
    from repro.sim.parallel import run_many

    state["server"].stop()
    os.environ["REPRO_CACHE"] = "off"
    os.environ["REPRO_LEDGER"] = "off"
    recipes = [r for batch in state["batches"] for r in batch]
    results = run_many(recipes, jobs=os.cpu_count() or 1)
    return {identity(r): digest(result_to_json(res))
            for r, res in zip(recipes, results)}
