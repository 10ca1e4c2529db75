"""The benchmark's own tests (smoke-sized; about a minute).

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs once untraced and once traced at smoke size on the
default seed, so the stored smoke digests are checked too; every metric
``BENCHMARK.json`` names must come out with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    """Run the benchmark found under ``cwd`` at smoke size."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def last_json(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace, section",
                         [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc, lines = bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert "reference digests checked" in lines[-2]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def checkout_copy(tmp_path, links=("src", "scripts")):
    """The benchmark copied into ``tmp_path``, beside ``links`` to the
    program it measures, so its files can be tampered with."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in links:
        (tmp_path / name).symlink_to(ROOT / name)
    return tmp_path


def test_a_corrupted_digest_fails_the_run(tmp_path):
    path = checkout_copy(tmp_path) / "perfbench" / "reference" / \
        "engine-fast-smoke.json"
    reference = json.loads(path.read_text())
    name = sorted(reference["digests"])[0]
    reference["digests"][name] = "0" * 64
    path.write_text(json.dumps(reference))
    proc, lines = bench("--workload", "engine-fast", cwd=tmp_path)
    assert proc.returncode == 1
    result = last_json(lines)
    assert not result["correct"] and result["failed"] >= 1
    assert f"FAILED: digest of {name}: reference 000000000000, got" in \
        "\n".join(lines)


def test_a_missing_reference_fails_the_default_seed(tmp_path):
    (checkout_copy(tmp_path) / "perfbench" / "reference" /
     "engine-fast-smoke.json").unlink()
    proc, lines = bench("--workload", "engine-fast", cwd=tmp_path)
    assert proc.returncode == 1
    assert not last_json(lines)["correct"]
    assert any(line.startswith("FAILED: reference digests unreadable")
               for line in lines)


def test_other_seeds_skip_digests_but_keep_cross_checks():
    proc, lines = bench("--workload", "engine-fast", "--seed", "7919")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reference digests not checked" in lines[-2]
    assert last_json(lines)["correct"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    proc, _lines = bench("--workload", "engine-fast",
                         cwd=checkout_copy(tmp_path, links=()))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def smoke_recipes():
    """Recipes over the smoke mixes with two L2 variants, so each
    stratum holds several recipes of one mix for the seed to choose
    between."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import get_scale, mix_population
    from repro.sim.parallel import make_recipe

    mixes = mix_population(get_scale("smoke"))
    return [make_recipe(m, s, policy=p, l2=l2) for m in mixes
            for s in ("inclusive", "ziv:notinprc", "qbs")
            for p in ("lru", "hawkeye") for l2 in ("256KB", "512KB")]


def test_sample_strata_counts_do_not_depend_on_the_seed():
    import wl_repro_cold

    recipes = smoke_recipes()
    counts = []
    for seed in (1, 2, 3):
        sample = wl_repro_cold.stratified_sample(recipes, 6, seed)
        assert sample == wl_repro_cold.stratified_sample(recipes, 6, seed)
        counts.append(sorted(wl_repro_cold.stratum(r)[:2] for r in sample))
    assert counts[0] == counts[1] == counts[2]


def test_sample_and_identities_survive_a_cache_version_bump(monkeypatch):
    import wl_repro_cold
    from measure import identity

    def sampled():
        sample = wl_repro_cold.stratified_sample(smoke_recipes(), 6, 1)
        return [(identity(r), r.key()) for r in sample]

    before = sampled()
    import repro.sim.parallel

    monkeypatch.setattr(repro.sim.parallel, "CACHE_VERSION", "bumped")
    after = sampled()
    assert [name for name, _key in after] == [name for name, _key in before]
    assert all(a != b for (_n, a), (_m, b) in zip(after, before))


def test_self_time_subtracts_overlapping_children():
    import threading

    tracer = Tracer(True)
    with tracer.span("parent"):
        parent = tracer.current()

        def child():
            with tracer.span("child", parent=parent):
                pass
        threads = [threading.Thread(target=child) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    spans = {s["name"]: s for s in tracer.spans}
    by_name = tracer.self_times()
    assert set(by_name) == {"parent", "child"}
    total = spans["parent"]["end"] - spans["parent"]["start"]
    assert 0 <= by_name["parent"] <= total
    assert all(s["parent"] == parent["id"] for s in tracer.spans
               if s["name"] == "child")
