"""The fast engine's per-set NotInPrC counters against a recount.

``FastHierarchy`` keeps, for every LLC set, the number of valid NotInPrC
lines (``llc_nip``) and of valid NotInPrC lines at the maximum RRPV
(``llc_maxnip``), and its O(1) property-vector refresh reads only those
counters (plus the set's valid count and, for lrunotinprc, the stamp
slice with ``_NO_STAMP`` on invalid ways).  These tests recount both
from ``llc_tag``/``llc_meta`` after runs on each of the engine's drivers
-- the fused ``run_trace`` loop, the per-access driver and a checkpoint
taken mid-trace and resumed -- over every fast ZIV property x policy x
directory mode, on the random traces of ``tests/test_differential.py``.

A second layer runs the quick-scale ZIV cells on the fused path and
checks that the fused loop's relocation branch is really taken, and
that in-memory (fused) and streamed (per-access) runs of each cell
agree.
"""

from __future__ import annotations

import pytest

from repro.params import scaled_config
from repro.sim.checkpoint import SimulationInterrupted, load_checkpoint
from repro.sim.differential import GRID_POLICIES
from repro.sim.engine import Simulation
from repro.sim.fast import FastHierarchy
from repro.sim.fast.engine import _MAX_RRPV, _NO_STAMP
from tests.test_differential import CORES, random_workload

ZIV_SCHEMES = ("ziv:notinprc", "ziv:lrunotinprc", "ziv:maxrrpvnotinprc")
CELLS = [
    (scheme, policy, dmode)
    for scheme in ZIV_SCHEMES
    for policy in GRID_POLICIES
    for dmode in ("mesi", "zerodev")
]
SEEDS = (0, 5)  # a 96-block and a 160-block shared pool


def _hierarchy(scheme, policy, dmode):
    config = scaled_config("256KB", cores=CORES, directory_mode=dmode)
    return FastHierarchy(config.replace(engine="fast"), scheme, policy)


def assert_counters_match(h) -> int:
    """Recount both per-set counters from the tag and metadata arrays and
    check that every invalid way holds ``_NO_STAMP``; returns the number
    of NotInPrC lines found."""
    ways = h.llc_ways
    nip = [0] * len(h.llc_nip)
    maxnip = [0] * len(h.llc_maxnip)
    for pos, (addr, meta) in enumerate(zip(h.llc_tag, h.llc_meta)):
        if addr < 0:
            assert h.llc_stamp[pos] == _NO_STAMP, pos
        elif meta & 4:
            nip[pos // ways] += 1
            if (meta >> 4) >= _MAX_RRPV:
                maxnip[pos // ways] += 1
    assert h.llc_nip == nip
    assert h.llc_maxnip == maxnip
    return sum(nip)


@pytest.mark.parametrize("scheme,policy,dmode", CELLS)
def test_counters_after_fused_run(scheme, policy, dmode):
    for seed in SEEDS:
        h = _hierarchy(scheme, policy, dmode)
        h.run_trace(random_workload(seed))
        assert h.stats.relocations > 0
        assert assert_counters_match(h) > 0


@pytest.mark.parametrize("scheme,policy,dmode", CELLS)
def test_counters_after_per_access_run(scheme, policy, dmode):
    # telemetry is a per-access hook, so the run skips the fused loop
    for seed in SEEDS:
        h = _hierarchy(scheme, policy, dmode)
        result = Simulation(h, random_workload(seed), telemetry="100").run()
        assert result.telemetry is not None
        assert h.stats.relocations > 0
        assert assert_counters_match(h) > 0


@pytest.mark.parametrize("scheme,policy,dmode", CELLS)
def test_counters_across_checkpoint_resume(tmp_path, scheme, policy, dmode):
    wl = random_workload(SEEDS[1])
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(SimulationInterrupted):
        Simulation(_hierarchy(scheme, policy, dmode), wl).run(
            checkpoint_path=ckpt, checkpoint_every=250, stop_after=500
        )
    assert assert_counters_match(load_checkpoint(ckpt).hierarchy) > 0
    sim = Simulation(_hierarchy(scheme, policy, dmode), wl)
    sim.run(resume_from=ckpt)
    assert sim.hierarchy.stats.relocations > 0
    assert assert_counters_match(sim.hierarchy) > 0


# ---------------------------------------------------------------------------
# quick scale: the fused loop's relocation branch is taken
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quick_mix(tmp_path_factory):
    from repro.experiments.common import get_scale, mix_population
    from repro.sim.tracebin import make_trace_ref, save_workload_bin

    mix = mix_population(get_scale("quick"))[0]
    path = tmp_path_factory.mktemp("quick") / "mix.tracebin"
    save_workload_bin(mix, path)
    return mix, make_trace_ref(path)


@pytest.mark.parametrize("policy", ("lru", "srrip", "nru"))
@pytest.mark.parametrize("scheme", ZIV_SCHEMES)
def test_quick_fused_cells_relocate(quick_mix, scheme, policy):
    """Every ZIV x {lru, srrip, nru} cell relocates on the fused path,
    and its result equals the streamed run's, which installs through the
    per-access ``_install_ziv``; so the fused install's relocation branch
    is compared, not skipped.  The 512KB L2 point (one of the paper's):
    at 256KB the quick mix's LRU and SRRIP cells never relocate."""
    from repro.service.api import result_to_json
    from repro.sim.engine import run_workload

    mix, ref = quick_mix
    config = scaled_config("512KB").replace(engine="fast")
    h = FastHierarchy(config, scheme, policy)
    fused = h.run_trace
    ran_fused = []

    def run_trace(workload, **kw):
        ran_fused.append(workload)
        return fused(workload, **kw)

    h.run_trace = run_trace
    inmem = Simulation(h, mix, audit="off", telemetry="off").run()
    assert ran_fused == [mix]
    assert inmem.stats.relocations > 0
    assert_counters_match(h)
    streamed = run_workload(config, ref, scheme, policy,
                            audit="off", telemetry="off")
    assert result_to_json(streamed) == result_to_json(inmem)
