"""Array-state fast simulation engine.

A second implementation of the CMP hierarchy that produces *bit-identical*
statistics to :class:`repro.hierarchy.cmp.CacheHierarchy` (the reference
oracle) while representing all simulator state as flat Python lists of
integers instead of per-block objects:

* **LLC** -- one tag list indexed by ``pos = (bank * sets_per_bank + set)
  * ways + way`` with ``-1`` marking an invalid way, one packed metadata
  list (bit 0 = dirty, bit 1 = relocated, bit 2 = NotInPrC, bit 3 = NRU,
  bits 4+ = RRPV) and one LRU-stamp list (``_NO_STAMP`` on invalid
  ways, 0 on every valid way outside LRU), plus a single address -> pos
  dict covering home and relocated copies (the two never coexist for one
  address, and the relocated bit disambiguates a relocated block that
  happens to sit in its home set).  Hawkeye adds per-position
  ``friendly`` and ``last_pc`` lists and reuses the object policy's
  ``HawkeyePredictor`` (one, shared by every bank) and OPTgen sampler
  ``_SampledSet`` (one per sampled bank-local set) verbatim.
* **Private L1/L2** -- the same tag/dirty/stamp layout per cache with a
  per-cache monotone LRU clock, mirroring the per-policy clock of the
  object engine.
* **Sparse directory** -- flat address/sharers/owner/NRU lists plus a
  packed relocation pointer (the LLC ``pos`` of the relocated copy, -1
  when none).  ZeroDEV spill entries live in the *same* arrays, in slots
  appended past the fixed slice storage and recycled through a free list.
* **Property vectors** -- the real :class:`PropertyVector` objects (whose
  packed-integer bits and Algorithm 1 nextRS are already array-state).
  Two per-set counters, valid NotInPrC lines and valid NotInPrC lines at
  the maximum RRPV, move with each state change that can flip a property
  (a NotInPrC flip, an RRPV reaching or leaving its maximum, a fill or
  an eviction, as in paper III-D), so a set's refresh reads its bits in
  O(1) instead of rescanning the set's ways.

Every statement of the object engine's access flow is ported in order:
counter increments, NRU touches, DRAM request ordering, PV refreshes and
telemetry events happen at exactly the oracle's sequence points, so
``SimStats``/``CoreStats``/energy/audit/telemetry outputs are equal, not
merely statistically close.  ``repro.sim.differential`` asserts this on
every supported scheme x policy x workload combination.

The supported envelope is the paper's core grid -- inclusive,
non-inclusive and the object-property ZIV variants over
LRU/SRRIP/NRU/Hawkeye, with no prefetching and no scheme/policy keyword
arguments -- and :func:`supports` reports whether a configuration falls
inside it.  ``SystemConfig(engine="auto")``, the default, runs every
configuration inside it here (:func:`resolve_engine`); everything else
(the CHAR-based ZIV schemes, QBS/SHARP/CharonBase and the other
schemes, Belady and other oracles, DRRIP and the other policies,
prefetching, keyword arguments) stays on the object engine.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.replacement.hawkeye import HawkeyePolicy, _SampledSet
from repro.core.properties import PROPERTY_LADDERS
from repro.core.property_vector import PropertyVector
from repro.core.relocation import RelocationTracker
from repro.energy.model import EnergyModel
from repro.hierarchy.cmp import CoherenceError
from repro.hierarchy.interconnect import make_interconnect
from repro.coherence.sparse_directory import DirectoryProtocolError
from repro.core.ziv import ZIVInvariantError
from repro.params import SystemConfig
from repro.sim.stats import SimStats


class UnsupportedConfigError(ValueError):
    """The fast engine does not model this configuration; the caller
    should fall back to the object engine (or fix the request)."""


#: Scheme names the fast engine replicates bit-exactly.
SUPPORTED_SCHEMES = frozenset({
    "inclusive",
    "noninclusive",
    "ziv:notinprc",
    "ziv:lrunotinprc",
    "ziv:maxrrpvnotinprc",
})

#: LLC replacement policies with array ports.
SUPPORTED_POLICIES = frozenset({"lru", "srrip", "nru", "hawkeye"})

#: RRPV width shared by every supported policy (ReplacementPolicy.max_rrpv).
_MAX_RRPV = 7

#: LRU stamp of an invalid LLC way: above every clock value, so the
#: minimum of a set's stamp slice is its LRU *valid* line.
_NO_STAMP = 1 << 62


def supports(
    config: SystemConfig,
    scheme_name: str,
    llc_policy: str = "lru",
    scheme_kwargs: Optional[dict] = None,
    policy_kwargs: Optional[dict] = None,
) -> bool:
    """Whether :class:`FastHierarchy` models this run bit-exactly."""
    return (
        scheme_name in SUPPORTED_SCHEMES
        and llc_policy in SUPPORTED_POLICIES
        and not scheme_kwargs
        and not policy_kwargs
        and config.prefetch.kind == "none"
    )


def resolve_engine(
    config: SystemConfig,
    scheme_name: str,
    llc_policy: str = "lru",
    scheme_kwargs: Optional[dict] = None,
    policy_kwargs: Optional[dict] = None,
    oracle=None,
) -> str:
    """The engine a run uses: ``config.engine``, with ``"auto"`` resolved
    to ``"fast"`` when :func:`supports` accepts the run and no
    replacement oracle is passed, else to ``"object"``."""
    if config.engine != "auto":
        return config.engine
    if oracle is None and supports(config, scheme_name, llc_policy,
                                   scheme_kwargs, policy_kwargs):
        return "fast"
    return "object"


class _FlatCache:
    """One private cache level as flat arrays (direct set indexing)."""

    __slots__ = ("set_mask", "ways", "tag", "dirty", "stamp", "map",
                 "clock", "vcount")

    def __init__(self, sets: int, ways: int) -> None:
        self.set_mask = sets - 1
        self.ways = ways
        n = sets * ways
        self.tag = [-1] * n
        self.dirty = [False] * n
        self.stamp = [0] * n
        self.map: dict[int, int] = {}  # addr -> pos
        self.clock = 0
        self.vcount = [0] * sets


class FastHierarchy:
    """Drop-in :class:`CacheHierarchy` replacement over flat arrays.

    Drives the real :class:`repro.sim.engine.Simulation` loop and the
    real audit/telemetry layers through thin views
    (:mod:`repro.sim.fast.views`); statistics objects
    (:class:`SimStats`, :class:`EnergyModel`, :class:`PropertyVector`,
    :class:`RelocationTracker`) are shared with the object engine
    verbatim so results compare field-for-field.
    """

    #: Which engine produced a result (ledger/profile provenance).
    engine_name = "fast"

    def __init__(
        self,
        config: SystemConfig,
        scheme_name: str,
        llc_policy: str = "lru",
        scheme_kwargs: Optional[dict] = None,
        policy_kwargs: Optional[dict] = None,
    ) -> None:
        if not supports(config, scheme_name, llc_policy,
                        scheme_kwargs, policy_kwargs):
            raise UnsupportedConfigError(
                f"fast engine does not support scheme={scheme_name!r} "
                f"policy={llc_policy!r} scheme_kwargs={scheme_kwargs!r} "
                f"policy_kwargs={policy_kwargs!r} "
                f"prefetch={config.prefetch.kind!r}; supported schemes: "
                f"{sorted(SUPPORTED_SCHEMES)}, policies: "
                f"{sorted(SUPPORTED_POLICIES)}, no prefetching"
            )
        self.config = config
        self.scheme_name = scheme_name
        self.policy_name = llc_policy
        self.stats = SimStats.for_cores(config.cores)
        self._core_stats = self.stats.cores
        self._ziv = scheme_name.startswith("ziv")
        self.inclusive = scheme_name != "noninclusive"
        self.energy = EnergyModel(ziv_mode=self._ziv)
        self.char = None  # the supported envelope never runs CHAR
        self.telemetry = None  # bound by TelemetryCollector.bind()

        # -- LLC arrays ----------------------------------------------------
        llc = config.llc
        self.llc_banks = llc.banks
        self.llc_spb = llc.sets_per_bank
        self.llc_ways = llc.ways
        self.llc_bank_mask = llc.banks - 1
        self.llc_bank_bits = (llc.banks - 1).bit_length()
        self.llc_set_mask = llc.sets_per_bank - 1
        self.bank_size = llc.sets_per_bank * llc.ways
        n = llc.banks * self.bank_size
        self.llc_tag = [-1] * n
        self.llc_meta = [0] * n
        self.llc_stamp = [_NO_STAMP] * n
        self.llc_map: dict[int, int] = {}  # addr -> pos (home or relocated)
        self.llc_clock = [0] * llc.banks  # per-bank monotone LRU clock
        self.llc_vcount = [0] * (llc.banks * llc.sets_per_bank)
        # ZIV only: valid NotInPrC lines per set, and those of them at
        # RRPV max_rrpv (a relocated line is never NotInPrC).
        self.llc_nip = [0] * (llc.banks * llc.sets_per_bank)
        self.llc_maxnip = [0] * (llc.banks * llc.sets_per_bank)

        # -- private caches ------------------------------------------------
        self._l1s = [
            _FlatCache(config.l1.sets, config.l1.ways)
            for _ in range(config.cores)
        ]
        self._l2s = [
            _FlatCache(config.l2.sets, config.l2.ways)
            for _ in range(config.cores)
        ]

        # -- sparse directory ----------------------------------------------
        dg = config.directory
        self.d_sets = dg.sets
        self.d_ways = dg.ways
        self._dir_set_bits = (dg.sets - 1).bit_length()
        self._dir_set_mask = dg.sets - 1
        self.d_slice_size = llc.banks * dg.sets * dg.ways
        size = self.d_slice_size
        self.d_addr = [-1] * size
        self.d_sharers = [0] * size
        self.d_owner = [-1] * size
        self.d_nru = [False] * size
        self.d_reloc = [-1] * size  # packed LLC pos of the relocated copy
        self.d_vcount = [0] * (llc.banks * dg.sets)  # valid per slice set
        self.d_map: dict[int, int] = {}  # addr -> pos (slices and spill)
        self.d_spill_addrs: dict[int, int] = {}  # insertion-ordered
        self.d_spill_free: list[int] = []
        self.spill_count = 0
        self._zerodev = config.directory_mode == "zerodev"

        # -- DRAM (inlined event-cost model) -------------------------------
        dp = config.dram
        self._dram_ch_mask = dp.channels - 1
        self._dram_ch_shift = (dp.channels - 1).bit_length()
        self._dram_bpc = dp.banks_per_channel
        self._dram_bank_mask = dp.banks_per_channel - 1
        self._dram_bank_shift = (dp.banks_per_channel - 1).bit_length()
        self._dram_row_bits = dp.row_bits
        self._dram_hit = dp.row_hit_latency
        self._dram_miss = dp.row_miss_latency
        self._dram_conflict = dp.row_conflict_latency
        self._dram_busy = dp.bank_busy
        ngb = dp.channels * dp.banks_per_channel
        self._dram_open = [-1] * ngb
        self._dram_ready = [0] * ngb

        # -- latencies -----------------------------------------------------
        self.interconnect = make_interconnect(
            config.core, config.cores, llc.banks
        )
        self._l1_lat = config.l1.latency
        self._l12_lat = config.l1.latency + config.l2.latency
        self._data_lat = llc.data_latency
        self._fwd_lat = config.core.coherence_forward_latency
        self._reloc_penalty = config.core.relocated_access_penalty
        self._base_lat = [
            self._l12_lat
            + 2 * self.interconnect.latency(core, bank)
            + llc.tag_latency
            for core in range(config.cores)
            for bank in range(llc.banks)
        ]

        # -- replacement policy dispatch -----------------------------------
        # ``_llc_evict`` (None unless the policy learns from evictions)
        # and ``_llc_reloc_fill`` mirror ReplacementPolicy.on_evict and
        # on_relocation_fill (``promote``, QBS's move-to-MRU, has no call
        # site inside the envelope).  ``_pc`` is the PC of the access in
        # flight, set once per LLC access; only Hawkeye reads it.
        self._pc = 0
        self._lru_stamps = llc_policy == "lru"  # else every stamp is 0
        self._llc_evict = None
        self._llc_reloc_fill = self._reloc_fill_pos_default
        if llc_policy == "lru":
            self._llc_fill = self._fill_pos_lru
            self._llc_touch = self._touch_pos_lru
            self._victim = self._victim_lru
        elif llc_policy == "srrip":
            self._llc_fill = self._fill_pos_srrip
            self._llc_touch = self._touch_pos_srrip
            self._victim = self._victim_srrip
        elif llc_policy == "nru":
            self._llc_fill = self._fill_pos_nru
            self._llc_touch = self._touch_pos_nru
            self._victim = self._victim_nru
        else:
            # Hawkeye with its default parameters (policy_kwargs are
            # outside the envelope): one predictor shared by every bank,
            # as LastLevelCache shares it, and one OPTgen sampler per
            # sampled bank-local set, indexed here by global set id.
            ref = HawkeyePolicy()
            self._hk_predictor = ref.predictor
            window = ref.window_factor * llc.ways
            self._hk_samplers = [
                _SampledSet(window) if s % ref.sample_every == 0 else None
                for _bank in range(llc.banks)
                for s in range(llc.sets_per_bank)
            ]
            self.llc_friendly = [True] * n
            self.llc_last_pc = [0] * n
            self._llc_fill = self._fill_pos_hawkeye
            self._llc_touch = self._touch_pos_hawkeye
            self._victim = self._victim_hawkeye
            self._llc_evict = self._evict_pos_hawkeye
            self._llc_reloc_fill = self._reloc_fill_pos_hawkeye

        # -- scheme state --------------------------------------------------
        if self._ziv:
            prop = scheme_name.split(":", 1)[1]
            self._property_name = prop
            self._ladder = PROPERTY_LADDERS[prop]
            self._pvs = [
                {
                    p: PropertyVector(self.llc_spb, name=f"{p}[{b}]")
                    for p in self._ladder
                }
                for b in range(self.llc_banks)
            ]
            self._fast_pvs = [
                tuple(
                    bank_pvs.get(p)
                    for p in ("invalid", "notinprc", "lrunotinprc",
                              "maxrrpvnotinprc")
                )
                for bank_pvs in self._pvs
            ]
            self._ladder_pvs = [
                tuple((p, bank_pvs[p]) for p in self._ladder)
                for bank_pvs in self._pvs
            ]
            self._reloc_rule_maxrrpv = prop == "maxrrpvnotinprc"
            self._reloc = RelocationTracker(
                self.llc_banks,
                fifo_depth=config.relocation_fifo_depth,
                nextrs_latency=config.nextrs_latency,
            )
            self._install = self._install_ziv
            # PropertyTracker.__init__ refreshes every set up front (the
            # all-invalid LLC flips every "invalid" PV bit on); replicate
            # so pv_flips and energy.pv_updates match.
            for sid in range(self.llc_banks * self.llc_spb):
                self._refresh(sid)
        else:
            self._property_name = None
            self._ladder = ()
            self._pvs = None
            self._reloc = None
            if scheme_name == "inclusive":
                self._install = self._install_inclusive
            else:
                self._install = self._install_noninclusive

        # -- audit/telemetry views ----------------------------------------
        from repro.sim.fast.views import (
            FastDirectoryView,
            FastLLCView,
            FastPrivateView,
            FastSchemeView,
        )

        self.llc = FastLLCView(self)
        self.directory = FastDirectoryView(self)
        self.private = [
            FastPrivateView(self, core) for core in range(config.cores)
        ]
        self.scheme = FastSchemeView(self)

    # ------------------------------------------------------------------ access

    def access(
        self,
        core: int,
        addr: int,
        is_write: bool = False,
        pc: int = 0,
        cycle: int = 0,
        global_pos: int = 0,
    ) -> int:
        """One memory access; returns its latency in cycles.

        Statement-for-statement port of ``CacheHierarchy.access``: every
        counter increment and coherence action happens at the oracle's
        sequence point.
        """
        cs = self._core_stats[core]
        cs.accesses += 1
        energy = self.energy
        energy.l1_accesses += 1

        l1 = self._l1s[core]
        pos = l1.map.get(addr, -1)
        if pos >= 0:
            cs.l1_hits += 1
            extra = 0
            if is_write:
                if not l1.dirty[pos]:
                    extra = self._write_upgrade(core, addr)
                l1.dirty[pos] = True
            l1.clock += 1
            l1.stamp[pos] = l1.clock
            return self._l1_lat + extra

        cs.l1_misses += 1
        energy.l2_accesses += 1
        l2 = self._l2s[core]
        pos = l2.map.get(addr, -1)
        if pos >= 0:
            cs.l2_hits += 1
            extra = 0
            if is_write:
                if not l2.dirty[pos]:
                    extra = self._write_upgrade(core, addr)
                l2.dirty[pos] = True
            l2.clock += 1
            l2.stamp[pos] = l2.clock
            n1 = self._fill_l1(core, addr, False, is_write)
            if n1 is not None:
                self._handle_notice(core, n1[0], n1[1], cycle)
            return self._l12_lat + extra

        cs.l2_misses += 1
        self._pc = pc
        return self._llc_access(core, addr, is_write, cycle)

    # -------------------------------------------------------------- LLC path

    def _llc_access(
        self, core: int, addr: int, is_write: bool, cycle: int
    ) -> int:
        energy = self.energy
        energy.llc_tag_accesses += 1
        energy.dir_accesses += 1
        dpos = self._dir_lookup(addr)
        bank = addr & self.llc_bank_mask
        lat = self._base_lat[core * self.llc_banks + bank]

        if dpos >= 0 and self.d_reloc[dpos] >= 0:
            return self._relocated_hit(core, addr, dpos, is_write, cycle, lat)

        hp = self.llc_map.get(addr, -1)
        if hp >= 0 and not (self.llc_meta[hp] & 2):
            return self._llc_hit(core, addr, dpos, hp, is_write, cycle, lat)

        self.stats.llc_misses += 1
        if dpos >= 0:
            if self.inclusive:
                raise CoherenceError(
                    f"inclusive LLC missed on a directory-tracked block "
                    f"{addr:#x}"
                )
            return self._forward_fill(core, addr, dpos, is_write, cycle, lat)
        return self._memory_fill(core, addr, is_write, cycle, lat)

    def _relocated_hit(
        self, core: int, addr: int, dpos: int, is_write: bool,
        cycle: int, lat: int,
    ) -> int:
        rp = self.d_reloc[dpos]
        if not (self.llc_meta[rp] & 2) or self.llc_tag[rp] != addr:
            raise CoherenceError(
                f"directory relocation pointer for {addr:#x} is stale"
            )
        extra = self._coherence_on_miss(core, addr, dpos, is_write, cycle)
        self._llc_touch(rp)
        if self._ziv:
            self._refresh(rp // self.llc_ways)
        stats = self.stats
        stats.llc_hits += 1
        stats.relocated_hits += 1
        self.energy.llc_data_reads += 1
        self.d_sharers[dpos] |= 1 << core
        if is_write:
            self.d_owner[dpos] = core
        self._fill_private(core, addr, is_write, cycle)
        return lat + self._data_lat + self._reloc_penalty + extra

    def _llc_hit(
        self, core: int, addr: int, dpos: int, hp: int, is_write: bool,
        cycle: int, lat: int,
    ) -> int:
        extra = 0
        if dpos >= 0:
            extra = self._coherence_on_miss(core, addr, dpos, is_write, cycle)
        if self._ziv:
            self._nip_leave(hp)
        self._llc_touch(hp)
        self.llc_meta[hp] &= ~4  # not_in_prc = False
        if self._ziv:
            self._refresh(hp // self.llc_ways)
        self.stats.llc_hits += 1
        self.energy.llc_data_reads += 1
        if dpos < 0:
            dpos = self._dir_allocate(addr, cycle)
        self.d_sharers[dpos] |= 1 << core
        if is_write:
            self.d_owner[dpos] = core
        self._fill_private(core, addr, is_write, cycle)
        return lat + self._data_lat + extra

    def _forward_fill(
        self, core: int, addr: int, dpos: int, is_write: bool,
        cycle: int, lat: int,
    ) -> int:
        extra = self._coherence_on_miss(core, addr, dpos, is_write, cycle)
        self._install(addr, cycle)
        self.energy.llc_data_writes += 1
        self.d_sharers[dpos] |= 1 << core
        if is_write:
            self.d_owner[dpos] = core
        self._fill_private(core, addr, is_write, cycle)
        return lat + self._fwd_lat + extra

    def _memory_fill(
        self, core: int, addr: int, is_write: bool, cycle: int, lat: int
    ) -> int:
        dram_lat = self._dram(addr, cycle)
        self.stats.dram_reads += 1
        self.energy.dram_accesses += 1
        self._install(addr, cycle)
        self.stats.llc_fills += 1
        self.energy.llc_data_writes += 1
        dpos = self._dir_allocate(addr, cycle)
        self.d_sharers[dpos] |= 1 << core
        if is_write:
            self.d_owner[dpos] = core
        self._fill_private(core, addr, is_write, cycle)
        return lat + dram_lat

    # ------------------------------------------------------------- coherence

    def _write_upgrade(self, core: int, addr: int) -> int:
        dpos = self._dir_lookup(addr)
        if dpos < 0:
            raise CoherenceError(
                f"private hit on {addr:#x} with no directory entry"
            )
        if self.d_owner[dpos] == core:
            return 0
        extra = 0
        bit = 1 << core
        others = self.d_sharers[dpos] & ~bit
        if others:
            self._invalidate_sharers(others, addr)
            self.d_sharers[dpos] = bit
            extra = self._fwd_lat
        self.d_owner[dpos] = core
        return extra

    def _coherence_on_miss(
        self, core: int, addr: int, dpos: int, is_write: bool, cycle: int
    ) -> int:
        extra = 0
        if is_write:
            others = self.d_sharers[dpos] & ~(1 << core)
            if others:
                self._invalidate_sharers(others, addr)
                self.d_sharers[dpos] &= 1 << core
                self.d_owner[dpos] = -1
                extra = self._fwd_lat
        else:
            owner = self.d_owner[dpos]
            if owner >= 0 and owner != core:
                dirty = self._downgrade(owner, addr)
                self.d_owner[dpos] = -1
                if dirty:
                    self._merge_dirty(addr)
                extra = self._fwd_lat
        return extra

    def _invalidate_sharers(self, mask: int, addr: int) -> None:
        core = 0
        while mask:
            if mask & 1:
                copies, _dirty = self._invalidate(core, addr)
                if copies:
                    self.stats.coherence_invalidations += 1
            mask >>= 1
            core += 1

    def _invalidate(self, core: int, addr: int) -> tuple[int, bool]:
        """Kill every private copy; returns (copies, dirty data present)."""
        copies = 0
        dirty = False
        for cache in (self._l1s[core], self._l2s[core]):
            pos = cache.map.pop(addr, -1)
            if pos >= 0:
                cache.tag[pos] = -1
                cache.vcount[pos // cache.ways] -= 1
                copies += 1
                dirty = dirty or cache.dirty[pos]
        return copies, dirty

    def _downgrade(self, core: int, addr: int) -> bool:
        dirty = False
        for cache in (self._l1s[core], self._l2s[core]):
            pos = cache.map.get(addr, -1)
            if pos >= 0:
                dirty = dirty or cache.dirty[pos]
                cache.dirty[pos] = False
        return dirty

    def _merge_dirty(self, addr: int) -> None:
        """Dirty data written back from a private cache: update the LLC
        copy if one exists (normal or relocated), else write to memory.
        The oracle passes no context here, so the writeback posts at
        cycle 0 -- replicated for DRAM-state equality."""
        hp = self.llc_map.get(addr, -1)
        if hp >= 0 and not (self.llc_meta[hp] & 2):
            self.llc_meta[hp] |= 1
            return
        dpos = self._dir_lookup(addr)
        if dpos >= 0 and self.d_reloc[dpos] >= 0:
            self.llc_meta[self.d_reloc[dpos]] |= 1
            return
        self._writeback(addr, 0)

    # ---------------------------------------------------------- private fills

    def _fill_private(
        self, core: int, addr: int, is_write: bool, cycle: int
    ) -> None:
        n2 = self._fill_l2(core, addr, is_write)
        n1 = self._fill_l1(core, addr, is_write, is_write)
        if n2 is not None:
            self._handle_notice(core, n2[0], n2[1], cycle)
        if n1 is not None:
            self._handle_notice(core, n1[0], n1[1], cycle)

    def _fill_l2(
        self, core: int, addr: int, is_write: bool
    ) -> Optional[tuple[int, bool]]:
        l2 = self._l2s[core]
        s = addr & l2.set_mask
        base = s * l2.ways
        notice = None
        tags = l2.tag
        if l2.vcount[s] < l2.ways:
            pos = base
            while tags[pos] >= 0:
                pos += 1
            l2.vcount[s] += 1
        else:
            stamps = l2.stamp
            pos = base
            best = stamps[base]
            for p in range(base + 1, base + l2.ways):
                sp = stamps[p]
                if sp < best:
                    best = sp
                    pos = p
            old_addr = tags[pos]
            old_dirty = l2.dirty[pos]
            del l2.map[old_addr]
            l1 = self._l1s[core]
            lpos = l1.map.get(old_addr, -1)
            if lpos >= 0:
                if old_dirty:
                    l1.dirty[lpos] = True
            else:
                notice = (old_addr, old_dirty)
        tags[pos] = addr
        l2.map[addr] = pos
        l2.dirty[pos] = is_write
        l2.clock += 1
        l2.stamp[pos] = l2.clock
        return notice

    def _fill_l1(
        self, core: int, addr: int, dirty: bool, is_write: bool
    ) -> Optional[tuple[int, bool]]:
        l1 = self._l1s[core]
        pos = l1.map.get(addr, -1)
        if pos >= 0:
            l1.clock += 1
            l1.stamp[pos] = l1.clock
            if dirty or is_write:
                l1.dirty[pos] = True
            return None
        s = addr & l1.set_mask
        base = s * l1.ways
        notice = None
        tags = l1.tag
        if l1.vcount[s] < l1.ways:
            pos = base
            while tags[pos] >= 0:
                pos += 1
            l1.vcount[s] += 1
        else:
            stamps = l1.stamp
            pos = base
            best = stamps[base]
            for p in range(base + 1, base + l1.ways):
                sp = stamps[p]
                if sp < best:
                    best = sp
                    pos = p
            old_addr = tags[pos]
            old_dirty = l1.dirty[pos]
            del l1.map[old_addr]
            l2 = self._l2s[core]
            lpos = l2.map.get(old_addr, -1)
            if lpos >= 0:
                if old_dirty:
                    l2.dirty[lpos] = True
            else:
                notice = (old_addr, old_dirty)
        tags[pos] = addr
        l1.map[addr] = pos
        l1.dirty[pos] = dirty or is_write
        l1.clock += 1
        l1.stamp[pos] = l1.clock
        return notice

    # ------------------------------------------------------- eviction notices

    def _handle_notice(
        self, core: int, naddr: int, ndirty: bool, cycle: int
    ) -> None:
        stats = self.stats
        stats.eviction_notices += 1
        dpos = self._dir_lookup(naddr)
        if dpos < 0:
            raise CoherenceError(
                f"eviction notice for untracked block {naddr:#x}"
            )
        sharers = self.d_sharers[dpos] & ~(1 << core)
        self.d_sharers[dpos] = sharers
        if self.d_owner[dpos] == core:
            self.d_owner[dpos] = -1
        if sharers:
            return
        rp = self.d_reloc[dpos]
        if rp >= 0:
            self._kill_relocated(rp, naddr, ndirty, cycle)
            self._dir_free(naddr)
            return
        self._dir_free(naddr)
        hp = self.llc_map.get(naddr, -1)
        if hp >= 0 and not (self.llc_meta[hp] & 2):
            if self._ziv:
                self._nip_enter(hp)
            m = self.llc_meta[hp] | 4  # not_in_prc = True
            if ndirty:
                m |= 1
                stats.llc_writebacks_in += 1
            self.llc_meta[hp] = m
            if self._ziv:
                self._refresh(hp // self.llc_ways)
        elif ndirty:
            self._writeback(naddr, cycle)

    def _kill_relocated(
        self, rp: int, addr: int, notice_dirty: bool, cycle: int
    ) -> None:
        m = self.llc_meta[rp]
        if not (m & 2) or self.llc_tag[rp] != addr:
            raise CoherenceError(
                f"stale relocation pointer while killing {addr:#x}"
            )
        dirty = bool(m & 1) or notice_dirty
        if self._llc_evict is not None:
            self._llc_evict(rp)
        del self.llc_map[addr]
        self.llc_tag[rp] = -1
        self.llc_stamp[rp] = _NO_STAMP
        sid = rp // self.llc_ways
        self.llc_vcount[sid] -= 1
        if dirty:
            self._writeback(addr, cycle)
        if self._ziv:
            self._refresh(sid)

    # ------------------------------------------------------ directory storage

    def _dir_lookup(self, addr: int) -> int:
        """Position of the tracking entry (slice or spill), -1 if absent.
        Slice hits set the NRU bit, exactly like the object lookup; spill
        hits do not (spill entries never re-enter a slice set)."""
        pos = self.d_map.get(addr, -1)
        if 0 <= pos < self.d_slice_size:
            self.d_nru[pos] = True
        return pos

    def _dir_set_index(self, addr: int) -> int:
        """XOR-folded slice-set index (DirectoryGeometry.set_index)."""
        a = addr >> self.llc_bank_bits
        bits = self._dir_set_bits
        if bits == 0:
            return 0
        idx = 0
        while a:
            idx ^= a
            a >>= bits
        return idx & self._dir_set_mask

    def _dir_allocate(self, addr: int, cycle: int) -> int:
        """Install a tracking entry; handles displacement (MESI
        back-invalidation or ZeroDEV spill) before returning."""
        bank = addr & self.llc_bank_mask
        dsid = bank * self.d_sets + self._dir_set_index(addr)
        base = dsid * self.d_ways
        end = base + self.d_ways
        d_addr = self.d_addr
        displaced = None
        if self.d_vcount[dsid] < self.d_ways:
            pos = d_addr.index(-1, base, end)
            self.d_vcount[dsid] += 1
        else:
            d_nru = self.d_nru
            try:
                pos = d_nru.index(False, base, end)
            except ValueError:
                d_nru[base:end] = [False] * self.d_ways
                pos = base
            displaced = (
                d_addr[pos],
                self.d_sharers[pos],
                self.d_owner[pos],
                self.d_reloc[pos],
            )
            del self.d_map[d_addr[pos]]
        d_addr[pos] = addr
        self.d_sharers[pos] = 0
        self.d_owner[pos] = -1
        self.d_nru[pos] = True
        self.d_reloc[pos] = -1
        self.d_map[addr] = pos
        if displaced is not None:
            if self._zerodev:
                self._spill(displaced)
            else:
                self._handle_displaced(displaced, cycle)
        return pos

    def _spill(self, displaced: tuple[int, int, int, int]) -> None:
        """ZeroDEV: the displaced entry moves to the spill region (slots
        past the slice storage, recycled through a free list)."""
        daddr, sharers, owner, reloc = displaced
        if self.d_spill_free:
            spos = self.d_spill_free.pop()
        else:
            spos = len(self.d_addr)
            self.d_addr.append(-1)
            self.d_sharers.append(0)
            self.d_owner.append(-1)
            self.d_nru.append(False)
            self.d_reloc.append(-1)
        self.d_addr[spos] = daddr
        self.d_sharers[spos] = sharers
        self.d_owner[spos] = owner
        self.d_nru[spos] = False
        self.d_reloc[spos] = reloc
        self.d_map[daddr] = spos
        self.d_spill_addrs[daddr] = spos
        self.spill_count += 1

    def _dir_free(self, addr: int) -> None:
        pos = self.d_map.pop(addr, -1)
        if pos < 0:
            raise DirectoryProtocolError(
                f"free of untracked block {addr:#x} -- double free, or the "
                f"block was never allocated"
            )
        if pos >= self.d_slice_size:
            del self.d_spill_addrs[addr]
            self.d_spill_free.append(pos)
        else:
            self.d_vcount[pos // self.d_ways] -= 1
        self.d_addr[pos] = -1
        self.d_sharers[pos] = 0
        self.d_owner[pos] = -1
        self.d_nru[pos] = False
        self.d_reloc[pos] = -1

    def _handle_displaced(
        self, displaced: tuple[int, int, int, int], cycle: int
    ) -> None:
        """MESI-mode directory eviction: back-invalidate the private
        copies and kill the relocated LLC copy, if any (paper III-F)."""
        daddr, sharers, _owner, reloc = displaced
        stats = self.stats
        stats.directory_evictions += 1
        stats.back_invalidations_dir += 1
        dirty_any = False
        victims = 0
        mask = sharers
        core = 0
        while mask:
            if mask & 1:
                copies, dirty = self._invalidate(core, daddr)
                if copies:
                    victims += 1
                    stats.inclusion_victims_dir += 1
                dirty_any = dirty_any or dirty
            mask >>= 1
            core += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                "directory_eviction",
                addr=daddr,
                sharers=sharers,
                victims=victims,
                relocated=reloc >= 0,
            )
        if reloc >= 0:
            dirty = bool(self.llc_meta[reloc] & 1) or dirty_any
            if self._llc_evict is not None:
                self._llc_evict(reloc)
            del self.llc_map[self.llc_tag[reloc]]
            self.llc_tag[reloc] = -1
            self.llc_stamp[reloc] = _NO_STAMP
            sid = reloc // self.llc_ways
            self.llc_vcount[sid] -= 1
            if dirty:
                self._writeback(daddr, cycle)
            if self._ziv:
                self._refresh(sid)
            return
        hp = self.llc_map.get(daddr, -1)
        if hp >= 0 and not (self.llc_meta[hp] & 2):
            if self._ziv:
                self._nip_enter(hp)
            m = self.llc_meta[hp] | 4
            if dirty_any:
                m |= 1
            self.llc_meta[hp] = m
            if self._ziv:
                self._refresh(hp // self.llc_ways)
        elif dirty_any:
            self._writeback(daddr, cycle)

    def _back_invalidate(self, addr: int, cycle: int) -> None:
        """Inclusive-baseline LLC eviction: invalidate every private copy
        of ``addr`` and free its directory entry.  The trailing dirty
        writeback posts at cycle 0 (the oracle passes no context)."""
        dpos = self._dir_lookup(addr)
        if dpos < 0 or self.d_sharers[dpos] == 0:
            return
        stats = self.stats
        stats.back_invalidations_llc += 1
        sharers = self.d_sharers[dpos]
        dirty_any = False
        victims = 0
        mask = sharers
        core = 0
        while mask:
            if mask & 1:
                copies, dirty = self._invalidate(core, addr)
                if copies:
                    victims += 1
                    stats.inclusion_victims_llc += 1
                dirty_any = dirty_any or dirty
            mask >>= 1
            core += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                "back_invalidation",
                addr=addr,
                trigger="llc",
                sharers=sharers,
                victims=victims,
            )
        self._dir_free(addr)
        if dirty_any:
            hp = self.llc_map.get(addr, -1)
            if hp >= 0 and not (self.llc_meta[hp] & 2):
                self.llc_meta[hp] |= 1
            else:
                self._writeback(addr, 0)

    # ------------------------------------------------------------ LLC storage

    def _evict_llc(self, pos: int, cycle: int) -> None:
        """Evict the valid block at ``pos``; dirty data goes to memory."""
        if self._llc_evict is not None:
            self._llc_evict(pos)
        if self._ziv:
            self._nip_leave(pos)
        m = self.llc_meta[pos]
        addr = self.llc_tag[pos]
        del self.llc_map[addr]
        self.llc_tag[pos] = -1
        self.llc_stamp[pos] = _NO_STAMP
        self.llc_vcount[pos // self.llc_ways] -= 1
        if m & 1:
            self._writeback(addr, cycle)

    def _install_home(self, pos: int, sid: int, addr: int) -> None:
        """Fill ``addr`` into the invalid way at ``pos`` (home set)."""
        self.llc_tag[pos] = addr
        self.llc_meta[pos] = 0
        self.llc_stamp[pos] = 0
        self.llc_map[addr] = pos
        self.llc_vcount[sid] += 1
        self._llc_fill(pos)

    # -- replacement-policy array ports (bound at init) --------------------

    def _fill_pos_lru(self, pos: int) -> None:
        bank = pos // self.bank_size
        self.llc_clock[bank] += 1
        self.llc_stamp[pos] = self.llc_clock[bank]

    def _touch_pos_lru(self, pos: int) -> None:
        bank = pos // self.bank_size
        self.llc_clock[bank] += 1
        self.llc_stamp[pos] = self.llc_clock[bank]

    def _victim_lru(self, base: int) -> int:
        stamps = self.llc_stamp
        pos = base
        best = stamps[base]
        for p in range(base + 1, base + self.llc_ways):
            sp = stamps[p]
            if sp < best:
                best = sp
                pos = p
        return pos

    def _fill_pos_srrip(self, pos: int) -> None:
        # insertion RRPV = max_rrpv - 1 (the RRPV bits are clear on entry)
        self.llc_meta[pos] |= (_MAX_RRPV - 1) << 4

    def _touch_pos_srrip(self, pos: int) -> None:
        self.llc_meta[pos] &= 0xF  # RRPV -> 0

    def _victim_srrip(self, base: int) -> int:
        metas = self.llc_meta
        ways = self.llc_ways
        end = base + ways
        seg = metas[base:end]
        top = max(seg) >> 4  # the set's highest RRPV (the set is full)
        if top < _MAX_RRPV:
            inc = (_MAX_RRPV - top) << 4
            seg = [m + inc for m in seg]
            metas[base:end] = seg
            if self._ziv:
                # No line sat at max_rrpv before aging; now the lines
                # that held ``top`` do.
                self.llc_maxnip[base // ways] = [
                    m & 0xF4 for m in seg
                ].count((_MAX_RRPV << 4) | 4)
        for way, m in enumerate(seg):
            if (m >> 4) >= _MAX_RRPV:
                return base + way
        raise AssertionError("aging must expose a max-RRPV block")

    def _fill_pos_nru(self, pos: int) -> None:
        self.llc_meta[pos] |= 8

    def _touch_pos_nru(self, pos: int) -> None:
        self.llc_meta[pos] |= 8

    def _victim_nru(self, base: int) -> int:
        metas = self.llc_meta
        end = base + self.llc_ways
        all_set = True
        for p in range(base, end):
            if not (metas[p] & 8):
                all_set = False
                break
        if all_set:
            for p in range(base, end):
                metas[p] &= ~8
        for p in range(base, end):
            if not (metas[p] & 8):
                return p
        return base

    def _reloc_fill_pos_default(self, pos: int, src: int) -> None:
        # ReplacementPolicy.on_relocation_fill: a normal fill.
        self._llc_fill(pos)

    def _hk_observe(self, sid: int, addr: int, pc: int) -> None:
        """HawkeyePolicy._observe: feed a sampled set's OPTgen and train
        the shared predictor on its verdict."""
        sampler = self._hk_samplers[sid]
        if sampler is not None:
            outcome = sampler.access(addr, pc, self.llc_ways)
            if outcome is not None:
                self._hk_predictor.train(outcome[0], outcome[1])

    def _hk_predict(self, pos: int, pc: int) -> bool:
        """HawkeyePolicy._apply_prediction's bookkeeping: the block
        remembers ``pc`` and the predictor's verdict on it."""
        self.llc_last_pc[pos] = pc
        friendly = self._hk_predictor.is_friendly(pc)
        self.llc_friendly[pos] = friendly
        return friendly

    def _fill_pos_hawkeye(self, pos: int) -> None:
        """HawkeyePolicy.on_fill: observe, then predict; a friendly fill
        (RRPV 0, already clear on entry) ages the set's other valid
        lines below ``max_rrpv - 1``.  Aging stops at ``max_rrpv - 1``,
        so it moves no line onto or off ``max_rrpv`` and leaves the
        set's ``llc_maxnip`` count as it was."""
        ways = self.llc_ways
        sid = pos // ways
        pc = self._pc
        self._hk_observe(sid, self.llc_tag[pos], pc)
        metas = self.llc_meta
        if not self._hk_predict(pos, pc):
            metas[pos] |= _MAX_RRPV << 4
            return
        tags = self.llc_tag
        base = sid * ways
        for p in range(base, base + ways):
            # RRPV < max_rrpv - 1, read off the packed word
            if p != pos and tags[p] >= 0 and metas[p] < (_MAX_RRPV - 1) << 4:
                metas[p] += 1 << 4

    def _touch_pos_hawkeye(self, pos: int) -> None:
        """HawkeyePolicy.on_hit: observe, then re-predict (no aging).
        The line touched is either relocated or a home hit that drops
        out of the NotInPrC counters first, so no counter moves here."""
        pc = self._pc
        self._hk_observe(pos // self.llc_ways, self.llc_tag[pos], pc)
        m = self.llc_meta[pos] & 0xF
        self.llc_meta[pos] = (
            m if self._hk_predict(pos, pc) else m | (_MAX_RRPV << 4)
        )

    def _evict_pos_hawkeye(self, pos: int) -> None:
        """HawkeyePolicy.on_evict: a friendly block leaving unreused
        detrains the PC that inserted it."""
        if self.llc_friendly[pos]:
            self._hk_predictor.detrain(self.llc_last_pc[pos])

    def _reloc_fill_pos_hawkeye(self, pos: int, src: int) -> None:
        """HawkeyePolicy.on_relocation_fill: the block keeps its last
        load PC and takes the predictor's opinion of it, with neither a
        sampler observation nor aging."""
        if not self._hk_predict(pos, self.llc_last_pc[src]):
            self.llc_meta[pos] |= _MAX_RRPV << 4

    def _victim_hawkeye(self, base: int) -> int:
        """HawkeyePolicy's victim: the highest RRPV, lowest way on
        ties; unlike SRRIP, nothing ages."""
        metas = self.llc_meta
        pos = base
        best = metas[base] >> 4
        for p in range(base + 1, base + self.llc_ways):
            r = metas[p] >> 4
            if r > best:
                best = r
                pos = p
        return pos

    # --------------------------------------------------------- scheme installs

    def _install_inclusive(self, addr: int, cycle: int) -> None:
        bank = addr & self.llc_bank_mask
        sid = (bank * self.llc_spb
               + ((addr >> self.llc_bank_bits) & self.llc_set_mask))
        base = sid * self.llc_ways
        if self.llc_vcount[sid] < self.llc_ways:
            tags = self.llc_tag
            pos = base
            while tags[pos] >= 0:
                pos += 1
        else:
            pos = self._victim(base)
            # Back-invalidation first: a dirty private copy marks the
            # victim dirty, so the eviction below writes it back.
            self._back_invalidate(self.llc_tag[pos], cycle)
            self._evict_llc(pos, cycle)
        self._install_home(pos, sid, addr)

    def _install_noninclusive(self, addr: int, cycle: int) -> None:
        bank = addr & self.llc_bank_mask
        sid = (bank * self.llc_spb
               + ((addr >> self.llc_bank_bits) & self.llc_set_mask))
        base = sid * self.llc_ways
        if self.llc_vcount[sid] < self.llc_ways:
            tags = self.llc_tag
            pos = base
            while tags[pos] >= 0:
                pos += 1
        else:
            pos = self._victim(base)
            self._evict_llc(pos, cycle)
        self._install_home(pos, sid, addr)

    def _install_ziv(self, addr: int, cycle: int) -> None:
        bank = addr & self.llc_bank_mask
        sid = (bank * self.llc_spb
               + ((addr >> self.llc_bank_bits) & self.llc_set_mask))
        base = sid * self.llc_ways
        if self.llc_vcount[sid] < self.llc_ways:
            tags = self.llc_tag
            pos = base
            while tags[pos] >= 0:
                pos += 1
            self._install_home(pos, sid, addr)
            self._refresh(sid)
            return
        vpos = self._victim(base)
        if not self._privately_cached(self.llc_tag[vpos]):
            # Common case: the baseline victim generates no inclusion
            # victims, so the ZIV LLC behaves exactly like the baseline.
            self._evict_llc(vpos, cycle)
            self._install_home(vpos, sid, addr)
            self._refresh(sid)
            return
        self._relocation_path(bank, sid, vpos, addr, cycle)

    # ------------------------------------------------------------ relocation

    def _privately_cached(self, addr: int) -> bool:
        dpos = self._dir_lookup(addr)
        return dpos >= 0 and self.d_sharers[dpos] != 0

    def _relocation_path(
        self, bank: int, sid: int, vpos: int, addr: int, cycle: int
    ) -> None:
        """The baseline victim is privately cached: walk the property
        ladder (original set first, then the global nextRS, per level)."""
        set_idx = sid - bank * self.llc_spb
        # Victim selection may have aged replacement state (SRRIP), so
        # make sure the original set's property bits are current.
        self._refresh(sid)
        stats = self.stats
        tags = self.llc_tag
        for level, pv in self._ladder_pvs[bank]:
            if (pv.bits >> set_idx) & 1:
                wp = self._select_reloc_victim(sid)
                if wp >= 0:
                    wt = tags[wp]
                    if wt >= 0 and self._privately_cached(wt):
                        raise ZIVInvariantError(
                            f"relocation-set victim {wt:#x} is privately "
                            f"cached"
                        )
                    stats.relocation_same_set += 1
                    stats.count_property_hit(f"local:{level}")
                    if wt >= 0:
                        self._evict_llc(wp, cycle)
                    self._install_home(wp, sid, addr)
                    self._refresh(sid)
                    return
            rs = pv.next_relocation_set()
            if rs >= 0:
                stats.count_property_hit(f"global:{level}")
                self._relocate(bank, sid, vpos, bank, rs, cycle, level, False)
                self._install_home(vpos, sid, addr)
                self._refresh(sid)
                return
        # Every PV of this bank is empty: cross-bank fallback (III-D1),
        # one-hop neighbours first, then the remaining banks.
        banks = self.llc_banks
        order: list[int] = []
        if banks > 1:
            order = [(bank + 1) % banks, (bank - 1) % banks]
            order += [b for b in range(banks) if b != bank and b not in order]
        for b in order:
            for level, pv in self._ladder_pvs[b]:
                rs = pv.next_relocation_set()
                if rs >= 0:
                    stats.relocations_cross_bank += 1
                    self._relocate(bank, sid, vpos, b, rs, cycle, level, True)
                    self._install_home(vpos, sid, addr)
                    self._refresh(sid)
                    return
        raise ZIVInvariantError(
            "no relocation set exists in any bank; aggregate private "
            "capacity must exceed the LLC capacity"
        )

    def _select_reloc_victim(self, sid: int) -> int:
        """Relocation-set victim: invalid way first, then the scheme
        property's rule (paper III-E).  -1 if none qualifies."""
        base = sid * self.llc_ways
        tags = self.llc_tag
        if self.llc_vcount[sid] < self.llc_ways:
            pos = base
            while tags[pos] >= 0:
                pos += 1
            return pos
        metas = self.llc_meta
        end = base + self.llc_ways
        if self._reloc_rule_maxrrpv:
            best = -1
            best_rrpv = -1
            for p in range(base, end):
                m = metas[p]
                if m & 4:
                    r = m >> 4
                    if r > best_rrpv:
                        best = p
                        best_rrpv = r
            return best
        stamps = self.llc_stamp
        best = -1
        best_stamp = 0
        for p in range(base, end):
            if metas[p] & 4:
                sp = stamps[p]
                if best < 0 or sp < best_stamp:
                    best = p
                    best_stamp = sp
        return best

    def _relocate(
        self,
        src_bank: int,
        src_sid: int,
        src_pos: int,
        dst_bank: int,
        dst_set: int,
        cycle: int,
        level: str,
        cross_bank: bool,
    ) -> None:
        dst_sid = dst_bank * self.llc_spb + dst_set
        dst_pos = self._select_reloc_victim(dst_sid)
        if dst_pos < 0:
            raise ZIVInvariantError(
                f"relocation set {dst_set} of bank {dst_bank} has no "
                "evictable block despite its property bit"
            )
        tags = self.llc_tag
        dt = tags[dst_pos]
        if dt >= 0:
            if self._privately_cached(dt):
                raise ZIVInvariantError(
                    f"relocation-set victim {dt:#x} is privately cached"
                )
            self._evict_llc(dst_pos, cycle)
        maddr = tags[src_pos]
        mmeta = self.llc_meta[src_pos]
        was_relocated = bool(mmeta & 2)
        # extract (no policy eviction hook -- the block stays in the LLC;
        # it is privately cached, so no NotInPrC counter moves)
        del self.llc_map[maddr]
        tags[src_pos] = -1
        self.llc_stamp[src_pos] = _NO_STAMP
        self.llc_vcount[src_sid] -= 1
        # install relocated: keeps address and dirtiness, Relocated on,
        # replacement state from the policy's relocation-fill hook
        tags[dst_pos] = maddr
        self.llc_meta[dst_pos] = 2 | (mmeta & 1)
        self.llc_stamp[dst_pos] = 0
        self.llc_map[maddr] = dst_pos
        self.llc_vcount[dst_sid] += 1
        self._llc_reloc_fill(dst_pos, src_pos)
        dpos = self._dir_lookup(maddr)
        if dpos < 0:
            raise ZIVInvariantError(
                f"relocating {maddr:#x} with no directory entry"
            )
        self.d_reloc[dpos] = dst_pos
        stats = self.stats
        stats.relocations += 1
        if was_relocated:
            stats.relocations_rechained += 1
        self.energy.record_relocation()
        self._reloc.record(src_bank, cycle)
        if self._reloc.fifo_peak > stats.relocation_fifo_peak:
            stats.relocation_fifo_peak = self._reloc.fifo_peak
        telemetry = self.telemetry
        if telemetry is not None:
            kind = (
                "cross_bank_fallback" if cross_bank
                else "re_relocation" if was_relocated
                else "relocation"
            )
            telemetry.emit(
                kind,
                addr=maddr,
                src=[src_bank, src_sid - src_bank * self.llc_spb,
                     src_pos - src_sid * self.llc_ways],
                dst=[dst_bank, dst_set, dst_pos - dst_sid * self.llc_ways],
                property=level,
                rechained=was_relocated,
                cross_bank=cross_bank,
            )
        self._refresh(src_sid)
        self._refresh(dst_sid)

    # ------------------------------------------------------- property vectors

    def _nip_enter(self, pos: int) -> None:
        """The valid home line at ``pos`` is about to turn NotInPrC: its
        last private copy just left (until now it was privately cached,
        so not counted)."""
        sid = pos // self.llc_ways
        self.llc_nip[sid] += 1
        if (self.llc_meta[pos] >> 4) >= _MAX_RRPV:
            self.llc_maxnip[sid] += 1

    def _nip_leave(self, pos: int) -> None:
        """The valid line at ``pos`` stops counting as NotInPrC (a hit,
        an eviction or a relocation is about to change it)."""
        m = self.llc_meta[pos]
        if m & 4:
            sid = pos // self.llc_ways
            self.llc_nip[sid] -= 1
            if (m >> 4) >= _MAX_RRPV:
                self.llc_maxnip[sid] -= 1

    def _refresh(self, sid: int) -> None:
        """Rewrite every tracked property bit of one LLC set in O(1).

        The set's valid count and its two NotInPrC counters give the
        invalid, notinprc and maxrrpvnotinprc bits directly.  The
        lrunotinprc bit needs the NotInPrC bit of the set's LRU valid
        line, looked up only when the set holds a NotInPrC line: under
        LRU (or with invalid ways, which hold ``_NO_STAMP``) the minimum
        of its stamp slice; otherwise every stamp is 0 and it is the
        first way."""
        bank = sid // self.llc_spb
        set_idx = sid - bank * self.llc_spb
        pv_invalid, pv_nip, pv_lru, pv_maxrrpv = self._fast_pvs[bank]
        ways = self.llc_ways
        nip = self.llc_nip[sid]
        full = self.llc_vcount[sid] == ways
        # every supported ladder tracks invalid and notinprc
        pv_invalid.set_bit(set_idx, not full)
        pv_nip.set_bit(set_idx, nip > 0)
        if pv_lru is not None:
            lru_nip = False
            if nip:
                pos = sid * ways
                if self._lru_stamps or not full:
                    seg = self.llc_stamp[pos:pos + ways]
                    pos += seg.index(min(seg))
                lru_nip = bool(self.llc_meta[pos] & 4)
            pv_lru.set_bit(set_idx, lru_nip)
        if pv_maxrrpv is not None:
            pv_maxrrpv.set_bit(set_idx, self.llc_maxnip[sid] > 0)

    # ------------------------------------------------------------------- DRAM

    def _dram(self, addr: int, cycle: int) -> int:
        """Inlined DRAMModel.access (same bank/row mapping and timing)."""
        rest = addr >> self._dram_ch_shift
        gb = ((addr & self._dram_ch_mask) * self._dram_bpc
              + (rest & self._dram_bank_mask))
        row = (rest >> self._dram_bank_shift) >> self._dram_row_bits
        ready = self._dram_ready
        wait = ready[gb] - cycle
        if wait < 0:
            wait = 0
        open_row = self._dram_open[gb]
        if open_row == row:
            service = self._dram_hit
        elif open_row < 0:
            service = self._dram_miss
        else:
            service = self._dram_conflict
        self._dram_open[gb] = row
        ready[gb] = cycle + wait + self._dram_busy
        return wait + service

    def _writeback(self, addr: int, cycle: int) -> None:
        self._dram(addr, cycle)
        self.stats.dram_writes += 1
        self.stats.llc_writebacks_out += 1
        self.energy.dram_accesses += 1

    # ------------------------------------------------------- fused batch driver

    def _decode_trace(self, recs, core: int) -> tuple[list, int]:
        """Per-record derived columns for the fused driver.

        Every address-derived quantity the hot loop needs -- home bank,
        base latency, LLC set id, directory slice-set id (the XOR fold),
        private set bases and the DRAM bank/row split -- is a pure
        function of the record and the hierarchy geometry, so it is
        computed once per trace here (in C-speed comprehensions) and
        zipped into one tuple per record.  ``run_trace`` memoises the
        result on the CoreTrace object keyed by the geometry signature,
        mirroring ``Workload.fingerprint``'s cached-attribute pattern
        (traces are immutable after construction)."""
        base_cpi = self.config.core.base_cpi
        bank_mask = self.llc_bank_mask
        bank_bits = self.llc_bank_bits
        set_mask = self.llc_set_mask
        spb = self.llc_spb
        base_lat = self._base_lat
        core_base = core * self.llc_banks
        d_sets = self.d_sets
        fold_bits = self._dir_set_bits
        fold_mask = self._dir_set_mask
        l1 = self._l1s[core]
        l2 = self._l2s[core]
        dch_mask = self._dram_ch_mask
        dch_shift = self._dram_ch_shift
        dbpc = self._dram_bpc
        dbk_mask = self._dram_bank_mask
        dbk_shift = self._dram_bank_shift
        drow_bits = self._dram_row_bits

        addrs = [r.addr for r in recs]
        writes = [r.is_write for r in recs]
        offs = [int(r.gap * base_cpi) for r in recs]
        banks = [a & bank_mask for a in addrs]
        lats = [base_lat[core_base + b] for b in banks]
        sids = [
            b * spb + ((a >> bank_bits) & set_mask)
            for a, b in zip(addrs, banks)
        ]
        if fold_bits:

            def fold(a: int) -> int:
                si = 0
                while a:
                    si ^= a
                    a >>= fold_bits
                return si & fold_mask

            dsids = [
                b * d_sets + fold(a >> bank_bits)
                for a, b in zip(addrs, banks)
            ]
        else:
            dsids = [b * d_sets for b in banks]
        l1_mask = l1.set_mask
        l1_ways = l1.ways
        l2_mask = l2.set_mask
        l2_ways = l2.ways
        s2s = [a & l2_mask for a in addrs]
        b2s = [s * l2_ways for s in s2s]
        s1s = [a & l1_mask for a in addrs]
        b1s = [s * l1_ways for s in s1s]
        gbs = [
            (a & dch_mask) * dbpc + ((a >> dch_shift) & dbk_mask)
            for a in addrs
        ]
        rows = [
            ((a >> dch_shift) >> dbk_shift) >> drow_bits for a in addrs
        ]
        cols = list(
            zip(
                addrs, writes, offs, lats, banks, sids, dsids,
                s2s, b2s, s1s, b1s, gbs, rows,
            )
        )
        instr = sum(r.gap for r in recs) + len(recs)
        return cols, instr

    def run_trace(self, workload, profiler=None) -> int:
        """Timing-mode driver with the access path fused into the loop.

        Exact port of ``Simulation._run_timing`` + :meth:`access` with the
        dominant paths (private fills, directory allocation, DRAM, the
        LLC install over LRU/SRRIP/NRU and the eviction-notice
        handshake) inlined into one loop body.  Address-derived values
        come precomputed per record (:meth:`_decode_trace`), and the hot
        counters are tracked as a handful of per-path tallies from which
        every stats/energy field is derived at the single post-loop
        flush.  Only valid when no per-access hook observes intermediate
        state -- ``Simulation.run`` delegates here exactly when both the
        audit and telemetry hooks are absent, so counters are only ever
        read after the flush.  Rare paths (relocated hits, coherence
        forwards, ZIV relocations, Hawkeye installs, spills) reuse the
        per-access methods;
        their direct ``self.stats``/``self.energy`` increments commute
        with the batched flush.

        ``profiler`` (a :class:`~repro.obs.profile.PhaseProfiler`, or
        None) brackets the decode/access-loop/flush phases.  It is not
        a per-access hook -- the fused driver stays valid under
        profiling, and the disabled path costs one predicate per phase
        transition, never per access.
        """
        from heapq import heapify, heappop, heappush

        n_cores = self.config.cores

        # -- local bindings ------------------------------------------------
        l1s = self._l1s
        l2s = self._l2s
        llc_map = self.llc_map
        llc_tag = self.llc_tag
        llc_meta = self.llc_meta
        llc_stamp = self.llc_stamp
        llc_vcount = self.llc_vcount
        llc_clock = self.llc_clock
        llc_nip = self.llc_nip
        llc_maxnip = self.llc_maxnip
        bank_mask = self.llc_bank_mask
        bank_bits = self.llc_bank_bits
        set_mask = self.llc_set_mask
        spb = self.llc_spb
        ways = self.llc_ways
        base_lat = self._base_lat
        l1_lat = self._l1_lat
        l12_lat = self._l12_lat
        data_lat = self._data_lat
        d_map = self.d_map
        d_addr = self.d_addr
        d_sharers = self.d_sharers
        d_owner = self.d_owner
        d_nru = self.d_nru
        d_reloc = self.d_reloc
        d_slice = self.d_slice_size
        d_sets = self.d_sets
        d_ways = self.d_ways
        d_vcount = self.d_vcount
        dir_set_bits = self._dir_set_bits
        dir_set_mask = self._dir_set_mask
        d_spill_addrs = self.d_spill_addrs
        d_spill_free = self.d_spill_free
        zerodev = self._zerodev
        ziv = self._ziv
        inclusive = self.inclusive
        refresh = self._refresh
        victim = self._victim
        install = self._install
        pol = self.policy_name
        pol_lru = pol == "lru"
        pol_srrip = pol == "srrip"
        pol_nru = pol == "nru"
        # Hawkeye runs through the policy hooks (fills go through
        # ``install``, hits through ``touch``), which read the PC of the
        # access in flight from ``self._pc``.
        hawkeye = pol == "hawkeye"
        touch = self._llc_touch
        # inline install over LRU/SRRIP/NRU; a ZIV victim that a private
        # cache holds takes the relocation path
        inline_install = not hawkeye
        dch_mask = self._dram_ch_mask
        dch_shift = self._dram_ch_shift
        dbpc = self._dram_bpc
        dbk_mask = self._dram_bank_mask
        dbk_shift = self._dram_bank_shift
        drow_bits = self._dram_row_bits
        dram_hit = self._dram_hit
        dram_miss = self._dram_miss
        dram_conflict = self._dram_conflict
        dram_busy = self._dram_busy
        dram_open = self._dram_open
        dram_ready = self._dram_ready
        l1_ways = l1s[0].ways
        l2_ways = l2s[0].ways

        # -- per-record decode columns, memoised on the trace --------------
        if profiler is not None:
            profiler.enter("decode")
        decode_key = (
            self.config.core.base_cpi, bank_mask, bank_bits, set_mask,
            spb, ways, d_sets, d_ways, dir_set_bits, dir_set_mask,
            l1s[0].set_mask, l1_ways, l2s[0].set_mask, l2_ways,
            dch_mask, dch_shift, dbpc, dbk_mask, dbk_shift, drow_bits,
            tuple(base_lat),
        )
        cols_t = []
        instr_t = []  # whole-trace instruction count: sum(gap + 1)
        trace_ends = []
        for core, t in enumerate(workload):
            memo = getattr(t, "_fast_cols", None)
            if memo is None:
                memo = {}
                t._fast_cols = memo
            entry = memo.get((decode_key, core))
            if entry is None:
                entry = self._decode_trace(t.records, core)
                memo[(decode_key, core)] = entry
            cols_t.append(entry[0])
            instr_t.append(entry[1])
            trace_ends.append(len(entry[0]))
        pcs_t = (
            [[r.pc for r in t.records] for t in workload] if hawkeye else None
        )
        if profiler is not None:
            profiler.exit("decode")

        # -- per-path tallies (every stats/energy field derives from
        # these at the flush; see the mapping there) -----------------------
        c_l1h = [0] * n_cores
        c_l2h = [0] * n_cores
        c_l2m = [0] * n_cores
        n_hit = 0  # inline LLC home hits
        n_fill = 0  # memory fills
        n_fwd = 0  # non-inclusive forward fills
        n_wb = 0  # dirty writebacks to DRAM (evict + notice paths)
        n_wb_in = 0  # writebacks absorbed by the LLC home copy
        n_notice = 0  # eviction notices handled inline

        heap = [(0, core, 0) for core, end in enumerate(trace_ends) if end]
        heapify(heap)
        finish = [0] * n_cores

        if profiler is not None:
            profiler.enter("access_loop")
        while heap:
            ready, core, idx = heappop(heap)
            (
                addr, is_write, off, lat, bank, sid, dsid,
                s2, b2, s1, b1, gb, row,
            ) = cols_t[core][idx]
            issue = ready + off

            # ---- access (fused) ------------------------------------------
            l1 = l1s[core]
            p = l1.map.get(addr, -1)
            if p >= 0:
                c_l1h[core] += 1
                extra = 0
                if is_write:
                    if not l1.dirty[p]:
                        extra = self._write_upgrade(core, addr)
                    l1.dirty[p] = True
                l1.clock += 1
                l1.stamp[p] = l1.clock
                latency = l1_lat + extra
            else:
                l2 = l2s[core]
                p = l2.map.get(addr, -1)
                if p >= 0:
                    c_l2h[core] += 1
                    extra = 0
                    if is_write:
                        if not l2.dirty[p]:
                            extra = self._write_upgrade(core, addr)
                        l2.dirty[p] = True
                    l2.clock += 1
                    l2.stamp[p] = l2.clock
                    # inline L1 fill (addr cannot be in L1 here: the L1
                    # lookup above missed and the upgrade fills nothing)
                    t1 = l1.tag
                    notice1 = None
                    if l1.vcount[s1] < l1_ways:
                        fp = t1.index(-1, b1, b1 + l1_ways)
                        l1.vcount[s1] += 1
                    else:
                        seg = l1.stamp[b1:b1 + l1_ways]
                        fp = b1 + seg.index(min(seg))
                        old_addr = t1[fp]
                        old_dirty = l1.dirty[fp]
                        del l1.map[old_addr]
                        lp = l2.map.get(old_addr, -1)
                        if lp >= 0:
                            if old_dirty:
                                l2.dirty[lp] = True
                        else:
                            notice1 = (old_addr, old_dirty)
                    t1[fp] = addr
                    l1.map[addr] = fp
                    l1.dirty[fp] = is_write
                    l1.clock += 1
                    l1.stamp[fp] = l1.clock
                    if notice1 is not None:
                        self._handle_notice(
                            core, notice1[0], notice1[1], issue
                        )
                    latency = l12_lat + extra
                else:
                    c_l2m[core] += 1
                    if hawkeye:
                        self._pc = pcs_t[core][idx]
                    # ---- LLC access (fused) ------------------------------
                    dpos = d_map.get(addr, -1)
                    if 0 <= dpos < d_slice:
                        d_nru[dpos] = True
                    cbit = 1 << core
                    if dpos >= 0 and d_reloc[dpos] >= 0:
                        latency = self._relocated_hit(
                            core, addr, dpos, is_write, issue, lat
                        )
                    else:
                        hp = llc_map.get(addr, -1)
                        if hp >= 0 and not (llc_meta[hp] & 2):
                            # LLC home hit (rare on miss-dominated runs:
                            # delegate the tail to the per-access methods)
                            extra = 0
                            if dpos >= 0:
                                if is_write:
                                    if d_sharers[dpos] & ~cbit:
                                        extra = self._coherence_on_miss(
                                            core, addr, dpos, is_write, issue
                                        )
                                else:
                                    ow = d_owner[dpos]
                                    if ow >= 0 and ow != core:
                                        extra = self._coherence_on_miss(
                                            core, addr, dpos, is_write, issue
                                        )
                            if ziv:
                                m = llc_meta[hp]
                                if m & 4:
                                    llc_nip[sid] -= 1
                                    if (m >> 4) >= _MAX_RRPV:
                                        llc_maxnip[sid] -= 1
                            if pol_lru:
                                llc_clock[bank] += 1
                                llc_stamp[hp] = llc_clock[bank]
                            elif pol_srrip:
                                llc_meta[hp] &= 0xF
                            elif pol_nru:
                                llc_meta[hp] |= 8
                            else:
                                touch(hp)
                            llc_meta[hp] &= ~4
                            if ziv:
                                refresh(sid)
                            n_hit += 1
                            if dpos < 0:
                                dpos = self._dir_allocate(addr, issue)
                            d_sharers[dpos] |= cbit
                            if is_write:
                                d_owner[dpos] = core
                            self._fill_private(core, addr, is_write, issue)
                            latency = lat + data_lat + extra
                        elif dpos >= 0:
                            n_fwd += 1
                            if inclusive:
                                raise CoherenceError(
                                    f"inclusive LLC missed on a directory-"
                                    f"tracked block {addr:#x}"
                                )
                            latency = self._forward_fill(
                                core, addr, dpos, is_write, issue, lat
                            )
                        else:
                            # ---- memory fill (fused hot path) ------------
                            n_fill += 1
                            wait = dram_ready[gb] - issue
                            if wait < 0:
                                wait = 0
                            open_row = dram_open[gb]
                            if open_row == row:
                                dram_lat = wait + dram_hit
                            elif open_row < 0:
                                dram_lat = wait + dram_miss
                            else:
                                dram_lat = wait + dram_conflict
                            dram_open[gb] = row
                            dram_ready[gb] = issue + wait + dram_busy
                            if inline_install:
                                ibase = sid * ways
                                if llc_vcount[sid] < ways:
                                    ip = llc_tag.index(-1, ibase,
                                                       ibase + ways)
                                    llc_vcount[sid] += 1
                                else:
                                    # evict + install: the victim's tag,
                                    # stamp and the set's valid count are
                                    # overwritten below, so none is
                                    # reset here
                                    if pol_lru:
                                        seg = llc_stamp[ibase:ibase + ways]
                                        ip = ibase + seg.index(min(seg))
                                    else:
                                        ip = victim(ibase)
                                    vaddr = llc_tag[ip]
                                    if inclusive:  # ZIV schemes too
                                        vd = d_map.get(vaddr, -1)
                                        if 0 <= vd < d_slice:
                                            d_nru[vd] = True
                                        if vd >= 0 and d_sharers[vd]:
                                            if ziv:
                                                # it installs addr
                                                self._relocation_path(
                                                    bank, sid, ip, addr,
                                                    issue
                                                )
                                                ip = -1
                                            else:
                                                self._back_invalidate(
                                                    vaddr, issue
                                                )
                                    if ip >= 0:
                                        m = llc_meta[ip]
                                        if ziv and m & 4:
                                            llc_nip[sid] -= 1
                                            if (m >> 4) >= _MAX_RRPV:
                                                llc_maxnip[sid] -= 1
                                        del llc_map[vaddr]
                                        if m & 1:
                                            # dirty writeback: latency is
                                            # discarded, only bank state
                                            # moves
                                            vrest = vaddr >> dch_shift
                                            vgb = ((vaddr & dch_mask) * dbpc
                                                   + (vrest & dbk_mask))
                                            vw = dram_ready[vgb] - issue
                                            if vw < 0:
                                                vw = 0
                                            dram_open[vgb] = (
                                                (vrest >> dbk_shift)
                                                >> drow_bits
                                            )
                                            dram_ready[vgb] = (
                                                issue + vw + dram_busy
                                            )
                                            n_wb += 1
                                if ip >= 0:
                                    llc_tag[ip] = addr
                                    llc_map[addr] = ip
                                    if pol_lru:
                                        llc_meta[ip] = 0
                                        llc_clock[bank] += 1
                                        llc_stamp[ip] = llc_clock[bank]
                                    elif pol_srrip:
                                        llc_meta[ip] = (_MAX_RRPV - 1) << 4
                                        llc_stamp[ip] = 0
                                    else:
                                        llc_meta[ip] = 8
                                        llc_stamp[ip] = 0
                                    if ziv:
                                        refresh(sid)
                            else:
                                install(addr, issue)
                            # ---- directory allocate (fused) --------------
                            dbase = dsid * d_ways
                            dend = dbase + d_ways
                            displaced = None
                            if d_vcount[dsid] < d_ways:
                                dpos = d_addr.index(-1, dbase, dend)
                                d_vcount[dsid] += 1
                            else:
                                try:
                                    dpos = d_nru.index(False, dbase, dend)
                                except ValueError:
                                    d_nru[dbase:dend] = [False] * d_ways
                                    dpos = dbase
                                displaced = (
                                    d_addr[dpos],
                                    d_sharers[dpos],
                                    d_owner[dpos],
                                    d_reloc[dpos],
                                )
                                del d_map[d_addr[dpos]]
                            d_addr[dpos] = addr
                            d_sharers[dpos] = 0
                            d_owner[dpos] = -1
                            d_nru[dpos] = True
                            d_reloc[dpos] = -1
                            d_map[addr] = dpos
                            if displaced is not None:
                                if zerodev:
                                    self._spill(displaced)
                                else:
                                    self._handle_displaced(displaced, issue)
                            d_sharers[dpos] |= cbit
                            if is_write:
                                d_owner[dpos] = core
                            # ---- private fills (fused) -------------------
                            t2 = l2.tag
                            notice2 = None
                            if l2.vcount[s2] < l2_ways:
                                fp = t2.index(-1, b2, b2 + l2_ways)
                                l2.vcount[s2] += 1
                            else:
                                seg = l2.stamp[b2:b2 + l2_ways]
                                fp = b2 + seg.index(min(seg))
                                old_addr = t2[fp]
                                old_dirty = l2.dirty[fp]
                                del l2.map[old_addr]
                                lp = l1.map.get(old_addr, -1)
                                if lp >= 0:
                                    if old_dirty:
                                        l1.dirty[lp] = True
                                else:
                                    notice2 = (old_addr, old_dirty)
                            t2[fp] = addr
                            l2.map[addr] = fp
                            l2.dirty[fp] = is_write
                            l2.clock += 1
                            l2.stamp[fp] = l2.clock
                            t1 = l1.tag
                            notice1 = None
                            if l1.vcount[s1] < l1_ways:
                                fp = t1.index(-1, b1, b1 + l1_ways)
                                l1.vcount[s1] += 1
                            else:
                                seg = l1.stamp[b1:b1 + l1_ways]
                                fp = b1 + seg.index(min(seg))
                                old_addr = t1[fp]
                                old_dirty = l1.dirty[fp]
                                del l1.map[old_addr]
                                lp = l2.map.get(old_addr, -1)
                                if lp >= 0:
                                    if old_dirty:
                                        l2.dirty[lp] = True
                                else:
                                    notice1 = (old_addr, old_dirty)
                            t1[fp] = addr
                            l1.map[addr] = fp
                            l1.dirty[fp] = is_write
                            l1.clock += 1
                            l1.stamp[fp] = l1.clock
                            # ---- eviction notices (fused) ----------------
                            for notice in (notice2, notice1):
                                if notice is None:
                                    continue
                                naddr, ndirty = notice
                                n_notice += 1
                                nd = d_map.get(naddr, -1)
                                if nd < 0:
                                    raise CoherenceError(
                                        f"eviction notice for untracked "
                                        f"block {naddr:#x}"
                                    )
                                if nd < d_slice:
                                    d_nru[nd] = True
                                sh = d_sharers[nd] & ~cbit
                                d_sharers[nd] = sh
                                if d_owner[nd] == core:
                                    d_owner[nd] = -1
                                if sh:
                                    continue
                                rp = d_reloc[nd]
                                if rp >= 0:
                                    self._kill_relocated(
                                        rp, naddr, ndirty, issue
                                    )
                                    self._dir_free(naddr)
                                    continue
                                del d_map[naddr]
                                if nd >= d_slice:
                                    del d_spill_addrs[naddr]
                                    d_spill_free.append(nd)
                                else:
                                    d_vcount[nd // d_ways] -= 1
                                d_addr[nd] = -1
                                d_sharers[nd] = 0
                                d_owner[nd] = -1
                                d_nru[nd] = False
                                d_reloc[nd] = -1
                                hp2 = llc_map.get(naddr, -1)
                                if hp2 >= 0 and not (llc_meta[hp2] & 2):
                                    m2 = llc_meta[hp2]
                                    if ziv:
                                        nsid = hp2 // ways
                                        llc_nip[nsid] += 1
                                        if (m2 >> 4) >= _MAX_RRPV:
                                            llc_maxnip[nsid] += 1
                                    m2 |= 4
                                    if ndirty:
                                        m2 |= 1
                                        n_wb_in += 1
                                    llc_meta[hp2] = m2
                                    if ziv:
                                        refresh(nsid)
                                elif ndirty:
                                    nrest = naddr >> dch_shift
                                    ngb = ((naddr & dch_mask) * dbpc
                                           + (nrest & dbk_mask))
                                    nw = dram_ready[ngb] - issue
                                    if nw < 0:
                                        nw = 0
                                    dram_open[ngb] = (
                                        (nrest >> dbk_shift) >> drow_bits
                                    )
                                    dram_ready[ngb] = issue + nw + dram_busy
                                    n_wb += 1
                            latency = lat + dram_lat

            # ---- bookkeeping (port of Simulation._run_timing tail) -------
            idx += 1
            if idx < trace_ends[core]:
                heappush(heap, (issue + latency, core, idx))
            else:
                finish[core] = issue + latency

        # -- flush: derive every stats/energy field from the tallies -------
        # Inline paths tally one counter each; the full counter set
        # follows arithmetically (each access is exactly one of l1-hit /
        # l2-hit / llc-access, and the memory-fill path bumps the miss,
        # fill, DRAM-read and data-write counters in lockstep).
        if profiler is not None:
            profiler.exit("access_loop")
            profiler.enter("flush")
        core_stats = self._core_stats
        tot_acc = 0
        tot_l1h = 0
        tot_llc = 0
        for core in range(n_cores):
            l1h = c_l1h[core]
            l2h = c_l2h[core]
            l2m = c_l2m[core]
            acc = l1h + l2h + l2m
            tot_acc += acc
            tot_l1h += l1h
            tot_llc += l2m
            cs = core_stats[core]
            cs.accesses += acc
            cs.l1_hits += l1h
            cs.l1_misses += l2h + l2m
            cs.l2_hits += l2h
            cs.l2_misses += l2m
            cs.instructions += instr_t[core]
            if trace_ends[core]:
                cs.cycles = finish[core]
        stats = self.stats
        stats.llc_hits += n_hit
        stats.llc_misses += n_fill + n_fwd
        stats.llc_fills += n_fill
        stats.dram_reads += n_fill
        stats.dram_writes += n_wb
        stats.llc_writebacks_in += n_wb_in
        stats.llc_writebacks_out += n_wb
        stats.eviction_notices += n_notice
        energy = self.energy
        energy.l1_accesses += tot_acc
        energy.l2_accesses += tot_acc - tot_l1h
        energy.llc_tag_accesses += tot_llc
        energy.dir_accesses += tot_llc
        energy.llc_data_reads += n_hit
        energy.llc_data_writes += n_fill
        energy.dram_accesses += n_fill + n_wb
        if profiler is not None:
            profiler.exit("flush")
        return max(finish) if finish else 0

    # ------------------------------------------------------------ finalisation

    def finalize_stats(self) -> None:
        """Copy late-bound counters into the stats object (same contract
        as CacheHierarchy.finalize_stats)."""
        self.stats.directory_spills = self.spill_count
        scheme_stats = self.scheme.on_stats()
        pv_flips = scheme_stats.get("pv_flips")
        if pv_flips is not None:
            self.energy.pv_updates = pv_flips

    # ------------------------------------------------------------ diagnostics

    def audit_violations(self) -> list:
        """One full invariant-audit sweep (same checks as the object
        engine, run through the array views)."""
        from repro.sim.audit import audit_hierarchy

        return audit_hierarchy(self)
