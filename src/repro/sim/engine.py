"""The simulation driver.

Two scheduling modes:

* ``"timing"`` (default) -- each core is an in-order front end: gap
  instructions retire at the configured base CPI, then the memory access
  blocks for its hierarchy latency.  Cores interleave by readiness (the
  core with the smallest next-ready cycle issues next), which makes shared
  LLC/DRAM contention order realistic.

* ``"lockstep"`` -- cores interleave round-robin by access *index*,
  ignoring latencies.  This is the canonical global stream that defines
  the Belady MIN oracle (paper footnote 2): the interleaving must not
  depend on the LLC policy under study, otherwise MIN is ill-defined.
  Used for the Fig. 2 inclusion-victim counts.

Each core replays its trace once ("the representative segment"); as in the
paper, statistics cover exactly one pass of every trace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs.profile import PhaseProfiler, ProfileResult, resolve_profile
from repro.sim.audit import AuditReport, InvariantAuditor, resolve_audit
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    SimCheckpoint,
    SimulationInterrupted,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.stats import SimStats
from repro.sim.telemetry import (
    StreamProgress,
    TelemetryCollector,
    TelemetryResult,
    resolve_telemetry,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.energy.model import EnergyModel
from repro.sim.trace import Workload


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Carries the statistics, the energy ledger, any scheme-specific
    extras (e.g. the ZIV relocation-interval histogram) and the invariant
    audit report (when auditing was enabled) -- but not the hierarchy
    itself, so results stay small enough to cache in bulk."""

    stats: SimStats
    cycles: int
    scheme: str
    policy: str
    workload: str
    energy: Optional["EnergyModel"] = None
    scheme_stats: Optional[dict] = None
    audit: Optional[AuditReport] = None
    telemetry: Optional[TelemetryResult] = None
    profile: Optional[ProfileResult] = None

    @property
    def ipc_per_core(self) -> list[float]:
        return [c.ipc for c in self.stats.cores]

    def core_cycles(self, core: int) -> int:
        return self.stats.cores[core].cycles


class Simulation:
    """Drives a workload through a :class:`CacheHierarchy`."""

    def __init__(
        self,
        hierarchy: "CacheHierarchy",
        workload: Workload,
        scheduling: str = "timing",
        llc_policy_name: Optional[str] = None,
        audit=None,
        telemetry=None,
        profile=None,
    ) -> None:
        if scheduling not in ("timing", "lockstep"):
            raise ValueError(f"unknown scheduling mode {scheduling!r}")
        if workload.cores != hierarchy.config.cores:
            raise ValueError(
                f"workload has {workload.cores} cores, hierarchy expects "
                f"{hierarchy.config.cores}"
            )
        self.hierarchy = hierarchy
        self.workload = workload
        self.scheduling = scheduling
        self.llc_policy_name = llc_policy_name or hierarchy.llc.policy_name
        # ``audit``: AuditParams or a spec string; defaults to the
        # hierarchy configuration's audit section (config.audit) so that
        # cached recipes and direct runs agree on whether they audit.
        self.audit_params = resolve_audit(audit, hierarchy.config.audit)
        # ``telemetry``: TelemetryParams or a spec string; same resolution
        # order (explicit > REPRO_TELEMETRY > config.telemetry).
        self.telemetry_params = resolve_telemetry(
            telemetry, hierarchy.config.telemetry
        )
        # ``profile``: ProfileParams or a spec string ("on"/"off"); same
        # resolution order (explicit > REPRO_PROFILE > config.profile).
        self.profile_params = resolve_profile(
            profile, getattr(hierarchy.config, "profile", None)
        )

    def run(
        self,
        *,
        checkpoint_path=None,
        checkpoint_every: Optional[int] = None,
        resume_from=None,
        stop_after: Optional[int] = None,
        progress=None,
    ) -> SimResult:
        """Run the workload to completion (or to a checkpoint).

        Streaming/checkpointing keywords (all optional; the plain
        ``run()`` call is unchanged):

        * ``checkpoint_path`` -- save a :class:`SimCheckpoint` here at
          every boundary (atomically; the previous one is replaced).
        * ``checkpoint_every`` -- boundary cadence in accesses.  Defaults
          to the workload's ``chunk_records`` (binary traces) or 65536.
        * ``resume_from`` -- a checkpoint path or :class:`SimCheckpoint`
          to continue from; the workload fingerprint and scheduling mode
          must match.  The resumed run is bit-identical to an
          uninterrupted one.
        * ``stop_after`` -- interrupt at the first boundary at or beyond
          this many total accesses: state is saved to ``checkpoint_path``
          (required) and :class:`SimulationInterrupted` is raised.  Used
          to shard a long trace across sessions/workers.
        * ``progress`` -- callable receiving a
          :class:`~repro.sim.telemetry.StreamProgress` at every boundary.
        """
        if stop_after is not None and checkpoint_path is None:
            raise ValueError("stop_after requires checkpoint_path")
        if checkpoint_every is None:
            checkpoint_every = (
                getattr(self.workload, "chunk_records", 0) or 65536
            )
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        state = None
        if resume_from is not None:
            ck = (
                resume_from
                if isinstance(resume_from, SimCheckpoint)
                else load_checkpoint(resume_from)
            )
            ck.validate(self.workload.fingerprint(), self.scheduling)
            # The checkpoint's hierarchy/auditor/collector were pickled
            # together, so the collector still observes *this* hierarchy.
            self.hierarchy = ck.hierarchy
            auditor = ck.auditor
            collector = ck.collector
            state = ck.scheduler_state
        else:
            auditor = (
                InvariantAuditor(self.hierarchy, self.audit_params)
                if self.audit_params.enabled
                else None
            )
            collector = (
                TelemetryCollector(self.hierarchy, self.telemetry_params)
                if self.telemetry_params.enabled
                else None
            )
        # The phase profiler follows the telemetry discipline exactly:
        # the handle is None unless profiling was requested, every
        # engine-side use sits behind one ``is not None`` predicate
        # (enforced by the telemetry-guard lint rule), and the disabled
        # path therefore costs one check per phase transition -- never
        # per access.  Resumed runs profile their own leg only (phase
        # timers are wall-clock and are deliberately not checkpointed).
        profiler = (
            PhaseProfiler() if self.profile_params.enabled else None
        )
        audit_hook = (
            auditor.maybe_check
            if auditor is not None and auditor.params.interval > 0
            else None
        )
        telemetry_hook = None
        if collector is not None:
            collector.bind()
            telemetry_hook = collector.on_access
        if profiler is not None:
            # Per-access hook attribution: only the profiled run pays
            # the wrapper, the plain hook path is untouched.
            if audit_hook is not None:
                audit_hook = profiler.timed("audit", audit_hook)
            if telemetry_hook is not None:
                telemetry_hook = profiler.timed("telemetry",
                                                telemetry_hook)
        boundary = None
        if (
            checkpoint_path is not None
            or stop_after is not None
            or progress is not None
        ):
            boundary = _BoundaryController(
                self,
                auditor,
                collector,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                stop_after=stop_after,
                progress=progress,
            )
        # The fast engine ships a fused batch driver (loop + access in one
        # frame, counters batched in locals).  It is only valid when no
        # per-access hook observes intermediate counter state and the
        # whole trace is materialisable (it decodes per-trace columns),
        # so it runs exactly when both hooks are absent, no boundary work
        # is requested, and the workload does not opt out via
        # ``supports_fused`` (streamed BinWorkloads do); results are
        # bit-identical either way.
        fused = getattr(self.hierarchy, "run_trace", None)
        if (
            fused is not None
            and self.scheduling == "timing"
            and audit_hook is None
            and telemetry_hook is None
            and boundary is None
            and state is None
            and getattr(self.workload, "supports_fused", True)
        ):
            if profiler is not None:
                cycles = fused(self.workload, profiler=profiler)
            else:
                cycles = fused(self.workload)
        elif self.scheduling == "timing":
            cycles = self._run_timing(
                audit_hook, telemetry_hook, state, boundary,
                checkpoint_every, profiler,
            )
        else:
            cycles = self._run_lockstep(
                audit_hook, telemetry_hook, state, boundary,
                checkpoint_every, profiler,
            )
        if profiler is not None:
            profiler.enter("flush")
        self.hierarchy.finalize_stats()
        report = auditor.finalize() if auditor is not None else None
        telemetry_result = (
            collector.finalize(self.hierarchy.stats.total_accesses)
            if collector is not None
            else None
        )
        profile_result = None
        if profiler is not None:
            profiler.exit("flush")
            profile_result = profiler.finalize(
                engine=getattr(self.hierarchy, "engine_name", "object"),
                stats=self.hierarchy.stats,
                config=self.hierarchy.config,
            )
        return SimResult(
            stats=self.hierarchy.stats,
            cycles=cycles,
            scheme=self.hierarchy.scheme.name,
            policy=self.llc_policy_name,
            workload=self.workload.name,
            energy=self.hierarchy.energy,
            scheme_stats=self.hierarchy.scheme.on_stats(),
            audit=report,
            telemetry=telemetry_result,
            profile=profile_result,
        )

    # -- timing mode ------------------------------------------------------------

    def _run_timing(
        self,
        audit_hook=None,
        telemetry_hook=None,
        state=None,
        boundary=None,
        boundary_every: int = 65536,
        profiler=None,
    ) -> int:
        h = self.hierarchy
        base_cpi = h.config.core.base_cpi
        # Hot loop: every per-access attribute lookup is hoisted into a
        # local; the heap functions and the access method dominate.
        access = h.access
        core_stats = h.stats.cores
        heappush = heapq.heappush
        heappop = heapq.heappop
        if profiler is not None:
            profiler.enter("decode")
        traces = [t.records for t in self.workload]
        trace_ends = [len(t) for t in traces]
        if profiler is not None:
            profiler.exit("decode")
        if state is None:
            # (ready_cycle, core, next_index) min-heap.  Cores with an
            # empty trace never issue: they finish instantly with
            # cycles=0 and must not seed the heap (traces[core][0] would
            # raise).
            heap = [
                (0, core, 0) for core, end in enumerate(trace_ends) if end
            ]
            finish = [0] * self.workload.cores
            global_pos = 0
        else:
            # Entries are unique per core, so every pop has a unique
            # minimum: re-heapifying the saved entries replays exactly
            # the uninterrupted pop order.
            heap = [tuple(e) for e in state["heap"]]
            finish = list(state["finish"])
            global_pos = state["global_pos"]
        heapq.heapify(heap)
        countdown = boundary_every
        if profiler is not None:
            profiler.enter("access_loop")
        while heap:
            ready, core, idx = heappop(heap)
            rec = traces[core][idx]
            gap = rec.gap
            issue = ready + int(gap * base_cpi)
            if telemetry_hook is not None:
                telemetry_hook(global_pos)
            latency = access(
                core,
                rec.addr,
                rec.is_write,
                rec.pc,
                cycle=issue,
                global_pos=global_pos,
            )
            global_pos += 1
            if audit_hook is not None:
                audit_hook(global_pos - 1)
            done = issue + latency
            cs = core_stats[core]
            cs.instructions += gap + 1
            idx += 1
            if idx < trace_ends[core]:
                heappush(heap, (done, core, idx))
            else:
                finish[core] = done
                cs.cycles = done
            if boundary is not None:
                countdown -= 1
                if countdown == 0 and heap:
                    countdown = boundary_every
                    boundary(global_pos, {
                        "heap": list(heap),
                        "finish": list(finish),
                        "global_pos": global_pos,
                    })
        if profiler is not None:
            profiler.exit("access_loop")
        return max(finish) if finish else 0

    # -- lockstep mode -------------------------------------------------------------

    def _run_lockstep(
        self,
        audit_hook=None,
        telemetry_hook=None,
        state=None,
        boundary=None,
        boundary_every: int = 65536,
        profiler=None,
    ) -> int:
        h = self.hierarchy
        access = h.access
        core_stats = h.stats.cores
        # Indexed replay of the canonical lock-step order (round-robin by
        # access index -- see trace.interleave_records): the explicit
        # (row, core) cursor is what checkpoints capture.
        if profiler is not None:
            profiler.enter("decode")
        streams = [t.records for t in self.workload]
        lens = [len(s) for s in streams]
        if profiler is not None:
            profiler.exit("decode")
        cores = len(streams)
        longest = max(lens)
        if state is None:
            row, core, pos = 0, 0, 0
        else:
            row, core, pos = state["row"], state["core"], state["pos"]
        countdown = boundary_every
        if profiler is not None:
            profiler.enter("access_loop")
        while row < longest:
            while core < cores:
                if row < lens[core]:
                    rec = streams[core][row]
                    if telemetry_hook is not None:
                        telemetry_hook(pos)
                    access(
                        core,
                        rec.addr,
                        rec.is_write,
                        rec.pc,
                        cycle=pos,
                        global_pos=pos,
                    )
                    if audit_hook is not None:
                        audit_hook(pos)
                    core_stats[core].instructions += rec.gap + 1
                    pos += 1
                    if boundary is not None:
                        countdown -= 1
                        if countdown == 0:
                            countdown = boundary_every
                            boundary(pos, {
                                "row": row,
                                "core": core + 1,
                                "pos": pos,
                            })
                core += 1
            core = 0
            row += 1
        if profiler is not None:
            profiler.exit("access_loop")
        for cs in core_stats:
            cs.cycles = pos  # lockstep mode carries no timing meaning
        return pos


class _BoundaryController:
    """Boundary work for one run: checkpoint saves, heartbeats, stop.

    Called by the engine loops every ``checkpoint_every`` accesses with
    the accesses-done count and a picklable scheduler-state dict.  Order
    matters: the checkpoint is saved *before* a ``stop_after`` interrupt
    is raised, so the caller can always resume from the path it passed.
    """

    def __init__(
        self,
        sim: "Simulation",
        auditor,
        collector,
        *,
        checkpoint_path,
        checkpoint_every: int,
        stop_after: Optional[int],
        progress,
    ) -> None:
        self.sim = sim
        self.auditor = auditor
        self.collector = collector
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.stop_after = stop_after
        self.progress = progress
        self.total = sim.workload.total_accesses()
        self._fingerprint = sim.workload.fingerprint()

    def __call__(self, accesses_done: int, scheduler_state: dict) -> None:
        saved = False
        if self.checkpoint_path is not None:
            save_checkpoint(self.checkpoint_path, SimCheckpoint(
                version=CHECKPOINT_VERSION,
                workload_fingerprint=self._fingerprint,
                scheduling=self.sim.scheduling,
                accesses_done=accesses_done,
                scheduler_state=scheduler_state,
                hierarchy=self.sim.hierarchy,
                auditor=self.auditor,
                collector=self.collector,
            ))
            saved = True
        if self.progress is not None:
            every = self.checkpoint_every
            self.progress(StreamProgress(
                accesses_done=accesses_done,
                total_accesses=self.total,
                chunk=accesses_done // every,
                chunks=(self.total + every - 1) // every,
                checkpointed=saved,
                label=getattr(self.sim.workload, "name", ""),
                engine=getattr(self.sim.hierarchy, "engine_name", "object"),
            ))
        if (
            self.stop_after is not None
            and accesses_done >= self.stop_after
            and accesses_done < self.total
        ):
            raise SimulationInterrupted(
                self.checkpoint_path, accesses_done, self.total
            )


def build_hierarchy(
    config,
    scheme_name: str,
    llc_policy: str = "lru",
    scheme_kwargs: Optional[dict] = None,
    policy_kwargs: Optional[dict] = None,
    oracle=None,
):
    """The hierarchy of the engine :func:`repro.sim.fast.resolve_engine`
    picks: the reference :class:`~repro.hierarchy.cmp.CacheHierarchy`
    or the array-state :class:`~repro.sim.fast.FastHierarchy` (which
    raises :class:`~repro.sim.fast.UnsupportedConfigError` outside its
    envelope, e.g. on an explicit ``engine="fast"`` Belady run)."""
    from repro.hierarchy.cmp import CacheHierarchy
    from repro.schemes import make_scheme
    from repro.sim.fast import FastHierarchy, resolve_engine

    if resolve_engine(config, scheme_name, llc_policy, scheme_kwargs,
                      policy_kwargs, oracle) == "fast":
        return FastHierarchy(config, scheme_name, llc_policy,
                             scheme_kwargs, policy_kwargs)
    return CacheHierarchy(
        config,
        make_scheme(scheme_name, **(scheme_kwargs or {})),
        llc_policy=llc_policy,
        oracle=oracle,
        policy_kwargs=policy_kwargs,
    )


def run_workload(
    config,
    workload,
    scheme_name: str,
    llc_policy: str = "lru",
    scheduling: str = "timing",
    oracle=None,
    policy_kwargs: Optional[dict] = None,
    audit=None,
    telemetry=None,
    profile=None,
    checkpoint_path=None,
    checkpoint_every: Optional[int] = None,
    resume_from=None,
    stop_after: Optional[int] = None,
    progress=None,
) -> SimResult:
    """Convenience one-call runner: build hierarchy + scheme, simulate.

    ``audit`` (AuditParams or a spec string like ``"end,fail"``) enables
    the invariant auditor; when omitted, the ``REPRO_AUDIT`` environment
    variable and then ``config.audit`` decide.  ``telemetry``
    (TelemetryParams or a spec string like ``"250,events=relocation"``)
    enables interval sampling/event tracing the same way, via
    ``REPRO_TELEMETRY`` and ``config.telemetry``.  ``profile``
    (ProfileParams or ``"on"``/``"off"``) enables the phase profiler
    (``SimResult.profile``) the same way again, via ``REPRO_PROFILE``
    and ``config.profile``.

    Every completed call appends one provenance record to the run
    ledger (see :mod:`repro.obs.ledger`; ``REPRO_LEDGER=off`` opts
    out).  Interrupted runs (``stop_after`` checkpoints) do not
    append -- the resumed completion does, carrying its checkpoint
    lineage in ``resumed_from``.

    ``config.engine`` selects the implementation (:func:`build_hierarchy`).
    ``"auto"`` (default) runs the array-state fast engine whenever it
    models the run -- the inclusive, non-inclusive and object-property
    ZIV schemes over LRU/SRRIP/NRU/Hawkeye, without prefetching or
    keyword arguments -- and the reference object engine otherwise
    (CHAR-based ZIV, QBS/SHARP/CharonBase, Belady and other oracles,
    DRRIP).  Both give identical statistics (``repro.sim.differential``).

    ``workload`` may also be a :class:`~repro.sim.tracebin.TraceRef`
    (resolved -- and fingerprint-verified -- to a streaming
    :class:`~repro.sim.tracebin.BinWorkload` here), and the
    checkpoint/streaming keywords (``checkpoint_path``,
    ``checkpoint_every``, ``resume_from``, ``stop_after``, ``progress``)
    pass straight through to :meth:`Simulation.run`."""
    from repro.sim.tracebin import resolve_workload

    workload = resolve_workload(workload)
    hierarchy = build_hierarchy(
        config, scheme_name, llc_policy,
        policy_kwargs=policy_kwargs, oracle=oracle,
    )
    sim = Simulation(
        hierarchy,
        workload,
        scheduling=scheduling,
        llc_policy_name=llc_policy,
        audit=audit,
        telemetry=telemetry,
        profile=profile,
    )
    # Ledger wall time is observability-only (it feeds the JSONL record,
    # never the SimResult), so the wall-clock reads are suppressed like
    # the ProgressTracker's.
    import time as _time

    t0 = _time.perf_counter()  # repro-lint: ignore[determinism]
    result = sim.run(
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        resume_from=resume_from,
        stop_after=stop_after,
        progress=progress,
    )
    wall_s = _time.perf_counter() - t0  # repro-lint: ignore[determinism]
    _append_direct_ledger_record(
        sim, config, workload, llc_policy, policy_kwargs, oracle,
        result, wall_s, resume_from,
    )
    return result


def _append_direct_ledger_record(
    sim: Simulation,
    config,
    workload,
    llc_policy: str,
    policy_kwargs: Optional[dict],
    oracle,
    result: SimResult,
    wall_s: float,
    resume_from,
) -> None:
    """Record one completed :func:`run_workload` call in the run ledger.

    Best-effort by contract: any failure here is swallowed, because the
    ledger must never fail a run that already produced its result.  The
    recipe key is the *same* content hash ``run_many`` would use for an
    equivalent :class:`~repro.sim.parallel.RunRecipe` (with the resolved
    audit/telemetry/profile settings baked into the config), so direct
    runs and fleet runs of the same work share ledger identity; runs a
    recipe cannot express (custom oracles) get an empty key."""
    try:
        from repro.obs.ledger import (
            append_record,
            ledger_enabled,
            record_from_result,
        )

        if not ledger_enabled():
            return
        recipe_key = ""
        if oracle is None:
            from repro.sim.parallel import RunRecipe

            keyed_config = config.replace(
                audit=sim.audit_params,
                telemetry=sim.telemetry_params,
                profile=sim.profile_params,
            )
            recipe_key = RunRecipe(
                workload=workload,
                scheme=result.scheme,
                config=keyed_config,
                policy=llc_policy,
                scheduling=sim.scheduling,
                policy_kwargs=tuple(sorted((policy_kwargs or {}).items())),
            ).key()
        append_record(record_from_result(
            recipe_key=recipe_key,
            result=result,
            source="direct",
            wall_s=wall_s,
            config=config,
            workload_fingerprint=workload.fingerprint(),
            scheduling=sim.scheduling,
            trace_path=str(getattr(workload, "path", "") or ""),
            resumed_from=(
                "" if resume_from is None
                else "<checkpoint object>"
                if isinstance(resume_from, SimCheckpoint)
                else str(resume_from)
            ),
            engine=sim.hierarchy.engine_name,
        ))
    except Exception:
        # Observability must never break the simulation result path.
        pass
