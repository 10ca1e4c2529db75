"""Array-state fast simulation engine.

A second implementation of the CMP hierarchy that stores all cache,
directory and ZIV state in flat Python lists (tags, bit-packed metadata,
address->position maps) instead of per-block objects.  It reproduces the
object engine's counters, audit state and telemetry bit-for-bit -- the
differential harness in :mod:`repro.sim.differential` enforces this --
while running several times faster, which makes dense sweeps practical.

``SystemConfig(engine="auto")``, the default, selects it for every run
inside its envelope (:func:`resolve_engine`); ``engine="fast"`` or
``--engine fast`` forces it.
"""

from repro.sim.fast.engine import (
    SUPPORTED_POLICIES,
    SUPPORTED_SCHEMES,
    FastHierarchy,
    UnsupportedConfigError,
    resolve_engine,
    supports,
)

__all__ = [
    "FastHierarchy",
    "UnsupportedConfigError",
    "supports",
    "resolve_engine",
    "SUPPORTED_POLICIES",
    "SUPPORTED_SCHEMES",
]
