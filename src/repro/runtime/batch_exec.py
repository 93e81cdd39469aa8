"""Retired vector tier, kept as a name only.

Every loop shape this tier once ran — offsets, gathers, strided reads,
inner sequential loops and inlined user functions — now runs in
:mod:`repro.runtime.codegen`, and the executor's ladder is codegen, then
the scalar tier.  The repo benchmark's traced run still patches
``batch_exec.try_run_parallel_for`` by name, so the name stays
resolvable until that patch is dropped; nothing calls it.
"""

from __future__ import annotations

from typing import Optional


def try_run_parallel_for(executor, loop, env) -> Optional[int]:
    """Never runs a loop: always ``None``, the ladder's "not here"."""
    return None
