"""Multi-process peer execution (``ScaleoutSpec.workers > 0``).

One scenario, N worker processes: each worker hosts a contiguous shard of
the data peers behind its own transport, cross-shard traffic travels as
wire-v2 relay frames over localhost TCP, and the single authoritative
simulator clock is relaxed to a coordination protocol — hybrid logical
clocks stamped on every frame (:mod:`.clock`) plus a reduction barrier
(:mod:`.barrier`) that advances all workers through bounded simulated-time
windows.  See ``docs/multicore.md`` for the model and why byte-identity
gates become sequence-identity gates for multi-process runs.
"""

from .barrier import BarrierBroken, BarrierService
from .clock import HLCStamp, HybridLogicalClock
from .errors import MulticoreError, WorkerCrashed
from .launcher import run_multicore
from .report import sequence_identity
from .sharding import shard_assignment

__all__ = [
    "BarrierBroken",
    "BarrierService",
    "HLCStamp",
    "HybridLogicalClock",
    "MulticoreError",
    "WorkerCrashed",
    "run_multicore",
    "sequence_identity",
    "shard_assignment",
]
