"""Content-keyed reuse of sampled tile outcomes within one process.

Many requests of a figure sweep feed the tile engine byte-identical
operand stacks: operand sampling is seeded by ``(sim_seed, model, layer,
phase)`` only, so configurations that differ on the memory side alone
(Fig 11's "zero" vs "zero+bdc", Fig 15's hierarchy re-pricing) and
training-progress points whose tensor statistics have gone flat (Fig 18)
draw the same strips.  :meth:`TileSimulator.simulate_strips` is a pure
function of the tile configuration and its three input arrays, so its
per-phase outcome -- the sampled counters plus the step and makespan
totals -- is memoized on exactly that content:

* the key is the :class:`TileConfig` plus a sha256 over the shape,
  dtype and bytes of ``a_stack``, ``b_stack`` and ``initial_sums``.
  Request identity, the memory engine, base-delta compression and
  training progress never enter it: they act before or after the tile
  engine, never on its inputs' content;
* being content-addressed, the key needs no version constant -- a
  change to what the sampler draws changes the bytes, and a change to
  the engine's semantics lives in code that a new process loads fresh;
* the memo is a bounded, lock-guarded LRU that never leaves the process
  (nothing is persisted or shipped to workers).

Stored counters are private: :meth:`TileOutcomeMemo.get` hands out a
copy, so callers may mutate what they receive.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.config import TileConfig
from repro.core.stats import SimCounters

# Entries kept per process.  One entry is a SimCounters plus two ints
# and a 32-byte digest (about a kilobyte with Python object overhead);
# a cold figure sweep draws a few hundred to a few thousand distinct
# layer-phase stacks.
TILE_MEMO_CAPACITY = 4096

TileOutcome = tuple[SimCounters, int, int]


def _exact_payload(array: np.ndarray) -> tuple[bytes, memoryview]:
    """A tag plus the array's bytes, narrowed to float32 when lossless.

    Sampled operands are bfloat16-exact, so their float64 bytes carry
    half zeros.  The float32 view is hashed only when it round-trips
    every element exactly (float32 keeps the sign of zero; NaN, overflow
    and extra precision fail the check and fall back to full width), so
    distinct inputs never share a payload.
    """
    array = np.ascontiguousarray(array)
    if array.dtype == np.float64:
        narrow = array.astype(np.float32)
        if np.array_equal(narrow, array):
            return b"f4", memoryview(narrow).cast("B")
    return b"raw", memoryview(array).cast("B")


def tile_outcome_key(
    tile_cfg: TileConfig,
    a_stack: np.ndarray,
    b_stack: np.ndarray,
    initial_sums: np.ndarray | None,
) -> tuple[TileConfig, bytes]:
    """Content key of one ``simulate_strips(a_stack, b_stack, initial_sums)``.

    Args:
        tile_cfg: the tile configuration the engine runs under.
        a_stack: serial operands ``[strip, cols, steps, lanes]``.
        b_stack: parallel operands ``[strip, rows, steps, lanes]``.
        initial_sums: warm-start sums ``[strip, rows, cols]`` or None.

    Returns:
        ``(tile_cfg, digest)``; equal inputs give equal keys.
    """
    digest = hashlib.sha256()
    for array in (a_stack, b_stack, initial_sums):
        if array is None:
            digest.update(b"none;")
            continue
        tag, payload = _exact_payload(array)
        digest.update(f"{array.shape};{array.dtype.str};".encode() + tag)
        digest.update(payload)
    return tile_cfg, digest.digest()


@dataclass
class TileMemoStats:
    """Lookup accounting of one memo.

    Attributes:
        hits: lookups answered from the memo.
        misses: lookups that found nothing (the caller ran the engine).
    """

    hits: int = 0
    misses: int = 0


class TileOutcomeMemo:
    """Bounded LRU of ``(sampled counters, total steps, total makespan)``.

    Args:
        capacity: entries kept before the least recently used is evicted.
    """

    def __init__(self, capacity: int = TILE_MEMO_CAPACITY) -> None:
        self.capacity = max(1, int(capacity))
        self.stats = TileMemoStats()
        self._entries: OrderedDict[tuple, TileOutcome] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple) -> TileOutcome | None:
        """A copy of the outcome stored under ``key``, or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        sampled, steps, makespan = entry
        return copy.deepcopy(sampled), steps, makespan

    def put(self, key: tuple, outcome: TileOutcome) -> None:
        """Store a private copy of ``outcome``, evicting LRU overflow."""
        sampled, steps, makespan = outcome
        entry = (copy.deepcopy(sampled), int(steps), int(makespan))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and zero the statistics (cold-start state)."""
        with self._lock:
            self._entries.clear()
            self.stats = TileMemoStats()


DEFAULT_TILE_MEMO = TileOutcomeMemo()
