"""Sqlite-backed result store: the one persistence layer for results.

``repro run --cache DIR`` (through
:class:`repro.harness.runner.SimulationSession`) and ``repro serve``
both persist simulation results here, so a directory warmed by one
front end serves the other from the same ``DIR/results.sqlite``:

* **canonical keys** -- keys are the canonical simulation keys of
  :func:`repro.harness.runner.canonical_key`; values round-trip through
  the kind-tagged ``to_dict``/``from_dict`` JSON of
  :func:`repro.service.wire.encode_result` /
  :func:`repro.service.wire.decode_result`, so a loaded result is
  bit-identical to the simulated one;
* **version-aware** -- every row records the :data:`CACHE_VERSION` it
  was written under; rows from other versions read as misses and are
  swept by :meth:`ResultStore.evict_stale` (run automatically on open);
* **single-writer / multi-reader safe** -- WAL journaling plus a busy
  timeout let any number of reader connections coexist with one
  writer; writes are additionally serialized per instance with a lock
  so one store object can be shared across threads;
* **self-healing** -- a row whose payload no longer parses is deleted
  on first read and reported as a miss instead of poisoning the store.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path

from repro.service.wire import decode_result, encode_result

# Bump when the result schema or simulator semantics change; stale
# rows from older versions then read as misses instead of poisoning
# warm runs.
# v2: canonical keys carry the memory engine and counters may embed a
# MemoryTrafficResult (hierarchy runs).
# v3: canonical keys carry nodes/partition and entries carry a "kind"
# tag (scale-out results persist alongside single-node ones).
CACHE_VERSION = 3

# Name of the sqlite file when the store is given a directory.
STORE_FILENAME = "results.sqlite"

# Version of the store's own table layout (independent of the result
# schema, which CACHE_VERSION tracks).  A mismatch means a different
# build wrote the file; the store refuses rather than guessing.
STORE_SCHEMA = 1

_CREATE = """
CREATE TABLE IF NOT EXISTS results (
    key     TEXT PRIMARY KEY,
    version INTEGER NOT NULL,
    kind    TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class StoreError(RuntimeError):
    """The store file exists but cannot be used (layout mismatch)."""


class ResultStore:
    """Shared, versioned result store over one sqlite file.

    Args:
        path: the sqlite file, or a directory (the store then lives at
            ``path/results.sqlite``).  Created on first use.
        evict_stale: sweep rows from other ``CACHE_VERSION``s on open
            (default True; pass False to inspect a stale store).

    Raises:
        StoreError: when the file exists but was written under a
            different store layout.
    """

    def __init__(
        self, path: str | os.PathLike, *, evict_stale: bool = True
    ) -> None:
        given = Path(path)
        if given.suffix == ".sqlite" and not given.is_dir():
            self.path = given
        else:
            self.path = given / STORE_FILENAME
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=30.0, check_same_thread=False
        )
        with self._lock:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA busy_timeout=30000")
                self._conn.executescript(_CREATE)
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE name = 'store_schema'"
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                self._conn.close()
                raise StoreError(
                    f"{self.path} is not a usable result store: {exc}"
                ) from exc
            if row is None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (name, value) "
                    "VALUES ('store_schema', ?)",
                    (str(STORE_SCHEMA),),
                )
                self._conn.commit()
            elif row[0] != str(STORE_SCHEMA):
                self._conn.close()
                raise StoreError(
                    f"{self.path} uses store schema {row[0]}, this build "
                    f"speaks schema {STORE_SCHEMA}"
                )
        if evict_stale:
            self.evict_stale()

    # -- core API ----------------------------------------------------------

    def load(self, key: str):
        """Fetch a stored result, or None on any kind of miss.

        A row written under another ``CACHE_VERSION`` is a miss; a row
        whose payload no longer parses is a miss *and* is deleted so
        the next write replaces it cleanly.

        Args:
            key: canonical simulation key.

        Returns:
            The deserialized :class:`WorkloadResult` /
            ``ScaleOutResult``, or None.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT version, kind, payload FROM results WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            return None
        version, kind, payload = row
        if version != CACHE_VERSION:
            return None
        try:
            return decode_result(kind, json.loads(payload))
        except (TypeError, ValueError):
            # Malformed row: heal by deleting it.
            with self._lock:
                self._conn.execute(
                    "DELETE FROM results WHERE key = ?", (key,)
                )
                self._conn.commit()
            return None

    def store(self, key: str, result) -> None:
        """Persist one result under its canonical key (upsert).

        Args:
            key: canonical simulation key.
            result: a :class:`WorkloadResult` or ``ScaleOutResult``.
        """
        encoded = encode_result(result)
        payload = json.dumps(encoded["result"])
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(key, version, kind, payload) VALUES (?, ?, ?, ?)",
                (key, CACHE_VERSION, encoded["kind"], payload),
            )
            self._conn.commit()

    def contains(self, key: str) -> bool:
        """Whether a current-version row exists for the key."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE key = ? AND version = ?",
                (key, CACHE_VERSION),
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        """Number of current-version rows."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results WHERE version = ?",
                (CACHE_VERSION,),
            ).fetchone()
        return int(count)

    # -- maintenance -------------------------------------------------------

    def evict_stale(self) -> int:
        """Delete every row written under another ``CACHE_VERSION``.

        Returns:
            The number of rows evicted.
        """
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM results WHERE version != ?", (CACHE_VERSION,)
            )
            self._conn.commit()
        return cursor.rowcount

    def stats(self) -> dict:
        """Store accounting for ``/stats`` (entries, staleness, location)."""
        with self._lock:
            (total,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            (current,) = self._conn.execute(
                "SELECT COUNT(*) FROM results WHERE version = ?",
                (CACHE_VERSION,),
            ).fetchone()
        return {
            "path": str(self.path),
            "entries": int(current),
            "stale_entries": int(total) - int(current),
            "cache_version": CACHE_VERSION,
        }

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        self.close()
