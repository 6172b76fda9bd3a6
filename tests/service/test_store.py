"""Tests for the sqlite-backed shared result store."""

import json
import sqlite3
import threading

import numpy as np
import pytest

from repro.core.accelerator import AcceleratorSimulator
from repro.core.workload import PhaseWorkload
from repro.fp.bfloat16 import bf16_quantize
from repro.service.store import (
    CACHE_VERSION,
    STORE_FILENAME,
    ResultStore,
    StoreError,
)

QUICK = dict(sample_strips=2, sample_steps=8)


def _result(seed=0):
    rng = np.random.default_rng(seed)
    values_a = bf16_quantize(rng.normal(0, 1, 2048))
    values_a[rng.random(2048) < 0.4] = 0.0
    workload = PhaseWorkload(
        model="m", layer="l", phase="AxW", macs=500_000, reduction=256,
        tensor_a="A", tensor_b="W",
        values_a=values_a,
        values_b=bf16_quantize(rng.normal(0, 1, 2048)),
        input_bytes=1e6, output_bytes=2e5,
    )
    return AcceleratorSimulator(**QUICK).simulate_workload([workload])


def _raw(store_path):
    """A raw sqlite connection onto the store file (for fault injection)."""
    return sqlite3.connect(str(store_path))


@pytest.fixture()
def opened_connections(monkeypatch):
    """Every connection ``sqlite3.connect`` opens from here on."""
    opened = []
    real_connect = sqlite3.connect

    def tracking(*args, **kwargs):
        conn = real_connect(*args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", tracking)
    return opened


def _is_closed(conn):
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return True
    return False


class TestPaths:
    def test_directory_grows_the_default_filename(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            assert store.path == tmp_path / "store" / STORE_FILENAME
            assert store.path.exists()

    def test_explicit_sqlite_file(self, tmp_path):
        with ResultStore(tmp_path / "my.sqlite") as store:
            assert store.path == tmp_path / "my.sqlite"


class TestRoundTrip:
    def test_byte_identical_round_trip(self, tmp_path):
        result = _result()
        with ResultStore(tmp_path) as store:
            store.store("k1", result)
            loaded = store.load("k1")
        assert json.dumps(loaded.to_dict()) == json.dumps(result.to_dict())

    def test_miss_is_none(self, tmp_path):
        with ResultStore(tmp_path) as store:
            assert store.load("nope") is None
            assert not store.contains("nope")

    def test_contains_and_len(self, tmp_path):
        with ResultStore(tmp_path) as store:
            assert len(store) == 0
            store.store("k1", _result())
            store.store("k2", _result(1))
            store.store("k1", _result())  # upsert, not a third row
            assert len(store) == 2
            assert store.contains("k1") and store.contains("k2")

    def test_persists_across_instances(self, tmp_path):
        result = _result()
        with ResultStore(tmp_path) as store:
            store.store("k1", result)
        with ResultStore(tmp_path) as reopened:
            assert json.dumps(reopened.load("k1").to_dict()) == json.dumps(
                result.to_dict()
            )


class TestVersioning:
    def _stale_one_row(self, store, key):
        store.close()
        with _raw(store.path) as conn:
            conn.execute(
                "UPDATE results SET version = ? WHERE key = ?",
                (CACHE_VERSION + 1, key),
            )
            conn.commit()

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store("k1", _result())
        self._stale_one_row(store, "k1")
        with ResultStore(tmp_path, evict_stale=False) as fresh:
            assert fresh.load("k1") is None
            assert not fresh.contains("k1")
            assert len(fresh) == 0
            assert fresh.stats()["stale_entries"] == 1

    def test_evict_stale_sweeps_other_versions(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store("stale", _result())
        self._stale_one_row(store, "stale")
        with ResultStore(tmp_path, evict_stale=False) as fresh:
            fresh.store("current", _result(1))
            assert fresh.evict_stale() == 1
            assert fresh.stats()["stale_entries"] == 0
            assert fresh.contains("current")

    def test_open_evicts_by_default(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store("stale", _result())
        self._stale_one_row(store, "stale")
        with ResultStore(tmp_path) as fresh:
            assert fresh.stats()["stale_entries"] == 0


class TestHealing:
    def test_malformed_row_reads_as_miss_and_is_deleted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store("bad", _result())
        store.close()
        with _raw(store.path) as conn:
            conn.execute(
                "UPDATE results SET payload = '{not json' WHERE key = 'bad'"
            )
            conn.commit()
        with ResultStore(tmp_path) as healed:
            assert healed.load("bad") is None
            # The poisoned row is gone: a clean write replaces it.
            assert len(healed) == 0
            healed.store("bad", _result(2))
            assert healed.load("bad") is not None

    def test_wrong_shape_payload_heals_too(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store("bad", _result())
        store.close()
        with _raw(store.path) as conn:
            conn.execute(
                "UPDATE results SET payload = '{\"cycles\": 1}' "
                "WHERE key = 'bad'"
            )
            conn.commit()
        with ResultStore(tmp_path) as healed:
            assert healed.load("bad") is None


class TestConcurrency:
    def test_writer_and_readers_share_one_instance(self, tmp_path):
        result = _result()
        keys = [f"k{i}" for i in range(24)]
        errors = []
        with ResultStore(tmp_path) as store:
            def write():
                try:
                    for key in keys:
                        store.store(key, result)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            def read():
                try:
                    for _ in range(3):
                        for key in keys:
                            loaded = store.load(key)
                            if loaded is not None:
                                assert loaded.cycles == result.cycles
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert len(store) == len(keys)

    def test_second_connection_reads_while_first_writes(self, tmp_path):
        result = _result()
        with ResultStore(tmp_path) as writer:
            with ResultStore(tmp_path) as reader:
                for i in range(8):
                    writer.store(f"k{i}", result)
                    assert reader.load(f"k{i}") is not None


class TestSchemaGuard:
    def test_foreign_store_layout_is_refused(self, tmp_path):
        store = ResultStore(tmp_path)
        store.close()
        with _raw(store.path) as conn:
            conn.execute(
                "UPDATE meta SET value = '99' WHERE name = 'store_schema'"
            )
            conn.commit()
        with pytest.raises(StoreError, match="schema 99"):
            ResultStore(tmp_path)

    def test_non_sqlite_file_is_refused_cleanly(self, tmp_path):
        bogus = tmp_path / "notdb.sqlite"
        bogus.write_text("not a database")
        with pytest.raises(StoreError, match="not a usable result store"):
            ResultStore(bogus)

    def test_layout_refusal_closes_its_connection(
        self, tmp_path, opened_connections
    ):
        ResultStore(tmp_path).close()
        conn = _raw(tmp_path / STORE_FILENAME)
        conn.execute(
            "UPDATE meta SET value = '99' WHERE name = 'store_schema'"
        )
        conn.commit()
        conn.close()
        opened_connections.clear()
        with pytest.raises(StoreError, match="schema 99"):
            ResultStore(tmp_path)
        assert len(opened_connections) == 1
        assert _is_closed(opened_connections[0])

    def test_unusable_file_refusal_closes_its_connection(
        self, tmp_path, opened_connections
    ):
        bogus = tmp_path / "notdb.sqlite"
        bogus.write_text("not a database")
        with pytest.raises(StoreError, match="not a usable result store"):
            ResultStore(bogus)
        assert len(opened_connections) == 1
        assert _is_closed(opened_connections[0])
