"""Scale-out requests through the session: keys, memo, and result store."""

import contextlib
import sqlite3

from repro.harness.runner import (
    SessionConfig,
    SimRequest,
    SimulationSession,
    canonical_key,
)
from repro.scale.scaleout import ScaleOutResult
from repro.service.store import CACHE_VERSION

FAST = dict(sample_strips=2, sample_steps=8)


def _session(**overrides):
    return SimulationSession(config=SessionConfig(**{**FAST, **overrides}))


def _row(session, key):
    """``(version, kind)`` of the key's row in the session's store."""
    with contextlib.closing(sqlite3.connect(session.disk.path)) as conn:
        return conn.execute(
            "SELECT version, kind FROM results WHERE key = ?", (key,)
        ).fetchone()


def _key(request):
    return canonical_key(request, 2, 8, 1234, "roofline")


class TestCanonicalKeys:
    def test_nodes_and_partition_in_key(self):
        base = SimRequest.make("NCF", nodes=2, partition="data")
        assert _key(base) != _key(SimRequest.make("NCF", nodes=4, partition="data"))
        assert _key(base) != _key(SimRequest.make("NCF", nodes=2, partition="model"))

    def test_single_node_partition_normalized_away(self):
        """N=1 requests share keys regardless of (irrelevant) scheme."""
        plain = SimRequest.make("NCF")
        for scheme in ("data", "model", "pipeline"):
            assert _key(plain) == _key(
                SimRequest.make("NCF", nodes=1, partition=scheme)
            )

    def test_key_spec_contains_nodes(self):
        assert '"nodes":4' in _key(SimRequest.make("NCF", nodes=4))


class TestSessionScaleout:
    def test_n1_shares_memo_with_plain_simulate(self):
        session = _session()
        plain = session.simulate("NCF")
        assert session.stats.simulations == 1
        anchor = session.scaleout("NCF", 1, "pipeline")
        assert session.stats.simulations == 1  # memo hit, no re-run
        assert anchor is plain

    def test_multi_node_returns_scaleout_result(self):
        session = _session()
        result = session.scaleout("NCF", 2, "data")
        assert isinstance(result, ScaleOutResult)
        assert result.nodes == 2 and result.scheme == "data"

    def test_memoized_per_scheme(self):
        session = _session()
        first = session.scaleout("NCF", 2, "data")
        again = session.scaleout("NCF", 2, "data")
        other = session.scaleout("NCF", 2, "model")
        assert again is first
        assert other is not first
        assert session.stats.simulations == 2

    def test_prefetch_covers_scaleout_requests(self):
        session = _session()
        session.prefetch(
            [
                SimRequest.make("NCF", nodes=n, partition="data")
                for n in (1, 2)
            ]
        )
        assert session.stats.simulations == 2
        session.scaleout("NCF", 2, "data")
        assert session.stats.simulations == 2


class TestDiskCache:
    def test_scaleout_round_trip(self, tmp_path):
        session = _session(cache_dir=tmp_path)
        cold = session.scaleout("NCF", 4, "pipeline")
        warm_session = _session(cache_dir=tmp_path)
        warm = warm_session.scaleout("NCF", 4, "pipeline")
        assert warm_session.stats.disk_hits == 1
        assert warm_session.stats.simulations == 0
        assert isinstance(warm, ScaleOutResult)
        assert warm.to_dict() == cold.to_dict()

    def test_kind_tag_selects_deserializer(self, tmp_path):
        session = _session(cache_dir=tmp_path)
        request = SimRequest.make("NCF", nodes=2, partition="data")
        session.prefetch([request])
        key = session.key_of(request)
        assert _row(session, key) == (CACHE_VERSION, "scaleout")
        loaded = session.disk.load(key)
        assert isinstance(loaded, ScaleOutResult)

    def test_workload_results_tagged_workload(self, tmp_path):
        session = _session(cache_dir=tmp_path)
        request = SimRequest.make("NCF")
        session.prefetch([request])
        assert _row(session, session.key_of(request))[1] == "workload"

    def test_version_mismatch_is_miss(self, tmp_path, monkeypatch):
        session = _session(cache_dir=tmp_path)
        request = SimRequest.make("NCF", nodes=2, partition="data")
        session.prefetch([request])
        monkeypatch.setattr("repro.service.store.CACHE_VERSION", 999)
        assert session.disk.load(session.key_of(request)) is None


class TestParallelFanOut:
    def test_jobs_bit_identical_to_serial(self, tmp_path):
        requests = [
            SimRequest.make("NCF", nodes=n, partition=p)
            for n, p in ((2, "data"), (2, "model"), (4, "pipeline"))
        ]
        serial = _session()
        serial.prefetch(requests)
        parallel = _session(jobs=2)
        parallel.prefetch(requests)
        for request in requests:
            a = serial._memo[serial.key_of(request)]
            b = parallel._memo[parallel.key_of(request)]
            assert a.to_dict() == b.to_dict()
