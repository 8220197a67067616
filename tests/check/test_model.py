"""The reference model's oracles, exercised directly."""

import numpy as np

from repro.check.model import Model
from repro.check.program import SHARED, generate, ns_path, private_path, scratch_path


def _model(seed=3):
    return Model(generate(seed, n_clients=2))


def _bytes(size, fills):
    buf = np.zeros(size, dtype=np.uint8)
    for start, end, tag in fills:
        buf[start:end] = tag
    return buf.tobytes()


class TestReadOracle:
    def test_accepts_any_historical_value(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 100, tag=5)
        m.on_write_ack(path, i0)
        i1 = m.on_write_start(0, path, 0, 100, tag=6)
        m.on_write_ack(path, i1)
        # A *different* client may see the old value, the new one, or a
        # hole — close-to-open consistency allows staleness.
        for fills in ([(0, 100, 5)], [(0, 100, 6)], [], [(0, 50, 5), (50, 100, 6)]):
            data = _bytes(size, fills)[:100]
            assert m.check_read(1, path, 0, data, 100) == []

    def test_rejects_invented_values(self):
        m = _model()
        path = private_path(0)
        data = _bytes(100, [(10, 20, 99)])
        out = m.check_read(1, path, 0, data, 100)
        assert len(out) == 1 and "never written" in out[0]

    def test_read_your_writes_enforced(self):
        m = _model()
        path = private_path(0)
        i0 = m.on_write_start(0, path, 0, 100, tag=5)
        m.on_write_ack(path, i0)
        stale = _bytes(100, [])  # zeros where own write put tag 5
        out = m.check_read(0, path, 0, stale, 100)
        assert any("read-your-writes" in v for v in out)
        # ... but not after an I/O error was surfaced to that client.
        m.on_error(0, path, "fsync")
        assert m.check_read(0, path, 0, stale, 100) == []

    def test_ambiguous_rename_allows_source_bytes_at_destination(self):
        m = Model(generate(3, n_clients=2, metadata_ops=True))
        src, dst = scratch_path(0), ns_path(m.program.ns_slot_of(0))
        i0 = m.on_write_start(0, src, 0, 100, tag=6)
        m.on_write_ack(src, i0)
        m.on_rename_error(0, src, dst)
        # The server may apply the rename after the client gave up.
        assert m.check_read(0, dst, 0, _bytes(100, [(0, 100, 6)]), 100) == []
        # The destination is still checked: invented bytes are caught.
        out = m.check_read(0, dst, 0, _bytes(100, [(0, 100, 99)]), 100)
        assert len(out) == 1 and "never written" in out[0]

    def test_synthetic_payload_skips_content_checks(self):
        m = _model()
        assert m.check_read(0, SHARED, 0, None, 4096) == []
        assert m.synthetic_reads == 1


class TestDurabilityOracle:
    def test_fsynced_write_must_survive(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 200, tag=7)
        m.on_write_ack(path, i0)
        m.on_durable(0, path)
        assert m.check_final(path, _bytes(size, [(0, 200, 7)]), size) == []
        lost = m.check_final(path, _bytes(size, []), size)
        assert len(lost) == 1 and "silent-loss" in lost[0]

    def test_unfsynced_write_may_be_lost(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 200, tag=7)
        m.on_write_ack(path, i0)
        # No fsync: both the new value and a hole are acceptable.
        assert m.check_final(path, _bytes(size, [(0, 200, 7)]), size) == []
        assert m.check_final(path, _bytes(size, []), size) == []

    def test_later_unfsynced_overwrite_is_acceptable(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 200, tag=7)
        m.on_write_ack(path, i0)
        m.on_durable(0, path)
        i1 = m.on_write_start(0, path, 50, 150, tag=8)
        m.on_write_ack(path, i1)
        # tag 8 flushed (or not) — but tag 7 may never resurface below 8.
        assert (
            m.check_final(path, _bytes(size, [(0, 200, 7), (50, 150, 8)]), size)
            == []
        )
        assert m.check_final(path, _bytes(size, [(0, 200, 7)]), size) == []

    def test_reverting_below_floor_is_a_violation(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        i0 = m.on_write_start(0, path, 0, 200, tag=7)
        m.on_write_ack(path, i0)
        i1 = m.on_write_start(0, path, 0, 200, tag=8)
        m.on_write_ack(path, i1)
        m.on_durable(0, path)  # floor now at tag 8
        out = m.check_final(path, _bytes(size, [(0, 200, 7)]), size)
        assert len(out) == 1 and "durability" in out[0]

    def test_attempted_unacked_write_is_allowed(self):
        m = _model()
        path = private_path(0)
        size = m.files[path].size
        m.on_write_start(0, path, 0, 100, tag=9)  # never acked
        assert m.check_final(path, _bytes(size, [(0, 100, 9)]), size) == []
