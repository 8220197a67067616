"""Metadata/namespace torture coverage: generation, episodes, oracles.

Pinned regressions for the metadata bug swarm:

* **seed 0 + nfsv4 + buggy truncate** — checker-power gate: with the
  truncate fix reverted to its attr-cache-only form, the durability
  oracle reports *truncate-resurrection* (cached pages past the cut
  written back / served again) within the CI seed budget.
* **seed 32 + pnfs-3tier** — exactly-once under truncate: the MDS
  used to block its truncate handler on backchannel layout recalls;
  under a NIC fault the handler outlived the client's RPC patience
  and the retransmission re-executed it.  Recalls now run detached.
* **program 1222328495040 + nfsv4** — a read whose blocks all time out
  under a long server outage: the first failed block failed the read,
  and the next one, with nobody left waiting, crashed the simulation.
  Block fetches (demand and readahead) now return their errors.
* **program 1368426741016, minimised, + nfsv4** — a rename that times
  out under an outage may still be applied when the server resumes;
  the read oracle used to reject the source's bytes at the
  destination as never written.
"""

import pytest

from repro.check.program import (
    FaultSpec,
    Op,
    Program,
    generate,
    ns_path,
    private_path,
    scratch_path,
)
from repro.check.runner import (
    buggy_truncate_factory,
    run_episode,
    sweep,
)

ALL_ARCHES = ["direct-pnfs", "pvfs2", "pnfs-2tier", "pnfs-3tier", "nfsv4"]

_META_KINDS = {"truncate", "recreate", "rename", "mkdir", "readdir", "getattr"}


class TestGeneration:
    def test_metadata_ops_appear(self):
        kinds = set()
        for seed in range(12):
            prog = generate(seed, metadata_ops=True)
            assert prog.metadata
            kinds |= {op.kind for t in prog.ops for op in t}
        assert _META_KINDS <= kinds

    def test_default_stream_is_untouched(self):
        """``metadata_ops`` must not perturb the default rng stream:
        the pinned data-path seeds depend on byte-identical programs."""
        a, b = generate(146), generate(146)
        assert a.to_json() == b.to_json()
        assert not a.metadata
        assert not any(
            op.kind in _META_KINDS for t in a.ops for op in t
        )

    def test_json_roundtrip_with_dest(self):
        prog = generate(5, metadata_ops=True)
        back = Program.from_json(prog.to_json())
        assert back.to_json() == prog.to_json()
        assert back.metadata
        renames = [op for t in back.ops for op in t if op.kind == "rename"]
        for op in renames:
            assert op.dest  # dest survives the round trip

    def test_old_json_without_metadata_field_loads(self):
        import json

        raw = json.loads(generate(5).to_json())
        del raw["metadata"]
        for track in raw["ops"]:
            for op in track:
                del op["dest"]
        prog = Program.from_json(json.dumps(raw))
        assert prog.metadata is False

    def test_namespace_slots_single_owner(self):
        for seed in (0, 9, 23):
            prog = generate(seed, metadata_ops=True)
            slots = [prog.ns_slot_of(c) for c in range(prog.n_clients)]
            assert sorted(slots) == list(range(prog.n_clients))
            for c in range(prog.n_clients):
                assert prog.owner_of(scratch_path(c), 0) == c
                assert prog.owner_of(ns_path(prog.ns_slot_of(c)), 0) == c


class TestEpisodes:
    def test_metadata_smoke_all_arches(self):
        program = generate(0, metadata_ops=True)
        for arch in ALL_ARCHES:
            res = run_episode(program, arch)
            assert res.ok, (arch, res.violations)
            assert not res.wedged

    def test_metadata_replay_is_byte_identical(self):
        program = generate(7, metadata_ops=True)
        a = run_episode(program, "direct-pnfs")
        b = run_episode(program, "direct-pnfs")
        assert a.trace_hash == b.trace_hash
        assert a.violations == b.violations

    def test_metadata_sweep_clean(self):
        results = sweep(["nfsv4"], seeds=3, metadata=True)
        assert len(results) == 3
        assert all(r.ok for r in results), [
            (r.seed, r.violations) for r in results if not r.ok
        ]


class TestPinnedRegressions:
    def test_seed_0_buggy_truncate_is_caught(self):
        # Checker power: revert the truncate fix to its pre-fix
        # attr-cache-only form and the durability oracle must label the
        # failure as truncate-resurrection.
        res = run_episode(
            generate(0, metadata_ops=True),
            "nfsv4",
            client_factory=buggy_truncate_factory,
        )
        assert not res.ok
        assert any("truncate-resurrection" in v for v in res.violations)
        # ... and the fixed client sails through the same episode.
        assert run_episode(generate(0, metadata_ops=True), "nfsv4").ok

    def test_seed_32_truncate_recall_exactly_once(self):
        # The MDS truncate handler must not block on layout recalls:
        # blocked past the client's RPC patience, its retransmission
        # re-executed the handler (reply cache can only suppress
        # *completed* executions).
        res = run_episode(generate(32, metadata_ops=True), "pnfs-3tier")
        assert res.ok, res.violations


    def test_program_1222328495040_read_timeouts_do_not_crash(self):
        # Every block of one read times out under a 4+ s outage; the
        # read must fail on its own, not crash the simulation.
        program = generate(
            1222328495040, n_clients=3, ops_per_client=10, metadata_ops=True
        )
        res = run_episode(program, "nfsv4")
        assert res.ok, res.violations

    def test_ambiguous_rename_source_bytes_readable_at_destination(self):
        # Program 1368426741016 minimised: client 2 writes its scratch
        # file, renames it to its namespace slot while the NFSv4 server
        # is out (the rename times out, but the server applies it when
        # it resumes), then reads the slot and sees the scratch bytes.
        outage = FaultSpec("outage", target=5, start=0.0219423, duration=4.2797383)
        ops = [
            Op("write", scratch_path(2), offset=2036, length=11497, tag=6),
            Op("write", private_path(2), offset=2442, length=7293, tag=7),
            Op("rename", scratch_path(2), dest=ns_path(0)),
            Op("read", ns_path(0), offset=1537, length=3505),
        ]
        program = Program(
            seed=1368426741016,
            n_clients=3,
            chunk=8192,
            shared_size=73728,
            private_size=16384,
            ops=[[], [], ops],
            faults=[outage],
            metadata=True,
        )
        res = run_episode(program, "nfsv4")
        assert res.ok, res.violations
        # The read's bytes were checked, not skipped.
        assert res.stats["bytes_checked"] == 3505


class TestShrinker:
    def test_shrink_handles_metadata_kinds(self):
        from repro.check.shrink import shrink_program

        program = generate(0, metadata_ops=True)
        small, runs = shrink_program(
            program, "nfsv4", buggy_truncate_factory
        )
        assert runs > 1
        assert small.op_count < program.op_count
        res = run_episode(
            small, "nfsv4", client_factory=buggy_truncate_factory
        )
        assert not res.ok
        # The minimised program still carries the essential metadata op.
        kinds = {op.kind for t in small.ops for op in t}
        assert "truncate" in kinds
