#!/usr/bin/env bash
# Tier-1 verification gate: everything a change must pass before review.
# Usage: scripts/verify.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

# One debug-profile run of every suite in the workspace. The gates below
# are part of it; when one of these names fails, this is what it guards
# (re-run it alone with `cargo test [-p <crate>] --test <suite> <name>`):
#
#   robustness (DESIGN.md §8)       fault_sweep — seeded fault schedules vs
#     the oracles; a failure prints the deployment seed and the full
#     schedule needed to replay it.
#   reconfiguration (§10)           reconfig_sweep — migrations interleaved
#     into random fault schedules stay oracle-clean;
#     swishmem/directory_invariants — range-table coverage and no-overlap
#     under any operation sequence.
#   replicated control plane (§12)  controller_failover — the 3-replica
#     smoke (three_replica_smoke) plus the crash-during-migration sweep:
#     the leader dies mid-Transferring and at the dual-owner boundary
#     across >= 12 seeds; every run keeps all foreground writes, finishes
#     the migration under the surviving quorum, and stays silent under
#     the epoch-uniqueness / no-split-brain oracles.
#   consensus hardening (§13)       consensus_hardening —
#     compaction_sweep_long_horizon recycles log slots without tripping
#     SLOT_CAP; reconfiguration_under_fault_sweep converges every
#     membership decree to one group; detector_cuts_failover_gap and
#     gray_links_cause_no_spurious_elections: the adaptive detector beats
#     the static timeout on real crashes and stays silent under gray links.
#   observability (§9, §14)         swishmem-simnet/determinism — attaching
#     spans or the journal leaves the golden fingerprint bit-identical and
#     a fault-swept replay reproduces the journal byte for byte;
#     swishmem-simnet/shard_determinism `journal` — the same under the
#     sharded engine, record stream shard-count invariant.
#   one event loop (§3, §11)        swishmem-simnet/shard_determinism — a
#     single-shard ShardedEngine reproduces the sequential golden
#     fingerprint, the Direct and Buffered sinks hand every collector the
#     same stream, shard/worker count are pure performance knobs;
#     swishmem-bench `shardnet::` — a 2-shard fault sweep runs oracle-clean.
#   wire format (§3)                wire_golden — every frame of a seeded
#     run that emits all 26 messages hashes to the recorded constant;
#     swishmem-wire `swish::tests` — the message table has a sample per
#     row, and decode accepts only what encode emits (corpus mutation).
#   replay lab (§15)              swishmem-replay/roundtrip — `.swtrace`
#     round-trips a million records and rejects truncation/corruption with
#     typed errors; swishmem-replay/scenario_packs — five oracle-armed
#     packs pass clean and the sabotaged feed fails (the gate is live).
echo "==> cargo test --workspace"
cargo test -q --workspace

# Release-profile gates: host-time or allocation measurements that mean
# nothing in a debug build, so the workspace run above does not cover them.
#
#   trace_overhead (§9, §14, E18/E23 smoke): compiled-in-but-detached span
#     tracing and journaling stay cheap.
#   replay_lab (§15, E24 smoke): digest shard-invariance exactly, ring
#     ingest parity within its CI bound.
#   alloc_budget ("Performance model"): 0 allocations per event on the bare
#     engine, <= 2 per EWO packet, <= 1 per SRO read hit, <= 5 per SRO chain
#     write; the wire check 0 per fixed-width frame and <= 1 per Sync; a
#     fault_sweep-shaped run with oracles, spans, journal and wire check
#     armed <= 9 per write.
#   benchmark self-test: `benchmark/` is a separate package the workspace
#     build never compiles; it must still build against the crates and
#     catch every sabotaged reference.
echo "==> cargo test --release --test trace_overhead (detached tracing + journaling overhead)"
cargo test -q --release -p swishmem-bench --test trace_overhead
echo "==> cargo test --release --test replay_lab (E24 smoke: digest invariance + ring parity)"
cargo test -q --release -p swishmem-bench --test replay_lab
echo "==> cargo test --release --test alloc_budget (per-packet allocation budget)"
cargo test -q --release --test alloc_budget
echo "==> bash benchmark/run.sh --self-test (benchmark builds + sabotage gate)"
bash benchmark/run.sh --self-test

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "verify: all gates passed"
