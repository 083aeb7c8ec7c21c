#!/usr/bin/env bash
# Tier-1 verification gate: everything a change must pass before review.
# Usage: scripts/verify.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier-1 itself. The root manifest's `default-members` lists every crate,
# so these two plain commands build the whole workspace in release and run
# every suite in it once, in the debug profile. The gates below
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
#   observability (§3, §9, §14)     observers (root) — spans, journal,
#     capture, a packet trace and the oracles attached at once leave a
#     fault-swept deployment bit-identical, tap counts and stream hashes
#     pinned; swishmem-simnet/determinism
#     every_family_is_passive_alone_and_together — a tap of each event
#     family, alone and together, keeps the golden fingerprint, and a
#     fault-swept replay reproduces the journal byte for byte;
#     swishmem-simnet `tap::tests` — the one overflow rule;
#     swishmem-bench/explain — the `explain` run over seeds 801–808: span
#     breakdowns reconcile with write_latency, the journal's failover gap
#     matches the election log within 1 µs, the oracles stay clean, and a
#     seed's Perfetto and summary artifacts repeat byte for byte.
#   one event loop (§3)             swishmem-simnet/determinism — the
#     golden fingerprint holds plain, paused every 7 µs and with the wire
#     check armed; a default observer never tells a node that spans or
#     the journal have a subscriber, an all-family one does;
#     swishmem-simnet `topology::tests` — every forwarding-row lookup
#     agrees with the direct-link-else-route rule under random link and
#     route edits in any order, and degrades stack and restore at once.
#   wire format (§3)                wire_golden — every frame of a seeded
#     run that emits all 26 messages hashes to the recorded constant;
#     swishmem-wire `swish::tests` — the message table has a sample per
#     row, and decode accepts only what encode emits (corpus mutation).
#   replay lab (§15)              swishmem-replay/roundtrip — `.swtrace`
#     round-trips a million records and rejects truncation/corruption with
#     typed errors; swishmem-replay/scenario_packs — five oracle-armed
#     packs pass clean and the sabotaged feed fails (the gate is live).
echo "==> cargo build --release && cargo test -q (tier-1)"
cargo build --release
cargo test -q

# The examples: `cargo test` builds them but never runs them, so their
# asserts are checked only here.
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "==> cargo run -q --release --example $name"
    cargo run -q --release --example "$name" >/dev/null
done

# Every experiment at quick scale: no test runs `experiments`, so the
# asserts inside E01–E24 are checked only here.
echo "==> cargo run -q --release -p swishmem-bench --bin experiments -- --quick"
cargo run -q --release -p swishmem-bench --bin experiments -- --quick >/dev/null

# Release-profile gates: host-time or allocation measurements that mean
# nothing in a debug build, so the workspace run above does not cover them.
#
#   trace_overhead (§9, §14, E18/E23 smoke): compiled-in-but-detached span
#     tracing and journaling stay cheap.
#   replay_lab (§15, E24 smoke): the leaf-spine replay's golden digest,
#     event count and end time exactly, ring ingest parity within its CI
#     bound.
#   alloc_budget ("Performance model"): 0 allocations per event on the bare
#     engine, also in rounds that shift the clock into event-queue buckets
#     unused before, <= 30 per EWO round, <= 8 per round of SRO read hits,
#     <= 3 per SRO chain write; neither kind of round retains heap bytes
#     per delivered packet; the wire check 0 per fixed-width frame and
#     <= 1 per Sync; a fault_sweep-shaped run with oracles, spans, journal
#     and wire check armed <= 9 per write.
#   benchmark self-test: `benchmark/` is a separate package the workspace
#     build never compiles; it must still build against the crates and
#     catch every sabotaged reference.
echo "==> cargo test --release --test trace_overhead (detached tracing + journaling overhead)"
cargo test -q --release -p swishmem-bench --test trace_overhead
echo "==> cargo test --release --test replay_lab (E24 smoke: golden digest + ring parity)"
cargo test -q --release -p swishmem-bench --test replay_lab
echo "==> cargo test --release --test alloc_budget (per-packet allocation budget)"
cargo test -q --release --test alloc_budget
echo "==> bash benchmark/run.sh --self-test (benchmark builds + sabotage gate)"
bash benchmark/run.sh --self-test

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# rustdoc: every intra-doc link resolves, so a doc that names a deleted or
# private item fails here instead of rendering as dead text.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "verify: all gates passed"
