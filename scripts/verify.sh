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
#     schedule needed to replay it. Its convergence_oracle_names_* tests
#     are the oracle's negative controls: one forged state-transfer chunk
#     at a non-tail member, at the tail and at a range's second owner
#     must give the pinned Diverged / InventedValue verdict. The probe
#     kit (swishmem::probe) that the sweeps share: swishmem `oracle::tests`
#     a_settled_run_ends_100_ms_after_the_convergence_grace (the settled
#     run's end) and swishmem-simnet `fault::tests`
#     crashed_lists_each_victim_once_and_ignores_link_faults (the query
#     behind spared_writers); swishmem-bench `scenarios::tests`
#     probe_write_then_read_round_trip (a ProbeNf read returns the write).
#   chain protocol (§6.1, §6.3)     swishmem/chain_edges — the one chain
#     step driven message by message: head sequencing, monotonic apply,
#     tail ack, pending clears; ero_tail_acks_and_feeds_learners_without_a_clear
#     (an ERO tail sends no Clear); the partitioned_* cases (the last
#     owner forwards to the migration destination, which acks; a
#     non-owner drops the write as stale); learner_forwards_sro_reads_to_the_tail
#     (a learner serves no SRO read itself); the engine-free cp_* tests
#     step the writer's control plane through CpCtx::new: a write job
#     goes to the head under a retry timer, the timer resends it, the
#     write is abandoned after the retry cap, and an earlier ack
#     releases the packet and voids the timer;
#     a_switch_with_no_view_drops_sro_reads (a switch with an empty
#     config block, as at a restart, neither serves nor forwards an SRO
#     read). linearizability
#     a_rejoining_switch_never_unsees_a_committed_value probes a
#     crashed and rejoining switch through its learner window, and
#     a_restarted_switch_serves_no_read_before_it_adopts_a_view from
#     its restart on.
#   EWO merges (§6.2)               swishmem/prop — the lattice laws of
#     each policy's MergePolicy::join, checked exhaustively over every
#     pair and triple of small cells (gcounter_merge_*, windowed_merge_*,
#     lww_merge_is_a_semilattice_on_unique_versions); swishmem/ewo_edges
#     windowed_counter_rolls_its_epoch_and_merges_within_it (the Windowed
#     data path), forged_sync_* (a forged u64::MAX Sync value wraps a
#     read or the next add instead of panicking),
#     sync_entry_naming_a_slot_past_the_group_is_rejected (every slot
#     n..=255 on n = 1..=4 switches, and a Windowed epoch past the
#     receiver's: each counted in merge_rejected, no cell changed) and
#     windowed_sync_from_a_future_epoch_is_rejected (later adds still
#     read in their own window).
#   reconfiguration (§10)           reconfig_sweep — migrations interleaved
#     into random fault schedules stay oracle-clean;
#     swishmem/directory_invariants — range-table coverage and no-overlap
#     under any operation sequence.
#   controller group (§12)          controller_failover — the 3-replica
#     smoke (three_replica_smoke) plus the crash-during-migration sweep:
#     the leader dies mid-Transferring and at the dual-owner boundary
#     across >= 12 seeds; every run keeps all foreground writes, finishes
#     the migration under the surviving quorum, and stays silent under
#     the epoch-uniqueness / no-split-brain oracles; swishmem
#     `controller::tests` drive Controller::step with no engine. The
#     group of one: a_group_of_one_elects_at_start_with_no_consensus_frame
#     (Reassert at start; a lone member arms no REP_TICK, so Bootstrap
#     rides its first CHECK_TIMER),
#     a_group_of_one_applies_a_failure_in_the_step_that_found_it
#     (epoch-2 configs without the silent switch, in the CHECK_TIMER
#     step) and a_restarted_group_of_one_leads_again_within_a_heartbeat
#     (it campaigns at its restart). Three replicas on an in-memory bus:
#     replicas_elect_replica_zero_and_apply_bootstrap_at_one_slot (only
#     the leader sends ChainConfigs) and
#     a_restarted_leader_journals_its_step_down_at_the_restart.
#   consensus hardening (§13)       consensus_hardening —
#     compaction_sweep_long_horizon recycles log slots without tripping
#     SLOT_CAP; reconfiguration_under_fault_sweep converges every
#     membership decree to one group; detector_cuts_failover_gap and
#     gray_links_cause_no_spurious_elections: the adaptive detector beats
#     the static timeout on real crashes and stays silent under gray links.
#   observability (§3, §9, §14)     observers (root) — spans, journal,
#     capture, a packet trace and the oracles attached at once leave a
#     fault-swept deployment bit-identical, tap counts and stream hashes
#     pinned (the journal hash over each record's time, node and rendered
#     event); swishmem/oracle
#     an_overflowed_journal_does_not_age_open_dual_owner_windows — a full
#     journal tap never invents a dual-owner violation;
#     swishmem-simnet/determinism
#     every_family_is_passive_alone_and_together — a tap of each event
#     family, alone and together, keeps the golden fingerprint, and a
#     fault-swept replay reproduces the journal byte for byte;
#     swishmem-simnet `tap::tests` — the one overflow rule;
#     swishmem-bench/explain — the `explain` run over seeds 801–808: span
#     breakdowns reconcile with write_latency, the journal's failover gap
#     matches the election log within 1 µs, the oracles stay clean, and
#     seed 801's Perfetto and summary documents hash to recorded
#     constants (the artifact pin).
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
#     packs pass clean and the sabotaged feed fails (the gate is live);
#     swishmem-bench/cli — `capture` and `replay` exit 2 with usage on a
#     malformed value, a non-positive `--speedup` or an unknown flag;
#     swishmem-bench/replay_lab ring_ingest_matches_generator_driven_exactly
#     — ring ingest gives the generator-driven replay's events and
#     digest and allocates once more, never per record.
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
#     tracing and journaling cost nothing, exactly: the echo emitting a
#     record per packet processes the same events and allocates as often
#     as the plain echo (the wall-clock ratio is printed, not asserted).
#   replay_lab (§15, E24 smoke): the replay deployment's golden digest,
#     record count, event count and end time exactly, twice; ring ingest
#     against generator-driven injection, exactly (digest, events,
#     allocations; the wall-clock ratio is printed, not asserted).
#   alloc_budget ("Performance model"): 0 allocations per event on the bare
#     engine, also in rounds that shift the clock into event-queue buckets
#     unused before, <= 30 per EWO round, <= 8 per round of SRO read hits,
#     <= 1 per SRO chain write; neither kind of round retains heap bytes
#     per delivered packet; the wire check 0 per fixed-width frame and
#     <= 1 per Sync; a fault_sweep-shaped run with oracles, spans, journal
#     and wire check armed <= 7 per write.
#   benchmark self-test: `benchmark/` is a separate package the workspace
#     build never compiles; it must still build against the crates and
#     catch every sabotaged reference.
echo "==> cargo test --release --test trace_overhead (detached tracing + journaling: same events, same allocations)"
cargo test -q --release -p swishmem-bench --test trace_overhead
echo "==> cargo test --release --test replay_lab (E24 smoke: golden digest + exact ring ingest)"
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

# The Rust line count outside shims/ that ROADMAP 2(d) tracks: a change
# reads its net lines as the difference from its parent's count.
if git rev-parse --git-dir >/dev/null 2>&1; then
    echo "rust lines outside shims/: $(git ls-files '*.rs' | grep -v '^shims/' | xargs wc -l | tail -n 1 | awk '{print $1}')"
fi
