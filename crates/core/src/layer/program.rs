//! The SwiShmem data-plane program: wraps the user NF and implements the
//! data-plane halves of the three protocols (§6).

use super::nfctx::NfCtx;
use super::{
    read_chain, read_ranges, ChainRead, ChainView, CpItem, Handles, RegKind, StagedWrite,
    PENDING_SWEEP_PKTGEN_TOKEN, REPLICA_GROUP, SYNC_PKTGEN_TOKEN,
};
use crate::api::{NfApp, NfDecision};
use crate::config::{MergePolicy, SwishConfig};
use crate::metrics::DpMetrics;
use crate::reconfig::{encode_ranges, RangeView};
use crate::version::SwitchClock;
use std::rc::Rc;
use swishmem_pisa::{DataPlane, DataPlaneProgram, DpView, Effects, RegHandle};
use swishmem_simnet::{SimTime, SpanPhase};
use swishmem_wire::swish::{
    MigrateBegin, MigrateChunk, OwnershipCommit, PendingClear, ReadForward, RegId, SnapshotChunk,
    SyncEntry, SyncUpdate, WriteOp, WriteRequest,
};
use swishmem_wire::{DataPacket, NodeId, Packet, PacketBody, Shared, SwishMsg, TraceId};

/// The data-plane program of one SwiShmem switch.
pub struct SwishProgram {
    me: NodeId,
    me_slot: usize,
    cfg: SwishConfig,
    handles: Rc<Handles>,
    app: Box<dyn NfApp>,
    clock: SwitchClock,
    metrics: DpMetrics,
    /// Periodic-sync walk position: (register id, next key).
    sync_cursor: (usize, u32),
    /// Pending-sweep walk position: (register index, next group slot).
    sweep_cursor: (usize, u32),
    /// Eager-mirror entries awaiting a batch flush.
    mirror_buf: Vec<(RegId, SyncEntry)>,
    /// Pooled write set: lent to each packet's [`NfCtx`] and cleared per
    /// packet, so staging writes allocates nothing in steady state.
    staged: Vec<StagedWrite>,
    /// Indices into `handles.regs` of the EWO registers (the periodic
    /// sync walk) and of the SRO registers (the pending sweep). The
    /// register layout is fixed at build, so neither is rebuilt per tick.
    ewo_regs: Vec<usize>,
    sro_regs: Vec<usize>,
    /// Per-switch causal-trace counter: each logical operation entering
    /// the NF at this switch gets `TraceId::new(me, counter)`. Pure
    /// bookkeeping — advancing it draws no randomness and schedules no
    /// events, so tracing never perturbs the simulation.
    next_trace: u64,
}

impl SwishProgram {
    /// Build the program for switch `me`.
    pub fn new(
        me: NodeId,
        cfg: SwishConfig,
        handles: Rc<Handles>,
        app: Box<dyn NfApp>,
        clock: SwitchClock,
    ) -> SwishProgram {
        let regs_where = |pred: fn(&RegKind) -> bool| -> Vec<usize> {
            let all = 0..handles.regs.len();
            all.filter(|&i| pred(&handles.regs[i].kind)).collect()
        };
        let ewo_regs = regs_where(|k| matches!(k, RegKind::Ewo { .. }));
        let sro_regs = regs_where(|k| {
            matches!(
                k,
                RegKind::Chain {
                    pending: Some(_),
                    ..
                }
            )
        });
        SwishProgram {
            me,
            me_slot: me.index(),
            cfg,
            handles,
            app,
            clock,
            metrics: DpMetrics::default(),
            sync_cursor: (0, 0),
            sweep_cursor: (0, 0),
            mirror_buf: Vec::new(),
            staged: Vec::new(),
            ewo_regs,
            sro_regs,
            next_trace: 0,
        }
    }

    /// Allocate the next causal trace id originating at this switch.
    fn alloc_trace(&mut self) -> TraceId {
        self.next_trace += 1;
        TraceId::new(self.me, self.next_trace)
    }

    /// Data-plane metrics.
    pub fn metrics(&self) -> &DpMetrics {
        &self.metrics
    }

    /// The register layout (for deployment-level peeks).
    pub fn handles(&self) -> &Handles {
        &self.handles
    }

    /// Protocol configuration.
    pub fn config(&self) -> &SwishConfig {
        &self.cfg
    }

    /// Management-plane read of `reg[key]` directly from a data plane
    /// (class-aware: counters sum slots). Used by the deployment and the
    /// experiment harness, not by the protocols.
    pub fn peek(&self, dp: &DataPlane, reg: RegId, key: u32, now: SimTime) -> u64 {
        let entry = self.handles.entry(reg);
        match &entry.kind {
            RegKind::Chain { val, .. } => dp.reg(*val).read(key as usize),
            RegKind::Ewo { slots } => match entry.spec.policy {
                MergePolicy::Lww => dp.pair(slots[0]).read(key as usize).1,
                MergePolicy::GCounter => {
                    slots.iter().map(|&h| dp.pair(h).read(key as usize).1).sum()
                }
                MergePolicy::Windowed { window } => {
                    let epoch = now.nanos() / window.as_nanos().max(1);
                    slots
                        .iter()
                        .map(|&h| {
                            let (e, c) = dp.pair(h).read(key as usize);
                            if e == epoch {
                                c
                            } else {
                                0
                            }
                        })
                        .sum()
                }
            },
        }
    }

    /// The chain view currently installed in this switch's config block.
    pub fn chain_view(&self, dp: &mut DataPlane, now: SimTime) -> ChainView {
        read_chain(&DpView::new(dp, now), self.handles.cfgblk)
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    fn handle_data(
        &mut self,
        d: DataPacket,
        ingress: NodeId,
        may_redirect: bool,
        trace: TraceId,
        dp: &mut DpView<'_>,
        eff: &mut Effects,
    ) {
        self.staged.clear();
        let (decision, need_tail) = {
            let mut ctx = NfCtx {
                dp,
                handles: &self.handles,
                cfg: &self.cfg,
                me: self.me,
                staged: &mut self.staged,
                need_tail: false,
                read_ops: 0,
            };
            let decision = self.app.process(&d, ingress, &mut ctx);
            self.metrics.nf_reads += ctx.read_ops;
            self.metrics.nf_writes += ctx.staged.len() as u64;
            (decision, ctx.need_tail)
        };

        if need_tail && may_redirect {
            let chain = ChainRead::read(dp, self.handles.cfgblk);
            if let Some(tail) = chain.tail() {
                if tail != self.me {
                    // Discard this pass entirely; the tail re-executes the
                    // packet against committed state (§6.1).
                    self.metrics.reads_forwarded += 1;
                    eff.span(trace, SpanPhase::RedirectToTail);
                    eff.forward(
                        tail,
                        PacketBody::Swish(SwishMsg::ReadForward(ReadForward {
                            origin: self.me,
                            trace,
                            inner: d,
                        })),
                    );
                    return;
                }
            }
            // Tail is us (or no chain installed yet): serve locally.
        }
        self.metrics.reads_local += 1;

        let n_chain = self
            .staged
            .iter()
            .filter(|w| self.handles.is_chain(w.reg))
            .count();

        if n_chain < self.staged.len() {
            self.apply_ewo(trace, dp, eff);
        }

        if n_chain > 0 {
            // P' is buffered by the control plane until the chain acks
            // (§6.1: "both P' and Q are forwarded to the control plane").
            // The write set moves into the punt item, so it is the one
            // buffer built per chain-writing packet.
            self.metrics.sro_jobs_punted += 1;
            let decision = match decision {
                NfDecision::Forward { dst, pkt } => Some((dst, pkt)),
                NfDecision::Drop => None,
            };
            eff.punt_traced(
                CpItem::WriteJob {
                    writes: (self.staged.iter().copied())
                        .filter(|w| self.handles.is_chain(w.reg))
                        .collect(),
                    decision,
                    trace,
                    ingress: dp.now(),
                },
                trace,
            );
            return;
        }

        match decision {
            NfDecision::Forward { dst, pkt } => eff.forward(dst, PacketBody::Data(pkt)),
            NfDecision::Drop => eff.drop_packet(),
        }
    }

    /// Apply the staged EWO writes to this switch's own slots and queue
    /// the sync entries describing the new state for eager mirroring,
    /// flushing when the batch threshold is reached (§7: batching trades
    /// bandwidth for staleness).
    fn apply_ewo(&mut self, trace: TraceId, dp: &mut DpView<'_>, eff: &mut Effects) {
        let queued_before = self.mirror_buf.len();
        for i in 0..self.staged.len() {
            let w = self.staged[i];
            let entry = self.handles.entry(w.reg);
            let RegKind::Ewo { slots } = &entry.kind else {
                continue; // a chain write: the control plane drives it
            };
            let key = w.key as usize;
            let (h, slot, version, value) = match entry.spec.policy {
                MergePolicy::GCounter => {
                    let WriteOp::Add(delta) = w.op else { continue };
                    debug_assert!(delta >= 0);
                    let h = slots[self.me_slot % slots.len()];
                    let (v, c) = dp.pair_read(h, key);
                    (h, self.me_slot as u8, v + 1, c + delta as u64)
                }
                MergePolicy::Windowed { window } => {
                    let WriteOp::Add(delta) = w.op else { continue };
                    debug_assert!(delta >= 0);
                    let epoch = dp.now().nanos() / window.as_nanos().max(1);
                    let h = slots[self.me_slot % slots.len()];
                    let (e, c) = dp.pair_read(h, key);
                    if epoch > e {
                        (h, self.me_slot as u8, epoch, delta as u64)
                    } else {
                        (h, self.me_slot as u8, e, c + delta as u64)
                    }
                }
                MergePolicy::Lww => {
                    let value = match w.op {
                        WriteOp::Set(v) => v,
                        WriteOp::Add(d) => dp.pair_read(slots[0], key).1.wrapping_add(d as u64),
                    };
                    (slots[0], 0, self.clock.next_version(dp.now()), value)
                }
            };
            dp.pair_write(h, key, version, value);
            self.metrics.ewo_writes += 1;
            if self.cfg.eager_updates {
                let e = SyncEntry {
                    key: w.key,
                    slot,
                    version,
                    value,
                };
                self.mirror_buf.push((w.reg, e));
            }
        }
        if self.mirror_buf.len() > queued_before
            && self.mirror_buf.len() >= self.cfg.batch_size.max(1)
        {
            self.flush_mirror(trace, eff);
        }
    }

    /// `trace` attributes the flush: the packet that tipped the batch
    /// over, or the sync round that drained a lingering batch.
    fn flush_mirror(&mut self, trace: TraceId, eff: &mut Effects) {
        // One SyncUpdate per register, in order of first appearance. A
        // batch (or its last group) whose entries share a register drains
        // straight into the shared body — the one allocation of the pass.
        while let Some(&(reg, _)) = self.mirror_buf.first() {
            let entries: Shared<SyncEntry> = if self.mirror_buf.iter().all(|(r, _)| *r == reg) {
                self.mirror_buf.drain(..).map(|(_, e)| e).collect()
            } else {
                let of_reg = self.mirror_buf.iter().filter(|(r, _)| *r == reg);
                let entries = of_reg.map(|(_, e)| *e).collect();
                self.mirror_buf.retain(|(r, _)| *r != reg);
                entries
            };
            self.metrics.mirror_packets += 1;
            eff.multicast(
                REPLICA_GROUP,
                PacketBody::Swish(SwishMsg::Sync(SyncUpdate {
                    reg,
                    origin: self.me,
                    trace,
                    entries,
                })),
            );
        }
    }

    // ------------------------------------------------------------------
    // Chain protocol (SRO/ERO data-plane half, §6.1)
    // ------------------------------------------------------------------

    fn on_chain_write(&mut self, req: WriteRequest, dp: &mut DpView<'_>, eff: &mut Effects) {
        let chain = ChainRead::read(dp, self.handles.cfgblk);
        let order = chain.write_order();
        let Some(pos) = order.iter().position(|&n| n == self.me) else {
            self.metrics.chain_stale += 1;
            return;
        };
        let entry = self.handles.entry(req.reg);
        let RegKind::Chain { val, seq, pending } = &entry.kind else {
            self.metrics.chain_stale += 1;
            return;
        };
        let (val, seq, pending) = (*val, *seq, *pending);
        let g = Handles::group_slot(&entry.spec, &self.cfg, req.key);
        let cur = dp.reg_read(seq, g);

        let is_head = pos == 0;
        let is_tail = chain.tail() == Some(self.me);

        // The head sequences unnumbered requests and rewrites Add into Set
        // so every replica applies an identical value.
        let (assigned, op) = if is_head && req.seq == 0 {
            let value = match req.op {
                WriteOp::Set(v) => v,
                WriteOp::Add(d) => dp.reg_read(val, req.key as usize).wrapping_add(d as u64),
            };
            (cur + 1, WriteOp::Set(value))
        } else if req.seq == 0 {
            // Sequencing request reached a non-head switch (stale routing
            // at the writer); drop, the writer's retry will find the head.
            self.metrics.chain_stale += 1;
            return;
        } else {
            (req.seq, req.op)
        };

        // Monotonic apply: reject anything not newer than local state.
        // (Chain replication's in-order rule, generalized to tolerate
        // loss: a skipped write was never acknowledged and its writer
        // retries through the head, obtaining a fresh sequence number.)
        if assigned <= cur {
            self.metrics.chain_stale += 1;
            return;
        }
        let WriteOp::Set(value) = op else {
            self.metrics.chain_stale += 1;
            return;
        };
        dp.reg_write(val, req.key as usize, value);
        dp.reg_write(seq, g, assigned);
        self.metrics.chain_applies += 1;
        eff.span(req.trace, SpanPhase::ChainHop(pos as u8));

        let fwd = WriteRequest {
            seq: assigned,
            op,
            ..req
        };
        if is_tail {
            // Tail: acknowledge the writer and clear pending bits
            // everywhere — ack processing entirely in the data plane
            // (§3.3). The tail itself never sets a pending bit, so its
            // reads always reflect committed state (CRAQ).
            eff.span(req.trace, SpanPhase::Ack);
            eff.forward(
                req.writer,
                PacketBody::Swish(SwishMsg::Ack(swishmem_wire::swish::WriteAck {
                    write_id: req.write_id,
                    writer: req.writer,
                    reg: req.reg,
                    key: req.key,
                    seq: assigned,
                    trace: req.trace,
                })),
            );
            eff.multicast(
                REPLICA_GROUP,
                PacketBody::Swish(SwishMsg::Clear(PendingClear {
                    epoch: chain.epoch,
                    reg: req.reg,
                    key: req.key,
                    seq: assigned,
                })),
            );
        } else if let Some(p) = pending {
            // Mark the write in flight (SRO only).
            dp.reg_write(p, g, assigned);
        }
        if let Some(&next) = order.get(pos + 1) {
            eff.forward(next, PacketBody::Swish(SwishMsg::Write(fwd)));
        }
    }

    fn on_clear(&mut self, c: PendingClear, dp: &mut DpView<'_>) {
        let entry = self.handles.entry(c.reg);
        let RegKind::Chain {
            pending: Some(p), ..
        } = &entry.kind
        else {
            return;
        };
        let g = Handles::group_slot(&entry.spec, &self.cfg, c.key);
        let in_flight = dp.reg_read(*p, g);
        // Clear only if no later write has marked the group again.
        if in_flight != 0 && in_flight <= c.seq {
            dp.reg_write(*p, g, 0);
            self.metrics.clears_applied += 1;
        }
    }

    /// The tail's pending sweep: periodically re-multicast `Clear` for
    /// group slots with a committed sequence number. A clear lost on the
    /// wire — or never sent because the tail crashed mid-commit — would
    /// otherwise park a pending bit forever, forcing every read of that
    /// group to the tail. Only committed sequence numbers are swept:
    /// `on_clear`'s `in_flight <= seq` guard keeps genuinely in-flight
    /// writes pending, preserving SRO linearizability. Cursor-bounded to
    /// `sync_chunk` slots per tick, like the EWO sync walk.
    fn pending_sweep(&mut self, dp: &mut DpView<'_>, eff: &mut Effects) {
        let chain = ChainRead::read(dp, self.handles.cfgblk);
        if chain.tail() != Some(self.me) || chain.chain_len() < 2 {
            return; // only the tail sweeps, and only for a real chain
        }
        let sro_regs = &self.sro_regs;
        if sro_regs.is_empty() {
            return;
        }
        let (mut reg_i, mut slot) = self.sweep_cursor;
        if !sro_regs.contains(&reg_i) {
            reg_i = sro_regs[0];
            slot = 0;
        }
        let mut budget = self.cfg.sync_chunk.max(1);
        let total_slots: usize = sro_regs
            .iter()
            .map(|&i| self.cfg.group_slots(self.handles.regs[i].spec.keys) as usize)
            .sum();
        let mut visited = 0usize;
        while budget > 0 && visited < total_slots {
            let (reg_id, seq_h, slots_n) = {
                let entry = &self.handles.regs[reg_i];
                let RegKind::Chain { seq, .. } = &entry.kind else {
                    unreachable!()
                };
                (entry.spec.id, *seq, self.cfg.group_slots(entry.spec.keys))
            };
            if slot >= slots_n {
                let next = sro_regs
                    .iter()
                    .position(|&i| i == reg_i)
                    .map(|p| sro_regs[(p + 1) % sro_regs.len()])
                    .unwrap_or(sro_regs[0]);
                reg_i = next;
                slot = 0;
                continue;
            }
            let committed = dp.reg_read(seq_h, slot as usize);
            if committed > 0 {
                self.metrics.pending_sweep_clears += 1;
                // `key % slots == slot` for `key == slot`, so the slot
                // index doubles as a representative key for the group.
                eff.multicast(
                    REPLICA_GROUP,
                    PacketBody::Swish(SwishMsg::Clear(PendingClear {
                        epoch: chain.epoch,
                        reg: reg_id,
                        key: slot,
                        seq: committed,
                    })),
                );
            }
            budget -= 1;
            slot += 1;
            visited += 1;
        }
        self.sweep_cursor = (reg_i, slot);
    }

    // ------------------------------------------------------------------
    // EWO merge + periodic sync (§6.2, §7)
    // ------------------------------------------------------------------

    fn on_sync(&mut self, u: &SyncUpdate, dp: &mut DpView<'_>, eff: &mut Effects) {
        let entry = self.handles.entry(u.reg);
        let RegKind::Ewo { slots } = &entry.kind else {
            return;
        };
        eff.span(u.trace, SpanPhase::SyncMerge);
        for e in &u.entries {
            let changed = match entry.spec.policy {
                MergePolicy::GCounter => {
                    let h = slots[e.slot as usize % slots.len()];
                    dp.pair_merge_max(h, e.key as usize, e.version, e.value)
                }
                MergePolicy::Lww => {
                    self.clock.observe(e.version);
                    dp.pair_merge_lww(slots[0], e.key as usize, e.version, e.value)
                }
                MergePolicy::Windowed { .. } => {
                    let h = slots[e.slot as usize % slots.len()];
                    let (le, lc) = dp.pair_read(h, e.key as usize);
                    // Newer epoch supersedes; same epoch merges by max.
                    let wins = e.version > le || (e.version == le && e.value > lc);
                    if wins {
                        dp.pair_write(h, e.key as usize, e.version, e.value);
                    }
                    wins
                }
            };
            self.metrics.merge_entries += 1;
            if changed {
                self.metrics.merge_applied += 1;
            }
        }
    }

    /// Walk the next chunk of EWO state and push it to a random peer
    /// (§7: the packet generator "iterates over the register array,
    /// forming write update packets ... forwarding each one to a
    /// randomly-selected switch in the replica group").
    fn periodic_sync(&mut self, trace: TraceId, dp: &mut DpView<'_>, eff: &mut Effects) {
        let ewo_regs = &self.ewo_regs;
        if ewo_regs.is_empty() {
            return;
        }
        let (mut reg_i, mut key) = self.sync_cursor;
        if !ewo_regs.contains(&reg_i) {
            reg_i = ewo_regs[0];
            key = 0;
        }
        let mut budget = self.cfg.sync_chunk.max(1);
        let mut per_reg: Vec<(RegId, Vec<SyncEntry>)> = Vec::new();
        let mut visited_keys = 0usize;
        let total_keys: usize = ewo_regs
            .iter()
            .map(|&i| self.handles.regs[i].spec.keys as usize)
            .sum();

        while budget > 0 && visited_keys < total_keys {
            let entry = &self.handles.regs[reg_i];
            let RegKind::Ewo { slots } = &entry.kind else {
                unreachable!()
            };
            if key >= entry.spec.keys {
                // advance to next EWO register
                let next = ewo_regs
                    .iter()
                    .position(|&i| i == reg_i)
                    .map(|p| ewo_regs[(p + 1) % ewo_regs.len()])
                    .unwrap_or(ewo_regs[0]);
                reg_i = next;
                key = 0;
                continue;
            }
            for (si, &h) in slots.iter().enumerate() {
                let (v, x) = dp.pair_read(h, key as usize);
                if v == 0 && x == 0 {
                    continue; // nothing to say about this slot
                }
                let reg_id = entry.spec.id;
                let e = SyncEntry {
                    key,
                    slot: si as u8,
                    version: v,
                    value: x,
                };
                match per_reg.iter_mut().find(|(r, _)| *r == reg_id) {
                    Some((_, list)) => list.push(e),
                    None => per_reg.push((reg_id, vec![e])),
                }
                budget = budget.saturating_sub(1);
            }
            key += 1;
            visited_keys += 1;
        }
        self.sync_cursor = (reg_i, key);
        for (reg, entries) in per_reg {
            if entries.is_empty() {
                continue;
            }
            self.metrics.sync_packets += 1;
            eff.anycast_random(
                REPLICA_GROUP,
                PacketBody::Swish(SwishMsg::Sync(SyncUpdate {
                    reg,
                    origin: self.me,
                    trace,
                    entries: entries.into(),
                })),
            );
        }
    }

    // ------------------------------------------------------------------
    // Partitioned registers: per-range mini-chains + live migration
    // ------------------------------------------------------------------

    /// Install `ranges` into a partitioned register's range table through
    /// the pipeline view (the control path owns [`super::write_ranges`];
    /// this is the in-dispatch variant used by migration control
    /// messages, which are applied where they land: in the data plane).
    fn install_ranges(dp: &mut DpView<'_>, h: RegHandle, ranges: &[RangeView]) {
        for (i, c) in encode_ranges(ranges).iter().enumerate() {
            dp.reg_write(h, i, *c);
        }
    }

    /// The chain-write handler for partitioned registers: the effective
    /// chain is the *range's* owner set — extended by the migration
    /// destination as acking tail while a transfer is open — and
    /// sequencing is per key. A write landing at a switch that is not in
    /// the key's chain was routed off a stale table; dropping it makes
    /// the writer's retry re-route through the updated table.
    fn on_part_write(&mut self, req: WriteRequest, dp: &mut DpView<'_>, eff: &mut Effects) {
        let entry = self.handles.entry(req.reg);
        let RegKind::Chain { val, seq, .. } = &entry.kind else {
            self.metrics.part_stale += 1;
            return;
        };
        let (val, seq) = (*val, *seq);
        let Some(h) = self.handles.rangeblk(req.reg) else {
            self.metrics.part_stale += 1;
            return;
        };
        let ranges = read_ranges(dp, h);
        let Some(r) = ranges.iter().find(|r| r.contains(req.key)) else {
            self.metrics.part_stale += 1;
            return;
        };
        let chain = r.write_chain();
        let Some(pos) = chain.iter().position(|&n| n == self.me) else {
            self.metrics.part_stale += 1;
            return;
        };
        let g = Handles::group_slot(&entry.spec, &self.cfg, req.key);
        let cur = dp.reg_read(seq, g);

        let is_head = pos == 0;
        let is_tail = pos + 1 == chain.len();

        let (assigned, op) = if is_head && req.seq == 0 {
            let value = match req.op {
                WriteOp::Set(v) => v,
                WriteOp::Add(d) => dp.reg_read(val, req.key as usize).wrapping_add(d as u64),
            };
            (cur + 1, WriteOp::Set(value))
        } else if req.seq == 0 {
            // Sequencing request at a non-primary: stale routing.
            self.metrics.part_stale += 1;
            return;
        } else {
            (req.seq, req.op)
        };

        if assigned <= cur {
            self.metrics.chain_stale += 1;
            return;
        }
        let WriteOp::Set(value) = op else {
            self.metrics.chain_stale += 1;
            return;
        };
        dp.reg_write(val, req.key as usize, value);
        dp.reg_write(seq, g, assigned);
        self.metrics.chain_applies += 1;
        eff.span(req.trace, SpanPhase::ChainHop(pos as u8));

        if is_tail {
            // Per-range tail acks the writer. No pending bits to clear:
            // partitioned registers are ERO-class.
            eff.span(req.trace, SpanPhase::Ack);
            eff.forward(
                req.writer,
                PacketBody::Swish(SwishMsg::Ack(swishmem_wire::swish::WriteAck {
                    write_id: req.write_id,
                    writer: req.writer,
                    reg: req.reg,
                    key: req.key,
                    seq: assigned,
                    trace: req.trace,
                })),
            );
        } else {
            eff.forward(
                chain[pos + 1],
                PacketBody::Swish(SwishMsg::Write(WriteRequest {
                    seq: assigned,
                    op,
                    ..req
                })),
            );
        }
    }

    /// `MigrateBegin`: record the destination as the range's `mig_to` in
    /// the data-plane table (epoch-guarded, so re-broadcasts and stale
    /// duplicates are idempotent), then punt to the control plane, which
    /// starts streaming (source) or pass tracking (destination).
    fn on_migrate_begin(&mut self, m: MigrateBegin, dp: &mut DpView<'_>, eff: &mut Effects) {
        if let Some(h) = self.handles.rangeblk(m.reg) {
            let mut ranges = read_ranges(dp, h);
            if let Some(r) = ranges
                .iter_mut()
                .find(|r| r.start == m.start && r.end == m.end)
            {
                if m.epoch > r.epoch {
                    r.epoch = m.epoch;
                    r.mig_to = Some(m.to);
                    SwishProgram::install_ranges(dp, h, &ranges);
                }
            }
        }
        eff.punt(CpItem::Proto(SwishMsg::MigrateBegin(m)));
    }

    /// `OwnershipCommit`: flip the range's owner set atomically at this
    /// switch (per-range epoch bump; stale epochs ignored). A range the
    /// switch has never heard of — fresh boot, crash-wiped table — is
    /// inserted, which is also how the controller's initial table and
    /// periodic resync install themselves.
    fn on_ownership_commit(&mut self, c: OwnershipCommit, dp: &mut DpView<'_>, eff: &mut Effects) {
        if let Some(h) = self.handles.rangeblk(c.reg) {
            let mut ranges = read_ranges(dp, h);
            let changed = match ranges
                .iter_mut()
                .find(|r| r.start == c.start && r.end == c.end)
            {
                Some(r) => {
                    if c.epoch > r.epoch {
                        r.epoch = c.epoch;
                        r.owners = c.owners.clone();
                        r.mig_to = None;
                        true
                    } else {
                        false
                    }
                }
                None => {
                    ranges.push(RangeView {
                        start: c.start,
                        end: c.end,
                        epoch: c.epoch,
                        mig_to: None,
                        owners: c.owners.clone(),
                    });
                    ranges.sort_by_key(|r| r.start);
                    true
                }
            };
            if changed {
                SwishProgram::install_ranges(dp, h, &ranges);
            }
        }
        eff.punt(CpItem::Proto(SwishMsg::OwnershipCommit(c)));
    }

    /// Apply one migration chunk at the destination: the same seq-guarded
    /// idempotent apply as snapshot catch-up, but per key (partitioned
    /// registers sequence per key). The control plane tracks pass
    /// completeness, so the chunk is punted whole after the apply.
    fn on_migrate_chunk(&mut self, ch: MigrateChunk, dp: &mut DpView<'_>, eff: &mut Effects) {
        let entry = self.handles.entry(ch.reg);
        if let RegKind::Chain { val, seq, .. } = &entry.kind {
            let (val, seq) = (*val, *seq);
            for e in &ch.entries {
                let g = Handles::group_slot(&entry.spec, &self.cfg, e.key);
                let cur = dp.reg_read(seq, g);
                if e.seq >= cur {
                    dp.reg_write(val, e.key as usize, e.value);
                    dp.reg_write(seq, g, e.seq.max(cur));
                    self.metrics.migrate_applied += 1;
                } else {
                    self.metrics.migrate_stale += 1;
                }
            }
        }
        eff.punt(CpItem::Proto(SwishMsg::MigrateChunk(ch)));
    }

    // ------------------------------------------------------------------
    // Recovery (§6.3): guarded snapshot apply
    // ------------------------------------------------------------------

    fn on_snap_chunk(&mut self, ch: &SnapshotChunk, dp: &mut DpView<'_>, eff: &mut Effects) {
        let entry = self.handles.entry(ch.reg);
        if let RegKind::Chain { val, seq, .. } = &entry.kind {
            let (val, seq) = (*val, *seq);
            for e in &ch.entries {
                let g = Handles::group_slot(&entry.spec, &self.cfg, e.key);
                let cur = dp.reg_read(seq, g);
                // "These writes contain the sequence number at the time of
                // the snapshot, to prevent overwriting new values with old
                // ones" (§6.3). Equal seq means the snapshot entry is the
                // newest write for this group: apply.
                if e.seq >= cur {
                    dp.reg_write(val, e.key as usize, e.value);
                    dp.reg_write(seq, g, e.seq.max(cur));
                    self.metrics.snapshot_applied += 1;
                } else {
                    self.metrics.snapshot_stale += 1;
                }
            }
        }
        if ch.last {
            eff.punt(CpItem::SnapshotDone);
        }
    }
}

impl DataPlaneProgram for SwishProgram {
    fn on_packet(&mut self, pkt: Packet, dp: &mut DpView<'_>, eff: &mut Effects) {
        match pkt.body {
            PacketBody::Data(d) => {
                // Each data packet entering the NF is one logical
                // operation: assign its causal trace here (§ tracing).
                let trace = self.alloc_trace();
                eff.span(trace, SpanPhase::Ingress);
                self.handle_data(d, pkt.src, true, trace, dp, eff);
            }
            PacketBody::Swish(msg) => match msg {
                SwishMsg::Write(req) => {
                    if self.handles.entry(req.reg).spec.is_partitioned() {
                        self.on_part_write(req, dp, eff)
                    } else {
                        self.on_chain_write(req, dp, eff)
                    }
                }
                SwishMsg::Clear(c) => self.on_clear(c, dp),
                SwishMsg::Sync(u) => self.on_sync(&u, dp, eff),
                SwishMsg::ReadForward(rf) => {
                    self.metrics.tail_reads_served += 1;
                    eff.span(rf.trace, SpanPhase::TailServe);
                    self.handle_data(rf.inner, rf.origin, false, rf.trace, dp, eff);
                }
                SwishMsg::SnapChunk(ch) => self.on_snap_chunk(&ch, dp, eff),
                SwishMsg::MigrateBegin(m) => self.on_migrate_begin(m, dp, eff),
                SwishMsg::OwnershipCommit(c) => self.on_ownership_commit(c, dp, eff),
                SwishMsg::MigrateChunk(ch) => self.on_migrate_chunk(ch, dp, eff),
                // Control-plane messages move into the punt item whole —
                // the punt path never deep-copies.
                other => eff.punt(CpItem::Proto(other)),
            },
        }
    }

    fn on_pktgen(&mut self, token: u64, dp: &mut DpView<'_>, eff: &mut Effects) {
        if token == SYNC_PKTGEN_TOKEN {
            // One EWO sync round is one logical operation — but an idle
            // tick (nothing to flush or walk) emits nothing, span
            // included, so quiescent switches stay silent.
            let trace = self.alloc_trace();
            let before = eff.len();
            self.flush_mirror(trace, eff); // batched eager entries must not linger
            self.periodic_sync(trace, dp, eff);
            if eff.len() > before {
                eff.span(trace, SpanPhase::SyncRound);
            }
        } else if token == PENDING_SWEEP_PKTGEN_TOKEN {
            self.pending_sweep(dp, eff);
        }
    }

    fn reset(&mut self) {
        self.metrics = DpMetrics::default();
        self.sync_cursor = (0, 0);
        self.sweep_cursor = (0, 0);
        self.mirror_buf.clear();
        self.next_trace = 0;
        self.clock.reset();
        self.app.reset();
    }
}
