//! The SwiShmem control-plane app (§6.1's writer side, §6.3's recovery
//! machinery).
//!
//! Responsibilities:
//! * **Write buffering and retry** — a packet whose processing produced
//!   SRO/ERO writes is buffered here (in DRAM); write requests are sent to
//!   the chain head and retried on timeout; the buffered output packet is
//!   released only when every write in the set is acknowledged by the
//!   tail.
//! * **Configuration adoption** — `ChainConfig` messages from the
//!   controller are installed into the data-plane config block.
//! * **Liveness** — periodic heartbeats to the controller.
//! * **Recovery source** — on `SnapshotRequest`, snapshot the chain
//!   registers (value + sequence number) and stream them to the
//!   recovering switch through the data plane, paced chunk by chunk.
//! * **Recovery target** — when the pipeline reports the final snapshot
//!   chunk applied, announce `CatchupComplete` to the controller.

use super::{read_ranges, write_chain, ChainView, CpItem, Handles, RegKind};
use crate::config::SwishConfig;
use crate::metrics::CpMetrics;
use crate::reconfig::RangeView;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;
use swishmem_pisa::{ControlApp, CpCtx, DataPlane, RegHandle};
use swishmem_simnet::{SimDuration, SimTime, SpanPhase};
use swishmem_wire::swish::{
    CatchupComplete, Heartbeat, Key, LoadEntry, LoadReport, MigrateBegin, MigrateChunk,
    MigrateDone, OwnershipCommit, RegId, SnapEntry, SnapshotChunk, WriteOp, WriteRequest,
};
use swishmem_wire::{DataPacket, NodeId, PacketBody, SwishMsg, TraceId};

const TT_RETRY: u64 = 1 << 44;
const TT_HEARTBEAT: u64 = 2 << 44;
const TT_SNAP: u64 = 3 << 44;
const TT_MIGRATE: u64 = 4 << 44;
const TT_MASK: u64 = 0xf << 44;
const ID_MASK: u64 = (1 << 44) - 1;

/// Ceiling of the exponential retry backoff.
const RETRY_BACKOFF_MAX: SimDuration = SimDuration::millis(16);

/// Give up on a write after this many attempts (it stays unreleased;
/// counted in metrics). High: chain repair should win first.
const MAX_RETRIES: u32 = 100;

/// Maximum concurrent write jobs buffered in the writer CP; jobs beyond
/// this are shed (counted, buffered packet dropped) rather than growing
/// DRAM without bound.
const CP_JOB_BUFFER: usize = 4096;

/// Migration source delay between full re-stream passes while the move
/// is uncommitted.
const REPASS_INTERVAL: SimDuration = SimDuration::millis(2);

/// SplitMix64 finalizer: the deterministic hash behind retry jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Debug)]
struct Job {
    remaining: usize,
    decision: Option<(NodeId, DataPacket)>,
    /// Causal trace assigned at NF ingress; every span this job's writes
    /// produce carries it.
    trace: TraceId,
    /// NF-ingress time of the punted packet: `write_latency` measures
    /// ingress → output-packet release, so punt + CP queueing delay is
    /// part of the reported write latency.
    ingress: SimTime,
}

#[derive(Debug)]
struct WriteState {
    job: u64,
    reg: RegId,
    key: Key,
    op: WriteOp,
    attempts: u32,
    trace: TraceId,
}

/// Source-side state of one in-flight range migration: the CP streams
/// the range's `(key, seq, value)` entries to the destination in paced
/// chunks, and — because chunks ride the lossy fabric unacknowledged —
/// re-snapshots and re-streams the whole range in numbered *passes*
/// until an `OwnershipCommit` (or abort, which is also a commit) retires
/// the stream. Writes that race a pass are safe regardless: during the
/// transfer the destination is the range's acking tail, so every
/// acknowledged write is already applied there.
#[derive(Debug)]
struct MigOut {
    reg: RegId,
    start: Key,
    end: Key,
    to: NodeId,
    epoch: u32,
    pass: u32,
    /// Range snapshot taken at pass start (`None` = snapshot on next
    /// pump), so chunks within one pass are mutually consistent.
    pass_entries: Option<Vec<SnapEntry>>,
    next_chunk: usize,
    next_due: SimTime,
}

/// Destination-side tracker: which chunk indices of the current pass
/// have arrived. A pass is complete when indices `0..=last` are all
/// present; the destination then reports `MigrateDone` and the
/// controller commits ownership.
#[derive(Debug)]
struct MigIn {
    reg: RegId,
    start: Key,
    end: Key,
    epoch: u32,
    pass: u32,
    /// Bitmap of received chunk indices (passes are capped at 64 chunks
    /// by the sender).
    got: u64,
    last_idx: Option<u16>,
    done_sent: bool,
}

impl MigIn {
    fn complete(&self) -> bool {
        let Some(last) = self.last_idx else {
            return false;
        };
        let need = if last >= 63 {
            u64::MAX
        } else {
            (1u64 << (u64::from(last) + 1)) - 1
        };
        self.got & need == need
    }
}

/// The control-plane application of one SwiShmem switch.
pub struct SwishCp {
    me: NodeId,
    cfg: SwishConfig,
    /// Controller replica group, never empty (`[NodeId::CONTROLLER]` for
    /// a group of one). Heartbeats fan out to every member so all
    /// replicas track liveness; decision-bound traffic follows
    /// `believed_leader`.
    ctrl_group: Vec<NodeId>,
    /// Highest-ballot leader announcement adopted so far (replica 0
    /// until the first announcement).
    believed_leader: NodeId,
    /// Ballot of the adopted announcement (stale `CtrlLead`s lose).
    ctrl_ballot: u64,
    /// This switch finished snapshot catch-up but has not seen itself
    /// promoted yet: re-announce `CatchupDone` on the heartbeat tick so
    /// a leader failover cannot strand it as a learner.
    caught_up: bool,
    handles: Rc<Handles>,
    view: ChainView,
    next_job: u64,
    next_write: u64,
    jobs: HashMap<u64, Job>,
    writes: HashMap<u64, WriteState>,
    snap_out: VecDeque<(NodeId, SnapshotChunk)>,
    /// Cached directory answers: (reg, key) → owner set (§7 extension).
    dir_cache: HashMap<(RegId, Key), Vec<NodeId>>,
    /// Outbound migration streams (this switch is the source).
    mig_out: Vec<MigOut>,
    /// Inbound migration pass trackers (this switch is the destination).
    mig_in: Vec<MigIn>,
    mig_timer_armed: bool,
    /// Partitioned-write ingress counts per `(reg, range start)`, drained
    /// into a `LoadReport` on the heartbeat tick. A `Vec`, not a map:
    /// the drain order goes on the wire and must be deterministic.
    load: Vec<((RegId, Key), u64)>,
    metrics: CpMetrics,
}

impl SwishCp {
    /// Build the control app for switch `me`, run by the controller
    /// replica group `ctrl_group` (DESIGN.md §12): heartbeats fan out to
    /// every replica, decision traffic follows the announced leader.
    pub fn new(
        me: NodeId,
        cfg: SwishConfig,
        ctrl_group: Vec<NodeId>,
        handles: Rc<Handles>,
    ) -> SwishCp {
        SwishCp {
            me,
            cfg,
            believed_leader: ctrl_group[0],
            ctrl_group,
            ctrl_ballot: 0,
            caught_up: false,
            handles,
            view: ChainView::default(),
            next_job: 0,
            next_write: 0,
            jobs: HashMap::new(),
            writes: HashMap::new(),
            snap_out: VecDeque::new(),
            dir_cache: HashMap::new(),
            mig_out: Vec::new(),
            mig_in: Vec::new(),
            mig_timer_armed: false,
            load: Vec::new(),
            metrics: CpMetrics::default(),
        }
    }

    /// The controller replica this switch currently addresses decisions
    /// to (the last-announced leader).
    pub fn believed_leader(&self) -> NodeId {
        self.believed_leader
    }

    /// Cached owner set for a partitioned key, if a directory reply has
    /// arrived.
    pub fn dir_owners(&self, reg: RegId, key: Key) -> Option<&[NodeId]> {
        self.dir_cache.get(&(reg, key)).map(Vec::as_slice)
    }

    /// The controller replica this switch addresses a directory lookup
    /// for `reg[key]` to. Lookups spread deterministically by (switch,
    /// reg, key) so followers absorb read load under their leader lease
    /// instead of funneling every query through the leader.
    pub fn dir_query_target(&self, reg: RegId, key: Key) -> NodeId {
        let h = u64::from(self.me.0)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(reg) << 32 | u64::from(key));
        self.ctrl_group[(h % self.ctrl_group.len() as u64) as usize]
    }

    /// Control-plane metrics.
    pub fn metrics(&self) -> &CpMetrics {
        &self.metrics
    }

    /// The chain configuration this switch currently operates under.
    pub fn view(&self) -> &ChainView {
        &self.view
    }

    /// Capped exponential backoff with deterministic jitter: base
    /// `retry_timeout` doubled per attempt up to [`RETRY_BACKOFF_MAX`],
    /// plus a hashed jitter in `[0, delay/4]`. Hashed — not drawn from
    /// the engine RNG — so CP retry timing adds no RNG draw sites and
    /// replays bit-for-bit, while still desynchronizing the retry storms
    /// of concurrent writers after a chain outage.
    fn retry_delay(&self, write_id: u64, attempts: u32) -> SimDuration {
        let base = self.cfg.retry_timeout.as_nanos().max(1);
        let cap = RETRY_BACKOFF_MAX.as_nanos().max(base);
        let backed = base.saturating_mul(1u64 << attempts.min(20)).min(cap);
        // The believed controller replica is folded into the jitter
        // stream: a failover re-shuffles retry phases per (switch,
        // destination replica) so post-failover retry storms from many
        // switches do not arrive in lockstep at the new leader.
        let dest = u64::from(self.believed_leader.0) << 36;
        let h =
            splitmix64((u64::from(self.me.0) << 52) ^ dest ^ (write_id << 8) ^ u64::from(attempts));
        SimDuration::nanos(backed + h % (backed / 4 + 1))
    }

    /// The range of a partitioned register containing `key`, read from
    /// this switch's own installed table (empty until the controller's
    /// initial broadcast lands; callers fall back to the retry timer).
    fn part_range(&self, reg: RegId, key: Key, cp: &mut CpCtx<'_, CpItem>) -> Option<RangeView> {
        let h = self.handles.rangeblk(reg)?;
        let dp = cp.dataplane();
        read_ranges(|i| dp.reg(h).read(i))
            .into_iter()
            .find(|r| r.contains(key))
    }

    fn send_write(&mut self, write_id: u64, cp: &mut CpCtx<'_, CpItem>) {
        let Some(ws) = self.writes.get(&write_id) else {
            return;
        };
        let head = if self.handles.entry(ws.reg).spec.is_partitioned() {
            // Partitioned registers route per key: seq==0 goes to the
            // primary of the key's range, not the global chain head. A
            // retry after an `OwnershipCommit` re-reads the table and
            // re-routes automatically.
            let (reg, key) = (ws.reg, ws.key);
            let Some(primary) = self.part_range(reg, key, cp).and_then(|r| r.primary()) else {
                return; // no installed range yet; the retry timer will try again
            };
            primary
        } else {
            let Some(head) = self.view.head() else {
                return; // no chain yet; the retry timer will try again
            };
            head
        };
        self.metrics.write_sends += 1;
        cp.packet_out(
            head,
            PacketBody::Swish(SwishMsg::Write(WriteRequest {
                write_id,
                writer: self.me,
                epoch: self.view.epoch,
                reg: ws.reg,
                key: ws.key,
                seq: 0, // the head sequences
                op: ws.op,
                trace: ws.trace,
            })),
        );
    }

    fn handle_write_job(
        &mut self,
        writes: Vec<super::StagedWrite>,
        decision: Option<(NodeId, DataPacket)>,
        trace: TraceId,
        ingress: SimTime,
        cp: &mut CpCtx<'_, CpItem>,
    ) {
        // Bounded buffer: shed (and count) rather than queueing without
        // limit — a dead chain must not OOM the writer CP. The buffered
        // output packet is dropped here, explicitly.
        if self.jobs.len() >= CP_JOB_BUFFER {
            self.metrics.jobs_shed += 1;
            if decision.is_some() {
                self.metrics.packets_shed += 1;
            }
            cp.span(trace, SpanPhase::Shed);
            return;
        }
        let job_id = self.next_job;
        self.next_job += 1;
        self.metrics.jobs_started += 1;
        cp.span(trace, SpanPhase::JobStart);
        self.jobs.insert(
            job_id,
            Job {
                remaining: writes.len(),
                decision,
                trace,
                ingress,
            },
        );
        for w in writes {
            if self.handles.entry(w.reg).spec.is_partitioned() {
                self.note_part_load(w.reg, w.key, cp);
            }
            let write_id = self.next_write & ID_MASK;
            self.next_write += 1;
            self.writes.insert(
                write_id,
                WriteState {
                    job: job_id,
                    reg: w.reg,
                    key: w.key,
                    op: w.op,
                    attempts: 0,
                    trace,
                },
            );
            self.send_write(write_id, cp);
            cp.set_timer(self.retry_delay(write_id, 0), TT_RETRY | write_id);
        }
    }

    /// Count one partitioned-write ingress against the key's range, for
    /// the heartbeat-piggybacked load report feeding the planner.
    fn note_part_load(&mut self, reg: RegId, key: Key, cp: &mut CpCtx<'_, CpItem>) {
        let Some(start) = self.part_range(reg, key, cp).map(|r| r.start) else {
            return;
        };
        match self.load.iter_mut().find(|(k, _)| *k == (reg, start)) {
            Some((_, n)) => *n += 1,
            None => self.load.push(((reg, start), 1)),
        }
    }

    /// Drain the ingress counts into a `LoadReport`. Sent only when
    /// nonzero, so deployments without partitioned registers emit no new
    /// traffic (the golden determinism fingerprint stays bit-identical).
    fn flush_load_report(&mut self, cp: &mut CpCtx<'_, CpItem>) {
        if self.load.is_empty() {
            return;
        }
        let entries = self
            .load
            .drain(..)
            .map(|((reg, start), writes)| LoadEntry { reg, start, writes })
            .collect();
        self.metrics.load_reports_sent += 1;
        cp.packet_out(
            self.believed_leader,
            PacketBody::Swish(SwishMsg::LoadReport(LoadReport {
                from: self.me,
                entries,
            })),
        );
    }

    // ------------------------------------------------------------------
    // Live migration: source streamer and destination pass tracker
    // ------------------------------------------------------------------

    fn on_migrate_begin(&mut self, m: MigrateBegin, cp: &mut CpCtx<'_, CpItem>) {
        if m.to == self.me {
            let fresh = MigIn {
                reg: m.reg,
                start: m.start,
                end: m.end,
                epoch: m.epoch,
                pass: 0,
                got: 0,
                last_idx: None,
                done_sent: false,
            };
            let mut known = self.mig_in.iter_mut();
            match known.find(|t| t.reg == m.reg && t.start == m.start) {
                Some(t) if t.epoch >= m.epoch => {}
                Some(t) => *t = fresh,
                None => self.mig_in.push(fresh),
            }
        }
        if m.from == self.me {
            let exists = self
                .mig_out
                .iter()
                .any(|o| o.reg == m.reg && o.start == m.start && o.epoch >= m.epoch);
            if !exists {
                self.mig_out
                    .retain(|o| !(o.reg == m.reg && o.start == m.start));
                self.mig_out.push(MigOut {
                    reg: m.reg,
                    start: m.start,
                    end: m.end,
                    to: m.to,
                    epoch: m.epoch,
                    pass: 0,
                    pass_entries: None,
                    next_chunk: 0,
                    next_due: cp.now(),
                });
                if !self.mig_timer_armed {
                    self.mig_timer_armed = true;
                    cp.set_timer(self.cfg.reconfig.chunk_interval, TT_MIGRATE);
                }
            }
        }
    }

    /// Destination bookkeeping for one received chunk (the data plane has
    /// already applied its entries, seq-guarded). When a full pass has
    /// arrived, report `MigrateDone` so the controller can commit.
    fn on_migrate_chunk(&mut self, ch: &MigrateChunk, cp: &mut CpCtx<'_, CpItem>) {
        let me = self.me;
        let Some(t) = self
            .mig_in
            .iter_mut()
            .find(|t| t.reg == ch.reg && t.start == ch.start)
        else {
            return; // Begin not seen yet (lost); resync will re-send it
        };
        if ch.pass < t.pass {
            return; // chunk from a superseded pass
        }
        if ch.pass > t.pass {
            t.pass = ch.pass;
            t.got = 0;
            t.last_idx = None;
            t.done_sent = false;
        }
        if ch.idx >= 64 {
            return; // sender caps passes at 64 chunks; defensive
        }
        t.got |= 1 << ch.idx;
        if ch.last {
            t.last_idx = Some(ch.idx);
        }
        if t.complete() && !t.done_sent {
            t.done_sent = true;
            let done = MigrateDone {
                reg: t.reg,
                start: t.start,
                end: t.end,
                node: me,
                epoch: t.epoch,
                pass: t.pass,
            };
            self.metrics.migrate_done_sent += 1;
            // Addressed to the *current* leader belief: after a failover
            // mid-transfer, the source's next pass resets `done_sent`,
            // so the completion report is re-sent to the new leader.
            cp.packet_out(
                self.believed_leader,
                PacketBody::Swish(SwishMsg::MigrateDone(done)),
            );
        }
    }

    /// An `OwnershipCommit` at a newer epoch retires any migration stream
    /// or tracker for that range — a controller abort is also delivered
    /// as a commit (re-asserting the old owners at a fresh epoch), so
    /// this is the single stop signal for both outcomes.
    fn on_ownership_commit(&mut self, c: &OwnershipCommit) {
        self.mig_out
            .retain(|o| !(o.reg == c.reg && o.start == c.start && o.epoch < c.epoch));
        self.mig_in
            .retain(|t| !(t.reg == c.reg && t.start == c.start && t.epoch < c.epoch));
    }

    /// State-transfer entries of chain register `reg` over `keys`:
    /// `(key, seq, value)` for every written key, the seq being the
    /// key's group sequence number (the key's own, partitioned). A
    /// recovery snapshot reads a whole register, a migration pass one
    /// key range.
    fn snapshot_range(&self, reg: RegId, keys: Range<Key>, dp: &DataPlane) -> Vec<SnapEntry> {
        let entry = self.handles.entry(reg);
        let RegKind::Chain { val, seq, .. } = entry.kind else {
            return vec![];
        };
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let g = Handles::group_slot(&entry.spec, &self.cfg, key);
            let s = dp.reg(seq).read(g);
            let v = dp.reg(val).read(key as usize);
            if s == 0 && v == 0 {
                continue; // never written
            }
            out.push(SnapEntry {
                key,
                seq: s,
                value: v,
            });
        }
        out
    }

    /// One tick of the migration streamer: for every due outbound stream,
    /// send the next chunk of the current pass (snapshotting the range at
    /// pass start so a pass is internally consistent). After the last
    /// chunk of a pass the stream idles for [`REPASS_INTERVAL`], then
    /// re-snapshots and streams again — chunk loss is repaired by
    /// repetition, not acknowledgment, and the seq guard at the
    /// destination makes re-application idempotent.
    fn pump_migration(&mut self, cp: &mut CpCtx<'_, CpItem>) {
        let now = cp.now();
        let pol = self.cfg.reconfig;
        for i in 0..self.mig_out.len() {
            if self.mig_out[i].next_due > now {
                continue;
            }
            if self.mig_out[i].pass_entries.is_none() {
                let (reg, start, end) = {
                    let m = &self.mig_out[i];
                    (m.reg, m.start, m.end)
                };
                let entries = self.snapshot_range(reg, start..end, cp.dataplane());
                self.mig_out[i].pass_entries = Some(entries);
            }
            let me = self.me;
            let m = &mut self.mig_out[i];
            let entries = m.pass_entries.as_ref().expect("snapshotted at pass start");
            // ≤64 chunks per pass: the destination tracks receipt in a
            // u64 bitmap, so widen chunks instead of overflowing it.
            let per = pol.chunk_keys.max(1).max(entries.len().div_ceil(64));
            let n_chunks = entries.len().div_ceil(per).max(1);
            let idx = m.next_chunk;
            let last = idx + 1 >= n_chunks;
            let lo = (idx * per).min(entries.len());
            let hi = (lo + per).min(entries.len());
            let chunk = MigrateChunk {
                reg: m.reg,
                start: m.start,
                end: m.end,
                origin: me,
                pass: m.pass,
                idx: idx as u16,
                last,
                entries: entries[lo..hi].into(),
            };
            let to = m.to;
            if last {
                m.pass += 1;
                m.next_chunk = 0;
                m.pass_entries = None;
                m.next_due = now + REPASS_INTERVAL;
            } else {
                m.next_chunk += 1;
                m.next_due = now + pol.chunk_interval;
            }
            self.metrics.migrate_chunks_sent += 1;
            cp.packet_out(to, PacketBody::Swish(SwishMsg::MigrateChunk(chunk)));
        }
        if self.mig_out.is_empty() {
            self.mig_timer_armed = false;
        } else {
            cp.set_timer(pol.chunk_interval, TT_MIGRATE);
        }
    }

    fn handle_ack(&mut self, write_id: u64, cp: &mut CpCtx<'_, CpItem>) {
        let Some(ws) = self.writes.remove(&write_id) else {
            return; // duplicate ack for a retried write: already released
        };
        let Some(job) = self.jobs.get_mut(&ws.job) else {
            return;
        };
        job.remaining -= 1;
        if job.remaining == 0 {
            let job = self.jobs.remove(&ws.job).expect("job present");
            self.metrics.jobs_completed += 1;
            self.metrics.write_latency.record(cp.now() - job.ingress);
            cp.span(job.trace, SpanPhase::Release);
            if let Some((dst, pkt)) = job.decision {
                // Release P': "the packet is injected back to the data
                // plane and forwarded to its destination" (§7).
                cp.packet_out(dst, PacketBody::Data(pkt));
            }
        }
    }

    /// Retry exhaustion: abandon `write_id` *and* its sibling writes (the
    /// job can never complete once one member is given up), release the
    /// buffered output packet explicitly, and record every abandoned
    /// `(reg, key)` so the convergence oracle can exclude those groups —
    /// an abandoned write may legitimately leave a chain prefix applied
    /// ahead of the tail forever.
    fn abandon_write(&mut self, write_id: u64, cp: &mut CpCtx<'_, CpItem>) {
        let Some(ws) = self.writes.remove(&write_id) else {
            return;
        };
        let job_id = ws.job;
        cp.span(ws.trace, SpanPhase::Abandon);
        self.metrics.writes_exhausted += 1;
        self.metrics.record_abandoned(ws.reg, ws.key);
        let siblings: Vec<u64> = self
            .writes
            .iter()
            .filter(|(_, w)| w.job == job_id)
            .map(|(&id, _)| id)
            .collect();
        for id in siblings {
            let w = self.writes.remove(&id).expect("sibling present");
            self.metrics.writes_exhausted += 1;
            self.metrics.record_abandoned(w.reg, w.key);
        }
        if let Some(job) = self.jobs.remove(&job_id) {
            self.metrics.jobs_failed += 1;
            if job.decision.is_some() {
                self.metrics.packets_shed += 1;
            }
            // `job.decision` drops here: the buffered packet is freed, not
            // leaked; sibling retry timers now find no write state and die.
        }
    }

    /// On epoch adoption: drop write state orphaned from any live job and
    /// queued snapshot chunks whose target left the configuration.
    /// CRAQ rule on becoming tail: the tail's applied state *is* the
    /// committed state, so any pending bit this switch still holds (set
    /// while it was a mid-chain member or a catching-up learner) is
    /// stale. Multicast clears never loop back to their sender, so
    /// nothing else would ever clear them once we are the tail.
    fn clear_own_pending(&mut self, cp: &mut CpCtx<'_, CpItem>) {
        for entry in &self.handles.regs {
            let RegKind::Chain {
                pending: Some(p), ..
            } = &entry.kind
            else {
                continue;
            };
            let slots = self.cfg.group_slots(entry.spec.keys) as usize;
            let r = cp.dataplane().reg_mut(*p);
            for s in 0..slots {
                r.write(s, 0);
            }
        }
    }

    fn gc_on_epoch_change(&mut self) {
        let before = self.writes.len();
        let jobs = &self.jobs;
        self.writes.retain(|_, w| jobs.contains_key(&w.job));
        self.metrics.writes_gced += (before - self.writes.len()) as u64;

        let before = self.snap_out.len();
        let view = &self.view;
        self.snap_out
            .retain(|(t, _)| view.chain.contains(t) || view.learners.contains(t));
        self.metrics.snap_chunks_gced += (before - self.snap_out.len()) as u64;
    }

    /// Snapshot every chain register, whole, and queue it for `target`
    /// in chunks. A register with nothing written still sends one empty
    /// chunk, and so does a switch with no chain register, so the target
    /// always sees a last chunk and reports catch-up completion.
    fn handle_snapshot_request(&mut self, target: NodeId, cp: &mut CpCtx<'_, CpItem>) {
        let per = self.cfg.snapshot_chunk.max(1);
        let mut chunks = Vec::new();
        for e in &self.handles.regs {
            if !matches!(e.kind, RegKind::Chain { .. }) {
                continue;
            }
            let entries = self.snapshot_range(e.spec.id, 0..e.spec.keys, cp.dataplane());
            for i in 0..entries.len().div_ceil(per).max(1) {
                let part = &entries[i * per..entries.len().min((i + 1) * per)];
                chunks.push((e.spec.id, part.into()));
            }
        }
        if chunks.is_empty() {
            chunks.push((0, vec![].into()));
        }
        let (was_empty, n) = (self.snap_out.is_empty(), chunks.len());
        for (i, (reg, entries)) in chunks.into_iter().enumerate() {
            let chunk = SnapshotChunk {
                reg,
                origin: self.me,
                entries,
                last: i + 1 == n,
            };
            self.snap_out.push_back((target, chunk));
        }
        if was_empty {
            cp.set_timer(self.cfg.snapshot_interval, TT_SNAP);
        }
    }

    fn pump_snapshot(&mut self, cp: &mut CpCtx<'_, CpItem>) {
        if let Some((target, chunk)) = self.snap_out.pop_front() {
            self.metrics.snapshot_chunks_sent += 1;
            cp.packet_out(target, PacketBody::Swish(SwishMsg::SnapChunk(chunk)));
        }
        if !self.snap_out.is_empty() {
            cp.set_timer(self.cfg.snapshot_interval, TT_SNAP);
        }
    }

    /// Send liveness heartbeats to every member of the replica group
    /// (each replica runs its own failure detector so the next leader
    /// starts with fresh observations).
    fn send_heartbeats(&mut self, cp: &mut CpCtx<'_, CpItem>) {
        let hb = Heartbeat {
            from: self.me,
            epoch: self.view.epoch,
        };
        for &c in &self.ctrl_group {
            self.metrics.heartbeats += 1;
            cp.packet_out(c, PacketBody::Swish(SwishMsg::Heartbeat(hb)));
        }
    }

    fn send_catchup_done(&mut self, cp: &mut CpCtx<'_, CpItem>) {
        cp.packet_out(
            self.believed_leader,
            PacketBody::Swish(SwishMsg::CatchupDone(CatchupComplete {
                node: self.me,
                epoch: self.view.epoch,
            })),
        );
    }
}

impl ControlApp for SwishCp {
    type Item = CpItem;

    fn on_start(&mut self, cp: &mut CpCtx<'_, CpItem>) {
        self.send_heartbeats(cp);
        cp.set_timer(self.cfg.heartbeat_interval, TT_HEARTBEAT);
    }

    fn on_item(&mut self, item: CpItem, cp: &mut CpCtx<'_, CpItem>) {
        match item {
            CpItem::WriteJob {
                writes,
                decision,
                trace,
                ingress,
            } => self.handle_write_job(writes, decision, trace, ingress, cp),
            CpItem::SnapshotDone => {
                self.caught_up = true;
                self.send_catchup_done(cp);
            }
            CpItem::Proto(msg) => match msg {
                SwishMsg::Ack(a) => self.handle_ack(a.write_id, cp),
                SwishMsg::Chain(c) if c.epoch > self.view.epoch => {
                    self.view = ChainView {
                        epoch: c.epoch,
                        chain: c.chain,
                        learners: c.learners,
                    };
                    let cfgblk: RegHandle = self.handles.cfgblk;
                    write_chain(cp.dataplane(), cfgblk, &self.view, self.me);
                    self.metrics.epochs_adopted += 1;
                    if self.view.chain.contains(&self.me) {
                        // Promoted (or already a member): stop the
                        // catch-up re-announcement.
                        self.caught_up = false;
                    }
                    if self.view.chain.last() == Some(&self.me) {
                        self.clear_own_pending(cp);
                    }
                    self.gc_on_epoch_change();
                }
                SwishMsg::Group(_) => {
                    // Replica-group membership is enforced by the fabric's
                    // multicast tree, which the controller reprograms
                    // directly; nothing to install locally.
                }
                SwishMsg::SnapReq(r) => self.handle_snapshot_request(r.target, cp),
                SwishMsg::DirReply(r) => {
                    self.dir_cache.insert((r.reg, r.key), r.owners);
                }
                SwishMsg::MigrateBegin(m) => self.on_migrate_begin(m, cp),
                SwishMsg::MigrateChunk(ch) => self.on_migrate_chunk(&ch, cp),
                SwishMsg::OwnershipCommit(c) => self.on_ownership_commit(&c),
                // Adopt the highest-ballot leadership announcement;
                // redirect controller-bound traffic to the new leader.
                SwishMsg::CtrlLead(l)
                    if l.ballot >= self.ctrl_ballot && self.ctrl_group.contains(&l.leader) =>
                {
                    self.ctrl_ballot = l.ballot;
                    self.believed_leader = l.leader;
                }
                _ => {}
            },
        }
    }

    fn on_timer(&mut self, token: u64, cp: &mut CpCtx<'_, CpItem>) {
        match token & TT_MASK {
            TT_RETRY => {
                let write_id = token & ID_MASK;
                let Some(ws) = self.writes.get_mut(&write_id) else {
                    return; // acked (or stale token from before a failure)
                };
                ws.attempts += 1;
                if ws.attempts > MAX_RETRIES {
                    self.abandon_write(write_id, cp);
                    return;
                }
                let attempts = ws.attempts;
                let trace = ws.trace;
                self.metrics.retries += 1;
                cp.span(trace, SpanPhase::Retry(attempts as u16));
                self.send_write(write_id, cp);
                cp.set_timer(self.retry_delay(write_id, attempts), TT_RETRY | write_id);
            }
            TT_HEARTBEAT => {
                self.send_heartbeats(cp);
                cp.set_timer(self.cfg.heartbeat_interval, TT_HEARTBEAT);
                self.flush_load_report(cp);
                // Learner stuck waiting for promotion (e.g. the leader
                // that received our CatchupDone died): keep announcing.
                if self.caught_up && self.view.learners.contains(&self.me) {
                    self.send_catchup_done(cp);
                }
            }
            TT_SNAP => self.pump_snapshot(cp),
            TT_MIGRATE => self.pump_migration(cp),
            _ => {}
        }
    }

    fn reset(&mut self) {
        self.view = ChainView::default();
        self.believed_leader = self.ctrl_group[0];
        self.ctrl_ballot = 0;
        self.caught_up = false;
        self.jobs.clear();
        self.writes.clear();
        self.snap_out.clear();
        self.dir_cache.clear();
        self.mig_out.clear();
        self.mig_in.clear();
        self.mig_timer_armed = false;
        self.load.clear();
        self.metrics = CpMetrics::default();
    }
}
