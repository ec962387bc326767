//! The session-multiplexed relay gateway.
//!
//! A [`Gateway`] owns one compiled [`GuardProgram`] and a sharded
//! session table: `session id → SessionCore` (guard state plus a
//! bounded frame queue), spread over eight stripe-locked maps.
//!
//! Every transport dispatches through [`Gateway::call_batch`]: each
//! session of a readiness batch is processed **inline** on the
//! caller's thread under its session lock, one contiguous guard-DFA
//! run per session, replies encoded straight into the caller's buffer.
//! The per-frame [`Gateway::call`] takes the same inline path one frame
//! at a time and is the batch path's differential oracle.
//!
//! Library callers may instead [`Gateway::submit`] frames with a
//! responder callback; a worker from the shared
//! [`threadpool::ThreadPool`] drains each session's queue in order —
//! popping up to a batch of frames per lock acquisition and answering
//! them after the lock drops — so per-session processing is serialized
//! while distinct sessions proceed in parallel. A session with queued
//! work is never processed inline: its frames follow the queue.
//!
//! Flow control and lifecycle:
//!
//! * a full per-session queue (64 frames) rejects new frames with
//!   [`RejectReason::Backpressure`] instead of buffering unboundedly;
//! * [`Gateway::evict_idle`] sweeps sessions idle past the configured
//!   timeout (only when unscheduled with an empty queue);
//! * [`Gateway::drain`] stops admitting frames
//!   ([`RejectReason::Draining`]) and blocks until every queued frame
//!   has been answered — graceful shutdown. A `call` whose responder is
//!   dropped unfired (worker death, pool teardown) reports
//!   [`RejectReason::Draining`] instead of panicking the caller.
//!
//! Lock order is always shard map → session core, and each is dropped
//! before the next is taken on the submit path, so the gateway cannot
//! deadlock against its own workers.

use crate::codec::{encode_reply, table_hash, Frame, RejectReason, Reply, WireCodec, WireError};
use crate::guard::{GuardProgram, SessionGuard};
use crate::stats::{RuntimeStats, StatsSnapshot};
use protoquot_spec::{Spec, SpecError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use threadpool::ThreadPool;

/// Frames a worker pops and answers per session-lock acquisition.
const DRAIN_BATCH: usize = 32;

/// Stripe-locked shards of the session table.
const SHARDS: usize = 8;

/// Per-session queue bound; beyond it submitted frames bounce with
/// [`RejectReason::Backpressure`].
const QUEUE_CAP: usize = 64;

/// Why a [`Gateway`] failed to start.
#[derive(Debug)]
pub enum GatewayError {
    /// The conversion system failed to compile or validate.
    Spec(SpecError),
    /// The compiled event table cannot be carried by the wire format
    /// (more events than a 16-bit frame index addresses).
    Wire(WireError),
    /// A hot-swap was refused: event-table mismatch, stale version
    /// number, or the previous version still draining (N-1 support).
    Swap(String),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Spec(e) => write!(f, "{e}"),
            GatewayError::Wire(e) => write!(f, "{e}"),
            GatewayError::Swap(e) => write!(f, "swap refused: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<SpecError> for GatewayError {
    fn from(e: SpecError) -> GatewayError {
        GatewayError::Spec(e)
    }
}

impl From<WireError> for GatewayError {
    fn from(e: WireError) -> GatewayError {
        GatewayError::Wire(e)
    }
}

/// Tuning knobs of a [`Gateway`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Worker threads draining session queues.
    pub workers: usize,
    /// Idle time after which [`Gateway::evict_idle`] removes a session.
    pub idle_timeout: Duration,
    /// Frames (events + stalls) one session may submit over its
    /// lifetime; beyond it the session is *expelled*: the frame bounces
    /// with [`RejectReason::ResourceLimit`], the session is marked
    /// closed, and the next idle sweep removes it. `0` disables the
    /// budget (the default — campaigns legitimately run long sessions).
    pub session_frame_budget: u64,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            workers: 4,
            idle_timeout: Duration::from_secs(30),
            session_frame_budget: 0,
        }
    }
}

/// Callback answering one submitted frame.
pub type Responder = Box<dyn FnOnce(Reply) + Send>;

/// One batch group: the frames of one session, chained in arrival
/// order through [`BatchScratch::next`].
struct BatchGroup {
    session: u64,
    head: u32,
    tail: u32,
    count: u32,
}

/// Reusable per-connection scratch for [`Gateway::call_batch`]:
/// groups a batch's frames by session without allocating in the
/// steady state. Grouping is an intrusive linked list over frame
/// indices — one hash lookup per frame, groups iterated in order of
/// first appearance, per-session frame order preserved.
#[derive(Default)]
pub struct BatchScratch {
    by_session: HashMap<u64, u32>,
    groups: Vec<BatchGroup>,
    /// `next[i]` is the index of the next frame of the same session,
    /// or `u32::MAX` at a chain's tail.
    next: Vec<u32>,
}

impl BatchScratch {
    /// An empty scratch; buffers grow to the largest batch seen and
    /// are retained across calls.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    fn group(&mut self, frames: &[Frame]) {
        self.by_session.clear();
        self.groups.clear();
        self.next.clear();
        self.next.resize(frames.len(), u32::MAX);
        for (i, frame) in frames.iter().enumerate() {
            let i = i as u32;
            match self.by_session.entry(frame.session()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let g = &mut self.groups[*e.get() as usize];
                    self.next[g.tail as usize] = i;
                    g.tail = i;
                    g.count += 1;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(self.groups.len() as u32);
                    self.groups.push(BatchGroup {
                        session: frame.session(),
                        head: i,
                        tail: i,
                        count: 1,
                    });
                }
            }
        }
    }
}

struct SessionCore {
    guard: SessionGuard,
    queue: VecDeque<(Frame, Responder)>,
    scheduled: bool,
    closed: bool,
    last_active: Instant,
    /// Event + stall frames processed, charged against
    /// [`GatewayConfig::session_frame_budget`].
    frames_seen: u64,
    /// Converter version this session was bound to at first contact.
    /// Fixed for the session's lifetime: a hot-swap never rebinds a
    /// live session, it only changes what *new* sessions get.
    version: u32,
}

type Shard = Mutex<HashMap<u64, Arc<Mutex<SessionCore>>>>;

struct GatewayInner {
    /// The active converter: `(version, program)`. Read once per
    /// session open — never on the per-frame path, which goes through
    /// the session's own [`SessionGuard`].
    active: RwLock<(u32, Arc<GuardProgram>)>,
    /// The N-1 version still draining sessions, if any. Retired (and
    /// cleared) when its per-version session count reaches zero.
    prev: Mutex<Option<(u32, Arc<GuardProgram>)>>,
    /// FNV-1a hash of the event table — the wire identity every
    /// admissible converter version must share.
    table_hash: u64,
    codec: WireCodec,
    stats: RuntimeStats,
    shards: Vec<Shard>,
    pool: ThreadPool,
    /// Frames accepted into some queue but not yet answered.
    pending: AtomicU64,
    draining: AtomicBool,
    cfg: GatewayConfig,
}

impl GatewayInner {
    /// Answers a hello: ack with our identity when the peer's table
    /// hash matches (and its pinned version, if any, is the active
    /// one), otherwise a counted `VersionMismatch` reject. No session
    /// state is created or touched.
    fn hello_reply(&self, session: u64, peer_hash: u64, peer_version: u32) -> Reply {
        let active_version = self.active.read().unwrap().0;
        if peer_hash == self.table_hash && (peer_version == 0 || peer_version == active_version) {
            Reply::HelloAck {
                session,
                table_hash: self.table_hash,
                version: active_version,
            }
        } else {
            self.stats.note_reject(RejectReason::VersionMismatch);
            Reply::Rejected {
                session,
                reason: RejectReason::VersionMismatch,
            }
        }
    }

    /// Accounts a session leaving `version`; when that drains the
    /// previous (non-active) version to zero sessions, retires it —
    /// dropping the last gateway reference to its program.
    fn note_session_gone(&self, version: u32) {
        if self.stats.note_version_close(version) == 0 {
            let mut prev = self.prev.lock().unwrap();
            if prev.as_ref().is_some_and(|(v, _)| *v == version) {
                *prev = None;
                self.stats.note_version_retired();
            }
        }
    }
}

/// A cloneable handle to one running gateway.
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<GatewayInner>,
}

impl Gateway {
    /// Compiles `parts` (components plus the derived converter) against
    /// `service` — including the guard-DFA subset construction — and
    /// starts a gateway with `cfg.workers` threads.
    pub fn new(
        parts: &[&Spec],
        service: &Spec,
        cfg: GatewayConfig,
    ) -> Result<Gateway, GatewayError> {
        Gateway::with_program(Arc::new(GuardProgram::new(parts, service)?), cfg)
    }

    /// Starts a gateway on an already-compiled program (e.g. one
    /// instantiated from a registry artifact), bound as version 1.
    pub fn with_program(
        prog: Arc<GuardProgram>,
        cfg: GatewayConfig,
    ) -> Result<Gateway, GatewayError> {
        let codec = WireCodec::from_table(Arc::clone(prog.table()))?;
        let stats = RuntimeStats::with_guard_build(codec.table().len(), prog.build_stats().clone());
        let hash = table_hash(codec.table());
        stats.set_wire_identity(hash, 1);
        let shards = (0..SHARDS).map(|_| Shard::default()).collect();
        let pool = ThreadPool::new(cfg.workers.max(1));
        Ok(Gateway {
            inner: Arc::new(GatewayInner {
                active: RwLock::new((1, prog)),
                prev: Mutex::new(None),
                table_hash: hash,
                codec,
                stats,
                shards,
                pool,
                pending: AtomicU64::new(0),
                draining: AtomicBool::new(false),
                cfg,
            }),
        })
    }

    /// The wire codec (shared event table) of this gateway.
    pub fn codec(&self) -> &WireCodec {
        &self.inner.codec
    }

    /// The currently active compiled guard program. New sessions bind
    /// this; sessions opened before a hot-swap keep the program they
    /// were born with.
    pub fn program(&self) -> Arc<GuardProgram> {
        Arc::clone(&self.inner.active.read().unwrap().1)
    }

    /// The currently active converter version.
    pub fn active_version(&self) -> u32 {
        self.inner.active.read().unwrap().0
    }

    /// FNV-1a hash of the event table — the wire identity negotiated
    /// at hello and required of every swapped-in converter version.
    pub fn table_hash(&self) -> u64 {
        self.inner.table_hash
    }

    /// Hot-swaps the active converter to `prog` as `version`.
    ///
    /// New sessions bind `prog` immediately; existing sessions drain
    /// on the program they were born with. One previous version may be
    /// draining at a time (N-1 support): a second swap is refused
    /// until the earlier version's session count reaches zero and it
    /// is retired. The replacement must carry a byte-identical event
    /// table (same wire identity) and a strictly newer version number.
    pub fn swap(&self, version: u32, prog: Arc<GuardProgram>) -> Result<(), GatewayError> {
        let inner = &self.inner;
        let new_hash = table_hash(prog.table());
        if new_hash != inner.table_hash {
            return Err(GatewayError::Swap(format!(
                "event-table hash {:016x} does not match the wire identity {:016x}",
                new_hash, inner.table_hash
            )));
        }
        // Lock order: active (write) then prev — matched nowhere else,
        // so no cycle. Session open takes active (read) only; session
        // close takes prev only.
        let mut active = inner.active.write().unwrap();
        if version <= active.0 {
            return Err(GatewayError::Swap(format!(
                "version {version} is not newer than active version {}",
                active.0
            )));
        }
        let mut prev = inner.prev.lock().unwrap();
        if let Some((draining, _)) = prev.as_ref() {
            let left = inner.stats.sessions_on_version(*draining);
            if left > 0 {
                return Err(GatewayError::Swap(format!(
                    "version {draining} still draining {left} session(s); \
                     only one previous version may drain at a time"
                )));
            }
            // Fully drained but never observed a close (e.g. no
            // session ever bound it): retire it now.
            *prev = None;
            inner.stats.note_version_retired();
        }
        let old = std::mem::replace(&mut *active, (version, prog));
        if inner.stats.sessions_on_version(old.0) > 0 {
            *prev = Some(old);
        } else {
            inner.stats.note_version_retired();
        }
        inner.stats.note_swap();
        inner.stats.set_wire_identity(inner.table_hash, version);
        Ok(())
    }

    /// The session core for `session`, created on first contact.
    fn core_for(&self, session: u64) -> Arc<Mutex<SessionCore>> {
        let inner = &self.inner;
        let shard = &inner.shards[(session % inner.shards.len() as u64) as usize];
        let mut map = shard.lock().unwrap();
        Arc::clone(map.entry(session).or_insert_with(|| {
            let (version, prog) = {
                let active = inner.active.read().unwrap();
                (active.0, Arc::clone(&active.1))
            };
            inner.stats.note_open();
            inner.stats.note_version_open(version);
            Arc::new(Mutex::new(SessionCore {
                guard: SessionGuard::new(prog),
                queue: VecDeque::new(),
                scheduled: false,
                closed: false,
                last_active: Instant::now(),
                frames_seen: 0,
                version,
            }))
        }))
    }

    /// Queues `frame` on `core`, scheduling a drain worker if none is.
    /// Fires `respond` immediately on backpressure.
    fn enqueue(
        &self,
        core: &Arc<Mutex<SessionCore>>,
        session: u64,
        frame: Frame,
        respond: Responder,
    ) {
        let inner = &self.inner;
        let schedule = {
            let mut core = core.lock().unwrap();
            if core.queue.len() >= QUEUE_CAP {
                drop(core);
                inner.stats.note_reject(RejectReason::Backpressure);
                respond(Reply::Rejected {
                    session,
                    reason: RejectReason::Backpressure,
                });
                return;
            }
            core.queue.push_back((frame, respond));
            inner.stats.note_queue_depth(core.queue.len());
            inner.pending.fetch_add(1, Ordering::AcqRel);
            if core.scheduled {
                false
            } else {
                core.scheduled = true;
                true
            }
        };
        if schedule {
            let inner = Arc::clone(&self.inner);
            let core = Arc::clone(core);
            self.inner
                .pool
                .execute(move || drain_session(&inner, &core, session));
        }
    }

    /// Submits one frame; `respond` fires exactly once with the reply,
    /// possibly on a worker thread.
    pub fn submit(&self, frame: Frame, respond: Responder) {
        let inner = &self.inner;
        inner.stats.note_frame();
        let session = frame.session();
        if inner.draining.load(Ordering::Acquire) {
            inner.stats.note_reject(RejectReason::Draining);
            respond(Reply::Rejected {
                session,
                reason: RejectReason::Draining,
            });
            return;
        }
        if let Frame::Hello {
            table_hash: peer_hash,
            version: peer_version,
            ..
        } = frame
        {
            respond(inner.hello_reply(session, peer_hash, peer_version));
            return;
        }
        let core = self.core_for(session);
        self.enqueue(&core, session, frame, respond);
    }

    /// Submits `frame` and blocks for the reply (loopback-style use).
    ///
    /// An idle session is processed inline on the caller's thread — one
    /// lock, one guard-DFA row — falling back to the queued worker path
    /// whenever frames are already in flight for the session.
    pub fn call(&self, frame: Frame) -> Reply {
        let inner = &self.inner;
        inner.stats.note_frame();
        let session = frame.session();
        if inner.draining.load(Ordering::Acquire) {
            inner.stats.note_reject(RejectReason::Draining);
            return Reply::Rejected {
                session,
                reason: RejectReason::Draining,
            };
        }
        if let Frame::Hello {
            table_hash: peer_hash,
            version: peer_version,
            ..
        } = frame
        {
            // Negotiation is connection-level: answered without
            // creating (or touching) any session state.
            return inner.hello_reply(session, peer_hash, peer_version);
        }
        let core = self.core_for(session);
        {
            let mut locked = core.lock().unwrap();
            if !locked.scheduled && locked.queue.is_empty() {
                let reply = process(inner, &mut locked, frame);
                locked.last_active = Instant::now();
                return reply;
            }
        }
        let (tx, rx) = mpsc::channel();
        self.enqueue(
            &core,
            session,
            frame,
            Box::new(move |reply| {
                let _ = tx.send(reply);
            }),
        );
        match rx.recv() {
            Ok(reply) => reply,
            // The responder was dropped unfired: a worker died or the
            // pool was torn down mid-drain. Report the session as
            // unserved rather than panicking the caller.
            Err(_) => {
                inner.stats.note_reject(RejectReason::Draining);
                Reply::Rejected {
                    session,
                    reason: RejectReason::Draining,
                }
            }
        }
    }

    /// Processes one transport batch — every frame decoded from one
    /// readiness chunk — grouped by session: one shard lookup, one
    /// session-lock acquisition, and one contiguous guard-DFA run per
    /// session per batch. Replies for inline-processed frames are
    /// encoded straight into `out` (the caller's reusable outbound
    /// buffer) with no per-frame allocation or responder.
    ///
    /// A session that is already scheduled or queued cannot be
    /// processed inline without reordering it against its in-flight
    /// frames, so *all* of its frames in this batch are handed to
    /// `slow` in order; the callback must forward each one to
    /// [`Gateway::submit`] with a responder that appends to the same
    /// outbound buffer. Frame accounting splits accordingly: inline
    /// frames are counted here, slow-path frames when `submit` sees
    /// them. Only dispatched batches count as batches: one bounced
    /// whole by a draining gateway counts its frames and rejects only,
    /// so `batch_frames == batch_inline + batch_slow` always holds.
    ///
    /// Replies land in `out` grouped by session (groups in order of
    /// first appearance, per-session order preserved) — equivalent to
    /// per-frame execution for any client that attributes replies by
    /// the session id in their headers, which both campaign drivers
    /// do. The per-frame [`Gateway::call`] path is the differential
    /// oracle for this equivalence.
    pub fn call_batch(
        &self,
        frames: &[Frame],
        scratch: &mut BatchScratch,
        out: &mut Vec<u8>,
        slow: &mut dyn FnMut(Frame),
    ) {
        if frames.is_empty() {
            return;
        }
        let inner = &self.inner;
        if inner.draining.load(Ordering::Acquire) {
            for frame in frames {
                inner.stats.note_frame();
                inner.stats.note_reject(RejectReason::Draining);
                encode_reply(
                    &Reply::Rejected {
                        session: frame.session(),
                        reason: RejectReason::Draining,
                    },
                    out,
                );
            }
            return;
        }
        inner.stats.note_batch(frames.len());
        scratch.group(frames);
        for g in &scratch.groups {
            let core = self.core_for(g.session);
            let mut locked = core.lock().unwrap();
            if !locked.scheduled && locked.queue.is_empty() {
                let mut idx = g.head;
                loop {
                    inner.stats.note_frame();
                    let reply = process(inner, &mut locked, frames[idx as usize]);
                    encode_reply(&reply, out);
                    if idx == g.tail {
                        break;
                    }
                    idx = scratch.next[idx as usize];
                }
                locked.last_active = Instant::now();
                inner.stats.note_batch_inline(g.count as usize);
            } else {
                drop(locked);
                inner.stats.note_batch_slow(g.count as usize);
                let mut idx = g.head;
                loop {
                    slow(frames[idx as usize]);
                    if idx == g.tail {
                        break;
                    }
                    idx = scratch.next[idx as usize];
                }
            }
        }
    }

    /// Removes sessions idle longer than the configured timeout.
    /// Returns how many were evicted.
    pub fn evict_idle(&self) -> usize {
        let inner = &self.inner;
        let mut evicted = 0;
        let mut gone_versions = Vec::new();
        for shard in &inner.shards {
            let mut map = shard.lock().unwrap();
            map.retain(|_, core| {
                let core = core.lock().unwrap();
                let stale = !core.scheduled
                    && core.queue.is_empty()
                    && core.last_active.elapsed() >= inner.cfg.idle_timeout;
                if stale {
                    if core.closed {
                        inner.stats.note_close();
                    } else {
                        inner.stats.note_evict();
                    }
                    gone_versions.push(core.version);
                    evicted += 1;
                }
                !stale
            });
        }
        // Version accounting outside the shard locks: draining the
        // previous version to zero retires it here.
        for version in gone_versions {
            inner.note_session_gone(version);
        }
        evicted
    }

    /// Stops admitting frames and waits until every queued frame has
    /// been answered and all workers are idle.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
        while self.inner.pending.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.pool.join();
    }

    /// The live counters, for transports to record connection events.
    pub(crate) fn runtime_stats(&self) -> &RuntimeStats {
        &self.inner.stats
    }

    /// Answers a transport-level hello: counted like any frame, acked
    /// or rejected from the gateway's wire identity, touching no
    /// session state. Transports call this for hellos they intercept
    /// at connection open.
    pub(crate) fn hello(&self, session: u64, peer_hash: u64, peer_version: u32) -> Reply {
        self.inner.stats.note_frame();
        self.inner.hello_reply(session, peer_hash, peer_version)
    }

    /// Accounts a frame a *transport* refused before submission (e.g.
    /// the per-connection session cap) and builds the rejection reply.
    /// Keeps transport-side rejects indistinguishable from gateway-side
    /// ones in the stats: the frame is counted, the reason is counted.
    pub(crate) fn transport_reject(&self, session: u64, reason: RejectReason) -> Reply {
        self.inner.stats.note_frame();
        self.inner.stats.note_reject(reason);
        Reply::Rejected { session, reason }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot(self.inner.codec.table())
    }

    /// Sessions currently resident in the table.
    pub fn resident_sessions(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().unwrap().len())
            .sum()
    }
}

/// Worker job: drains one session's queue to empty — up to
/// [`DRAIN_BATCH`] frames per lock acquisition, answered after the lock
/// drops — then unschedules itself.
fn drain_session(inner: &Arc<GatewayInner>, core: &Arc<Mutex<SessionCore>>, _session: u64) {
    let mut replies: Vec<(Responder, Reply)> = Vec::with_capacity(DRAIN_BATCH);
    loop {
        let mut guard = core.lock().unwrap();
        if guard.queue.is_empty() {
            guard.scheduled = false;
            return;
        }
        while replies.len() < DRAIN_BATCH {
            let Some((frame, respond)) = guard.queue.pop_front() else {
                break;
            };
            let reply = process(inner, &mut guard, frame);
            replies.push((respond, reply));
        }
        guard.last_active = Instant::now();
        drop(guard);
        let answered = replies.len() as u64;
        for (respond, reply) in replies.drain(..) {
            respond(reply);
        }
        // Decrement only after the responders fired so `drain` cannot
        // conclude while answers are still in flight.
        inner.pending.fetch_sub(answered, Ordering::AcqRel);
    }
}

/// Applies one frame to a session under its lock.
fn process(inner: &GatewayInner, core: &mut SessionCore, frame: Frame) -> Reply {
    let session = frame.session();
    // A hello that reaches a session path (batched loopback) is still
    // connection-level: answered from the gateway's wire identity,
    // exempt from the closed flag and the frame budget.
    if let Frame::Hello {
        table_hash: peer_hash,
        version: peer_version,
        ..
    } = frame
    {
        return inner.hello_reply(session, peer_hash, peer_version);
    }
    let reject = |reason: RejectReason| {
        inner.stats.note_reject(reason);
        Reply::Rejected { session, reason }
    };
    if core.closed {
        return reject(RejectReason::Closed);
    }
    // Frame budget: an event/stall stream past the configured cap
    // expels the session — convict-or-evict, never buffer an abusive
    // session forever. `Close` is always admitted (it releases state).
    if !matches!(frame, Frame::Close { .. }) {
        let budget = inner.cfg.session_frame_budget;
        core.frames_seen += 1;
        if budget > 0 && core.frames_seen > budget {
            core.closed = true;
            inner.stats.note_expel();
            return reject(RejectReason::ResourceLimit);
        }
    }
    match frame {
        Frame::Event { event, .. } => {
            if inner.codec.event_of(event).is_none() {
                return reject(RejectReason::UnknownEvent);
            }
            let already = core.guard.convicted().is_some();
            match core.guard.observe(event) {
                Ok(()) => {
                    inner.stats.note_accept(event);
                    Reply::Accepted { session }
                }
                Err(conviction) => {
                    if already {
                        reject(RejectReason::Convicted)
                    } else {
                        inner.stats.note_conviction(&conviction);
                        reject(conviction.reject_reason())
                    }
                }
            }
        }
        Frame::Stall { .. } => {
            let already = core.guard.convicted().is_some();
            match core.guard.attest_stall() {
                Ok(()) => Reply::Accepted { session },
                Err(conviction) => {
                    if already {
                        reject(RejectReason::Convicted)
                    } else {
                        inner.stats.note_conviction(&conviction);
                        reject(conviction.reject_reason())
                    }
                }
            }
        }
        Frame::Close { .. } => {
            core.closed = true;
            Reply::Accepted { session }
        }
        Frame::Hello { .. } => unreachable!("hello answered before session processing"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_spec::SpecBuilder;

    fn relay_system() -> (Spec, Spec) {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let mut b = SpecBuilder::new("service");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u0);
        (implementation, b.build().unwrap())
    }

    fn gateway(cfg: GatewayConfig) -> Gateway {
        let (implementation, service) = relay_system();
        Gateway::new(&[&implementation], &service, cfg).unwrap()
    }

    #[test]
    fn sessions_are_isolated_and_ordered() {
        let gw = gateway(GatewayConfig::default());
        let acc = gw
            .codec()
            .event_frame(1, protoquot_spec::EventId::new("acc"));
        let acc = acc.unwrap();
        assert_eq!(gw.call(acc), Reply::Accepted { session: 1 });
        // Session 2 starts fresh: `del` first is a service violation
        // there, while session 1 can take it.
        let del2 = gw
            .codec()
            .event_frame(2, protoquot_spec::EventId::new("del"))
            .unwrap();
        assert_eq!(
            gw.call(del2),
            Reply::Rejected {
                session: 2,
                reason: RejectReason::NotATrace,
            }
        );
        let del1 = gw
            .codec()
            .event_frame(1, protoquot_spec::EventId::new("del"))
            .unwrap();
        assert_eq!(gw.call(del1), Reply::Accepted { session: 1 });
        assert_eq!(gw.resident_sessions(), 2);
        let snap = gw.stats();
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.convictions, 1);
        assert!(snap.guard_build.dfa_states > 0, "build stats must flow");
        gw.drain();
    }

    #[test]
    fn close_then_evict_removes_the_session() {
        let cfg = GatewayConfig {
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        assert_eq!(
            gw.call(Frame::Close { session: 9 }),
            Reply::Accepted { session: 9 }
        );
        let acc = gw
            .codec()
            .event_frame(9, protoquot_spec::EventId::new("acc"))
            .unwrap();
        assert_eq!(
            gw.call(acc),
            Reply::Rejected {
                session: 9,
                reason: RejectReason::Closed,
            }
        );
        // Drain first: the worker unschedules the session only after
        // answering its last frame.
        gw.drain();
        assert_eq!(gw.evict_idle(), 1);
        assert_eq!(gw.resident_sessions(), 0);
        let snap = gw.stats();
        assert_eq!(snap.sessions_closed, 1);
    }

    #[test]
    fn draining_rejects_new_frames() {
        let gw = gateway(GatewayConfig::default());
        gw.drain();
        let acc = gw
            .codec()
            .event_frame(3, protoquot_spec::EventId::new("acc"))
            .unwrap();
        assert_eq!(
            gw.call(acc),
            Reply::Rejected {
                session: 3,
                reason: RejectReason::Draining,
            }
        );
    }

    #[test]
    fn unknown_event_indices_bounce() {
        let gw = gateway(GatewayConfig::default());
        assert_eq!(
            gw.call(Frame::Event {
                session: 4,
                event: 999
            }),
            Reply::Rejected {
                session: 4,
                reason: RejectReason::UnknownEvent,
            }
        );
        gw.drain();
    }

    /// A session that overruns its frame budget is expelled: the
    /// overrunning frame bounces with `ResourceLimit`, later frames see
    /// `Closed`, other sessions are untouched, and the idle sweep
    /// removes the expelled core.
    #[test]
    fn frame_budget_expels_abusive_sessions() {
        let cfg = GatewayConfig {
            session_frame_budget: 4,
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        let acc = |s| {
            gw.codec()
                .event_frame(s, protoquot_spec::EventId::new("acc"))
                .unwrap()
        };
        let del = |s| {
            gw.codec()
                .event_frame(s, protoquot_spec::EventId::new("del"))
                .unwrap()
        };
        for _ in 0..2 {
            assert_eq!(gw.call(acc(1)), Reply::Accepted { session: 1 });
            assert_eq!(gw.call(del(1)), Reply::Accepted { session: 1 });
        }
        assert_eq!(
            gw.call(acc(1)),
            Reply::Rejected {
                session: 1,
                reason: RejectReason::ResourceLimit,
            }
        );
        assert_eq!(
            gw.call(del(1)),
            Reply::Rejected {
                session: 1,
                reason: RejectReason::Closed,
            }
        );
        // A well-behaved session is unaffected.
        assert_eq!(gw.call(acc(2)), Reply::Accepted { session: 2 });
        let snap = gw.stats();
        assert_eq!(snap.sessions_expelled, 1);
        assert!(snap.rejects.contains(&("resource_limit", 1)));
        gw.drain();
        assert_eq!(gw.evict_idle(), 2);
        assert_eq!(gw.resident_sessions(), 0);
        // The expelled session counts as closed by the sweep, not as an
        // idle eviction: it was terminated for cause, and `expelled`
        // already attributes the cause.
        assert_eq!(gw.stats().sessions_closed, 1);
    }

    #[test]
    fn many_sessions_in_parallel_stay_consistent() {
        let cfg = GatewayConfig {
            workers: 8,
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        let codec = gw.codec().clone();
        std::thread::scope(|scope| {
            for session in 0..32u64 {
                let gw = gw.clone();
                let codec = codec.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let acc = codec.event_frame(session, protoquot_spec::EventId::new("acc"));
                        assert_eq!(gw.call(acc.unwrap()), Reply::Accepted { session });
                        let del = codec.event_frame(session, protoquot_spec::EventId::new("del"));
                        assert_eq!(gw.call(del.unwrap()), Reply::Accepted { session });
                    }
                });
            }
        });
        let snap = gw.stats();
        assert_eq!(snap.accepted, 32 * 100);
        assert_eq!(snap.convictions, 0);
        gw.drain();
    }

    /// Batched execution is observationally equivalent to per-frame
    /// execution: for every session, the reply sequence produced by
    /// `call_batch` over an interleaved multi-session batch matches
    /// what sequential `call`s produce, and the stats agree.
    #[test]
    fn call_batch_matches_per_frame_replies() {
        let batched = gateway(GatewayConfig::default());
        let oracle = gateway(GatewayConfig::default());
        let ev = |gw: &Gateway, s, name| {
            gw.codec()
                .event_frame(s, protoquot_spec::EventId::new(name))
                .unwrap()
        };
        let frames: Vec<Frame> = vec![
            ev(&batched, 1, "acc"),
            ev(&batched, 2, "del"), // fresh-session violation: convicts 2
            ev(&batched, 1, "del"),
            Frame::Stall { session: 3 },
            ev(&batched, 2, "acc"), // already convicted
            ev(&batched, 1, "acc"),
            Frame::Close { session: 3 },
        ];
        let mut per_session: HashMap<u64, Vec<Reply>> = HashMap::new();
        for &frame in &frames {
            per_session
                .entry(frame.session())
                .or_default()
                .push(oracle.call(frame));
        }
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        let mut slow_frames = Vec::new();
        batched.call_batch(&frames, &mut scratch, &mut out, &mut |f| {
            slow_frames.push(f)
        });
        assert!(
            slow_frames.is_empty(),
            "uncontended sessions must stay inline"
        );
        // Replies come back grouped by session; per-session order must
        // match the oracle's.
        let mut rdec = crate::codec::ReplyBuffer::new();
        rdec.extend(&out);
        let mut batched_per_session: HashMap<u64, Vec<Reply>> = HashMap::new();
        while let Some(reply) = rdec.next_reply().unwrap() {
            batched_per_session
                .entry(reply.session())
                .or_default()
                .push(reply);
        }
        assert_eq!(batched_per_session, per_session);
        let (a, b) = (batched.stats(), oracle.stats());
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.convictions, b.convictions);
        assert_eq!(a.rejects, b.rejects);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.batches, 1);
        assert_eq!(a.batch_frames, frames.len() as u64);
        assert_eq!(a.batch_inline, frames.len() as u64);
        assert_eq!(a.batch_slow, 0);
        batched.drain();
        oracle.drain();
    }

    /// A draining gateway bounces a whole batch with per-frame
    /// `Draining` rejects, still encoded into the caller's buffer.
    #[test]
    fn call_batch_rejects_everything_while_draining() {
        let gw = gateway(GatewayConfig::default());
        gw.drain();
        let frames = [
            Frame::Stall { session: 7 },
            Frame::Close { session: 8 },
            Frame::Stall { session: 7 },
        ];
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        gw.call_batch(&frames, &mut scratch, &mut out, &mut |_| {
            panic!("draining batches never take the slow path")
        });
        let mut rdec = crate::codec::ReplyBuffer::new();
        rdec.extend(&out);
        let mut replies = Vec::new();
        while let Some(reply) = rdec.next_reply().unwrap() {
            replies.push(reply);
        }
        let rej = |session| Reply::Rejected {
            session,
            reason: RejectReason::Draining,
        };
        assert_eq!(replies, vec![rej(7), rej(8), rej(7)]);
        // A bounced batch was never dispatched: it counts as frames and
        // rejects, not as a batch, so the batch counters still balance.
        let snap = gw.stats();
        assert_eq!(snap.frames, 3);
        assert!(snap.rejects.contains(&("draining", 3)));
        assert_eq!(snap.batch_frames, snap.batch_inline + snap.batch_slow);
        assert_eq!(snap.batches, 0);
    }

    /// A session with queued work is never processed inline — all of
    /// its frames in the batch route through the `slow` callback, in
    /// order, while other sessions in the same batch stay inline.
    #[test]
    fn call_batch_routes_contended_sessions_to_slow_path() {
        let gw = gateway(GatewayConfig::default());
        // Queue a frame on session 1 behind a responder that blocks
        // until we release it, so the session stays scheduled.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        gw.submit(
            Frame::Stall { session: 1 },
            Box::new(move |_| {
                let _ = entered_tx.send(());
                let _ = release_rx.recv();
            }),
        );
        entered_rx.recv().unwrap();
        // While the worker is parked inside session 1's responder, a
        // second frame keeps its queue non-empty.
        gw.submit(Frame::Stall { session: 1 }, Box::new(|_| {}));
        let frames = [
            Frame::Stall { session: 1 },
            Frame::Stall { session: 2 },
            Frame::Close { session: 1 },
        ];
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        let mut slow_frames = Vec::new();
        gw.call_batch(&frames, &mut scratch, &mut out, &mut |f| {
            slow_frames.push(f)
        });
        assert_eq!(
            slow_frames,
            vec![Frame::Stall { session: 1 }, Frame::Close { session: 1 }]
        );
        let mut rdec = crate::codec::ReplyBuffer::new();
        rdec.extend(&out);
        assert_eq!(
            rdec.next_reply().unwrap(),
            Some(Reply::Accepted { session: 2 })
        );
        assert_eq!(rdec.next_reply().unwrap(), None);
        let snap = gw.stats();
        assert_eq!(snap.batch_inline, 1);
        assert_eq!(snap.batch_slow, 2);
        release_tx.send(()).unwrap();
        // The caller owns slow-path forwarding; mirror what transports
        // do so the campaign accounting stays balanced.
        for frame in slow_frames {
            gw.submit(frame, Box::new(|_| {}));
        }
        gw.drain();
    }

    /// The queued worker path answers like the inline path: bursts
    /// submitted with responders (so frames queue behind a scheduled
    /// drain) produce, session by session, the replies and stats of
    /// lockstep `call`s on a second gateway.
    #[test]
    fn submit_bursts_match_lockstep_calls() {
        let queued = gateway(GatewayConfig::default());
        let lockstep = gateway(GatewayConfig::default());
        let script: &[(&str, u64)] = &[
            ("acc", 1),
            ("del", 1),
            ("del", 1), // not-a-trace: convicts session 1
            ("acc", 1), // already convicted
            ("del", 2), // service violation path on a fresh session
            ("acc", 3),
            ("del", 3),
            ("acc", 3),
        ];
        let frame = |gw: &Gateway, name: &str, session| {
            gw.codec()
                .event_frame(session, protoquot_spec::EventId::new(name))
                .unwrap()
        };
        let (tx, rx) = mpsc::channel();
        for &(name, session) in script {
            let tx = tx.clone();
            queued.submit(
                frame(&queued, name, session),
                Box::new(move |reply| {
                    let _ = tx.send(reply);
                }),
            );
        }
        drop(tx);
        queued.drain();
        let mut got: HashMap<u64, Vec<Reply>> = HashMap::new();
        for reply in rx {
            got.entry(reply.session()).or_default().push(reply);
        }
        let mut want: HashMap<u64, Vec<Reply>> = HashMap::new();
        for &(name, session) in script {
            let reply = lockstep.call(frame(&lockstep, name, session));
            want.entry(session).or_default().push(reply);
        }
        lockstep.drain();
        assert_eq!(got, want);
        let (a, b) = (queued.stats(), lockstep.stats());
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.convictions, b.convictions);
        assert_eq!(a.rejects, b.rejects);
        assert_eq!(a.per_event, b.per_event);
    }

    /// A behaviourally identical implementation with renamed states:
    /// same alphabet (same event table, same wire identity), distinct
    /// compiled program — the shape of a legitimate converter rev.
    fn relay_system_v2() -> (Spec, Spec) {
        let mut b = SpecBuilder::new("impl-v2");
        let t0 = b.state("t0");
        let t1 = b.state("t1");
        b.ext(t0, "acc", t1);
        b.ext(t1, "del", t0);
        let implementation = b.build().unwrap();
        let (_, service) = relay_system();
        (implementation, service)
    }

    #[test]
    fn hello_negotiation_acks_match_and_rejects_mismatch() {
        let gw = gateway(GatewayConfig::default());
        let hash = gw.table_hash();
        assert_ne!(hash, 0);
        // Matching hash, unpinned version: ack with our identity.
        assert_eq!(
            gw.call(Frame::Hello {
                session: 0,
                table_hash: hash,
                version: 0,
            }),
            Reply::HelloAck {
                session: 0,
                table_hash: hash,
                version: 1,
            }
        );
        // Pinning the active version also acks.
        assert_eq!(
            gw.call(Frame::Hello {
                session: 0,
                table_hash: hash,
                version: 1,
            }),
            Reply::HelloAck {
                session: 0,
                table_hash: hash,
                version: 1,
            }
        );
        // A peer speaking a different event table is turned away.
        assert_eq!(
            gw.call(Frame::Hello {
                session: 0,
                table_hash: hash ^ 1,
                version: 0,
            }),
            Reply::Rejected {
                session: 0,
                reason: RejectReason::VersionMismatch,
            }
        );
        // So is one pinned to a version we no longer (or never) serve.
        assert_eq!(
            gw.call(Frame::Hello {
                session: 0,
                table_hash: hash,
                version: 7,
            }),
            Reply::Rejected {
                session: 0,
                reason: RejectReason::VersionMismatch,
            }
        );
        // Negotiation is connection-level: no session state was made.
        assert_eq!(gw.resident_sessions(), 0);
        let snap = gw.stats();
        assert_eq!(snap.sessions_opened, 0);
        assert!(snap.rejects.contains(&("version_mismatch", 2)));
        assert_eq!(snap.table_hash, hash);
        assert_eq!(snap.active_version, 1);
        gw.drain();
    }

    #[test]
    fn hot_swap_binds_new_sessions_and_drains_old_before_retiring() {
        let cfg = GatewayConfig {
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        let acc = |s| {
            gw.codec()
                .event_frame(s, protoquot_spec::EventId::new("acc"))
                .unwrap()
        };
        // Session 1 opens on version 1.
        assert_eq!(gw.call(acc(1)), Reply::Accepted { session: 1 });
        // Swap in the rev: same event table, new program, version 2.
        let (impl2, service) = relay_system_v2();
        let prog2 = Arc::new(GuardProgram::new(&[&impl2], &service).unwrap());
        gw.swap(2, Arc::clone(&prog2)).unwrap();
        assert_eq!(gw.active_version(), 2);
        // Session 1 keeps draining on v1; session 2 binds v2.
        let del1 = gw
            .codec()
            .event_frame(1, protoquot_spec::EventId::new("del"))
            .unwrap();
        assert_eq!(gw.call(del1), Reply::Accepted { session: 1 });
        assert_eq!(gw.call(acc(2)), Reply::Accepted { session: 2 });
        let snap = gw.stats();
        assert_eq!(snap.active_version, 2);
        assert_eq!(snap.swaps, 1);
        assert_eq!(snap.version_sessions, vec![(1, 1), (2, 1)]);
        // A third version is refused while v1 still drains (N-1).
        let err = gw.swap(3, Arc::clone(&prog2)).unwrap_err();
        assert!(matches!(err, GatewayError::Swap(_)), "{err}");
        // Stale or duplicate version numbers are refused outright.
        assert!(gw.swap(2, Arc::clone(&prog2)).is_err());
        // A program speaking a different event table can never go live.
        let mut b = SpecBuilder::new("other");
        let s0 = b.state("s0");
        b.ext(s0, "foo", s0);
        let other = b.build().unwrap();
        let mut b = SpecBuilder::new("other-svc");
        let u0 = b.state("u0");
        b.ext(u0, "foo", u0);
        let other_svc = b.build().unwrap();
        let alien = Arc::new(GuardProgram::new(&[&other], &other_svc).unwrap());
        assert!(matches!(gw.swap(3, alien), Err(GatewayError::Swap(_))));
        // Drain v1: close its session, sweep it out — v1 retires and
        // the next swap is admitted.
        assert_eq!(
            gw.call(Frame::Close { session: 1 }),
            Reply::Accepted { session: 1 }
        );
        gw.drain();
        gw.evict_idle();
        let snap = gw.stats();
        assert_eq!(snap.versions_retired, 1);
        // The zero-timeout sweep also evicted session 2, so no version
        // holds sessions — but the *active* version never retires.
        assert_eq!(snap.version_sessions, vec![]);
        gw.swap(3, prog2).unwrap();
        assert_eq!(gw.active_version(), 3);
    }
}
