//! The session-multiplexed relay gateway.
//!
//! A [`Gateway`] owns the compiled [`GuardProgram`] new sessions bind
//! (plus, after a hot-swap, the previous version still draining) and
//! the gateway-wide counters. Sessions live in [`SessionTable`]s, one
//! per connection: a session is keyed by `(connection, id)`, so a frame
//! can reach only the sessions opened on its own connection, and the
//! same id on two connections names two unrelated sessions.
//!
//! Every transport dispatches through [`Gateway::call_batch`] on its
//! connection's table: the frames of a readiness batch are processed
//! in arrival order on the caller's thread — one hash lookup per frame
//! into a session stored inline in the table, one guard-DFA step —
//! and the replies are encoded straight into the caller's buffer. The
//! per-frame [`Gateway::call`] is a one-frame batch; `LoopbackConn`
//! uses it as the lockstep oracle of the batched carriers.
//!
//! Each table sits behind one mutex, taken once per batch by the
//! thread that owns the connection, so it is uncontended on the
//! serving path. Through it [`Gateway::evict_idle`],
//! [`Gateway::resident_sessions`] and the per-version drain accounting
//! behind [`Gateway::swap`] see every session from any thread.
//!
//! Lifecycle:
//!
//! * [`Gateway::evict_idle`] sweeps sessions idle past the configured
//!   timeout, closed ones included;
//! * when a connection ends, its table is dropped and its sessions go
//!   with it, accounted as the sweep accounts them (closed if closed or
//!   expelled, evicted otherwise);
//! * [`Gateway::drain`] stops admitting frames
//!   ([`RejectReason::Draining`]) — graceful shutdown.
//!
//! Lock order: a session table, the active-version lock, the
//! previous-version slot, the stats' version map — any thread takes
//! them in that order. [`Gateway::swap`] takes no table lock, and the
//! gateway's list of tables is never held while a table is locked.

use crate::codec::{encode_reply, table_hash, Frame, RejectReason, Reply, WireCodec, WireError};
use crate::guard::GuardProgram;
use crate::session::{lock, Session, Sessions, SharedSessions};
pub use crate::session::{BatchScratch, SessionTable};
use crate::stats::{BatchTally, RuntimeStats, StatsSnapshot};
use protoquot_spec::{Spec, SpecError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

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
    /// Ignored. Every frame is processed on the thread that dispatches
    /// its connection; the field stays so that callers which still set
    /// it keep compiling.
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

/// The programs live sessions can be bound to, read once per batch: the
/// active version and the previous one still draining, if any. Every
/// live session's version is one of the two: a version with sessions is
/// never retired, and a second swap waits for the previous version to
/// drain.
pub(crate) struct Programs {
    active: (u32, Arc<GuardProgram>),
    prev: Option<(u32, Arc<GuardProgram>)>,
}

impl Programs {
    /// The program of converter version `version`.
    pub(crate) fn of(&self, version: u32) -> &GuardProgram {
        match &self.prev {
            Some((v, prog)) if *v == version => prog,
            _ => &self.active.1,
        }
    }
}

pub(crate) struct GatewayInner {
    /// The active converter: `(version, program)`. Read once per batch
    /// and once per session open.
    active: RwLock<(u32, Arc<GuardProgram>)>,
    /// The N-1 version still draining sessions, if any. Retired (and
    /// cleared) when its per-version session count reaches zero.
    prev: Mutex<Option<(u32, Arc<GuardProgram>)>>,
    /// FNV-1a hash of the event table — the wire identity every
    /// admissible converter version must share.
    table_hash: u64,
    codec: WireCodec,
    stats: RuntimeStats,
    /// The table of every live connection, by table id.
    tables: Mutex<HashMap<u64, SharedSessions>>,
    next_table: AtomicU64,
    draining: AtomicBool,
    cfg: GatewayConfig,
    /// Origin of the session activity clock.
    started: Instant,
}

impl GatewayInner {
    /// Registers a connection's session table with the gateway, so the
    /// sweep and the stats reach its sessions; returns the table's id.
    pub(crate) fn register(&self, sessions: &SharedSessions) -> u64 {
        let id = self.next_table.fetch_add(1, Ordering::Relaxed);
        lock(&self.tables).insert(id, Arc::clone(sessions));
        id
    }

    /// A connection ended: forgets its table and ends its sessions.
    pub(crate) fn release(&self, id: u64, sessions: &SharedSessions) {
        let gone = std::mem::take(&mut lock(sessions).map);
        lock(&self.tables).remove(&id);
        for session in gone.values() {
            self.note_removed(session.closed, session.version);
        }
    }

    /// Wire events in the gateway's event table.
    pub(crate) fn num_events(&self) -> usize {
        self.codec.table().len()
    }

    /// Frames (events + stalls) one session may send; 0 is unbounded.
    pub(crate) fn frame_budget(&self) -> u64 {
        self.cfg.session_frame_budget
    }

    /// Nanoseconds since the gateway started: the activity clock the
    /// idle sweep compares against.
    fn clock(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Answers a hello: ack with our identity when the peer's table
    /// hash matches (and its pinned version, if any, is the active
    /// one), otherwise a `VersionMismatch` reject. Counts the verdict
    /// (an ack is a control frame) but not the frame, and creates or
    /// touches no session state.
    pub(crate) fn hello_reply(&self, session: u64, peer_hash: u64, peer_version: u32) -> Reply {
        let active_version = self.active.read().unwrap().0;
        if peer_hash == self.table_hash && (peer_version == 0 || peer_version == active_version) {
            self.stats.note_control();
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

    /// Accounts a session removed from its table: closed if it was
    /// closed or expelled, evicted otherwise. When that drains the
    /// previous (non-active) version to zero sessions, retires it —
    /// dropping the last gateway reference to its program.
    fn note_removed(&self, closed: bool, version: u32) {
        if closed {
            self.stats.note_close();
        } else {
            self.stats.note_evict();
        }
        if self.stats.note_version_close(version) == 0 {
            let mut prev = lock(&self.prev);
            if prev.as_ref().is_some_and(|(v, _)| *v == version) {
                *prev = None;
                self.stats.note_version_retired();
            }
        }
    }

    /// The active and the draining program.
    fn programs(&self) -> Programs {
        let active = self.active.read().unwrap();
        Programs {
            active: active.clone(),
            prev: lock(&self.prev).clone(),
        }
    }

    /// A new session bound to the active program. The version is
    /// counted while the active-version lock is held, so a concurrent
    /// [`Gateway::swap`] sees it; `programs` is refreshed when a swap
    /// landed since it was read.
    pub(crate) fn open_session(
        &self,
        programs: &mut Programs,
        now: u64,
        t: &mut BatchTally,
    ) -> Session {
        let (version, guard) = {
            let active = self.active.read().unwrap();
            self.stats.note_version_open(active.0);
            (active.0, active.1.start())
        };
        if version != programs.active.0 {
            *programs = self.programs();
        }
        t.opened += 1;
        Session {
            guard,
            closed: false,
            last_active: now,
            frames_seen: 0,
            version,
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
    /// starts a gateway.
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
        Ok(Gateway {
            inner: Arc::new(GatewayInner {
                active: RwLock::new((1, prog)),
                prev: Mutex::new(None),
                table_hash: hash,
                codec,
                stats,
                tables: Mutex::new(HashMap::new()),
                next_table: AtomicU64::new(0),
                draining: AtomicBool::new(false),
                cfg,
                started: Instant::now(),
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
        // removal takes prev only.
        let mut active = inner.active.write().unwrap();
        if version <= active.0 {
            return Err(GatewayError::Swap(format!(
                "version {version} is not newer than active version {}",
                active.0
            )));
        }
        let mut prev = lock(&inner.prev);
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

    /// Runs `frames` in arrival order against `table`'s sessions,
    /// handing each reply to `emit`. The table's lock is held for the
    /// whole batch and the batch's counts are added to the shared
    /// stats before it is released, so a concurrent sweep never sees a
    /// session its counters do not.
    fn dispatch(&self, frames: &[Frame], table: &mut SessionTable, mut emit: impl FnMut(&Reply)) {
        if frames.is_empty() {
            return;
        }
        let inner = &self.inner;
        if inner.draining.load(Ordering::Acquire) {
            for frame in frames {
                emit(&self.refuse(frame.session(), RejectReason::Draining));
            }
            return;
        }
        let (sessions, t, cap) = table.bind(inner);
        let now = inner.clock();
        let mut programs = inner.programs();
        let mut sessions = lock(sessions);
        for &frame in frames {
            emit(&sessions.apply(inner, &mut programs, frame, cap, now, t));
        }
        t.frames += frames.len() as u64;
        inner.stats.note_batch(frames.len());
        inner.stats.absorb(t);
    }

    /// Processes one transport batch — every frame decoded from one
    /// readiness chunk of one connection — against that connection's
    /// `table`, in arrival order: one hash lookup and one guard-DFA
    /// step per frame, replies encoded straight into `out` (the
    /// caller's reusable outbound buffer) in the order of their frames.
    ///
    /// `slow` is never called: no frame is ever queued. It stays so
    /// that existing callers keep compiling. A batch a draining gateway
    /// bounces whole counts its frames and rejects, not as a batch.
    pub fn call_batch(
        &self,
        frames: &[Frame],
        table: &mut SessionTable,
        out: &mut Vec<u8>,
        _slow: &mut dyn FnMut(Frame),
    ) {
        self.dispatch(frames, table, |reply| encode_reply(reply, out));
    }

    /// Processes one frame against `table` and returns its reply: a
    /// one-frame [`Gateway::call_batch`] without the encoding.
    pub fn call(&self, table: &mut SessionTable, frame: Frame) -> Reply {
        let mut answer = None;
        self.dispatch(std::slice::from_ref(&frame), table, |reply| {
            answer = Some(*reply)
        });
        answer.expect("dispatch answers every frame")
    }

    /// Removes sessions idle longer than the configured timeout, on
    /// every connection. Returns how many were removed.
    pub fn evict_idle(&self) -> usize {
        let inner = &self.inner;
        let tables: Vec<SharedSessions> = lock(&inner.tables).values().cloned().collect();
        let now = inner.clock();
        let timeout = u64::try_from(inner.cfg.idle_timeout.as_nanos()).unwrap_or(u64::MAX);
        let mut gone = Vec::new();
        for table in &tables {
            let mut table = lock(table);
            let Sessions { map, closed } = &mut *table;
            map.retain(|_, s| {
                let stale = now.saturating_sub(s.last_active) >= timeout;
                if stale {
                    *closed -= usize::from(s.closed);
                    gone.push((s.closed, s.version));
                }
                !stale
            });
        }
        // Version accounting outside the table locks: draining the
        // previous version to zero retires it here.
        for &(closed, version) in &gone {
            inner.note_removed(closed, version);
        }
        gone.len()
    }

    /// Stops admitting frames: every later frame is answered
    /// [`RejectReason::Draining`]. Frames are processed on their
    /// dispatching thread, so nothing is left queued; a batch already
    /// past the check completes.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
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

    /// Accounts a frame refused without reaching a session — by a
    /// draining gateway, or by a transport whose peer skipped a
    /// required hello — and builds the rejection reply.
    pub(crate) fn refuse(&self, session: u64, reason: RejectReason) -> Reply {
        self.inner.stats.note_frame();
        self.inner.stats.note_reject(reason);
        Reply::Rejected { session, reason }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot(self.inner.codec.table())
    }

    /// Sessions currently resident, over every connection's table.
    pub fn resident_sessions(&self) -> usize {
        let tables: Vec<SharedSessions> = lock(&self.inner.tables).values().cloned().collect();
        tables.iter().map(|t| lock(t).map.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ReplyBuffer;
    use protoquot_spec::{EventId, SpecBuilder};

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

    fn ev(gw: &Gateway, session: u64, name: &str) -> Frame {
        gw.codec().event_frame(session, EventId::new(name)).unwrap()
    }

    fn rejected(session: u64, reason: RejectReason) -> Reply {
        Reply::Rejected { session, reason }
    }

    /// Decodes every reply in `out`.
    fn decode(out: &[u8]) -> Vec<Reply> {
        let mut rdec = ReplyBuffer::new();
        rdec.extend(out);
        let mut replies = Vec::new();
        while let Some(reply) = rdec.next_reply().unwrap() {
            replies.push(reply);
        }
        assert!(!rdec.is_mid_message(), "reply stream torn");
        replies
    }

    /// `frames == accepted + Σrejects + control_frames`.
    fn assert_frames_conserved(snap: &StatsSnapshot) {
        let rejects: u64 = snap.rejects.iter().map(|&(_, n)| n).sum();
        assert_eq!(
            snap.frames,
            snap.accepted + rejects + snap.control_frames,
            "{snap}"
        );
    }

    #[test]
    fn sessions_are_isolated_and_ordered() {
        let gw = gateway(GatewayConfig::default());
        let mut table = SessionTable::new();
        assert_eq!(
            gw.call(&mut table, ev(&gw, 1, "acc")),
            Reply::Accepted { session: 1 }
        );
        // Session 2 starts fresh: `del` first is a service violation
        // there, while session 1 can take it.
        assert_eq!(
            gw.call(&mut table, ev(&gw, 2, "del")),
            rejected(2, RejectReason::NotATrace)
        );
        assert_eq!(
            gw.call(&mut table, ev(&gw, 1, "del")),
            Reply::Accepted { session: 1 }
        );
        assert_eq!(gw.resident_sessions(), 2);
        let snap = gw.stats();
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.convictions, 1);
        assert!(snap.guard_build.dfa_states > 0, "build stats must flow");
        assert_frames_conserved(&snap);
    }

    /// The same id on two tables names two sessions: what one
    /// connection sends, closes or gets convicted for never reaches
    /// the other's session, and a table's sessions end with it.
    #[test]
    fn tables_with_overlapping_ids_are_isolated() {
        let gw = gateway(GatewayConfig::default());
        let (mut a, mut b) = (SessionTable::new(), SessionTable::new());
        assert_eq!(
            gw.call(&mut a, ev(&gw, 7, "acc")),
            Reply::Accepted { session: 7 }
        );
        // B's `acc`, `acc` convicts B's session 7 on its second frame;
        // B then closes it.
        assert_eq!(
            gw.call(&mut b, ev(&gw, 7, "acc")),
            Reply::Accepted { session: 7 }
        );
        assert_eq!(
            gw.call(&mut b, ev(&gw, 7, "acc")),
            rejected(7, RejectReason::NotATrace)
        );
        assert_eq!(
            gw.call(&mut b, Frame::Close { session: 7 }),
            Reply::Accepted { session: 7 }
        );
        // A's session 7 is where A left it.
        assert_eq!(
            gw.call(&mut a, ev(&gw, 7, "del")),
            Reply::Accepted { session: 7 }
        );
        assert_eq!(
            gw.call(&mut a, ev(&gw, 7, "acc")),
            Reply::Accepted { session: 7 }
        );
        assert_eq!(gw.resident_sessions(), 2);
        drop(b);
        assert_eq!(gw.resident_sessions(), 1);
        let snap = gw.stats();
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.sessions_closed, 1);
        assert_eq!(snap.sessions_active, 1);
        drop(a);
        let snap = gw.stats();
        assert_eq!(snap.sessions_evicted, 1, "A's open session ends with A");
        assert_eq!(snap.sessions_active, 0);
        assert_eq!(gw.resident_sessions(), 0);
        assert_frames_conserved(&snap);
    }

    #[test]
    fn close_then_evict_removes_the_session() {
        let cfg = GatewayConfig {
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        let mut table = SessionTable::new();
        assert_eq!(
            gw.call(&mut table, ev(&gw, 9, "acc")),
            Reply::Accepted { session: 9 }
        );
        assert_eq!(
            gw.call(&mut table, Frame::Close { session: 9 }),
            Reply::Accepted { session: 9 }
        );
        assert_eq!(
            gw.call(&mut table, ev(&gw, 9, "del")),
            rejected(9, RejectReason::Closed)
        );
        assert_eq!(gw.evict_idle(), 1);
        assert_eq!(gw.resident_sessions(), 0);
        let snap = gw.stats();
        assert_eq!(snap.sessions_closed, 1);
        assert_eq!(snap.control_frames, 1);
        assert_frames_conserved(&snap);
    }

    #[test]
    fn draining_rejects_new_frames() {
        let gw = gateway(GatewayConfig::default());
        gw.drain();
        let mut table = SessionTable::new();
        assert_eq!(
            gw.call(&mut table, ev(&gw, 3, "acc")),
            rejected(3, RejectReason::Draining)
        );
    }

    #[test]
    fn unknown_event_indices_bounce() {
        let gw = gateway(GatewayConfig::default());
        let mut table = SessionTable::new();
        assert_eq!(
            gw.call(
                &mut table,
                Frame::Event {
                    session: 4,
                    event: 999
                }
            ),
            rejected(4, RejectReason::UnknownEvent)
        );
    }

    /// A session that overruns its frame budget is expelled: the
    /// overrunning frame bounces with `ResourceLimit`, later frames see
    /// `Closed`, other sessions are untouched, and the idle sweep
    /// removes the expelled session.
    #[test]
    fn frame_budget_expels_abusive_sessions() {
        let cfg = GatewayConfig {
            session_frame_budget: 4,
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        let mut table = SessionTable::new();
        for _ in 0..2 {
            assert_eq!(
                gw.call(&mut table, ev(&gw, 1, "acc")),
                Reply::Accepted { session: 1 }
            );
            assert_eq!(
                gw.call(&mut table, ev(&gw, 1, "del")),
                Reply::Accepted { session: 1 }
            );
        }
        assert_eq!(
            gw.call(&mut table, ev(&gw, 1, "acc")),
            rejected(1, RejectReason::ResourceLimit)
        );
        assert_eq!(
            gw.call(&mut table, ev(&gw, 1, "del")),
            rejected(1, RejectReason::Closed)
        );
        // A well-behaved session is unaffected.
        assert_eq!(
            gw.call(&mut table, ev(&gw, 2, "acc")),
            Reply::Accepted { session: 2 }
        );
        let snap = gw.stats();
        assert_eq!(snap.sessions_expelled, 1);
        assert!(snap.rejects.contains(&("resource_limit", 1)));
        assert_eq!(gw.evict_idle(), 2);
        assert_eq!(gw.resident_sessions(), 0);
        // The expelled session counts as closed by the sweep, not as an
        // idle eviction: it was terminated for cause, and `expelled`
        // already attributes the cause.
        assert_eq!(gw.stats().sessions_closed, 1);
    }

    /// The per-connection cap counts open sessions: past it a frame
    /// that would open one more bounces without creating state, a
    /// `Close` always passes, and closing a session frees its slot.
    #[test]
    fn session_cap_counts_open_sessions() {
        let gw = gateway(GatewayConfig::default());
        let mut table = SessionTable::with_session_cap(2);
        for s in [1, 2] {
            assert_eq!(
                gw.call(&mut table, ev(&gw, s, "acc")),
                Reply::Accepted { session: s }
            );
        }
        assert_eq!(
            gw.call(&mut table, Frame::Stall { session: 3 }),
            rejected(3, RejectReason::ResourceLimit)
        );
        // Known sessions stay reachable at the cap.
        assert_eq!(
            gw.call(&mut table, ev(&gw, 1, "del")),
            Reply::Accepted { session: 1 }
        );
        // A close of a never-opened id is answered, opens nothing and
        // takes no slot: the id is still a fresh session over the cap.
        assert_eq!(
            gw.call(&mut table, Frame::Close { session: 4 }),
            Reply::Accepted { session: 4 }
        );
        assert_eq!(
            gw.call(&mut table, ev(&gw, 4, "acc")),
            rejected(4, RejectReason::ResourceLimit)
        );
        assert_eq!(
            gw.call(&mut table, Frame::Close { session: 2 }),
            Reply::Accepted { session: 2 }
        );
        assert_eq!(
            gw.call(&mut table, ev(&gw, 3, "acc")),
            Reply::Accepted { session: 3 }
        );
        assert_eq!(
            gw.call(&mut table, ev(&gw, 5, "acc")),
            rejected(5, RejectReason::ResourceLimit)
        );
        let snap = gw.stats();
        assert_eq!(snap.sessions_opened, 3);
        assert!(snap.rejects.contains(&("resource_limit", 3)));
        assert_frames_conserved(&snap);
    }

    #[test]
    fn many_connections_in_parallel_stay_consistent() {
        let gw = gateway(GatewayConfig::default());
        std::thread::scope(|scope| {
            for session in 0..32u64 {
                let gw = gw.clone();
                scope.spawn(move || {
                    let mut table = SessionTable::new();
                    for _ in 0..50 {
                        let acc = ev(&gw, session, "acc");
                        assert_eq!(gw.call(&mut table, acc), Reply::Accepted { session });
                        let del = ev(&gw, session, "del");
                        assert_eq!(gw.call(&mut table, del), Reply::Accepted { session });
                    }
                    // Every thread also churns an idle sweep.
                    gw.evict_idle();
                });
            }
        });
        let snap = gw.stats();
        assert_eq!(snap.accepted, 32 * 100);
        assert_eq!(snap.convictions, 0);
        assert_eq!(snap.sessions_opened, 32);
        assert_eq!(snap.sessions_evicted, 32, "every table ended its session");
        assert_eq!(gw.resident_sessions(), 0);
    }

    /// Batched execution is per-frame execution: `call_batch` over an
    /// interleaved multi-session batch answers frame for frame, in
    /// arrival order, what sequential `call`s on a second gateway
    /// answer, and the stats agree.
    #[test]
    fn call_batch_matches_per_frame_replies() {
        let batched = gateway(GatewayConfig::default());
        let oracle = gateway(GatewayConfig::default());
        let frames: Vec<Frame> = vec![
            ev(&batched, 1, "acc"),
            ev(&batched, 2, "del"), // fresh-session violation: convicts 2
            ev(&batched, 1, "del"),
            Frame::Stall { session: 3 },
            ev(&batched, 2, "acc"), // already convicted
            ev(&batched, 1, "acc"),
            Frame::Close { session: 3 },
        ];
        let mut oracle_table = SessionTable::new();
        let want: Vec<Reply> = frames
            .iter()
            .map(|&f| oracle.call(&mut oracle_table, f))
            .collect();
        let mut table = SessionTable::new();
        let mut out = Vec::new();
        batched.call_batch(&frames, &mut table, &mut out, &mut |_| {
            panic!("no frame is ever handed to the slow path")
        });
        assert_eq!(decode(&out), want);
        let (a, b) = (batched.stats(), oracle.stats());
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.convictions, b.convictions);
        assert_eq!(a.rejects, b.rejects);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.control_frames, b.control_frames);
        assert_eq!(a.per_event, b.per_event);
        assert_eq!(a.batches, 1);
        assert_eq!(a.batch_frames, frames.len() as u64);
        assert_eq!(b.batches, frames.len() as u64, "a call is a batch of one");
        assert_frames_conserved(&a);
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
        let mut table = SessionTable::new();
        let mut out = Vec::new();
        gw.call_batch(&frames, &mut table, &mut out, &mut |_| {
            panic!("no frame is ever handed to the slow path")
        });
        let rej = |session| rejected(session, RejectReason::Draining);
        assert_eq!(decode(&out), vec![rej(7), rej(8), rej(7)]);
        // A bounced batch was never dispatched: it counts as frames and
        // rejects, not as a batch.
        let snap = gw.stats();
        assert_eq!(snap.frames, 3);
        assert!(snap.rejects.contains(&("draining", 3)));
        assert_eq!(snap.batches, 0);
        assert_eq!(snap.sessions_opened, 0);
        assert_frames_conserved(&snap);
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
        let mut table = SessionTable::new();
        let mut hello = |table_hash, version| {
            gw.call(
                &mut table,
                Frame::Hello {
                    session: 0,
                    table_hash,
                    version,
                },
            )
        };
        let ack = Reply::HelloAck {
            session: 0,
            table_hash: hash,
            version: 1,
        };
        // Matching hash, unpinned version: ack with our identity.
        assert_eq!(hello(hash, 0), ack);
        // Pinning the active version also acks.
        assert_eq!(hello(hash, 1), ack);
        // A peer speaking a different event table is turned away.
        assert_eq!(
            hello(hash ^ 1, 0),
            rejected(0, RejectReason::VersionMismatch)
        );
        // So is one pinned to a version we no longer (or never) serve.
        assert_eq!(hello(hash, 7), rejected(0, RejectReason::VersionMismatch));
        // Negotiation is connection-level: no session state was made.
        assert_eq!(gw.resident_sessions(), 0);
        let snap = gw.stats();
        assert_eq!(snap.sessions_opened, 0);
        assert!(snap.rejects.contains(&("version_mismatch", 2)));
        assert_eq!(snap.control_frames, 2, "acks are control frames");
        assert_eq!(snap.table_hash, hash);
        assert_eq!(snap.active_version, 1);
        assert_frames_conserved(&snap);
    }

    #[test]
    fn hot_swap_binds_new_sessions_and_drains_old_before_retiring() {
        let cfg = GatewayConfig {
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        let mut table = SessionTable::new();
        // Session 1 opens on version 1.
        assert_eq!(
            gw.call(&mut table, ev(&gw, 1, "acc")),
            Reply::Accepted { session: 1 }
        );
        // Swap in the rev: same event table, new program, version 2.
        let (impl2, service) = relay_system_v2();
        let prog2 = Arc::new(GuardProgram::new(&[&impl2], &service).unwrap());
        gw.swap(2, Arc::clone(&prog2)).unwrap();
        assert_eq!(gw.active_version(), 2);
        // Session 1 keeps draining on v1; session 2 binds v2.
        assert_eq!(
            gw.call(&mut table, ev(&gw, 1, "del")),
            Reply::Accepted { session: 1 }
        );
        assert_eq!(
            gw.call(&mut table, ev(&gw, 2, "acc")),
            Reply::Accepted { session: 2 }
        );
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
            gw.call(&mut table, Frame::Close { session: 1 }),
            Reply::Accepted { session: 1 }
        );
        gw.evict_idle();
        let snap = gw.stats();
        assert_eq!(snap.versions_retired, 1);
        // The zero-timeout sweep also evicted session 2, so no version
        // holds sessions — but the *active* version never retires.
        assert_eq!(snap.version_sessions, vec![]);
        gw.swap(3, prog2).unwrap();
        assert_eq!(gw.active_version(), 3);
    }

    /// A connection that ends takes its sessions with it, so the N-1
    /// version they held drains and retires without an idle sweep.
    #[test]
    fn ending_a_connection_drains_its_sessions_version() {
        let gw = gateway(GatewayConfig::default());
        let mut table = SessionTable::new();
        assert_eq!(
            gw.call(&mut table, ev(&gw, 1, "acc")),
            Reply::Accepted { session: 1 }
        );
        let (impl2, service) = relay_system_v2();
        let prog2 = Arc::new(GuardProgram::new(&[&impl2], &service).unwrap());
        gw.swap(2, Arc::clone(&prog2)).unwrap();
        assert_eq!(gw.stats().version_sessions, vec![(1, 1)]);
        drop(table);
        let snap = gw.stats();
        assert_eq!(snap.versions_retired, 1);
        assert_eq!(snap.version_sessions, vec![]);
        assert_eq!(snap.sessions_evicted, 1);
        gw.swap(3, prog2).unwrap();
    }
}
