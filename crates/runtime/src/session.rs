//! The sessions of one connection, and what a frame does to them.
//!
//! A session is named by the pair (connection, id): each connection
//! owns one [`SessionTable`], and the id in a frame header is looked up
//! only in the table of the connection that carried the frame. A table
//! binds to its [`Gateway`](crate::Gateway) at first use and registers
//! there, so the idle sweep, the stats and the per-version drain
//! accounting reach its sessions from any thread; dropping the table —
//! the connection ended — ends its sessions.
//!
//! Sessions are stored inline in the table's hash map. Ids come from
//! the peer, so the map keeps std's SipHash under a per-table random
//! key: a peer cannot aim collisions at it. The gateway processes a
//! connection's frames under the table's one mutex, taken once per
//! batch by the thread that serves the connection.

use crate::codec::{Frame, RejectReason, Reply};
use crate::gateway::{GatewayInner, Programs};
use crate::guard::GuardState;
use crate::stats::BatchTally;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One session's state. The guard's program is the one of the
/// session's converter version, held by the gateway.
pub(crate) struct Session {
    pub(crate) guard: GuardState,
    /// Closed by a `Close` frame or expelled by the frame budget; later
    /// frames bounce with `closed`.
    pub(crate) closed: bool,
    /// When the session last saw a frame, in nanoseconds of the
    /// gateway's activity clock.
    pub(crate) last_active: u64,
    /// Event + stall frames processed, charged against the gateway's
    /// per-session frame budget.
    pub(crate) frames_seen: u64,
    /// Converter version this session was bound to at first contact.
    /// Fixed for the session's lifetime: a hot-swap never rebinds a
    /// live session, it only changes what *new* sessions get.
    pub(crate) version: u32,
}

/// The sessions of one connection, by the id in the frame header.
#[derive(Default)]
pub(crate) struct Sessions {
    pub(crate) map: HashMap<u64, Session>,
    /// How many resident sessions are closed (awaiting removal); the
    /// rest count against the per-connection session cap.
    pub(crate) closed: usize,
}

impl Sessions {
    /// Applies one frame to its session, opening the session on first
    /// contact unless that would pass `cap` open sessions, and returns
    /// the reply. `programs` holds the converter versions the sessions
    /// are bound to; `now` stamps the session's activity.
    pub(crate) fn apply(
        &mut self,
        gateway: &GatewayInner,
        programs: &mut Programs,
        frame: Frame,
        cap: usize,
        now: u64,
        t: &mut BatchTally,
    ) -> Reply {
        let id = frame.session();
        // A hello that reaches dispatch (a loopback carrier) is still
        // connection-level: answered from the gateway's wire identity,
        // creating no session, exempt from the closed flag and budget.
        if let Frame::Hello {
            table_hash,
            version,
            ..
        } = frame
        {
            return gateway.hello_reply(id, table_hash, version);
        }
        let open = self.map.len() - self.closed;
        let session = match self.map.entry(id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                // A `Close` on an id this connection holds no session
                // under has nothing to release, so it opens nothing:
                // otherwise fresh-id closes would grow the table past
                // the cap, since closed sessions do not count against it.
                if let Frame::Close { .. } = frame {
                    t.control += 1;
                    return Reply::Accepted { session: id };
                }
                if cap > 0 && open >= cap {
                    return t.reject(id, RejectReason::ResourceLimit);
                }
                e.insert(gateway.open_session(programs, now, t))
            }
        };
        session.last_active = now;
        if session.closed {
            return t.reject(id, RejectReason::Closed);
        }
        // Frame budget: an event/stall stream past the configured cap
        // expels the session — convict-or-evict, never serve an abusive
        // session forever. `Close` is always admitted (it releases state).
        if !matches!(frame, Frame::Close { .. }) {
            let budget = gateway.frame_budget();
            session.frames_seen += 1;
            if budget > 0 && session.frames_seen > budget {
                session.closed = true;
                self.closed += 1;
                t.expelled += 1;
                return t.reject(id, RejectReason::ResourceLimit);
            }
        }
        let prog = programs.of(session.version);
        let already = session.guard.convicted().is_some();
        let verdict = match frame {
            Frame::Event { event, .. } => {
                if usize::from(event) >= gateway.num_events() {
                    return t.reject(id, RejectReason::UnknownEvent);
                }
                prog.observe(&mut session.guard, event)
                    .map(|()| t.accept(event))
            }
            Frame::Stall { .. } => prog
                .attest_stall(&mut session.guard)
                .map(|()| t.control += 1),
            Frame::Close { .. } => {
                session.closed = true;
                self.closed += 1;
                t.control += 1;
                Ok(())
            }
            Frame::Hello { .. } => unreachable!("hello answered before session lookup"),
        };
        match verdict {
            Ok(()) => Reply::Accepted { session: id },
            Err(_) if already => t.reject(id, RejectReason::Convicted),
            Err(conviction) => {
                t.convictions += 1;
                t.reject(id, conviction.reject_reason())
            }
        }
    }
}

pub(crate) type SharedSessions = Arc<Mutex<Sessions>>;

/// Locks `m`, recovering the data if a panicking holder poisoned it:
/// every update under these locks leaves the data consistent.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The session table of one connection: the only way to reach its
/// sessions. Create one per connection with [`SessionTable::new`] and
/// pass it to every [`Gateway::call_batch`](crate::Gateway::call_batch)
/// or [`Gateway::call`](crate::Gateway::call) for that connection; it
/// binds to the gateway at first use. Dropping it ends the
/// connection's sessions.
#[derive(Default)]
pub struct SessionTable {
    /// Open sessions this connection may hold (0: unbounded).
    cap: usize,
    bound: Option<BoundTable>,
}

/// The earlier name of [`SessionTable`], from when it held only the
/// batch grouping scratch; kept so existing callers keep compiling.
pub type BatchScratch = SessionTable;

/// A table registered with its gateway.
struct BoundTable {
    gateway: Arc<GatewayInner>,
    id: u64,
    sessions: SharedSessions,
    /// Counts of the dispatch in progress.
    tally: BatchTally,
}

impl SessionTable {
    /// An empty table with no session cap.
    pub fn new() -> SessionTable {
        SessionTable::default()
    }

    /// An empty table that holds at most `cap` open sessions (0: no
    /// cap). A frame that would open one more bounces with
    /// `resource_limit`; a `Close` always passes and frees its
    /// session's slot.
    pub(crate) fn with_session_cap(cap: usize) -> SessionTable {
        SessionTable { cap, bound: None }
    }

    /// The table's sessions, its dispatch tally and its session cap,
    /// registering the table with `gateway` on first use.
    pub(crate) fn bind(
        &mut self,
        gateway: &Arc<GatewayInner>,
    ) -> (&SharedSessions, &mut BatchTally, usize) {
        let bound = self.bound.get_or_insert_with(|| {
            let sessions = SharedSessions::default();
            BoundTable {
                gateway: Arc::clone(gateway),
                id: gateway.register(&sessions),
                sessions,
                tally: BatchTally::new(gateway.num_events()),
            }
        });
        assert!(
            Arc::ptr_eq(&bound.gateway, gateway),
            "a session table serves one gateway"
        );
        (&bound.sessions, &mut bound.tally, self.cap)
    }
}

impl Drop for BoundTable {
    /// The connection ended: its sessions are unreachable, so they go
    /// now rather than at the next idle sweep.
    fn drop(&mut self) {
        self.gateway.release(self.id, &self.sessions);
    }
}
