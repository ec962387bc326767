//! What `wire-steady` and `wire-churn` share: the rig (derivation,
//! registry admission, gateway, reactor and negotiated clients), the
//! per-session scripts with their oracle replies, and the checks of
//! the gateway's counters after a run.
//!
//! Traffic crosses the host loopback interface (127.0.0.1): the server
//! and the client live in this one process, one reactor event loop and
//! one gateway worker serving one client thread.

use crate::pipeline::{derive, Verdict};
use crate::trace::Tracer;
use crate::util::Rng;
use protoquot_runtime::codec::{encode_frame, Frame, FrameBuffer, RejectReason, Reply};
use protoquot_runtime::transport::{MuxClient, MuxTransport, ReactorConfig, ReactorServer};
use protoquot_runtime::{
    BatchScratch, ConverterRegistry, Gateway, GatewayConfig, GuardProgram, SessionGuard,
    SessionGuardReference, StatsSnapshot,
};
use protoquot_spec::{Alphabet, Spec};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How many times a run sets the rig up; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;
/// Kernel runs after each set-up, for calibration.
const SETUP_CAL_RUNS: usize = 5;

/// Session ids of connection `c` start here; each connection owns a
/// disjoint range of 2^40 ids.
pub fn conn_base(c: usize) -> u64 {
    (c as u64 + 1) << 40
}

/// A quotient problem in hand as specifications.
pub struct System {
    pub b: Spec,
    pub int: Alphabet,
    pub service: Spec,
}

/// One frame a session sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Event(u16),
    Stall,
    Close,
}

/// The reply a frame must get, without its session id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Accepted,
    Rejected(RejectReason),
}

impl Expect {
    pub fn matches(self, reply: &Reply) -> bool {
        match (self, reply) {
            (Expect::Accepted, Reply::Accepted { .. }) => true,
            (Expect::Rejected(r), Reply::Rejected { reason, .. }) => r == *reason,
            _ => false,
        }
    }
}

/// A session's frames and the reply each must get.
pub struct Script {
    pub ops: Vec<Op>,
    pub expect: Vec<Expect>,
}

impl Script {
    /// Builds the script for `ops`, taking every expected reply from
    /// `SessionGuardReference`, the subset-replaying reference guard,
    /// under the gateway's session rules: a session's first
    /// conviction is reported by its kind and later frames as
    /// `convicted`; `Close` is always accepted.
    pub fn with_oracle(program: &Arc<GuardProgram>, ops: Vec<Op>) -> Script {
        let mut guard = SessionGuardReference::new(Arc::clone(program));
        let mut convicted = false;
        let expect = ops
            .iter()
            .map(|op| {
                let verdict = match *op {
                    Op::Event(e) => guard.observe(e),
                    Op::Stall => guard.attest_stall(),
                    Op::Close => return Expect::Accepted,
                };
                match verdict {
                    Ok(()) => Expect::Accepted,
                    Err(_) if convicted => Expect::Rejected(RejectReason::Convicted),
                    Err(c) => {
                        convicted = true;
                        Expect::Rejected(c.reject_reason())
                    }
                }
            })
            .collect();
        Script { ops, expect }
    }

    pub fn frame(&self, i: usize, session: u64) -> Frame {
        match self.ops[i] {
            Op::Event(event) => Frame::Event { session, event },
            Op::Stall => Frame::Stall { session },
            Op::Close => Frame::Close { session },
        }
    }
}

/// Seeded walks over the guard DFA's tables. The tables only steer the
/// walk towards events that should be accepted or convicted; what each
/// frame must get comes from the oracle.
pub struct Walker<'a> {
    trans: &'a [u32],
    nsym: usize,
    states: u32,
    state: u32,
}

impl<'a> Walker<'a> {
    pub fn new(program: &'a GuardProgram) -> Walker<'a> {
        let t = program.dfa_tables();
        Walker {
            trans: t.trans,
            nsym: t.nsym,
            states: t.any_fail.len() as u32,
            state: t.dfa_initial,
        }
    }

    fn row(&self) -> &'a [u32] {
        let s = self.state as usize;
        &self.trans[s * self.nsym..(s + 1) * self.nsym]
    }

    /// A random event leading to another DFA state, taken; `None` at a
    /// dead end.
    pub fn step(&mut self, rng: &mut Rng) -> Option<u16> {
        let row = self.row();
        let mut ok = (0..self.nsym).filter(|&e| row[e] < self.states);
        let n = ok.clone().count();
        if n == 0 {
            return None;
        }
        let e = ok.nth(rng.below(n)).expect("n events lead on");
        self.state = row[e];
        Some(e as u16)
    }

    /// A random event the table maps to a verdict rather than a state.
    pub fn convicting(&self, rng: &mut Rng) -> Option<u16> {
        let row = self.row();
        let bad: Vec<usize> = (0..self.nsym).filter(|&e| row[e] >= self.states).collect();
        (!bad.is_empty()).then(|| bad[rng.below(bad.len())] as u16)
    }
}

/// What the client sent and got, for the conservation checks.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub sent: u64,
    pub accepted_events: u64,
    pub accepted_control: u64,
    pub rejected: u64,
    pub hello_acks: u64,
    pub mismatches: u64,
}

impl Tally {
    /// Records one reply to `op`, checked against `expect`.
    pub fn reply(&mut self, op: Op, expect: Expect, reply: &Reply) -> bool {
        let ok = expect.matches(reply);
        if !ok {
            self.mismatches += 1;
        }
        match (op, reply) {
            (Op::Event(_), Reply::Accepted { .. }) => self.accepted_events += 1,
            (_, Reply::Accepted { .. }) => self.accepted_control += 1,
            (_, Reply::Rejected { .. }) => self.rejected += 1,
            (_, Reply::HelloAck { .. }) => {}
        }
        ok
    }
}

/// Checks the gateway's conservation laws against itself and against
/// what the client saw. Each violated law is returned as a message.
pub fn conservation(s: &StatsSnapshot, t: &Tally) -> Vec<String> {
    let mut bad = Vec::new();
    let rejects: u64 = s.rejects.iter().map(|&(_, n)| n).sum();
    let control = t.hello_acks + t.accepted_control;
    if s.frames != s.accepted + rejects + control {
        bad.push(format!(
            "frames {} != accepted {} + rejects {} + control frames {}",
            s.frames, s.accepted, rejects, control
        ));
    }
    let per_event: u64 = s.per_event.iter().map(|(_, n)| n).sum();
    if per_event != s.accepted {
        bad.push(format!(
            "sum of per_event {per_event} != accepted {}",
            s.accepted
        ));
    }
    let gone = s.sessions_closed + s.sessions_evicted + s.sessions_expelled + s.sessions_active;
    if s.sessions_opened != gone {
        bad.push(format!(
            "sessions opened {} != closed {} + evicted {} + expelled {} + active {}",
            s.sessions_opened,
            s.sessions_closed,
            s.sessions_evicted,
            s.sessions_expelled,
            s.sessions_active
        ));
    }
    if s.accepted != t.accepted_events || rejects != t.rejected || s.frames != t.sent + t.hello_acks
    {
        bad.push(format!(
            "gateway saw frames {} accepted {} rejects {}; client sent {} (+{} hellos), got {} accepted events and {} rejects",
            s.frames, s.accepted, rejects, t.sent, t.hello_acks, t.accepted_events, t.rejected
        ));
    }
    if s.sessions_evicted + s.sessions_expelled > 0 {
        bad.push(format!(
            "{} sessions evicted and {} expelled",
            s.sessions_evicted, s.sessions_expelled
        ));
    }
    let cuts: u64 = s.conn_evictions.iter().map(|&(_, n)| n).sum();
    if cuts > 0 {
        bad.push(format!("{cuts} connections cut by the server"));
    }
    bad
}

/// A served, connected converter.
pub struct Rig {
    pub gateway: Gateway,
    pub server: ReactorServer,
    pub clients: Vec<MuxClient>,
    pub program: Arc<GuardProgram>,
    pub registry: ConverterRegistry,
    /// The fixed components and the converter, as admitted.
    pub parts: Vec<Spec>,
    pub service: Spec,
    pub tally: Tally,
    /// Wall time of the set-up.
    pub setup_s: f64,
    /// CPU time every thread of the process spent on the set-up.
    pub setup_cpu_s: f64,
}

/// Session id of the one-frame session that proves the rig serves.
fn probe_session() -> u64 {
    conn_base(0) + (1 << 39)
}

/// Takes `sys` from specifications to the first accepted reply:
/// derive, verify, compile, encode, admit, bind, connect with hello on
/// `conns` connections, and send one accepted event. The time this
/// takes is `setup_s`.
pub fn setup(
    sys: &System,
    conns: usize,
    registry_dir: &Path,
    gateway_cfg: GatewayConfig,
    tr: &mut Tracer,
) -> Result<Rig, String> {
    let t0 = Instant::now();
    let cpu0 = crate::util::process_cpu_ns();
    let derived = match derive(&sys.b, &sys.service, &sys.int, tr, 0)? {
        Verdict::Converter(d) => d,
        _ => return Err("the wire system has no converter".into()),
    };
    let mut registry = ConverterRegistry::open(registry_dir, &sys.service, 0)
        .map_err(|e| format!("registry: {e}"))?;
    let admitted = tr
        .span("registry.admit", 0, || registry.admit(&derived.bytes))
        .map_err(|e| format!("admission refused: {e}"))?;
    // The serving threads start on the server CPU and stay there; the
    // calling (client) thread goes back to its own.
    let split = crate::util::split_cpus();
    if let Some((_, server)) = split {
        crate::util::pin_to(server);
    }
    let reactor = ReactorConfig {
        loops: 1,
        ..ReactorConfig::default()
    };
    let served = Gateway::with_program(Arc::clone(&admitted.program), gateway_cfg)
        .map_err(|e| format!("gateway: {e}"))
        .and_then(|gateway| {
            let server = tr
                .span("transport.bind", 0, || {
                    ReactorServer::bind(gateway.clone(), "127.0.0.1:0", reactor)
                })
                .map_err(|e| format!("bind: {e}"))?;
            Ok((gateway, server))
        });
    if let Some((client, _)) = split {
        crate::util::pin_to(client);
    }
    let (gateway, server) = served?;
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        let c = tr
            .span("transport.connect", 0, || {
                MuxClient::connect_negotiated(server.local_addr(), gateway.table_hash())
            })
            .map_err(|e| format!("connect: {e}"))?;
        clients.push(c);
    }
    let mut tally = Tally {
        hello_acks: conns as u64,
        ..Tally::default()
    };
    let program = admitted.program;
    let mut walker = Walker::new(&program);
    let first = walker
        .step(&mut Rng::new(0))
        .ok_or("the guard accepts no first event")?;
    let probe = Script::with_oracle(&program, vec![Op::Event(first), Op::Close]);
    let mut replies = Vec::new();
    let mut setup_s = 0.0;
    let mut setup_cpu_s = 0.0;
    for i in 0..probe.ops.len() {
        let frame = probe.frame(i, probe_session());
        clients[0]
            .queue(&frame)
            .and_then(|()| exchange_one(&mut clients[0], &mut replies))
            .map_err(|e| format!("probe frame: {e}"))?;
        tally.sent += 1;
        if !tally.reply(probe.ops[i], probe.expect[i], &replies[0]) {
            return Err(format!("probe frame got {:?}", replies[0]));
        }
        replies.clear();
        if i == 0 {
            setup_s = t0.elapsed().as_secs_f64();
            setup_cpu_s = (crate::util::process_cpu_ns() - cpu0) as f64 / 1e9;
        }
    }
    crate::pipeline::probes(&sys.b, &sys.service, &derived.converter, tr, 0);
    Ok(Rig {
        gateway,
        server,
        clients,
        program,
        registry,
        parts: derived.parts,
        service: derived.service,
        tally,
        setup_s,
        setup_cpu_s,
    })
}

/// Exchanges until exactly one reply has arrived.
fn exchange_one(c: &mut MuxClient, replies: &mut Vec<Reply>) -> std::io::Result<()> {
    while replies.is_empty() {
        c.exchange(true, replies)?;
    }
    Ok(())
}

/// Sets the rig up [`SETUP_REPS`] times and keeps the last one; every
/// earlier rig is torn down. Returns the rig and the median set-up
/// times.
/// On a host with two CPUs or more, [`setup`] pins the serving
/// threads to one CPU and the calling (client) thread to another.
pub fn setup_median(
    sys: &System,
    conns: usize,
    workdir: &Path,
    gateway_cfg: &GatewayConfig,
    tr: &mut Tracer,
) -> Result<(Rig, Setup), String> {
    let mut wall = Vec::with_capacity(SETUP_REPS);
    let mut cpu = Vec::with_capacity(SETUP_REPS);
    let mut calibrated = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let dir = workdir.join(format!("registry-{rep}"));
        let rig = setup(sys, conns, &dir, gateway_cfg.clone(), tr)?;
        wall.push(rig.setup_s);
        cpu.push(rig.setup_cpu_s);
        calibrated.push(rig.setup_cpu_s * crate::calib::factor_now(SETUP_CAL_RUNS));
        if let Some(old) = last.replace(rig) {
            teardown(old);
        }
    }
    let setup = Setup {
        wall_s: crate::util::median(&wall),
        cpu_s: crate::util::median(&cpu),
        calibrated_s: crate::util::median(&calibrated),
    };
    Ok((last.expect("SETUP_REPS > 0"), setup))
}

/// Median set-up times of a run.
pub struct Setup {
    pub wall_s: f64,
    /// CPU time of every thread of the process.
    pub cpu_s: f64,
    /// Each set-up's CPU time scaled by kernel runs made right after
    /// it (see calib.rs).
    pub calibrated_s: f64,
}

pub fn teardown(mut rig: Rig) {
    rig.clients.clear();
    rig.server.stop();
    rig.gateway.drain();
}

/// Replays scripts through `SessionGuard::observe` alone; ns per event.
pub fn replay_observe<'a>(
    program: &Arc<GuardProgram>,
    scripts: impl Iterator<Item = &'a Script>,
) -> f64 {
    let mut events = 0u64;
    let t = Instant::now();
    for script in scripts {
        let mut guard = SessionGuard::new(Arc::clone(program));
        for op in &script.ops {
            if let Op::Event(e) = *op {
                let _ = std::hint::black_box(guard.observe(e));
                events += 1;
            }
        }
    }
    t.elapsed().as_nanos() as f64 / events.max(1) as f64
}

/// Replays a run's frames outside the wire: through
/// `Gateway::call_batch` on a fresh gateway, in batches of the run's
/// mean batch size, after `warm` (frames that bring the session table
/// to the run's state, untimed); and, encoded, through
/// `FrameBuffer::next_frame` in 64 KiB reads. Returns ns per frame of
/// each.
pub fn replay_frames(
    program: &Arc<GuardProgram>,
    warm: &[Frame],
    frames: &[Frame],
    stats: &StatsSnapshot,
    gateway_cfg: &GatewayConfig,
) -> Result<(f64, f64), String> {
    let batch = (stats.batch_frames as f64 / stats.batches.max(1) as f64)
        .round()
        .max(1.0) as usize;
    let gateway = Gateway::with_program(Arc::clone(program), gateway_cfg.clone())
        .map_err(|e| format!("replay gateway: {e}"))?;
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    let mut slow = 0usize;
    for chunk in warm.chunks(batch) {
        out.clear();
        gateway.call_batch(chunk, &mut scratch, &mut out, &mut |_| slow += 1);
    }
    let t = Instant::now();
    for chunk in frames.chunks(batch) {
        out.clear();
        gateway.call_batch(chunk, &mut scratch, &mut out, &mut |_| slow += 1);
        std::hint::black_box(&out);
    }
    let call_batch_ns = t.elapsed().as_nanos() as f64 / frames.len().max(1) as f64;
    gateway.drain();
    if slow > 0 {
        return Err(format!(
            "replay: {slow} frames left the inline path on an idle gateway"
        ));
    }

    let mut bytes = Vec::with_capacity(frames.len() * 16);
    for f in frames {
        encode_frame(f, &mut bytes);
    }
    let mut buf = FrameBuffer::new();
    let mut decoded = 0usize;
    let t = Instant::now();
    for chunk in bytes.chunks(64 << 10) {
        buf.extend(chunk);
        while let Some(f) = buf
            .next_frame()
            .map_err(|e| format!("replay decode: {e}"))?
        {
            std::hint::black_box(f);
            decoded += 1;
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / decoded.max(1) as f64;
    if decoded != frames.len() {
        return Err(format!(
            "replay decoded {decoded} of {} frames",
            frames.len()
        ));
    }
    Ok((call_batch_ns, decode_ns))
}
