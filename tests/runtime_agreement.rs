//! Differential test between the **live runtime** (the gateway relay
//! with its online conformance guard) and the **static** verifier
//! (`converter_verdict`, i.e. `B ‖ C ⊨ A` by the paper's two-phase
//! check):
//!
//! * every event sequence the runtime *accepts* is a genuine trace of
//!   the reference composite `B ‖ C` (checked with `has_trace` on the
//!   recorded per-session prefixes);
//! * a statically verified converter is never convicted online, at 1
//!   and 8 gateway worker threads alike, and the drive reports are
//!   identical across thread counts;
//! * every single-transition converter mutant is convicted by the
//!   online guard exactly when the static checker rejects it, across
//!   all builtin configurations;
//! * the shipped DFA guard answers every frame of a campaign the way
//!   the subset-replaying [`SessionGuardReference`] does, and the
//!   batched dispatch path reports what per-frame dispatch reports.

mod common;

use protoquot_core::{converter_verdict, solve};
use protoquot_protocols::nak::ab_to_nak_configuration;
use protoquot_protocols::{
    at_least_once, colocated_configuration, exactly_once, random_component,
    symmetric_configuration, RandomParams,
};
use protoquot_runtime::{
    drive, drive_mux, Conn, Conviction, DriveConfig, DriveReport, Frame, Gateway, GatewayConfig,
    GuardProgram, LoopbackConn, LoopbackMux, MuxTransport, RejectReason, Reply, SessionGuard,
    SessionGuardReference,
};
use protoquot_sim::{redirect_transition, FaultPlan};
use protoquot_spec::{compose_all, has_trace, Alphabet, EventId, Spec, SpecBuilder};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

/// Same budget as the soak differential suite: small enough to stay
/// quick, large enough that every statically rejected mutant below is
/// convicted over the wire.
fn config(threads: usize) -> DriveConfig {
    DriveConfig {
        runs: 40,
        threads,
        seed: 0x50AB_A6EE,
        max_steps: 600,
        faults: FaultPlan::parse("loss,dup,reorder").unwrap(),
        ..DriveConfig::default()
    }
}

/// Every event and stall frame each session sent, with its reply.
type FrameLog = HashMap<u64, Vec<(Frame, Reply)>>;

/// A loopback connection that records, per session, every event and
/// stall frame together with the gateway's reply.
struct RecordingConn {
    inner: LoopbackConn,
    log: Arc<Mutex<FrameLog>>,
}

impl Conn for RecordingConn {
    fn call(&mut self, frame: &Frame) -> io::Result<Reply> {
        let reply = self.inner.call(frame)?;
        if let Frame::Event { session, .. } | Frame::Stall { session } = *frame {
            self.log
                .lock()
                .unwrap()
                .entry(session)
                .or_default()
                .push((*frame, reply));
        }
        Ok(reply)
    }
}

/// One finished lockstep campaign.
struct Campaign {
    report: DriveReport,
    /// What every session sent and was answered.
    log: FrameLog,
    /// The compiled program the gateway served.
    program: Arc<GuardProgram>,
}

impl Campaign {
    /// The event prefix the gateway accepted, per session — the
    /// runtime's observable language.
    fn accepted_traces(&self) -> HashMap<u64, Vec<EventId>> {
        let table = self.program.table();
        self.log
            .iter()
            .map(|(&session, frames)| {
                let trace = frames
                    .iter()
                    .filter_map(|&(frame, reply)| match (frame, reply) {
                        (Frame::Event { event, .. }, Reply::Accepted { .. }) => {
                            Some(table.events[usize::from(event)])
                        }
                        _ => None,
                    })
                    .collect();
                (session, trace)
            })
            .collect()
    }
}

/// Asserts the gateway's stats obey the conservation laws.
fn assert_stats_sound(label: &str, gw: &Gateway) {
    common::assert_stats_conserved(label, &gw.stats());
}

/// One lockstep drive campaign — per-frame [`Gateway::call`] over
/// [`LoopbackConn`] — against a fresh gateway with `threads` workers
/// (server and client alike).
fn campaign(components: &[Spec], service: &Spec, threads: usize) -> Campaign {
    let parts: Vec<&Spec> = components.iter().collect();
    let gw = Gateway::new(
        &parts,
        service,
        GatewayConfig {
            workers: threads,
            ..GatewayConfig::default()
        },
    )
    .expect("gateway must compile the system");
    let log = Arc::new(Mutex::new(FrameLog::new()));
    let report = drive(components, service, &config(threads), || {
        Ok(Box::new(RecordingConn {
            inner: LoopbackConn::new(gw.clone()),
            log: Arc::clone(&log),
        }) as Box<dyn Conn>)
    });
    gw.drain();
    assert_eq!(
        gw.stats().convictions,
        report.convicted_runs,
        "gateway conviction counter disagrees with the drive report"
    );
    assert_stats_sound("lockstep campaign", &gw);
    let log = std::mem::take(&mut *log.lock().unwrap());
    Campaign {
        report,
        log,
        program: gw.program(),
    }
}

/// Drives at 1 and 8 threads, asserts the reports are identical,
/// asserts every accepted prefix is a trace of the reference composite,
/// and returns whether the runtime found the system clean.
/// `expect_traffic` is asserted only for systems that should relay
/// events (mutants may be convicted before a single frame lands).
fn runtime_conforms(
    label: &str,
    components: &[Spec],
    service: &Spec,
    expect_traffic: bool,
) -> bool {
    let one = campaign(components, service, 1);
    let eight = campaign(components, service, 8);
    assert_eq!(
        one.report.to_json(),
        eight.report.to_json(),
        "{label}: drive report differs across thread counts"
    );
    assert_eq!(one.report.io_errors, 0, "{label}: loopback cannot fail");

    let parts: Vec<&Spec> = components.iter().collect();
    let composite = compose_all(&parts).expect("composable system");
    let log = one.accepted_traces();
    if expect_traffic {
        assert!(
            log.values().any(|t| !t.is_empty()),
            "{label}: the drive relayed no events at all"
        );
    }
    for (session, trace) in log.iter() {
        assert!(
            has_trace(&composite, trace),
            "{label}: session {session} accepted a non-trace of B‖C: {trace:?}"
        );
    }
    one.report.convicted_runs == 0
}

/// The core differential check for one builtin configuration: derive
/// the converter, confirm the clean system is never convicted, then
/// mutate single transitions and insist online convictions coincide
/// with static rejections. Returns how many mutants were convicted.
fn assert_agreement(
    label: &str,
    b: &Spec,
    service: &Spec,
    int: &protoquot_spec::Alphabet,
) -> usize {
    let q =
        solve(b, service, int).unwrap_or_else(|e| panic!("{label}: expected a converter, got {e}"));
    let converter = q.converter;

    let static_ok = converter_verdict(b, service, &converter)
        .unwrap_or_else(|e| panic!("{label}: static check failed to run: {e}"))
        .is_ok();
    assert!(
        static_ok,
        "{label}: derived converter fails the static check"
    );
    assert!(
        runtime_conforms(label, &[b.clone(), converter.clone()], service, true),
        "{label}: statically verified converter was convicted online"
    );

    let mut caught = 0usize;
    for k in 0..4 {
        let Some(mutant) = redirect_transition(&converter, k) else {
            break;
        };
        let mutant_label = format!("{label}/mut{k}");
        let mutant_static_ok = converter_verdict(b, service, &mutant)
            .map(|v| v.is_ok())
            .unwrap_or(false);
        let mutant_runtime_ok =
            runtime_conforms(&mutant_label, &[b.clone(), mutant], service, false);
        assert_eq!(
            mutant_static_ok, mutant_runtime_ok,
            "{mutant_label}: static ({mutant_static_ok}) and online guard \
             ({mutant_runtime_ok}) disagree"
        );
        if !mutant_runtime_ok {
            caught += 1;
        }
    }
    caught
}

#[test]
fn builtin_configurations_agree_online() {
    let mut caught = 0usize;

    // §5, colocated variant: an exactly-once converter exists.
    let cfg = colocated_configuration();
    caught += assert_agreement("colocated/exactly-once", &cfg.b, &exactly_once(), &cfg.int);

    // §5, symmetric variant under the at-least-once weakening.
    let cfg = symmetric_configuration();
    caught += assert_agreement(
        "symmetric/at-least-once",
        &cfg.b,
        &at_least_once(),
        &cfg.int,
    );

    // The AB↔NAK heterogeneous gateway.
    let cfg = ab_to_nak_configuration();
    caught += assert_agreement("ab-nak/exactly-once", &cfg.b, &exactly_once(), &cfg.int);

    assert!(
        caught > 0,
        "no single-transition mutant was convicted across the builtin sweep"
    );
}

#[test]
fn convictions_name_the_violation_kind() {
    // A converted frame stream that breaks the service must be turned
    // away with a semantic reason, not a generic error: drive a known
    // statically-rejected mutant and check the reported reject reasons
    // are drawn from the guard's vocabulary.
    let cfg = colocated_configuration();
    let service = exactly_once();
    let q = solve(&cfg.b, &service, &cfg.int).unwrap();
    for k in 0..4 {
        let Some(mutant) = redirect_transition(&q.converter, k) else {
            break;
        };
        if converter_verdict(&cfg.b, &service, &mutant)
            .map(|v| v.is_ok())
            .unwrap_or(false)
        {
            continue;
        }
        let report = campaign(&[cfg.b.clone(), mutant], &service, 2).report;
        assert!(report.convicted_runs > 0, "mut{k}: expected convictions");
        for o in report.outcomes.iter().filter(|o| o.conviction.is_some()) {
            let reason = o.conviction.as_deref().unwrap();
            assert!(
                ["not_a_trace", "service_violation", "stalled", "convicted"].contains(&reason),
                "mut{k}: unexpected conviction reason `{reason}`"
            );
        }
        return;
    }
    panic!("no statically rejected mutant found to drive");
}

// ---------------------------------------------------------------------
// DFA vs. reference guard differential
// ---------------------------------------------------------------------

/// Streams fed to each guard pair per system.
const GUARD_STREAMS: u64 = 6;
/// Frames per stream (conviction usually ends a stream much earlier).
const STREAM_LEN: usize = 200;

/// Deterministic xorshift64* generator so every differential stream is
/// reproducible from its label seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A converter over `int` that declares every interface event but
/// enables none: composing it with a component freezes all interaction
/// on `Int` — the cheap way to steer arbitrary systems down the
/// conviction paths (same trick as the verify differential).
fn stuck_converter(int: &Alphabet) -> Spec {
    let mut cb = SpecBuilder::new("stuck");
    cb.state("c0");
    for e in int.iter() {
        cb.event(&e.name());
    }
    cb.build().expect("stuck converter is well-formed")
}

/// The core bit-identity check: the compiled DFA guard and the
/// subset-replaying reference must agree on every stream — same
/// conviction kind, same offending event index, same frame position
/// (`observed()` at conviction time), same possible-state counts, and
/// same attested-stall verdicts.
///
/// Streams follow a genuine sampled trace up to a random cut, then turn
/// random (with indices one past the table to hit the unknown-index
/// path too), so both the long-accept prefixes and all three conviction
/// kinds are exercised.
fn guards_agree(label: &str, parts: &[&Spec], service: &Spec, seed: u64) {
    guards_agree_scaled(label, parts, service, seed, GUARD_STREAMS, STREAM_LEN)
}

/// [`guards_agree`] with an explicit stream budget: the
/// several-hundred-mutant sweeps run a trimmed budget per mutant (the
/// derived converters already cover the long OK paths at full budget).
fn guards_agree_scaled(
    label: &str,
    parts: &[&Spec],
    service: &Spec,
    seed: u64,
    streams: u64,
    stream_len: usize,
) {
    let prog = match GuardProgram::new(parts, service) {
        Ok(p) => Arc::new(p),
        // Systems the gateway would refuse to load have no online
        // behavior to compare.
        Err(_) => return,
    };
    let nsym = prog.table().len().max(1) as u64;
    let accepted = prog.sample_accepted(stream_len);
    let mut rng = XorShift(seed | 1);
    for round in 0..streams {
        let mut dfa = SessionGuard::new(Arc::clone(&prog));
        let mut reference = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(
            dfa.convicted(),
            reference.convicted(),
            "{label}/s{round}: initial verdict differs"
        );
        if dfa.convicted().is_some() {
            break; // start-convicted systems have no further frames
        }
        let cut = if accepted.is_empty() {
            0
        } else {
            rng.next() as usize % (accepted.len() + 1)
        };
        #[allow(clippy::needless_range_loop)] // `pos` indexes past `accepted`'s end
        for pos in 0..STREAM_LEN {
            let ev = if pos < cut {
                accepted[pos]
            } else {
                (rng.next() % (nsym + 1)) as u16
            };
            let d = dfa.observe(ev);
            let r = reference.observe(ev);
            assert_eq!(
                d, r,
                "{label}/s{round}: conviction differs at frame {pos} (event {ev})"
            );
            assert_eq!(
                dfa.observed(),
                reference.observed(),
                "{label}/s{round}: frame position differs at frame {pos}"
            );
            if d.is_err() {
                break;
            }
            assert_eq!(
                dfa.possible_states(),
                reference.possible_states(),
                "{label}/s{round}: possible-state count differs at frame {pos}"
            );
            if rng.next().is_multiple_of(13) {
                let da = dfa.attest_stall();
                let ra = reference.attest_stall();
                assert_eq!(
                    da, ra,
                    "{label}/s{round}: attested-stall verdict differs at frame {pos}"
                );
                if da.is_err() {
                    break;
                }
            }
        }
        assert_eq!(
            dfa.convicted(),
            reference.convicted(),
            "{label}/s{round}: final conviction differs"
        );
        assert_eq!(
            dfa.observed(),
            reference.observed(),
            "{label}/s{round}: final frame position differs"
        );
    }
}

/// The three builtin systems, each with its derived converter and
/// **every** single-transition mutant of it.
#[test]
fn dfa_and_reference_guards_agree_on_builtins_and_all_mutants() {
    let systems: [(&str, Spec, Spec, Alphabet); 3] = {
        let colocated = colocated_configuration();
        let sym = symmetric_configuration();
        let nak = ab_to_nak_configuration();
        [
            ("colocated", colocated.b, exactly_once(), colocated.int),
            ("symmetric", sym.b, at_least_once(), sym.int),
            ("ab-nak", nak.b, exactly_once(), nak.int),
        ]
    };
    for (label, b, service, int) in &systems {
        let q = solve(b, service, int)
            .unwrap_or_else(|e| panic!("{label}: expected a converter, got {e}"));
        guards_agree(
            &format!("{label}/derived"),
            &[b, &q.converter],
            service,
            0xD1FF_0000 ^ label.len() as u64,
        );
        // Every single-transition mutant (the symmetric converter has
        // several hundred); each (build + streams) is independent, so
        // the sweep fans out across threads.
        let mutants: Vec<(usize, Spec)> = (0..)
            .map_while(|k| Some((k, redirect_transition(&q.converter, k)?)))
            .collect();
        assert!(
            !mutants.is_empty(),
            "{label}: converter has no transitions to mutate"
        );
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some((k, mutant)) = mutants.get(i) else {
                        break;
                    };
                    // Trimmed budget: the derived run above already
                    // soaks the long accept paths at full budget, so
                    // each mutant only needs enough frames past the
                    // cut to force its conviction.
                    guards_agree_scaled(
                        &format!("{label}/mut{k}"),
                        &[b, mutant],
                        service,
                        0xD1FF_1000 ^ (*k as u64) << 8,
                        2,
                        64,
                    );
                });
            }
        });
    }
}

/// 40 random components, each frozen by the stuck converter so the
/// progress paths are reachable.
#[test]
fn dfa_and_reference_guards_agree_on_random_components() {
    let service = exactly_once();
    for seed in 0..40u64 {
        let (b, int) = random_component(seed, RandomParams::default());
        let stuck = stuck_converter(&int);
        guards_agree(
            &format!("random({seed})"),
            &[&b, &stuck],
            &service,
            0xC0FF_EE00 ^ seed,
        );
    }
}

/// One multiplexed loopback campaign — the carrier that hands whole
/// readiness batches to [`Gateway::call_batch`] — against a fresh
/// gateway with `threads` workers.
fn mux_campaign(components: &[Spec], service: &Spec, threads: usize) -> DriveReport {
    let parts: Vec<&Spec> = components.iter().collect();
    let gw = Gateway::new(
        &parts,
        service,
        GatewayConfig {
            workers: threads,
            ..GatewayConfig::default()
        },
    )
    .expect("gateway must compile the system");
    let cfg = DriveConfig {
        sessions_per_conn: 8,
        ..config(threads)
    };
    let report = drive_mux(components, service, &cfg, || {
        Ok(Box::new(LoopbackMux::new(gw.clone())) as Box<dyn MuxTransport>)
    });
    gw.drain();
    assert_eq!(
        gw.stats().convictions,
        report.convicted_runs,
        "gateway conviction counter disagrees with the drive report"
    );
    assert_stats_sound("multiplexed campaign", &gw);
    report
}

/// Batched dispatch against its per-frame oracle at 1 and 8 workers:
/// the multiplexed [`LoopbackMux`] campaign runs every exchange through
/// `call_batch`, the lockstep [`LoopbackConn`] campaign sends every
/// frame through the per-frame `Gateway::call`, and the fixed-seed
/// reports must be byte-identical — for the derived converter and for
/// a statically rejected mutant, so convictions carry over with
/// identical counts and reasons at every worker count.
#[test]
fn batched_campaigns_match_per_frame_campaigns() {
    let cfg = colocated_configuration();
    let service = exactly_once();
    let q = solve(&cfg.b, &service, &cfg.int).expect("colocated converter derives");
    let mutant = (0..8)
        .find_map(|k| {
            let m = redirect_transition(&q.converter, k)?;
            let ok = converter_verdict(&cfg.b, &service, &m)
                .map(|v| v.is_ok())
                .unwrap_or(false);
            (!ok).then_some(m)
        })
        .expect("some single-transition mutant is statically rejected");
    for (kind, converter, expect_clean) in
        [("derived", &q.converter, true), ("mutant", &mutant, false)]
    {
        let components = [cfg.b.clone(), converter.clone()];
        for threads in [1usize, 8] {
            let batched = mux_campaign(&components, &service, threads);
            let per_frame = campaign(&components, &service, threads).report;
            assert_eq!(
                batched.to_json(),
                per_frame.to_json(),
                "{kind}: batched and per-frame campaigns diverge at {threads} workers"
            );
            assert_eq!(
                batched.is_clean(),
                expect_clean,
                "{kind}: unexpected verdict at {threads} workers: {batched}"
            );
            if !expect_clean {
                assert!(
                    batched.convicted_runs > 0,
                    "{kind}: convictions lost at {threads} workers"
                );
            }
        }
    }
}

/// The reply the gateway owes a guard verdict: `Accepted`, the
/// conviction's own reason the first time, `Convicted` after that.
fn expected_reply(session: u64, verdict: Result<(), Conviction>, already_convicted: bool) -> Reply {
    match verdict {
        Ok(()) => Reply::Accepted { session },
        Err(_) if already_convicted => Reply::Rejected {
            session,
            reason: RejectReason::Convicted,
        },
        Err(conviction) => Reply::Rejected {
            session,
            reason: conviction.reject_reason(),
        },
    }
}

/// Replays every session of `campaign` through a fresh
/// [`SessionGuardReference`] and requires, frame for frame, the reply
/// the DFA-guarded gateway gave. Returns how many frames were replayed.
fn replay_through_reference(label: &str, campaign: &Campaign) -> usize {
    let mut replayed = 0;
    for (&session, frames) in &campaign.log {
        let mut reference = SessionGuardReference::new(Arc::clone(&campaign.program));
        for (pos, &(frame, reply)) in frames.iter().enumerate() {
            let already = reference.convicted().is_some();
            let verdict = match frame {
                Frame::Event { event, .. } => reference.observe(event),
                Frame::Stall { .. } => reference.attest_stall(),
                other => unreachable!("only events and stalls are logged: {other:?}"),
            };
            assert_eq!(
                reply,
                expected_reply(session, verdict, already),
                "{label}: session {session} frame {pos} ({frame:?}): the gateway \
                 and the reference guard disagree"
            );
            replayed += 1;
        }
    }
    replayed
}

/// End-to-end guard differential at 1 and 8 workers: every frame of a
/// DFA-guarded campaign, replayed per session through the reference
/// guard, earns the reply the gateway gave — the same accepts, the
/// same first conviction reason, then `convicted` — for the derived
/// converter and for a statically rejected mutant of each builtin
/// system.
#[test]
fn reference_guard_campaigns_match_dfa_campaigns() {
    let systems: [(&str, Spec, Spec, Alphabet); 3] = {
        let colocated = colocated_configuration();
        let sym = symmetric_configuration();
        let nak = ab_to_nak_configuration();
        [
            ("colocated", colocated.b, exactly_once(), colocated.int),
            ("symmetric", sym.b, at_least_once(), sym.int),
            ("ab-nak", nak.b, exactly_once(), nak.int),
        ]
    };
    for (label, b, service, int) in &systems {
        let q = solve(b, service, int)
            .unwrap_or_else(|e| panic!("{label}: expected a converter, got {e}"));
        let rejected_mutant = (0..8).find_map(|k| {
            let m = redirect_transition(&q.converter, k)?;
            let ok = converter_verdict(b, service, &m)
                .map(|v| v.is_ok())
                .unwrap_or(false);
            (!ok).then_some(m)
        });
        let mut variants = vec![("derived", q.converter.clone())];
        if let Some(m) = rejected_mutant {
            variants.push(("mutant", m));
        }
        for (kind, converter) in &variants {
            let components = [b.clone(), converter.clone()];
            for threads in [1usize, 8] {
                let run = campaign(&components, service, threads);
                let replayed =
                    replay_through_reference(&format!("{label}/{kind}/{threads}w"), &run);
                assert!(
                    replayed > 0,
                    "{label}/{kind}: the campaign sent no frames at {threads} workers"
                );
            }
        }
    }
}
