//! Cross-transport differential: the drive report is a property of the
//! *system and schedule*, not of the carrier. The same campaign config
//! must produce byte-identical [`DriveReport`] JSON over
//!
//! * the in-memory lockstep loopback (no wire at all, one per-frame
//!   `Gateway::call` per frame),
//! * the in-memory multiplexed loopback (`Gateway::call_batch`, checked
//!   against the per-frame loopback in its own test),
//! * the blocking thread-per-connection TCP server,
//! * the reactor server driven by lockstep clients, and
//! * the reactor server driven by multiplexed sessions
//!   (`sessions_per_conn` > 1 over a [`MuxClient`]),
//!
//! for a statically verified converter *and* for a rejected mutant —
//! i.e. conviction outcomes agree across transports frame for frame.
//! The blocking transport thereby serves as the differential oracle
//! for the reactor, and the per-frame lockstep loopback as the oracle
//! for every batched carrier.

mod common;

use protoquot_core::{converter_verdict, solve};
use protoquot_protocols::{colocated_configuration, exactly_once};
use protoquot_runtime::{
    drive, drive_mux, Conn, DriveConfig, DriveReport, Frame, Gateway, GatewayConfig, LoopbackConn,
    LoopbackMux, MuxClient, MuxTransport, ReactorConfig, ReactorServer, Reply, TcpConn, TcpServer,
};
use protoquot_sim::{redirect_transition, FaultPlan};
use protoquot_spec::Spec;
use std::io;

fn config(runs: u64, threads: usize, sessions_per_conn: u64) -> DriveConfig {
    DriveConfig {
        runs,
        threads,
        seed: 0x5EAC_7012,
        max_steps: 400,
        faults: FaultPlan::parse("loss,dup,reorder").unwrap(),
        sessions_per_conn,
        ..DriveConfig::default()
    }
}

/// A fresh gateway per campaign, so each campaign's stats stand alone.
fn gateway(components: &[Spec], service: &Spec) -> Gateway {
    let parts: Vec<&Spec> = components.iter().collect();
    Gateway::new(&parts, service, GatewayConfig::default())
        .expect("gateway must compile the system")
}

/// One campaign over the named carrier, with its own server teardown.
/// Returns the report and the connections opened and closed.
fn campaign(
    carrier: &str,
    components: &[Spec],
    service: &Spec,
    cfg: &DriveConfig,
) -> (DriveReport, u64, u64) {
    let gw = gateway(components, service);
    let report = match carrier {
        "loopback" => drive(components, service, cfg, || {
            Ok(Box::new(LoopbackConn::new(gw.clone())) as Box<dyn Conn>)
        }),
        "loopback-mux" => drive_mux(components, service, cfg, || {
            Ok(Box::new(LoopbackMux::new(gw.clone())) as Box<dyn MuxTransport>)
        }),
        "blocking" => {
            let mut server = TcpServer::bind(gw.clone(), "127.0.0.1:0").expect("bind");
            let addr = server.local_addr();
            let report = drive(components, service, cfg, move || {
                TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn Conn>)
            });
            server.stop();
            report
        }
        "reactor-lockstep" => {
            let mut server =
                ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default())
                    .expect("bind");
            let addr = server.local_addr();
            let report = drive(components, service, cfg, move || {
                TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn Conn>)
            });
            server.stop();
            report
        }
        "reactor-mux" => {
            let mut server =
                ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default())
                    .expect("bind");
            let addr = server.local_addr();
            let report = drive_mux(components, service, cfg, move || {
                MuxClient::connect(addr).map(|c| Box::new(c) as Box<dyn MuxTransport>)
            });
            server.stop();
            report
        }
        other => panic!("unknown carrier {other}"),
    };
    gw.drain();
    let snap = gw.stats();
    assert_eq!(
        snap.convictions, report.convicted_runs,
        "{carrier}: gateway conviction counter disagrees with the drive report"
    );
    common::assert_stats_conserved(carrier, &snap);
    (report, snap.connections_opened, snap.connections_closed)
}

/// The colocated system's `B`, the exactly-once service, its derived
/// converter and a single-transition mutant that the static check rejects.
fn derived_and_mutant() -> (Spec, Spec, Spec, Spec) {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    let mutant = (0..8)
        .find_map(|k| {
            let m = redirect_transition(&q.converter, k)?;
            let ok = converter_verdict(&system.b, &service, &m)
                .map(|v| v.is_ok())
                .unwrap_or(false);
            (!ok).then_some(m)
        })
        .expect("some single-transition mutant is statically rejected");
    (system.b, service, q.converter, mutant)
}

#[test]
fn reports_identical_across_all_transports() {
    let (b, service, converter, mutant) = derived_and_mutant();
    for (label, converter, expect_clean) in
        [("derived", &converter, true), ("mutant", &mutant, false)]
    {
        let components = [b.clone(), converter.clone()];
        let cfg = config(32, 2, 8);
        let (baseline, _, _) = campaign("loopback", &components, &service, &cfg);
        assert_eq!(
            baseline.is_clean(),
            expect_clean,
            "{label}: unexpected loopback verdict: {baseline}"
        );
        if expect_clean {
            assert!(baseline.accepted > 0, "{label}: campaign relayed nothing");
        } else {
            assert!(baseline.convicted_runs > 0, "{label}: no convictions");
        }
        for carrier in ["blocking", "reactor-lockstep", "reactor-mux"] {
            let (report, opened, closed) = campaign(carrier, &components, &service, &cfg);
            assert_eq!(
                baseline.to_json(),
                report.to_json(),
                "{label}: {carrier} diverges from the loopback baseline"
            );
            assert!(opened > 0, "{label}: {carrier} opened no connections");
            assert_eq!(
                opened, closed,
                "{label}: {carrier} leaked connections ({opened} opened, {closed} closed)"
            );
        }
    }
}

/// The batched hot path against its per-frame oracle: the lockstep
/// loopback dispatches every frame through its own `Gateway::call`,
/// while the multiplexed loopback and both socket servers hand whole
/// batches to `Gateway::call_batch`. Fixed-seed campaigns must be
/// byte-identical either way — for the verified converter and for a
/// convicted mutant alike, so conviction outcomes (and their counts)
/// carry over exactly.
#[test]
fn batched_and_per_frame_dispatch_agree_across_transports() {
    let (b, service, converter, mutant) = derived_and_mutant();
    for (label, converter, expect_clean) in
        [("derived", &converter, true), ("mutant", &mutant, false)]
    {
        let components = [b.clone(), converter.clone()];
        let cfg = config(24, 2, 8);
        let (per_frame, _, _) = campaign("loopback", &components, &service, &cfg);
        for carrier in ["loopback-mux", "blocking", "reactor-mux"] {
            let (batched, _, _) = campaign(carrier, &components, &service, &cfg);
            assert_eq!(
                batched.to_json(),
                per_frame.to_json(),
                "{label}: {carrier} batched dispatch diverges from per-frame dispatch"
            );
            assert_eq!(batched.is_clean(), expect_clean, "{label}: {carrier}");
            if !expect_clean {
                assert!(
                    batched.convicted_runs > 0,
                    "{label}: {carrier} lost the convictions"
                );
            }
        }
    }
}

/// Client-side pipelining composes with the server's batched dispatch:
/// a clean campaign driven with a deep speculation window over the
/// reactor produces the same report as the unpipelined multiplexed
/// campaign (which in turn equals the loopback baseline).
#[test]
fn pipelined_reactor_campaigns_match_lockstep() {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    let components = [system.b.clone(), q.converter.clone()];
    let cfg = config(24, 2, 8);
    let (baseline, _, _) = campaign("reactor-mux", &components, &service, &cfg);
    assert!(baseline.is_clean(), "verified converter convicted");
    for pipeline in [4u64, 16] {
        let piped_cfg = DriveConfig {
            pipeline,
            ..config(24, 2, 8)
        };
        let (piped, _, _) = campaign("reactor-mux", &components, &service, &piped_cfg);
        assert_eq!(
            baseline.to_json(),
            piped.to_json(),
            "pipeline depth {pipeline} changed the reactor campaign report"
        );
    }
}

/// The multiplexed driver holds a thousand concurrent sessions per
/// connection over the reactor without convictions, transport errors,
/// or report divergence — a scaled-down rehearsal of the 100k+ target
/// documented in EXPERIMENTS.md (EXP-R3).
#[test]
fn reactor_sustains_a_thousand_sessions_per_connection() {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    let components = [system.b.clone(), q.converter.clone()];
    let cfg = DriveConfig {
        runs: 2000,
        threads: 2,
        seed: 0x1000_5E55,
        max_steps: 120,
        faults: FaultPlan::parse("loss").unwrap(),
        sessions_per_conn: 1000,
        ..DriveConfig::default()
    };
    let gw = gateway(&components, &service);
    let mut server =
        ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let addr = server.local_addr();
    let report = drive_mux(&components, &service, &cfg, move || {
        MuxClient::connect(addr).map(|c| Box::new(c) as Box<dyn MuxTransport>)
    });
    server.stop();
    gw.drain();
    assert_eq!(report.runs, 2000);
    assert!(report.is_clean(), "verified converter convicted: {report}");
    assert!(report.accepted > 0, "no frames relayed");
    let snap = gw.stats();
    common::assert_stats_conserved("thousand sessions per connection", &snap);
    // 2000 sessions crossed at most two sockets.
    assert!(
        snap.connections_opened <= 2,
        "expected at most one connection per driver thread, saw {}",
        snap.connections_opened
    );
    assert_eq!(snap.sessions_opened, 2000, "every run is one session");
}

/// A multiplexed carrier driven lockstep: one frame, one exchange.
struct Lockstep<M: MuxTransport>(M);

impl<M: MuxTransport> Conn for Lockstep<M> {
    fn call(&mut self, frame: &Frame) -> io::Result<Reply> {
        self.0.queue(frame)?;
        let mut replies = Vec::new();
        self.0.exchange(true, &mut replies)?;
        match replies.as_slice() {
            [reply] => Ok(*reply),
            other => Err(io::Error::other(format!(
                "expected one reply, got {other:?}"
            ))),
        }
    }
}

/// Sessions are scoped to their connection. Connection A sends
/// `trace[0]` on session 7; connection B then sends `trace[1]` and
/// `Close` on its own session 7. Neither reaches A's session: A's
/// `trace[1]` is still accepted, and A's next frame is not answered
/// `closed` — over the blocking server, the reactor and the
/// multiplexed loopback alike.
#[test]
fn sessions_are_scoped_to_their_connection() {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    let components = [system.b, q.converter];
    for carrier in ["blocking", "reactor", "loopback-mux"] {
        let gw = gateway(&components, &service);
        let trace = gw.program().sample_accepted(3);
        assert_eq!(trace.len(), 3, "the converter accepts a three-event trace");
        let event = |i: usize| Frame::Event {
            session: 7,
            event: trace[i],
        };
        let mut blocking = None;
        let mut reactor = None;
        let (mut a, mut b): (Box<dyn Conn>, Box<dyn Conn>) = match carrier {
            "loopback-mux" => (
                Box::new(Lockstep(LoopbackMux::new(gw.clone()))),
                Box::new(Lockstep(LoopbackMux::new(gw.clone()))),
            ),
            _ => {
                let addr = if carrier == "blocking" {
                    let server = TcpServer::bind(gw.clone(), "127.0.0.1:0").expect("bind");
                    blocking.insert(server).local_addr()
                } else {
                    let server =
                        ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default())
                            .expect("bind");
                    reactor.insert(server).local_addr()
                };
                (
                    Box::new(TcpConn::connect(addr).expect("connect A")),
                    Box::new(TcpConn::connect(addr).expect("connect B")),
                )
            }
        };
        let accepted = Reply::Accepted { session: 7 };
        assert_eq!(a.call(&event(0)).unwrap(), accepted, "{carrier}");
        // B's first frame opens B's session 7, whatever its verdict.
        assert_eq!(b.call(&event(1)).unwrap().session(), 7, "{carrier}");
        assert_eq!(
            b.call(&Frame::Close { session: 7 }).unwrap(),
            accepted,
            "{carrier}"
        );
        assert_eq!(
            a.call(&event(1)).unwrap(),
            accepted,
            "{carrier}: B's event reached A's session"
        );
        assert_eq!(
            a.call(&event(2)).unwrap(),
            accepted,
            "{carrier}: B's close reached A's session"
        );
        drop((a, b));
        if let Some(mut server) = blocking {
            server.stop();
        }
        if let Some(mut server) = reactor {
            server.stop();
        }
        let snap = gw.stats();
        assert_eq!(
            snap.sessions_opened, 2,
            "{carrier}: one session per connection"
        );
        assert_eq!(
            snap.sessions_active, 0,
            "{carrier}: sessions end with their connection"
        );
        common::assert_stats_conserved(carrier, &snap);
    }
}
