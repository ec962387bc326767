//! `wire-churn`: an open loop on the symmetric converter (Fig. 9
//! components, at-least-once service). Sessions arrive as a Poisson
//! process at each rate of a ladder of offered event rates; each is
//! short (a seeded 4–64 events, then `Close`) and about one in ten
//! ends in a convicting event or a stall attestation. Once per rung a
//! pre-admitted converter version is hot-swapped in while sessions are
//! live. Readiness batches are shallow, so per-readiness transport
//! cost, session open and close, convictions and the swap/drain path
//! dominate: the opposite of `wire-steady`.
//!
//! Every frame has a due time; its round trip is measured from that
//! due time, so a stall also charges the frames queued behind it. The
//! end-to-end figures come from the reference rate, where the run
//! spends most of its time: the median round trip, the p75 of a
//! typical 20-ms window (the median over windows of each window's
//! p75), and frames answered per second of the serving threads' CPU
//! time (the median over 1-s blocks). They are not calibrated (see
//! calib.rs): a round trip here is mostly system calls and waking the
//! serving thread, whose speed the kernel does not follow. The
//! windowed p90 and p99 and the whole-run p99 are printed beside
//! them: on a shared host a tenth of the frames in most windows can
//! wait for the host for the length of a run (a windowed p90 of 717 us
//! beside a median of 37 us), and the p99s swing by an order of
//! magnitude between runs. The capacity (`max_rate_eps`) is the
//! highest rate whose p99 stays within 1 ms with every frame
//! answered (no growing backlog), found by climbing the ladder and then
//! bisecting between the last rung that held and the first that did
//! not. It is printed, not gated: on a two-CPU host the one client
//! thread saturates first, and the figure moves by half between runs.

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{ns_since, other_threads_cpu_ns, quantile, rss_peak_mib, sorted, Rng};
use crate::wire::{
    conn_base, conservation, replay_frames, replay_observe, setup_median, teardown, Op, Rig,
    Script, System, Walker,
};
use protoquot_protocols::paper::symmetric_configuration;
use protoquot_protocols::service::at_least_once;
use protoquot_runtime::artifact::encode_with_program;
use protoquot_runtime::codec::Frame;
use protoquot_runtime::transport::MuxTransport;
use protoquot_runtime::{GatewayConfig, GuardProgram};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct session scripts a run draws from.
const TEMPLATES: usize = 512;
/// Mean gap between two frames of one session.
const GAP_MEAN_S: f64 = 0.0005;
/// Share of sessions that end in a convicting event or a stall.
const BAD_ENDING: f64 = 0.1;
/// Offered event rates the capacity search climbs, in events/s.
const LADDER: [f64; 10] = [
    50e3, 100e3, 200e3, 400e3, 600e3, 800e3, 1000e3, 1250e3, 1600e3, 2000e3,
];
/// The rate the end-to-end round-trip figures are taken at: low
/// enough that readiness batches hold one or two frames.
const REFERENCE_RATE: f64 = 20e3;
/// Share of the run spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.6;
/// Bisection steps after the ladder.
const BISECT: usize = 3;
/// Rung length on the ladder and in the bisection.
const RUNG_S: f64 = 0.5;
/// The p99 a rung reports is the median of the p99s of its windows of
/// this length: a stall of a few milliseconds, which this host's
/// scheduler causes now and then, spoils one window and not the
/// rung, while a backlog that grows spoils every window.
const WINDOW_NS: u64 = 20_000_000;
/// Length of the blocks throughput is taken over.
const BLOCK_NS: u64 = 1_000_000_000;
/// The latency limit the capacity is judged by.
const P99_LIMIT_US: f64 = 1000.0;
/// A rung is abandoned once the generator or a reply runs this late.
const ABORT_LATE_NS: u64 = 50_000_000;
/// Frames still unanswered after this long without a reply count as
/// failed, and the rung ends.
const GIVE_UP_NS: u64 = 5_000_000_000;
/// Idle sessions are swept this often, the cadence of `protoquot
/// serve`; closed ones go after the gateway's idle timeout.
const SWEEP_EVERY_NS: u64 = 100_000_000;
const IDLE_TIMEOUT: Duration = Duration::from_millis(250);
/// Pre-admitted versions, one swapped in per rung: enough for the
/// warm-up, the reference rate, every ladder rung and the bisection.
const VERSIONS: usize = LADDER.len() + BISECT + 2;

/// A script built on the DFA: a walk of 4–64 events; one in ten ends
/// in a convicting event or a stall attestation; then `Close`.
fn template(program: &Arc<GuardProgram>, rng: &mut Rng) -> Script {
    let len = 4 + rng.below(61);
    let mut walker = Walker::new(program);
    let mut ops: Vec<Op> = (0..len)
        .map_while(|_| walker.step(rng).map(Op::Event))
        .collect();
    if rng.unit() < BAD_ENDING {
        match walker.convicting(rng) {
            Some(e) if rng.below(2) == 0 => ops.push(Op::Event(e)),
            _ => ops.push(Op::Stall),
        }
    }
    ops.push(Op::Close);
    Script::with_oracle(program, ops)
}

/// One session in a rung's schedule.
struct Session {
    id: u64,
    script: u32,
    /// Offset of this session's due times in the rung's `dues`.
    dues: u32,
    sent: u16,
    replied: u16,
    /// When a rung is abandoned mid-script, the index of the `Close`
    /// sent in place of the rest.
    close_at: Option<u16>,
}

/// One rung's measurements.
#[derive(Default)]
struct Rung {
    rate: f64,
    secs: f64,
    frames: u64,
    answered: u64,
    rtt_us: Vec<f64>,
    /// Round trips by the window (of [`WINDOW_NS`]) their frame was
    /// due in.
    windows: Vec<Vec<f64>>,
    late_us: Vec<f64>,
    aborted: bool,
    exchanges: u64,
    replies: u64,
    exchange_ns: u64,
    busy_ns: u64,
    wall_ns: u64,
    /// CPU time of the serving threads (reactor loop, gateway worker)
    /// over the rung.
    server_cpu_ns: u64,
    /// Each whole [`BLOCK_NS`] block: frames answered and the serving
    /// threads' CPU time.
    blocks: Vec<(u64, u64)>,
    swap_us: Option<f64>,
    /// Frames in the order sent, kept when tracing for the replays.
    sent: Vec<Frame>,
}

impl Rung {
    /// The median over the rung's windows of each window's p99.
    fn p99(&self) -> f64 {
        self.windowed(0.99)
    }

    /// The median over the rung's windows of each window's `q`-quantile.
    fn windowed(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(&sorted(w.clone()), q))
            .collect();
        crate::util::median(&per)
    }

    /// The median block's frames answered per second of the serving
    /// threads' CPU time.
    fn per_server_cpu_s_blocks(&self) -> f64 {
        let per: Vec<f64> = self
            .blocks
            .iter()
            .map(|&(frames, cpu)| frames as f64 * 1e9 / (cpu as f64).max(1.0))
            .collect();
        crate::util::median(&per)
    }

    fn holds(&self) -> bool {
        !self.aborted && self.answered == self.frames && self.p99() <= P99_LIMIT_US
    }

    fn delivered(&self) -> f64 {
        self.answered as f64 / self.secs
    }

    /// Frames answered per second of the serving threads' CPU time.
    fn per_server_cpu_s(&self) -> f64 {
        self.answered as f64 * 1e9 / self.server_cpu_ns.max(1) as f64
    }
}

struct Churn {
    rig: Rig,
    scripts: Vec<Script>,
    mean_frames: f64,
    versions: Vec<(u32, Arc<GuardProgram>)>,
    next_session: u64,
    origin: Instant,
    last_sweep: u64,
    failures: Vec<String>,
    tr: Tracer,
}

impl Churn {
    /// Runs one rung: `secs` of Poisson session arrivals at `rate`
    /// events/s, with a hot swap halfway.
    fn rung(&mut self, rate: f64, secs: f64, rng: &mut Rng) -> Result<Rung, String> {
        // Schedule: sessions, their frames' due times, and the frames
        // in due order.
        let mut sessions = Vec::new();
        let mut dues: Vec<u64> = Vec::new();
        let mut order: Vec<(u64, u32, u16)> = Vec::new();
        let arrivals = rate / self.mean_frames;
        let mut t = rng.exp(1.0 / arrivals);
        while t < secs {
            let script = rng.below(self.scripts.len()) as u32;
            let g = self.next_session;
            self.next_session += 1;
            let slot = sessions.len() as u32;
            sessions.push(Session {
                id: conn_base((g % 2) as usize) + g,
                script,
                dues: dues.len() as u32,
                sent: 0,
                replied: 0,
                close_at: None,
            });
            let mut d = t;
            for k in 0..self.scripts[script as usize].ops.len() {
                let ns = (d * 1e9) as u64;
                dues.push(ns);
                order.push((ns, slot, k as u16));
                d += rng.exp(GAP_MEAN_S);
            }
            t += rng.exp(1.0 / arrivals);
        }
        order.sort_unstable();
        let first_g = self.next_session - sessions.len() as u64;

        let mut rung = Rung {
            rate,
            secs,
            frames: order.len() as u64,
            ..Rung::default()
        };
        let server_cpu = other_threads_cpu_ns();
        let start = ns_since(self.origin) + 1_000_000;
        let mut block_start = start;
        let mut block_cpu = server_cpu;
        let mut block_answered = 0u64;
        let swap_at = start + (secs * 0.5e9) as u64;
        let mut swapped = false;
        let mut idx = 0usize;
        let mut outstanding = 0u64;
        let mut replies = Vec::new();
        let mut passes = 0u64;
        let mut last_reply = start;
        let tr = &mut self.tr;
        loop {
            let it = Instant::now();
            let mut worked = false;
            let now = ns_since(self.origin);
            if !rung.aborted {
                while idx < order.len() && start + order[idx].0 <= now {
                    let (due, slot, k) = order[idx];
                    let s = &mut sessions[slot as usize];
                    let frame = self.scripts[s.script as usize].frame(k as usize, s.id);
                    let conn = ((s.id >> 40) - 1) as usize;
                    tr.begin("codec.encode", idx as u64);
                    self.rig.clients[conn]
                        .queue(&frame)
                        .map_err(|e| format!("queue: {e}"))?;
                    tr.end();
                    s.sent += 1;
                    outstanding += 1;
                    self.rig.tally.sent += 1;
                    if tr.enabled() {
                        rung.sent.push(frame);
                    }
                    rung.late_us.push((now - start - due) as f64 / 1e3);
                    idx += 1;
                    worked = true;
                }
            }
            // One connection per pass, alternating: a pass costs one
            // exchange's system calls whatever the connection count.
            {
                let c = (passes % self.rig.clients.len() as u64) as usize;
                passes += 1;
                let before = replies.len();
                let t = Instant::now();
                tr.begin("transport.exchange", rung.exchanges);
                self.rig.clients[c]
                    .exchange(false, &mut replies)
                    .map_err(|e| format!("exchange: {e}"))?;
                tr.end();
                // Only exchanges that brought replies count: the loop
                // polls, and empty polls say nothing about the wire.
                if replies.len() > before {
                    rung.exchange_ns += t.elapsed().as_nanos() as u64;
                    rung.exchanges += 1;
                    rung.replies += (replies.len() - before) as u64;
                }
            }
            let now = ns_since(self.origin);
            for r in replies.drain(..) {
                worked = true;
                last_reply = now;
                let id = r.session();
                let conn = (id >> 40).wrapping_sub(1);
                let g = id.wrapping_sub(conn_base(conn as usize));
                let Some(s) = g
                    .checked_sub(first_g)
                    .and_then(|slot| sessions.get_mut(slot as usize))
                    .filter(|s| s.id == id && s.replied < s.sent)
                else {
                    self.rig.tally.mismatches += 1;
                    note(&mut self.failures, format!("unexpected reply {r:?}"));
                    continue;
                };
                let script = &self.scripts[s.script as usize];
                let k = s.replied as usize;
                let (op, expect) = if s.close_at == Some(s.replied) {
                    (Op::Close, crate::wire::Expect::Accepted)
                } else {
                    (script.ops[k], script.expect[k])
                };
                if !self.rig.tally.reply(op, expect, &r) {
                    note(
                        &mut self.failures,
                        format!("{op:?} of session {id:#x} got {r:?}, expected {expect:?}"),
                    );
                }
                let due = start + dues[s.dues as usize + k];
                let rtt = now.saturating_sub(due);
                rung.rtt_us.push(rtt as f64 / 1e3);
                let w = ((due - start) / WINDOW_NS) as usize;
                if rung.windows.len() <= w {
                    rung.windows.resize_with(w + 1, Vec::new);
                }
                rung.windows[w].push(rtt as f64 / 1e3);
                s.replied += 1;
                outstanding -= 1;
                rung.answered += 1;
                block_answered += 1;
                if rtt > ABORT_LATE_NS {
                    rung.aborted = true;
                }
            }
            if idx < order.len() && now > start + order[idx].0 + ABORT_LATE_NS {
                rung.aborted = true;
            }
            if rung.aborted && idx < order.len() {
                // Abandon the rest of the schedule: sessions already
                // open are closed now, the others never start.
                idx = order.len();
                for s in sessions.iter_mut() {
                    let len = self.scripts[s.script as usize].ops.len() as u16;
                    if s.sent > 0 && s.sent < len {
                        let conn = ((s.id >> 40) - 1) as usize;
                        self.rig.clients[conn]
                            .queue(&Frame::Close { session: s.id })
                            .map_err(|e| format!("queue: {e}"))?;
                        s.close_at = Some(s.sent);
                        s.sent += 1;
                        outstanding += 1;
                        self.rig.tally.sent += 1;
                    }
                }
            }
            if now >= block_start + BLOCK_NS {
                let cpu = other_threads_cpu_ns();
                rung.blocks.push((block_answered, cpu - block_cpu));
                block_start = now;
                block_cpu = cpu;
                block_answered = 0;
            }
            if !swapped && now >= swap_at && !self.versions.is_empty() {
                swapped = true;
                let (version, program) = self.versions.remove(0);
                let t = Instant::now();
                tr.begin("gateway.swap", u64::from(version));
                let res = self.rig.gateway.swap(version, program);
                tr.end();
                rung.swap_us = Some(t.elapsed().as_secs_f64() * 1e6);
                if let Err(e) = res {
                    self.rig.tally.mismatches += 1;
                    note(
                        &mut self.failures,
                        format!("swap to version {version}: {e}"),
                    );
                }
            }
            if now >= self.last_sweep + SWEEP_EVERY_NS {
                self.last_sweep = now;
                self.rig.gateway.evict_idle();
            }
            if worked {
                rung.busy_ns += it.elapsed().as_nanos() as u64;
            }
            if idx == order.len() && outstanding == 0 {
                break;
            }
            if outstanding > 0 && now > last_reply + GIVE_UP_NS {
                self.rig.tally.mismatches += outstanding;
                note(
                    &mut self.failures,
                    format!("{outstanding} frames never answered"),
                );
                rung.aborted = true;
                break;
            }
        }
        rung.wall_ns = ns_since(self.origin) - start;
        rung.server_cpu_ns = other_threads_cpu_ns() - server_cpu;
        Ok(rung)
    }
}

fn note(failures: &mut Vec<String>, line: String) {
    if failures.len() < 5 {
        failures.push(line);
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, workdir: &Path) -> Result<Report, String> {
    let cfg = symmetric_configuration();
    let sys = System {
        b: cfg.b,
        int: cfg.int,
        service: at_least_once(),
    };
    let gateway_cfg = GatewayConfig {
        workers: 1,
        idle_timeout: IDLE_TIMEOUT,
        ..GatewayConfig::default()
    };
    let mut tr = Tracer::new(trace);
    let (mut rig, setup) = setup_median(&sys, 2, workdir, &gateway_cfg, &mut tr)?;

    // Inputs: session scripts with their oracle replies, and the
    // converter versions to swap in (the same converter under new
    // names, so every version gives every frame the same reply).
    let mut rng = Rng::derive(seed, 0xc4);
    let scripts: Vec<Script> = (0..TEMPLATES)
        .map(|_| template(&rig.program, &mut rng))
        .collect();
    let mean_frames =
        scripts.iter().map(|s| s.ops.len()).sum::<usize>() as f64 / scripts.len() as f64;
    let mut versions = Vec::with_capacity(VERSIONS);
    for v in 0..VERSIONS {
        let converter =
            rig.parts[1]
                .clone()
                .with_name(&format!("{}_v{}", rig.parts[1].name(), v + 2));
        let parts = [&rig.parts[0], &converter];
        let program = GuardProgram::new(&parts, &rig.service).map_err(|e| e.to_string())?;
        let bytes = encode_with_program(&parts, &rig.service, &program);
        let admitted = rig
            .registry
            .admit(&bytes)
            .map_err(|e| format!("pre-admission: {e}"))?;
        versions.push((admitted.version, admitted.program));
    }
    let origin = Instant::now();
    let mut churn = Churn {
        rig,
        scripts,
        mean_frames,
        versions,
        next_session: 0,
        origin,
        last_sweep: 0,
        failures: Vec::new(),
        tr: Tracer::new(false),
    };

    // Warm-up, then the reference rate, then the capacity search.
    churn.rung(REFERENCE_RATE, RUNG_S, &mut rng)?;
    churn.tr.set_enabled(trace);
    let reference = churn.rung(REFERENCE_RATE, seconds * REFERENCE_SHARE, &mut rng)?;
    let rss_mib = rss_peak_mib();
    churn.tr.set_enabled(false);
    let mut rungs: Vec<Rung> = Vec::new();
    let mut lo: Option<usize> = None;
    let mut hi: Option<f64> = None;
    for &rate in &LADDER {
        let r = churn.rung(rate, RUNG_S, &mut rng)?;
        let holds = r.holds();
        rungs.push(r);
        if holds {
            lo = Some(rungs.len() - 1);
        } else {
            hi = Some(rate);
            break;
        }
    }
    if let (Some(l), Some(h)) = (lo, hi) {
        let mut lo_rate = rungs[l].rate;
        let mut hi_rate = h;
        for _ in 0..BISECT {
            let rate = (lo_rate + hi_rate) / 2.0;
            let r = churn.rung(rate, RUNG_S, &mut rng)?;
            if r.holds() {
                lo_rate = rate;
                rungs.push(r);
                lo = Some(rungs.len() - 1);
            } else {
                hi_rate = rate;
                rungs.push(r);
            }
        }
    }

    let stats = churn.rig.gateway.stats();
    let mut report = Report::new();
    let violations = conservation(&stats, &churn.rig.tally);
    for v in &violations {
        report.note(format!("conservation violated: {v}"));
    }
    for f in &churn.failures {
        report.note(format!("FAILED {f}"));
    }
    report.attempted = churn.rig.tally.sent;
    report.failed = churn.rig.tally.mismatches + violations.len() as u64;

    let rtt = sorted(reference.rtt_us.clone());
    let capacity = lo.map_or(0.0, |l| rungs[l].delivered());
    report.e2e(
        "throughput_per_s",
        reference.per_server_cpu_s_blocks(),
        "1/s",
    );
    report.e2e("latency_p50_us", quantile(&rtt, 0.5), "us");
    report.e2e("latency_tail_us", reference.windowed(0.75), "us");
    report.e2e("setup_s", setup.calibrated_s, "s");
    report.e2e("rss_peak_mib", rss_mib, "MiB");
    report.alias(
        "events_per_server_cpu_s",
        reference.per_server_cpu_s_blocks(),
        "1/s",
    );
    report.alias(
        "events_per_server_cpu_s_mean",
        reference.per_server_cpu_s(),
        "1/s",
    );
    report.alias("max_rate_eps", capacity, "1/s");
    report.alias("rtt_p50_us", quantile(&rtt, 0.5), "us");
    report.alias("rtt_p75_windowed_us", reference.windowed(0.75), "us");
    report.alias("rtt_p90_windowed_us", reference.windowed(0.9), "us");
    report.alias("rtt_p99_windowed_us", reference.p99(), "us");
    report.alias("rtt_p99_us", quantile(&rtt, 0.99), "us");
    report.alias("setup_cpu_s", setup.cpu_s, "s");
    report.alias("setup_wall_s", setup.wall_s, "s");
    report.note(format!(
        "reference rate {:.0} ev/s for {:.2} s: {} rtt samples from due time, two negotiated connections over 127.0.0.1",
        REFERENCE_RATE,
        reference.secs,
        rtt.len()
    ));
    for r in std::iter::once(&reference).chain(&rungs) {
        report.note(format!(
            "rung {:>8.0} ev/s: delivered {:>9.0}, p50 {:>7.1} us, windowed p99 {:>7.1} us, late p99 {:>7.1} us, busy {:.2}, {} frames{}{}",
            r.rate,
            r.delivered(),
            quantile(&sorted(r.rtt_us.clone()), 0.5),
            r.p99(),
            quantile(&sorted(r.late_us.clone()), 0.99),
            r.busy_ns as f64 / r.wall_ns.max(1) as f64,
            r.frames,
            if r.aborted { ", abandoned" } else { "" },
            if r.holds() { "" } else { ", over the limit" }
        ));
    }
    report.note(format!(
        "sessions {}, convictions {}, swaps {}, versions retired {}",
        stats.sessions_opened, stats.convictions, stats.swaps, stats.versions_retired
    ));

    if trace {
        let t = Instant::now();
        let _ = std::hint::black_box(churn.rig.gateway.stats());
        let snapshot_us = t.elapsed().as_secs_f64() * 1e6;
        let encode = churn.tr.agg("codec.encode");
        let encode_ns = encode.total_ns as f64 / encode.count.max(1) as f64;
        let observe_ns = replay_observe(&churn.rig.program, churn.scripts.iter());
        let (call_batch_ns, decode_ns) = replay_frames(
            &churn.rig.program,
            &[],
            &reference.sent,
            &stats,
            &gateway_cfg,
        )?;
        let wall_ns = quantile(&rtt, 0.5) * 1e3;
        let residual = wall_ns - (encode_ns + decode_ns + call_batch_ns);
        report.layer("guard.observe_ns", observe_ns, "ns");
        report.layer("gateway.call_batch_ns", call_batch_ns, "ns");
        report.layer("codec.encode_ns", encode_ns, "ns");
        report.layer("codec.decode_ns", decode_ns, "ns");
        report.layer("transport.residual_ns", residual, "ns");
        report.layer("trace.unaccounted_frac", residual / wall_ns, "ratio");
        report.note(format!(
            "reference rtt p50 {:.1} ns = encode {:.1} + decode {:.1} + call_batch {:.1} + residual {:.1}",
            wall_ns, encode_ns, decode_ns, call_batch_ns, residual
        ));
        report.layer(
            "transport.exchange_wait_us",
            reference.exchange_ns as f64 / reference.exchanges.max(1) as f64 / 1e3,
            "us",
        );
        report.layer(
            "transport.frames_per_exchange",
            reference.replies as f64 / reference.exchanges.max(1) as f64,
            "count",
        );
        let swaps: Vec<f64> = rungs.iter().filter_map(|r| r.swap_us).collect();
        report.layer("gateway.swap_us", crate::util::median(&swaps), "us");
        // Validity at the capacity: the generator kept its schedule
        // and the client thread had time to spare.
        let top = lo.map_or(&reference, |l| &rungs[l]);
        report.layer(
            "bench.gen_late_p99_us",
            quantile(&sorted(top.late_us.clone()), 0.99),
            "us",
        );
        report.layer(
            "bench.client_busy_frac",
            top.busy_ns as f64 / top.wall_ns.max(1) as f64,
            "ratio",
        );
        crate::report::gateway_layers(&mut report, &stats, snapshot_us);
        crate::report::derive_layers(&mut report, &tr);
        report.trace = Some(churn.tr);
    }
    teardown(churn.rig);
    Ok(report)
}
