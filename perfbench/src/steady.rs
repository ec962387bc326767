//! `wire-steady`: a closed loop on the co-located (Fig. 13/14)
//! converter. 65,536 resident sessions share one negotiated
//! connection; each follows its own seeded walk over the guard DFA and
//! keeps exactly one frame in flight: when its reply arrives, its next
//! frame is queued. Batches are deep and the session table is larger
//! than the caches, so codec, session lookup and lock, the DFA walk and
//! the reactor's batch path carry the load; the solver runs only in
//! set-up.
//!
//! The figures are taken on the work clock: the CPU time of every
//! thread of the process (client, reactor loop, gateway worker), less
//! the calibration kernel's own, so that time the host held a virtual
//! CPU back does not count; and they are calibrated (see calib.rs) by
//! the kernel, which runs on the client thread every 10 ms. Throughput
//! is accepted events per calibrated CPU second, the median over 1-s
//! blocks; a round trip is the calibrated CPU time the process spent
//! between queueing a frame and decoding its reply. In this closed loop
//! that is the work done for the frames ahead of it, so it moves with
//! the cost per frame and with the order the gateway serves frames
//! in. Wall-clock figures are printed beside them.

use crate::calib;
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{ns_since, process_cpu_ns, quantile, rss_peak_mib, sorted, thread_cpu_ns, Rng};
use crate::wire::{
    conn_base, conservation, replay_frames, replay_observe, setup_median, teardown, Op, Script,
    System, Walker,
};
use protoquot_protocols::paper::colocated_configuration;
use protoquot_protocols::service::exactly_once;
use protoquot_runtime::codec::Frame;
use protoquot_runtime::transport::MuxTransport;
use protoquot_runtime::{GatewayConfig, GuardProgram};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SESSIONS: usize = 65_536;
/// Events per session walk; a session that uses its walk up closes and
/// starts over under a fresh id. Long enough that no session does so
/// within a run below 8 million events/s: a whole table of sessions
/// closing and reopening mid-run would move the peak resident set by
/// half, depending on whether the run got that far.
const WALK_LEN: usize = 4096;
const WARMUP: Duration = Duration::from_secs(1);
/// Round-trip times are kept for every session whose index is a
/// multiple of this (an unbiased 1/256 sample).
const RTT_SAMPLE_EVERY: usize = 256;
/// Round trips per second of a run that the sample buffers are sized
/// for up front, above any rate seen: buffers that grew as they filled
/// would move the peak resident set, which is a metric, with the run's
/// speed.
const ROUNDS_PER_S_MAX: f64 = 100.0;
/// Throughput is taken per block of this length; the run reports the
/// median block.
const BLOCK_NS: u64 = 1_000_000_000;
/// Rounds of the replay that times `call_batch` and the frame decoder.
const REPLAY_ROUNDS: usize = 4;

fn session_id(epoch: u32, s: usize) -> u64 {
    conn_base(0) + ((epoch as u64) << 16) + s as u64
}

/// Each session's seeded walk. Identical walks share one script (and
/// one oracle run).
fn scripts(program: &Arc<GuardProgram>, seed: u64) -> (Vec<Script>, Vec<u32>) {
    let mut interned: HashMap<Vec<u16>, u32> = HashMap::new();
    let mut walks: Vec<Vec<u16>> = Vec::new();
    let mut which = Vec::with_capacity(SESSIONS);
    for s in 0..SESSIONS {
        let mut rng = Rng::derive(seed, s as u64);
        let mut walker = Walker::new(program);
        let walk: Vec<u16> = (0..WALK_LEN).map_while(|_| walker.step(&mut rng)).collect();
        let id = *interned.entry(walk).or_insert_with_key(|w| {
            walks.push(w.clone());
            walks.len() as u32 - 1
        });
        which.push(id);
    }
    let pool = walks
        .into_iter()
        .map(|w| {
            let mut ops: Vec<Op> = w.into_iter().map(Op::Event).collect();
            ops.push(Op::Close);
            Script::with_oracle(program, ops)
        })
        .collect();
    (pool, which)
}

/// Counters of one measurement window.
#[derive(Default)]
struct Window {
    start_ns: u64,
    end_ns: u64,
    accepted: u64,
    rtt_ns: Vec<f64>,
    exchanges: u64,
    replies: u64,
    exchange_ns: u64,
    encode_ns: u64,
    encoded: u64,
    cpu_ns: u64,
    /// Accepted events per second of each whole [`BLOCK_NS`] block.
    blocks: Vec<f64>,
    /// Each whole block's accepted events, the work clock it took and
    /// the calibration samples taken in it.
    work_blocks: Vec<(u64, u64, std::ops::Range<usize>)>,
    block_start_ns: u64,
    block_start_work: u64,
    block_start_cal: usize,
    block_accepted: u64,
    /// Round trips of the sampled sessions on the work clock, each
    /// with the calibration sample current when its reply came.
    rtt_work: Vec<(f64, usize)>,
    /// Where each whole block's round trips start in `rtt_work`.
    rtt_block_starts: Vec<usize>,
}

impl Window {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    fn events_per_s(&self) -> f64 {
        self.accepted as f64 / self.secs()
    }

    /// The median block rate: a dip of a second or two, which this
    /// host's other tenants cause now and then, moves it less than
    /// the mean.
    fn block_events_per_s(&self) -> f64 {
        if self.blocks.is_empty() {
            self.events_per_s()
        } else {
            crate::util::median(&self.blocks)
        }
    }

    /// The median block's accepted events per calibrated second of the
    /// work clock.
    fn events_per_work_s(&self, factors: &[f64]) -> f64 {
        let per: Vec<f64> = self
            .work_blocks
            .iter()
            .map(|(events, work, cal)| {
                let f = if cal.is_empty() {
                    1.0
                } else {
                    crate::util::median(&factors[cal.clone()])
                };
                *events as f64 * 1e9 / (*work as f64 * f).max(1.0)
            })
            .collect();
        crate::util::median(&per)
    }

    /// Calibrated work-clock round trips, sorted, in ns.
    fn rtt_work_calibrated(&self, factors: &[f64]) -> Vec<f64> {
        calibrated(&self.rtt_work, factors)
    }

    /// The median over whole blocks of each block's calibrated
    /// work-clock `q`-quantile round trip, in ns: a stretch of a second
    /// or two that the calibration does not follow spoils the blocks
    /// it falls in, not the run.
    fn rtt_work_blocked(&self, factors: &[f64], q: f64) -> f64 {
        let per: Vec<f64> = self
            .rtt_block_starts
            .windows(2)
            .map(|b| quantile(&calibrated(&self.rtt_work[b[0]..b[1]], factors), q))
            .collect();
        crate::util::median(&per)
    }
}

/// Round trips `(work ns, calibration sample)` scaled by their
/// factors, sorted.
fn calibrated(rtt: &[(f64, usize)], factors: &[f64]) -> Vec<f64> {
    sorted(
        rtt.iter()
            .map(|&(ns, i)| ns * factors.get(i).or(factors.last()).copied().unwrap_or(1.0))
            .collect(),
    )
}

/// Time between two runs of the calibration kernel on the client
/// thread.
const CALIBRATE_EVERY_NS: u64 = 10_000_000;

pub fn run(seed: u64, seconds: f64, trace: bool, workdir: &Path) -> Result<Report, String> {
    let cfg = colocated_configuration();
    let sys = System {
        b: cfg.b,
        int: cfg.int,
        service: exactly_once(),
    };
    let gateway_cfg = GatewayConfig {
        workers: 1,
        ..GatewayConfig::default()
    };
    let mut tr = Tracer::new(trace);
    let (mut rig, setup) = setup_median(&sys, 1, workdir, &gateway_cfg, &mut tr)?;
    let (pool, which) = scripts(&rig.program, seed);

    // Windows: warm-up, then the measured span; a traced run measures
    // its first half untraced and its second half traced.
    let measure = Duration::from_secs_f64(seconds);
    let origin = Instant::now();
    let warm_end = (WARMUP).as_nanos() as u64;
    let split = warm_end
        + if trace {
            measure.as_nanos() as u64 / 2
        } else {
            measure.as_nanos() as u64
        };
    let stop = warm_end + measure.as_nanos() as u64;
    let mut windows = [Window::default(), Window::default()];
    let rtt_capacity = (seconds * ROUNDS_PER_S_MAX) as usize * SESSIONS.div_ceil(RTT_SAMPLE_EVERY);
    for w in &mut windows {
        w.rtt_ns.reserve_exact(rtt_capacity);
        w.rtt_work.reserve_exact(rtt_capacity);
    }
    let mut cur: Option<usize> = None;
    tr.set_enabled(false);

    let mut pos = vec![0u32; SESSIONS];
    let mut epoch = vec![0u32; SESSIONS];
    let mut queued_at = vec![0u64; SESSIONS];
    // The work clock: CPU time of every thread of the process, less
    // the calibration kernel's own.
    let mut queued_work = vec![0u64; SESSIONS];
    let mut cal_ns: Vec<f64> = Vec::new();
    let mut cal_cpu_ns = 0u64;
    let mut next_cal = 0u64;
    let mut next: Vec<(usize, Frame)> = (0..SESSIONS)
        .map(|s| (s, pool[which[s] as usize].frame(0, session_id(0, s))))
        .collect();
    let mut replies = Vec::new();
    let mut in_flight = 0usize;
    let mut stopping = false;
    let mut iteration = 0u64;
    let mut cpu_mark = thread_cpu_ns();
    let client = &mut rig.clients[0];
    loop {
        // Queue every frame made ready by the last replies.
        let now = ns_since(origin);
        let work = process_cpu_ns() - cal_cpu_ns;
        let t = Instant::now();
        for &(s, frame) in &next {
            queued_at[s] = now;
            queued_work[s] = work;
            client.queue(&frame).map_err(|e| format!("queue: {e}"))?;
        }
        let enc = t.elapsed().as_nanos() as u64;
        rig.tally.sent += next.len() as u64;
        in_flight += next.len();
        if let Some(w) = cur {
            windows[w].encode_ns += enc;
            windows[w].encoded += next.len() as u64;
            tr.add_bulk("codec.encode", next.len() as u64, enc);
        }
        next.clear();
        if stopping && in_flight == 0 {
            break;
        }
        tr.begin("client.iteration", iteration);
        let t = Instant::now();
        tr.begin("transport.exchange", iteration);
        client
            .exchange(true, &mut replies)
            .map_err(|e| format!("exchange: {e}"))?;
        tr.end();
        let xns = t.elapsed().as_nanos() as u64;
        let now = ns_since(origin);
        let work = process_cpu_ns() - cal_cpu_ns;
        if let Some(w) = cur {
            windows[w].exchanges += 1;
            windows[w].replies += replies.len() as u64;
            windows[w].exchange_ns += xns;
        }
        tr.begin("bench.check", iteration);
        for r in replies.drain(..) {
            let rel = r.session().wrapping_sub(conn_base(0));
            let s = (rel & 0xFFFF) as usize;
            if rel >> 16 != u64::from(epoch[s]) {
                rig.tally.mismatches += 1;
                continue;
            }
            in_flight -= 1;
            let script = &pool[which[s] as usize];
            let i = pos[s] as usize;
            let ok = rig.tally.reply(script.ops[i], script.expect[i], &r);
            if let Some(w) = cur {
                if ok && matches!(script.ops[i], Op::Event(_)) {
                    windows[w].accepted += 1;
                    windows[w].block_accepted += 1;
                }
                if s.is_multiple_of(RTT_SAMPLE_EVERY) {
                    windows[w].rtt_ns.push((now - queued_at[s]) as f64);
                    windows[w]
                        .rtt_work
                        .push(((work - queued_work[s]) as f64, cal_ns.len()));
                }
            }
            pos[s] += 1;
            if pos[s] as usize == script.ops.len() {
                epoch[s] += 1;
                pos[s] = 0;
            }
            if !stopping {
                next.push((s, script.frame(pos[s] as usize, session_id(epoch[s], s))));
            }
        }
        tr.end();
        tr.end();
        iteration += 1;
        if now >= next_cal {
            next_cal = now + CALIBRATE_EVERY_NS;
            let k = calib::kernel();
            cal_ns.push(k);
            cal_cpu_ns += k as u64;
        }
        if let Some(w) = cur.map(|w| &mut windows[w]) {
            if now >= w.block_start_ns + BLOCK_NS {
                w.blocks
                    .push(w.block_accepted as f64 * 1e9 / (now - w.block_start_ns) as f64);
                w.work_blocks.push((
                    w.block_accepted,
                    work - w.block_start_work,
                    w.block_start_cal..cal_ns.len(),
                ));
                w.block_start_ns = now;
                w.block_start_work = work;
                w.block_start_cal = cal_ns.len();
                w.block_accepted = 0;
                w.rtt_block_starts.push(w.rtt_work.len());
            }
        }
        // Window boundaries are checked once per exchange.
        let phase = if now < warm_end {
            None
        } else if now < split {
            Some(0)
        } else if now < stop {
            Some(1)
        } else {
            stopping = true;
            None
        };
        if phase != cur {
            let cpu = thread_cpu_ns();
            if let Some(w) = cur {
                windows[w].end_ns = now;
                windows[w].cpu_ns = cpu - cpu_mark;
            }
            if let Some(w) = phase {
                windows[w].start_ns = now;
                windows[w].block_start_ns = now;
                windows[w].block_start_work = work;
                windows[w].block_start_cal = cal_ns.len();
                windows[w].rtt_block_starts.push(0);
            }
            cpu_mark = cpu;
            tr.set_enabled(trace && phase == Some(1));
            cur = phase;
        }
    }
    tr.set_enabled(trace);

    let rss_mib = rss_peak_mib();
    let t = Instant::now();
    let stats = rig.gateway.stats();
    let snapshot_us = t.elapsed().as_secs_f64() * 1e6;
    let mut report = Report::new();
    let violations = conservation(&stats, &rig.tally);
    for v in &violations {
        report.note(format!("conservation violated: {v}"));
    }
    report.attempted = rig.tally.sent;
    report.failed = rig.tally.mismatches + violations.len() as u64;

    let factors = calib::factors(&cal_ns);
    let untraced = &windows[0];
    let rtt = sorted(untraced.rtt_ns.clone());
    let rtt_cpu = sorted(untraced.rtt_work.iter().map(|&(ns, _)| ns).collect());
    let rtt_cal = untraced.rtt_work_calibrated(&factors);
    let per_cpu_s = untraced.events_per_work_s(&vec![1.0; cal_ns.len()]);
    let per_cpu_s_cal = untraced.events_per_work_s(&factors);
    report.e2e("throughput_per_s", per_cpu_s_cal, "1/s");
    report.e2e("latency_p50_us", quantile(&rtt_cal, 0.5) / 1e3, "us");
    let p99_blocked = untraced.rtt_work_blocked(&factors, 0.99);
    report.e2e("latency_tail_us", p99_blocked / 1e3, "us");
    report.e2e("setup_s", setup.calibrated_s, "s");
    report.e2e("rss_peak_mib", rss_mib, "MiB");
    report.alias("events_per_cpu_s_calibrated", per_cpu_s_cal, "1/s");
    report.alias("events_per_cpu_s", per_cpu_s, "1/s");
    report.alias("events_per_s", untraced.block_events_per_s(), "1/s");
    report.alias("events_per_s_mean", untraced.events_per_s(), "1/s");
    report.alias(
        "rtt_cpu_p50_calibrated_us",
        quantile(&rtt_cal, 0.5) / 1e3,
        "us",
    );
    report.alias("rtt_cpu_p99_blocked_calibrated_us", p99_blocked / 1e3, "us");
    report.alias(
        "rtt_cpu_p99_calibrated_us",
        quantile(&rtt_cal, 0.99) / 1e3,
        "us",
    );
    report.alias("rtt_cpu_p50_us", quantile(&rtt_cpu, 0.5) / 1e3, "us");
    report.alias("rtt_cpu_p99_us", quantile(&rtt_cpu, 0.99) / 1e3, "us");
    report.alias("rtt_p50_us", quantile(&rtt, 0.5) / 1e3, "us");
    report.alias("rtt_p99_us", quantile(&rtt, 0.99) / 1e3, "us");
    report.alias("setup_cpu_s", setup.cpu_s, "s");
    report.alias("setup_wall_s", setup.wall_s, "s");
    report.note(format!(
        "CPU clock: every thread of the process, less the calibration kernel; calibration: {} kernel runs on the client thread, median {:.1} us against {:.1} us reference",
        cal_ns.len(),
        crate::util::median(&cal_ns) / 1e3,
        calib::REFERENCE_NS / 1e3
    ));
    report.note(format!(
        "rtt: {} samples (1/{RTT_SAMPLE_EVERY} of sessions), queue to decoded reply; {} sessions on one negotiated connection over 127.0.0.1",
        rtt.len(),
        SESSIONS
    ));
    report.note(format!(
        "distinct walks: {}; set-up repeated {} times",
        pool.len(),
        crate::wire::SETUP_REPS
    ));

    if trace {
        let traced = &windows[1];
        let frames = traced.encoded.max(1) as f64;
        let encode_ns = traced.encode_ns as f64 / frames;
        let observe_ns = replay_observe(
            &rig.program,
            which
                .iter()
                .step_by(RTT_SAMPLE_EVERY)
                .map(|&w| &pool[w as usize]),
        );
        // The run's round shape: every session one event per round;
        // round 0 opens the sessions, as the warm-up did.
        let round = |r: usize| -> Vec<Frame> {
            (0..SESSIONS)
                .map(|s| pool[which[s] as usize].frame(r, session_id(0, s)))
                .collect()
        };
        let frames: Vec<Frame> = (1..=REPLAY_ROUNDS).flat_map(round).collect();
        let (call_batch_ns, decode_ns) =
            replay_frames(&rig.program, &round(0), &frames, &stats, &gateway_cfg)?;
        let wall_ns = 1e9 / traced.events_per_s();
        let residual = wall_ns - (encode_ns + decode_ns + call_batch_ns);
        report.layer("guard.observe_ns", observe_ns, "ns");
        report.layer("gateway.call_batch_ns", call_batch_ns, "ns");
        report.layer("codec.encode_ns", encode_ns, "ns");
        report.layer("codec.decode_ns", decode_ns, "ns");
        report.layer(
            "transport.exchange_wait_us",
            traced.exchange_ns as f64 / traced.exchanges.max(1) as f64 / 1e3,
            "us",
        );
        report.layer(
            "transport.frames_per_exchange",
            traced.replies as f64 / traced.exchanges.max(1) as f64,
            "count",
        );
        report.layer("transport.residual_ns", residual, "ns");
        crate::report::gateway_layers(&mut report, &stats, snapshot_us);
        report.layer(
            "bench.client_busy_frac",
            traced.cpu_ns as f64 / (traced.end_ns - traced.start_ns) as f64,
            "ratio",
        );
        report.layer("trace.unaccounted_frac", residual / wall_ns, "ratio");
        report.layer(
            "trace.overhead_events_per_s",
            untraced.block_events_per_s() - traced.block_events_per_s(),
            "1/s",
        );
        report.note(format!(
            "traced window: {:.0} ev/s against {:.0} untraced; wall {:.1} ns/frame = encode {:.1} + decode {:.1} + call_batch {:.1} + residual {:.1}",
            traced.events_per_s(),
            untraced.events_per_s(),
            wall_ns,
            encode_ns,
            decode_ns,
            call_batch_ns,
            residual
        ));
        crate::report::derive_layers(&mut report, &tr);
        report.trace = Some(tr);
    }
    teardown(rig);
    Ok(report)
}
