//! Result of one run: end-to-end metrics, per-layer metrics, notes,
//! and the output format (a readable table, then one JSON line).

use crate::trace::Tracer;
use protoquot_runtime::StatsSnapshot;

/// End-to-end metrics, in `BENCHMARK.json` order. Every workload
/// reports all of them; the per-workload names they stand for are
/// printed beside them (see README.md).
pub const E2E: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics of a traced run. A layer a workload does not
/// exercise reads 0.
pub const LAYERS: [(&str, &str); 35] = [
    ("speclang.parse_ms", "ms"),
    ("spec.compose_ms", "ms"),
    ("spec.collapse_sinks_ms", "ms"),
    ("spec.normalize_ms", "ms"),
    ("core.safety_ms", "ms"),
    ("core.safety_states", "count"),
    ("core.progress_ms", "ms"),
    ("core.progress_iterations", "count"),
    ("core.progress_keep_ratio", "ratio"),
    ("core.verify_ms", "ms"),
    ("spec.verify_system_ms", "ms"),
    ("registry.admit_ms", "ms"),
    ("guard.build_ms", "ms"),
    ("guard.dfa_states", "count"),
    ("artifact.encode_ms", "ms"),
    ("artifact.decode_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("guard.observe_ns", "ns"),
    ("gateway.call_batch_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("transport.exchange_wait_us", "us"),
    ("transport.frames_per_exchange", "count"),
    ("transport.residual_ns", "ns"),
    ("gateway.batch_frames_mean", "count"),
    ("gateway.inline_frac", "ratio"),
    ("gateway.queue_high_water", "count"),
    ("gateway.swap_us", "us"),
    ("transport.bytes_per_frame", "bytes"),
    ("stats.snapshot_us", "us"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.client_busy_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_events_per_s", "1/s"),
    ("trace.overhead_derive_p50_ms", "ms"),
];

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    e2e: Vec<(&'static str, f64)>,
    aliases: Vec<(&'static str, f64, &'static str)>,
    layers: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    pub trace: Option<Tracer>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            aliases: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
            trace: None,
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &str) {
        assert!(
            E2E.iter().any(|&(n, u)| n == name && u == unit),
            "{name} [{unit}] is not an end-to-end metric"
        );
        self.e2e.push((name, value));
    }

    /// The workload's own name for an end-to-end figure, printed in
    /// the table only.
    pub fn alias(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.aliases.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &str) {
        assert!(
            LAYERS.iter().any(|&(n, u)| n == name && u == unit),
            "{name} [{unit}] is not a per-layer metric"
        );
        self.layers.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn value(list: &[(&'static str, f64)], name: &str) -> Option<f64> {
        list.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Prints the table and, last, the JSON line: the end-to-end
    /// metrics untraced, the per-layer metrics traced. Returns whether
    /// the run was correct.
    pub fn print(&self, header: &str, traced: bool) -> bool {
        println!("{header}");
        for n in &self.notes {
            println!("  {n}");
        }
        let fmt = |v: f64| if v.is_finite() { v } else { 0.0 };
        println!("  end-to-end:");
        for (name, unit) in E2E {
            match Report::value(&self.e2e, name) {
                Some(v) => println!("    {name:<34} {:>16.4} {unit}", fmt(v)),
                None if traced => {}
                None => panic!("end-to-end metric {name} was not measured"),
            }
        }
        for &(name, v, unit) in &self.aliases {
            println!("    {name:<34} {:>16.4} {unit}", fmt(v));
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "    {:<34} {:>16.6} ratio ({} of {} operations)",
            "failed_frac", frac, self.failed, self.attempted
        );
        if traced {
            println!("  per-layer:");
            for (name, unit) in LAYERS {
                let v = Report::value(&self.layers, name).unwrap_or(0.0);
                println!("    {name:<34} {:>16.4} {unit}", fmt(v));
            }
            if let Some(tr) = &self.trace {
                println!("  span self time (count, total ms, self ms):");
                for (name, a) in tr.aggs() {
                    println!(
                        "    {name:<34} {:>10} {:>12.3} {:>12.3}",
                        a.count,
                        a.total_ns as f64 / 1e6,
                        a.self_ns as f64 / 1e6
                    );
                }
            }
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = if traced {
            LAYERS
                .iter()
                .map(|&(name, unit)| {
                    let v = Report::value(&self.layers, name).unwrap_or(0.0);
                    format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", fmt(v))
                })
                .collect()
        } else {
            E2E.iter()
                .map(|&(name, unit)| {
                    let v = Report::value(&self.e2e, name).expect("checked above");
                    format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", fmt(v))
                })
                .collect()
        };
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        correct
    }
}

/// Per-layer metrics read off the gateway's own counters.
pub fn gateway_layers(report: &mut Report, s: &StatsSnapshot, snapshot_us: f64) {
    report.layer(
        "gateway.batch_frames_mean",
        s.batch_frames as f64 / s.batches.max(1) as f64,
        "count",
    );
    report.layer(
        "gateway.inline_frac",
        s.batch_inline as f64 / s.batch_frames.max(1) as f64,
        "ratio",
    );
    report.layer(
        "gateway.queue_high_water",
        s.queue_high_water as f64,
        "count",
    );
    report.layer(
        "transport.bytes_per_frame",
        (s.bytes_in + s.bytes_out) as f64 / s.frames.max(1) as f64,
        "bytes",
    );
    report.layer("stats.snapshot_us", snapshot_us, "us");
}

/// Per-layer metrics of the derivation spans: mean per traced call.
pub fn derive_layers(report: &mut Report, tr: &Tracer) {
    let per_call_ms = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| {
                let a = tr.agg(n);
                a.total_ns as f64 / a.count.max(1) as f64 / 1e6
            })
            .sum()
    };
    let mean = |name: &str| {
        let (sum, n) = tr.counted(name);
        sum / n.max(1) as f64
    };
    report.layer("speclang.parse_ms", per_call_ms(&["speclang.parse"]), "ms");
    report.layer("spec.compose_ms", per_call_ms(&["spec.compose"]), "ms");
    report.layer(
        "spec.collapse_sinks_ms",
        per_call_ms(&["spec.collapse_sinks"]),
        "ms",
    );
    report.layer("spec.normalize_ms", per_call_ms(&["spec.normalize"]), "ms");
    report.layer("core.safety_ms", per_call_ms(&["core.safety"]), "ms");
    report.layer("core.safety_states", mean("core.safety_states"), "count");
    report.layer("core.progress_ms", per_call_ms(&["core.progress"]), "ms");
    report.layer(
        "core.progress_iterations",
        mean("core.progress_iterations"),
        "count",
    );
    let (kept, _) = tr.counted("core.converter_states");
    let (c0, _) = tr.counted("core.c0_states");
    report.layer("core.progress_keep_ratio", kept / c0.max(1.0), "ratio");
    report.layer("core.verify_ms", per_call_ms(&["core.verify"]), "ms");
    report.layer(
        "spec.verify_system_ms",
        per_call_ms(&["spec.verify_system"]),
        "ms",
    );
    report.layer("registry.admit_ms", per_call_ms(&["registry.admit"]), "ms");
    report.layer("guard.build_ms", per_call_ms(&["guard.build"]), "ms");
    report.layer("guard.dfa_states", mean("guard.dfa_states"), "count");
    report.layer(
        "artifact.encode_ms",
        per_call_ms(&["artifact.encode"]),
        "ms",
    );
    report.layer(
        "artifact.decode_ms",
        per_call_ms(&["artifact.decode", "artifact.instantiate"]),
        "ms",
    );
    report.layer("artifact.bytes", mean("artifact.bytes"), "bytes");
}
