//! `derive`: a seeded mix of quotient problems, each handed to the
//! program as `.pq` text and taken to an admitted artifact (or to a
//! no-converter verdict): parse → solve → verify → guard build →
//! artifact encode → decode and instantiate → registry admission.
//! No wire.
//!
//! Every round of ten problems holds four `fig13`, one `fig9`, one
//! `fig9_weakened` (the paper problems of `specs/paper.pq`), three
//! seeded `random_component` instances against exactly-once, and one
//! `nfa_blowup(n)` with n cycling through 11, 12, 13. Exactly one
//! problem in ten is exponential, so the 95th percentile falls inside
//! the blow-up instances (the safety phase and what it feeds) and the
//! median inside `fig13` (the fixed per-problem costs: parsing,
//! guard build, artifact and registry). With n from 12 to 14 the whole
//! pipeline takes 0.2 to 1.8 s per blow-up problem, too few problems
//! in a run for a 95th percentile with ten samples beyond it.
//!
//! A problem's time is the deriving thread's CPU time for it,
//! calibrated (see calib.rs) by the kernel run after every problem.
//! Throughput is that of the round's mix with each class of problem at
//! its median time.

use crate::calib;
use crate::pipeline::{derive, probes, Verdict};
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{quantile, rss_peak_mib, sorted, thread_cpu_ns, Rng};
use protoquot_core::{
    converter_verdict_reference, progress_phase_reference, safety_phase_reference, SafetyLimits,
};
use protoquot_protocols::families::{nfa_blowup, random_component, RandomParams};
use protoquot_protocols::paper::{colocated_configuration, symmetric_configuration};
use protoquot_protocols::service::{at_least_once, exactly_once};
use protoquot_runtime::ConverterRegistry;
use protoquot_spec::{compose_all, normalize, Alphabet, Spec};
use protoquot_speclang::{parse_source, print_source, ProblemDecl, SourceFile};
use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

const PAPER_PQ: &str = include_str!("../../specs/paper.pq");
const BLOWUP_N: [usize; 3] = [11, 12, 13];
/// Distinct random components a run cycles through.
const RANDOM_POOL: usize = 64;
/// Cold first-problem probes; `setup_s` is their median.
const COLD_PROBES: usize = 15;
/// Kernel runs a cold probe makes after its problem, for calibration.
const SETUP_CAL_RUNS: usize = 5;
/// Converters small enough for the interpreted verifier.
const REFERENCE_VERIFY_MAX_STATES: usize = 256;

/// What a problem must come to, from the reference implementations.
enum Expected {
    /// This converter, state for state.
    Converter(Spec),
    /// A converter equivalent to the reference's (see [`Built`]).
    Equivalent(Box<Built>),
    NoSafe,
    NoProgress,
}

/// A converter of the reference's size that the interpreted verifier
/// accepts for the system as built in code (`b`, `service`). The first
/// converter that passes is kept; later ones must equal it.
struct Built {
    b: Spec,
    service: Spec,
    states: usize,
    transitions: usize,
    verified: OnceCell<Spec>,
}

struct Problem {
    label: String,
    text: String,
    expect: Expected,
}

/// Renders one problem as `.pq` text: its specs, then its declaration.
fn problem_text(name: &str, components: &[&Spec], service: &Spec, int: &Alphabet) -> String {
    let mut specs: Vec<Spec> = components.iter().map(|&s| s.clone()).collect();
    specs.push(service.clone());
    print_source(&SourceFile {
        specs,
        problems: vec![ProblemDecl {
            name: name.to_owned(),
            components: components.iter().map(|s| s.name().to_owned()).collect(),
            service: service.name().to_owned(),
            internal: int.iter().map(|e| e.name().to_owned()).collect(),
        }],
    })
}

/// The oracle: the retained reference safety and progress phases
/// (`safety_phase_reference`, `progress_phase_reference`), and for
/// small converters the interpreted `converter_verdict_reference`.
fn reference(components: &[&Spec], service: &Spec, int: &Alphabet) -> Result<Expected, String> {
    let b = compose_all(components).map_err(|e| e.to_string())?;
    let na = normalize(service);
    let safety = match safety_phase_reference(&b, &na, int, false, SafetyLimits::default()) {
        Ok(Some(s)) => s,
        Ok(None) => return Err("reference safety phase over budget".into()),
        Err(_) => return Ok(Expected::NoSafe),
    };
    let Some(c) = progress_phase_reference(&b, &na, &safety).converter else {
        return Ok(Expected::NoProgress);
    };
    if c.num_states() <= REFERENCE_VERIFY_MAX_STATES
        && !matches!(converter_verdict_reference(&b, service, &c), Ok(Ok(())))
    {
        return Err(format!("reference converter of {} fails", b.name()));
    }
    Ok(Expected::Converter(c))
}

fn make(
    label: String,
    components: &[&Spec],
    service: &Spec,
    int: &Alphabet,
) -> Result<Problem, String> {
    Ok(Problem {
        text: problem_text(&label, components, service, int),
        expect: reference(components, service, int)?,
        label,
    })
}

/// A problem of `specs/paper.pq`. The program gets it as declared
/// there; the oracle derives the same system as `protoquot_protocols`
/// builds it in code, so that it does not share the parser with the
/// program.
fn paper_problem(name: &str) -> Result<Problem, String> {
    let src = parse_source(PAPER_PQ).map_err(|e| e.to_string())?;
    let decl = src.problem(name).ok_or(format!("no problem {name}"))?;
    let components: Vec<&Spec> = decl
        .components
        .iter()
        .map(|c| src.spec(c).ok_or(format!("no spec {c}")))
        .collect::<Result<_, _>>()?;
    let service = src.spec(&decl.service).ok_or("no service")?;
    let int: Alphabet = decl.internal.iter().map(String::as_str).collect();
    let (cfg, built_service) = match name {
        "fig13" => (colocated_configuration(), exactly_once()),
        "fig9" => (symmetric_configuration(), exactly_once()),
        "fig9_weakened" => (symmetric_configuration(), at_least_once()),
        other => return Err(format!("no built system for {other}")),
    };
    let expect = match reference(&[&cfg.b], &built_service, &cfg.int)? {
        Expected::Converter(c) => Expected::Equivalent(Box::new(Built {
            states: c.num_states(),
            transitions: c.num_external(),
            b: cfg.b,
            service: built_service,
            verified: OnceCell::new(),
        })),
        other => other,
    };
    Ok(Problem {
        text: problem_text(name, &components, service, &int),
        expect,
        label: name.to_owned(),
    })
}

/// The problems of one run: paper, blow-up and random pools.
struct Pools {
    paper: Vec<Problem>,
    blowup: Vec<Problem>,
    random: Vec<Problem>,
}

fn pools(seed: u64) -> Result<Pools, String> {
    let paper = ["fig13", "fig9", "fig9_weakened"]
        .iter()
        .map(|n| paper_problem(n))
        .collect::<Result<_, _>>()?;
    // Spec names must be identifiers of the language.
    let service = exactly_once().with_name("S_exactly_once");
    let blowup = BLOWUP_N
        .iter()
        .map(|&n| {
            let (b, int) = nfa_blowup(n);
            let label = format!("nfa_blowup_{n}");
            make(label.clone(), &[&b.with_name(&label)], &service, &int)
        })
        .collect::<Result<_, _>>()?;
    let mut rng = Rng::derive(seed, 0xde71);
    let random = (0..RANDOM_POOL)
        .map(|_| {
            let s = rng.next_u64() >> 16;
            let (b, int) = random_component(s, RandomParams::default());
            let label = format!("random_{s}");
            make(label.clone(), &[&b.with_name(&label)], &service, &int)
        })
        .collect::<Result<_, _>>()?;
    Ok(Pools {
        paper,
        blowup,
        random,
    })
}

/// Round `r` of the seeded mix, as problem references in run order.
fn round(pools: &Pools, seed: u64, r: usize) -> Vec<&Problem> {
    let mut rng = Rng::derive(seed, r as u64);
    let mut v: Vec<&Problem> = vec![&pools.paper[0]; 4];
    v.push(&pools.paper[1]);
    v.push(&pools.paper[2]);
    for _ in 0..3 {
        v.push(&pools.random[rng.below(pools.random.len())]);
    }
    v.push(&pools.blowup[(r + seed as usize) % pools.blowup.len()]);
    rng.shuffle(&mut v);
    v
}

/// The class a problem's time is grouped under: its paper name, its
/// blow-up size, or `random`.
fn class(label: &str) -> &'static str {
    match label {
        "fig13" => "fig13",
        "fig9" => "fig9",
        "fig9_weakened" => "fig9_weakened",
        "nfa_blowup_11" => "nfa_blowup_11",
        "nfa_blowup_12" => "nfa_blowup_12",
        "nfa_blowup_13" => "nfa_blowup_13",
        _ => "random",
    }
}

/// Each class's share of the mix, over one cycle of the blow-up sizes.
fn mix(pools: &Pools, seed: u64) -> Vec<(&'static str, f64)> {
    let mut counts: Vec<(&'static str, f64)> = Vec::new();
    for r in 0..BLOWUP_N.len() {
        for p in round(pools, seed, r) {
            let c = class(&p.label);
            match counts.iter_mut().find(|(n, _)| *n == c) {
                Some((_, k)) => *k += 1.0,
                None => counts.push((c, 1.0)),
            }
        }
    }
    let total: f64 = counts.iter().map(|(_, k)| k).sum();
    counts.into_iter().map(|(c, k)| (c, k / total)).collect()
}

/// A converter the program derived and admitted, with the system its
/// artifact decoded back to.
struct Admitted {
    b: Spec,
    service: Spec,
    converter: Spec,
    decoded_parts: Vec<Spec>,
    decoded_service: Spec,
}

/// What the program made of one problem.
enum Outcome {
    Converter(Box<Admitted>),
    NoSafe,
    NoProgress,
}

/// Converter registries, one per service contract, opened on first
/// use under the run's work directory.
struct Registries {
    dir: PathBuf,
    open: Vec<(Spec, ConverterRegistry)>,
}

impl Registries {
    fn get(&mut self, service: &Spec) -> Result<&mut ConverterRegistry, String> {
        let i = match self.open.iter().position(|(s, _)| s == service) {
            Some(i) => i,
            None => {
                let dir = self.dir.join(format!("registry-{}", self.open.len()));
                let reg = ConverterRegistry::open(&dir, service, 0).map_err(|e| e.to_string())?;
                self.open.push((service.clone(), reg));
                self.open.len() - 1
            }
        };
        Ok(&mut self.open[i].1)
    }
}

/// One problem from `.pq` text to an admitted artifact or a verdict.
fn run_problem(
    text: &str,
    regs: &mut Registries,
    tr: &mut Tracer,
    req: u64,
) -> Result<Outcome, String> {
    let src = tr
        .span("speclang.parse", req, || parse_source(text))
        .map_err(|e| format!("parse: {e}"))?;
    let decl = src.problems.first().ok_or("no problem declared")?;
    let parts: Vec<&Spec> = decl
        .components
        .iter()
        .map(|c| src.spec(c).ok_or(format!("no spec {c}")))
        .collect::<Result<_, _>>()?;
    let service = src.spec(&decl.service).ok_or("no service spec")?;
    let int: Alphabet = decl.internal.iter().map(String::as_str).collect();
    let b = tr
        .span("spec.compose", req, || compose_all(&parts))
        .map_err(|e| format!("compose: {e}"))?;
    Ok(match derive(&b, service, &int, tr, req)? {
        Verdict::Converter(d) => {
            let reg = regs.get(service)?;
            tr.span("registry.admit", req, || reg.admit(&d.bytes))
                .map_err(|e| format!("admission refused: {e}"))?;
            Outcome::Converter(Box::new(Admitted {
                b,
                service: service.clone(),
                converter: d.converter,
                decoded_parts: d.parts,
                decoded_service: d.service,
            }))
        }
        Verdict::NoSafe => Outcome::NoSafe,
        Verdict::NoProgress => Outcome::NoProgress,
    })
}

/// Whether `out` is what the oracle expects, and the artifact decoded
/// back to exactly the system that was encoded.
fn check(out: &Outcome, expect: &Expected) -> bool {
    let round_trip = |a: &Admitted| {
        a.decoded_parts.len() == 2
            && a.decoded_parts[0] == a.b
            && a.decoded_parts[1] == a.converter
            && a.decoded_service == a.service
    };
    match (out, expect) {
        (Outcome::Converter(a), Expected::Converter(reference)) => {
            &a.converter == reference && round_trip(a)
        }
        (Outcome::Converter(a), Expected::Equivalent(e)) => {
            a.converter.num_states() == e.states
                && a.converter.num_external() == e.transitions
                && round_trip(a)
                && match e.verified.get() {
                    Some(c) => c == &a.converter,
                    None => {
                        let ok = matches!(
                            converter_verdict_reference(&e.b, &e.service, &a.converter),
                            Ok(Ok(()))
                        );
                        if ok {
                            let _ = e.verified.set(a.converter.clone());
                        }
                        ok
                    }
                }
        }
        (Outcome::NoSafe, Expected::NoSafe) | (Outcome::NoProgress, Expected::NoProgress) => true,
        _ => false,
    }
}

/// Times `fig13` from text to an admitted artifact in this process,
/// which has done nothing else: the cold first problem.
pub fn cold_probe(dir: &Path) -> Result<(f64, f64, f64), String> {
    let problem = paper_problem("fig13")?;
    let mut regs = Registries {
        dir: dir.to_path_buf(),
        open: Vec::new(),
    };
    let mut tr = Tracer::new(false);
    let t = Instant::now();
    let cpu = thread_cpu_ns();
    let out = run_problem(&problem.text, &mut regs, &mut tr, 0)?;
    let cpu_s = (thread_cpu_ns() - cpu) as f64 / 1e9;
    let wall_s = t.elapsed().as_secs_f64();
    if !check(&out, &problem.expect) {
        return Err("cold fig13 differs from the oracle".into());
    }
    Ok((wall_s, cpu_s, calib::factor_now(SETUP_CAL_RUNS)))
}

/// Runs [`COLD_PROBES`] fresh processes of this program, one after the
/// other. Returns the medians of their cold first-problem times: wall,
/// CPU, and CPU calibrated by the kernel runs each process made right
/// after its problem (see calib.rs).
fn cold_setup(workdir: &Path) -> Result<[f64; 3], String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times: [Vec<f64>; 3] = Default::default();
    for i in 0..COLD_PROBES {
        let dir = workdir.join(format!("cold-{i}"));
        let out = std::process::Command::new(&exe)
            .arg("--cold-probe")
            .arg(&dir)
            .output()
            .map_err(|e| format!("cold probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "cold probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let s = String::from_utf8_lossy(&out.stdout);
        let v: Vec<f64> = s
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| format!("cold probe printed {s:?}"))?;
        let [wall, cpu, factor] = v[..] else {
            return Err(format!("cold probe printed {s:?}"));
        };
        times[0].push(wall);
        times[1].push(cpu);
        times[2].push(cpu * factor);
    }
    Ok(times.map(|t| crate::util::median(&t)))
}

/// Per-problem times of one window, and its failures.
#[derive(Default)]
struct Window {
    /// CPU time of each problem, in ms.
    times_ms: Vec<f64>,
    /// Wall time of each problem, in ms.
    wall_ms: Vec<f64>,
    /// The class (see [`class`]) of each problem.
    classes: Vec<&'static str>,
    failed: u64,
    failures: Vec<String>,
    /// The thread's CPU time over the window's wall time.
    busy: f64,
    /// The calibration kernel's CPU time after each problem, in ns.
    calib_ns: Vec<f64>,
}

pub fn run(seed: u64, seconds: f64, trace: bool, workdir: &Path) -> Result<Report, String> {
    // One CPU for the whole run (the cold probes inherit it), so that
    // no problem is split across a migration.
    if let Some(&cpu) = crate::util::allowed_cpus().first() {
        crate::util::pin_to(cpu);
    }
    let [setup_wall_s, setup_cpu_s, setup_s] = cold_setup(workdir)?;
    let pools = pools(seed)?;
    let mut regs = Registries {
        dir: workdir.to_path_buf(),
        open: Vec::new(),
    };
    let mut tr = Tracer::new(false);
    let mut req = 0u64;
    let mut run_window = |w: &mut Window, tr: &mut Tracer, first: usize, budget: f64| -> usize {
        let t0 = Instant::now();
        let cpu0 = thread_cpu_ns();
        let mut r = first;
        loop {
            for p in round(&pools, seed, r) {
                req += 1;
                tr.begin("derive.problem", req);
                let t = Instant::now();
                let cpu = thread_cpu_ns();
                let out = run_problem(&p.text, &mut regs, tr, req);
                let ms = (thread_cpu_ns() - cpu) as f64 / 1e6;
                w.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
                w.classes.push(class(&p.label));
                w.calib_ns.push(calib::kernel());
                tr.end();
                if let Ok(Outcome::Converter(a)) = &out {
                    probes(&a.b, &a.service, &a.converter, tr, req);
                }
                w.times_ms.push(ms);
                let ok = matches!(&out, Ok(o) if check(o, &p.expect));
                if !ok {
                    w.failed += 1;
                    if w.failures.len() < 5 {
                        let why = match &out {
                            Err(e) => e.clone(),
                            Ok(_) => "differs from the oracle".to_owned(),
                        };
                        w.failures.push(format!("{}: {why}", p.label));
                    }
                }
            }
            r += 1;
            if t0.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        w.busy = (thread_cpu_ns() - cpu0) as f64 / t0.elapsed().as_nanos() as f64;
        r
    };
    // Warm-up: one round, not measured.
    let mut warm = Window::default();
    let mut r = run_window(&mut warm, &mut tr, 0, 0.0);
    let mut untraced = Window::default();
    let budget = if trace { seconds / 2.0 } else { seconds };
    r = run_window(&mut untraced, &mut tr, r, budget);
    let mut traced = Window::default();
    if trace {
        tr.set_enabled(true);
        run_window(&mut traced, &mut tr, r, seconds / 2.0);
    }

    let mut report = Report::new();
    report.attempted =
        (warm.times_ms.len() + untraced.times_ms.len() + traced.times_ms.len()) as u64;
    report.failed = warm.failed + untraced.failed + traced.failed;
    for w in [&warm, &untraced, &traced] {
        for f in &w.failures {
            report.note(format!("FAILED {f}"));
        }
    }
    // Each problem's CPU time at the reference speed (see calib.rs).
    let calibrated: Vec<f64> = calib::factors(&untraced.calib_ns)
        .iter()
        .zip(&untraced.times_ms)
        .map(|(f, t)| f * t)
        .collect();
    let times = sorted(calibrated.clone());
    let p50 = quantile(&times, 0.5);
    let p95 = quantile(&times, 0.95);
    // Throughput of the mix: each class at its median time, in the
    // shares the rounds give it. A median per class is not moved by
    // the odd slow problem, as a sum over the run would be.
    let mut per_problem_ms = 0.0;
    for (c, share) in mix(&pools, seed) {
        let of_class = |v: &[f64]| -> Vec<f64> {
            untraced
                .classes
                .iter()
                .zip(v)
                .filter(|(k, _)| **k == c)
                .map(|(_, &t)| t)
                .collect()
        };
        let m = crate::util::median(&of_class(&calibrated));
        report.note(format!(
            "{c:<14} share {share:.3}: {:>4} problems, median {m:>10.4} ms calibrated, {:>10.4} ms CPU",
            of_class(&calibrated).len(),
            crate::util::median(&of_class(&untraced.times_ms))
        ));
        per_problem_ms += share * m;
    }
    let cpu = sorted(untraced.times_ms.clone());
    let wall = sorted(untraced.wall_ms.clone());
    report.e2e("throughput_per_s", 1e3 / per_problem_ms, "1/s");
    report.e2e("latency_p50_us", p50 * 1e3, "us");
    report.e2e("latency_tail_us", p95 * 1e3, "us");
    report.e2e("setup_s", setup_s, "s");
    report.e2e("rss_peak_mib", rss_peak_mib(), "MiB");
    report.alias("setup_cpu_s", setup_cpu_s, "s");
    report.alias("setup_wall_s", setup_wall_s, "s");
    report.alias("derive_p50_ms", p50, "ms");
    report.alias("derive_p95_ms", p95, "ms");
    report.alias("derive_cpu_p50_ms", quantile(&cpu, 0.5), "ms");
    report.alias("derive_cpu_p95_ms", quantile(&cpu, 0.95), "ms");
    report.alias("derive_wall_p50_ms", quantile(&wall, 0.5), "ms");
    report.alias("derive_wall_p95_ms", quantile(&wall, 0.95), "ms");
    report.alias(
        "problems_per_wall_s",
        wall.len() as f64 / (wall.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    report.note(format!(
        "{} problems measured ({} beyond p95) on the deriving thread's CPU clock, calibrated (kernel median {:.1} us against {:.1} us reference); setup_s is the median of {COLD_PROBES} cold fig13 runs in fresh processes, on the CPU clock, calibrated",
        times.len(),
        times.iter().filter(|&&t| t > p95).count(),
        crate::util::median(&untraced.calib_ns) / 1e3,
        calib::REFERENCE_NS / 1e3
    ));
    if trace {
        let traced_times = sorted(
            calib::factors(&traced.calib_ns)
                .iter()
                .zip(&traced.times_ms)
                .map(|(f, t)| f * t)
                .collect(),
        );
        let traced_p50 = quantile(&traced_times, 0.5);
        crate::report::derive_layers(&mut report, &tr);
        let root = tr.agg("derive.problem");
        report.layer(
            "trace.unaccounted_frac",
            root.self_ns as f64 / root.total_ns.max(1) as f64,
            "ratio",
        );
        report.layer("trace.overhead_derive_p50_ms", traced_p50 - p50, "ms");
        report.layer("bench.client_busy_frac", traced.busy, "ratio");
        report.note(format!(
            "traced window: {} problems, derive_p50 {traced_p50:.4} ms against {p50:.4} ms untraced",
            traced_times.len()
        ));
        report.trace = Some(tr);
    }
    Ok(report)
}
