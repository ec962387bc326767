//! The derivation pipeline, from specifications to a compiled artifact:
//! solve → verify → guard build → artifact encode → decode and
//! instantiate. Registry admission is left to the caller, which owns
//! the registry.
//!
//! Untraced, the quotient is one `solve` call. Traced, the benchmark
//! makes the public calls `solve` is built from (problem check and
//! service normalization, safety phase, progress phase) so that each
//! layer gets its own span; both routes run the same code.

use crate::trace::Tracer;
use protoquot_core::{
    converter_verdict_with, progress_phase_with, safety_engine, solve, validate_problem,
    ProgressStrategy, QuotientError, SafetyLimits,
};
use protoquot_runtime::artifact::{encode_with_program, CompiledArtifact};
use protoquot_runtime::GuardProgram;
use protoquot_spec::{collapse_sinks, normalize, verify_system, Alphabet, Spec};

/// A derived, verified and compiled converter.
pub struct Derived {
    pub converter: Spec,
    /// The encoded artifact.
    pub bytes: Vec<u8>,
    /// What the artifact decoded back to: fixed components and
    /// converter, then the service.
    pub parts: Vec<Spec>,
    pub service: Spec,
}

/// The verdict of one derivation.
pub enum Verdict {
    Converter(Box<Derived>),
    /// No converter is even safe (the initial `ok` check fails).
    NoSafe,
    /// A safe converter exists but none makes progress.
    NoProgress,
}

/// Runs the pipeline on `B`, service `A` and interface `Int`. `Err`
/// reports an operation that failed outright.
pub fn derive(
    b: &Spec,
    service: &Spec,
    int: &Alphabet,
    tr: &mut Tracer,
    req: u64,
) -> Result<Verdict, String> {
    let converter = if tr.enabled() {
        tr.begin("spec.normalize", req);
        let checked = validate_problem(b, service, int);
        let na = normalize(service);
        tr.end();
        checked.map_err(|e| format!("malformed problem: {e}"))?;
        let limits = SafetyLimits::default();
        let safety = tr.span("core.safety", req, || {
            safety_engine(b, &na, int, false, limits, 1)
        });
        let safety = match safety {
            Ok(Some(out)) => out.phase,
            Ok(None) => return Err("safety phase over its state budget".into()),
            Err(_) => return Ok(Verdict::NoSafe),
        };
        let progress = tr.span("core.progress", req, || {
            progress_phase_with(b, &na, &safety, ProgressStrategy::FullProduct)
        });
        let c0 = safety.c0.num_states();
        tr.count("core.safety_states", c0 as f64);
        tr.count("core.c0_states", c0 as f64);
        tr.count("core.progress_iterations", progress.iterations as f64);
        tr.count(
            "core.converter_states",
            progress.converter.as_ref().map_or(0, Spec::num_states) as f64,
        );
        match progress.converter {
            Some(c) => c,
            None => return Ok(Verdict::NoProgress),
        }
    } else {
        match solve(b, service, int) {
            Ok(q) => q.converter,
            Err(QuotientError::NoSafeConverter { .. }) => return Ok(Verdict::NoSafe),
            Err(QuotientError::NoProgressingConverter { .. }) => return Ok(Verdict::NoProgress),
            Err(e) => return Err(format!("solve failed: {e}")),
        }
    };
    let verdict = tr.span("core.verify", req, || {
        converter_verdict_with(b, service, &converter, 1)
    });
    match verdict {
        Ok((Ok(()), _)) => {}
        Ok((Err(v), _)) => return Err(format!("derived converter fails verification: {v}")),
        Err(e) => return Err(format!("verification setup failed: {e}")),
    }
    let parts = [b, &converter];
    let program = tr
        .span("guard.build", req, || GuardProgram::new(&parts, service))
        .map_err(|e| format!("guard build failed: {e}"))?;
    let bytes = tr.span("artifact.encode", req, || {
        encode_with_program(&parts, service, &program)
    });
    tr.count("guard.dfa_states", program.num_dfa_states() as f64);
    tr.count("artifact.bytes", bytes.len() as f64);
    let artifact = tr
        .span("artifact.decode", req, || CompiledArtifact::decode(&bytes))
        .map_err(|e| format!("artifact decode failed: {e}"))?;
    let (decoded_parts, decoded_service, _) = tr
        .span("artifact.instantiate", req, || artifact.instantiate())
        .map_err(|e| format!("artifact instantiate failed: {e}"))?;
    Ok(Verdict::Converter(Box::new(Derived {
        converter,
        bytes,
        parts: decoded_parts,
        service: decoded_service,
    })))
}

/// Spans for layers the pipeline reaches only inside another layer's
/// call: the Figure 4 sink collapse of `B`, and the spec-layer
/// verification engine that `core.verify` and `registry.admit` both
/// run. Called outside the problem's span, so they are not counted in
/// the pipeline's time.
pub fn probes(b: &Spec, service: &Spec, converter: &Spec, tr: &mut Tracer, req: u64) {
    if !tr.enabled() {
        return;
    }
    tr.span("spec.collapse_sinks", req, || {
        std::hint::black_box(collapse_sinks(b));
    });
    tr.span("spec.verify_system", req, || {
        std::hint::black_box(verify_system(&[b, converter], service, 1).is_ok());
    });
}
