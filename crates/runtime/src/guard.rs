//! Online conformance guard: per-session trace validation.
//!
//! A [`GuardProgram`] compiles the loaded system — the fixed components
//! plus the derived converter — into the exact CSR objects the static
//! verifier uses ([`protoquot_spec::compile_composite`] and
//! [`protoquot_spec::tau_star_rows`] over the shared
//! [`protoquot_spec::EventTable`]) and then **determinizes** the whole
//! per-frame check into a DFA at build time: states are the reachable
//! `(τ-closed composite subset, ψ-hub)` pairs, and the τ-closure, the
//! external step and the ψ-hub step are fused into one dense
//! `|states| × |Σ|` transition table whose entries carry the verdict:
//!
//! * **trace membership** — an event under which the subset goes empty
//!   is a dead edge ([`Conviction::NotATrace`]): no execution of
//!   `B ‖ C` produces the frame.
//! * **safety** — an event the subset survives but ψ cannot take is a
//!   [`Conviction::ServiceViolation`] edge (trace inclusion fails).
//! * **progress** — each DFA state precomputes the paper's
//!   sink-acceptance containment (`∃` acceptance set `A` of the hub
//!   with `A ⊆ τ*(s)`) over its subset. An edge into a state where
//!   *every* subset member fails is a [`Conviction::Stalled`] edge
//!   (the true system state must fail too); a state where *some*
//!   member fails confirms a client-attested stall
//!   ([`SessionGuard::attest_stall`]).
//!
//! The steady-state [`SessionGuard`] is therefore a single `u32` DFA
//! state and one table row load per frame — O(1), no allocation — where
//! the retained [`SessionGuardReference`] re-plays subset tracking
//! (τ-closure + ext step + containment scan) on every frame. The
//! reference is the differential oracle: `tests/runtime_agreement.rs`
//! asserts bit-identical convictions (kind, event index, frame
//! position) between the two on every system it sweeps.
//!
//! Both progress rules are sound with respect to the static check: for
//! a converter that passes [`protoquot_spec::verify_system`], every
//! reachable `(state, hub)` pair satisfies containment, so no genuine
//! trace can ever convict.

use crate::codec::RejectReason;
use protoquot_spec::{
    compile_system, normalize, tau_star_rows, CompiledComposite, CompiledSystem, EventId,
    EventTable, NormalSpec, Spec, SpecError,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Why a session was convicted by the online guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Conviction {
    /// The frame is not an event any execution of `B ‖ C` can produce
    /// after the accepted prefix.
    NotATrace {
        /// Event-table index of the offending frame.
        event: u16,
    },
    /// `B ‖ C` can produce the event, but the service specification
    /// cannot — trace inclusion (the paper's safety half) fails.
    ServiceViolation {
        /// Event-table index of the offending frame.
        event: u16,
    },
    /// Sink-acceptance containment fails for the reachable states —
    /// the progress half of satisfaction is violated.
    Stalled,
}

impl Conviction {
    /// The wire reject code reported for this conviction.
    pub fn reject_reason(&self) -> RejectReason {
        match self {
            Conviction::NotATrace { .. } => RejectReason::NotATrace,
            Conviction::ServiceViolation { .. } => RejectReason::ServiceViolation,
            Conviction::Stalled => RejectReason::Stalled,
        }
    }
}

impl std::fmt::Display for Conviction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Conviction::NotATrace { event } => write!(f, "not a trace (event #{event})"),
            Conviction::ServiceViolation { event } => {
                write!(f, "service violation (event #{event})")
            }
            Conviction::Stalled => write!(f, "progress stall"),
        }
    }
}

/// Build-time cost and size of the compiled guard DFA, surfaced through
/// `RuntimeStats` snapshots, `protoquot serve --stats` and the EXP-R
/// bench report.
#[derive(Clone, Debug, Default)]
pub struct GuardBuildStats {
    /// Reachable `(composite subset, ψ-hub)` DFA states.
    pub dfa_states: usize,
    /// Events per transition row (`|Σ|`, the shared event table).
    pub dfa_events: usize,
    /// Bytes of the dense transition table plus the per-state verdict
    /// and subset-size side arrays.
    pub table_bytes: usize,
    /// Largest composite subset behind any DFA state.
    pub max_subset: usize,
    /// Wall-clock milliseconds spent subset-constructing the DFA
    /// (compile + τ* rows + normalization excluded).
    pub build_ms: f64,
}

impl std::fmt::Display for GuardBuildStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states x {} events, {} table bytes, max subset {}, built in {:.3} ms",
            self.dfa_states, self.dfa_events, self.table_bytes, self.max_subset, self.build_ms
        )
    }
}

/// Transition-table sentinel: the event extends no trace of `B ‖ C`.
const T_NOT_A_TRACE: u32 = u32::MAX;
/// Transition-table sentinel: ψ has no step for the event.
const T_SERVICE_VIOLATION: u32 = u32::MAX - 1;
/// Transition-table sentinel: every reachable state in the target
/// subset fails sink-acceptance containment (eager stall).
const T_STALL: u32 = u32::MAX - 2;
/// Targets at or above this value are verdicts, not states.
const T_SENTINEL_BASE: u32 = T_STALL;

/// Borrowed view of a [`GuardProgram`]'s determinized tables — the
/// exact arrays the per-frame check reads — exposed for the compiled
/// artifact format ([`crate::artifact`]), which persists them and
/// asserts a loaded artifact's tables are byte-identical to a fresh
/// rebuild from its embedded specs.
pub struct GuardDfaTables<'a> {
    /// `|Σ|` — the transition-row stride.
    pub nsym: usize,
    /// Initial DFA state.
    pub dfa_initial: u32,
    /// Dense `|states| × nsym` transition/verdict table.
    pub trans: &'a [u32],
    /// Per-state attested-stall confirmation flags.
    pub any_fail: &'a [bool],
    /// Per-state composite-subset sizes.
    pub subset_size: &'a [u32],
    /// Set when sessions start convicted.
    pub initial_verdict: Option<&'a Conviction>,
}

/// Compiled guard shared by every session of one gateway.
pub struct GuardProgram {
    table: Arc<EventTable>,
    comp: Arc<CompiledComposite>,
    /// `τ*` bitset rows, `words` u64 words per composite state; shared
    /// with registry admission's satisfaction check.
    tau: Arc<Vec<u64>>,
    words: usize,
    norm: NormalSpec,
    /// Per-hub acceptance sets as bitsets over the event table.
    acc: Vec<Vec<Vec<u64>>>,
    /// Fused τ-closure + ext-step + ψ-step DFA: row `s` holds the
    /// target (or verdict sentinel) for every event index.
    trans: Vec<u32>,
    /// `|Σ|` — the transition-row stride.
    nsym: usize,
    /// Initial DFA state (`(τ*-closure of the initial composite state,
    /// ψ_A.ε)`).
    dfa_initial: u32,
    /// Per-DFA-state: some subset member fails containment (confirms an
    /// attested stall).
    any_fail: Vec<bool>,
    /// Per-DFA-state: composite states in the subset (for parity with
    /// the reference guard's `possible_states`).
    subset_size: Vec<u32>,
    /// Set when the *initial* configuration already fails containment
    /// for every reachable state: sessions start convicted.
    initial_verdict: Option<Conviction>,
    build: GuardBuildStats,
}

/// A set of composite states as a bitset, the scratch of
/// [`GuardProgram::determinize`]'s τ-closures.
struct Marks {
    words: Vec<u64>,
}

impl Marks {
    fn new(n: usize) -> Marks {
        Marks {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Marks `s`; false if it was marked already.
    fn insert(&mut self, s: u32) -> bool {
        let (w, bit) = ((s / 64) as usize, 1u64 << (s % 64));
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Unmarks the members of `set`.
    fn clear(&mut self, set: &[u32]) {
        for &s in set {
            self.words[(s / 64) as usize] = 0;
        }
    }

    /// Sorts `set`, whose members are exactly the marked states, and
    /// unmarks them. A set with more than one member per 64 states is
    /// read back off the bitset in order, which is linear; smaller ones
    /// are sorted.
    fn drain_sorted(&mut self, set: &mut Vec<u32>) {
        if set.len() > self.words.len() {
            set.clear();
            for (w, word) in self.words.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    set.push(w as u32 * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        } else {
            set.sort_unstable();
            self.clear(set);
        }
    }
}

/// The DFA states found so far by [`GuardProgram::determinize`]: state
/// `id` is the τ-closed composite subset `members[off[id]..off[id + 1]]`
/// with ψ-hub `hubs[id]`.
struct DfaStates {
    /// Each state keyed by its subset followed by its hub.
    index: HashMap<Box<[u32]>, u32>,
    members: Vec<u32>,
    off: Vec<u32>,
    hubs: Vec<u32>,
    /// Scratch for building a lookup key.
    key: Vec<u32>,
    /// States interned but not yet expanded (LIFO).
    work: Vec<u32>,
}

impl DfaStates {
    fn len(&self) -> usize {
        self.hubs.len()
    }

    /// The id of `(subset, hub)`, interning it and queueing it for
    /// expansion if it is new.
    fn intern(&mut self, subset: &[u32], hub: u32) -> u32 {
        self.key.clear();
        self.key.extend_from_slice(subset);
        self.key.push(hub);
        if let Some(&id) = self.index.get(&self.key[..]) {
            return id;
        }
        let id = self.hubs.len() as u32;
        self.index.insert(self.key[..].into(), id);
        self.members.extend_from_slice(subset);
        self.off.push(self.members.len() as u32);
        self.hubs.push(hub);
        self.work.push(id);
        id
    }

    fn subset(&self, id: u32) -> &[u32] {
        &self.members[self.off[id as usize] as usize..self.off[id as usize + 1] as usize]
    }
}

impl GuardProgram {
    /// Compiles `parts` (components plus converter) against `service`
    /// and subset-constructs the per-frame check into a DFA.
    ///
    /// Validation and compile are [`protoquot_spec::compile_system`]'s,
    /// the same ones [`protoquot_spec::verify_system`] runs: the solo
    /// (externally visible) alphabet of the composition must equal the
    /// service alphabet, and no event may be shared by more than two
    /// components.
    pub fn new(parts: &[&Spec], service: &Spec) -> Result<GuardProgram, SpecError> {
        let CompiledSystem { table, comp } = compile_system(parts, service)?;
        let words = table.words();
        let tau = Arc::new(tau_star_rows(&comp, words));
        let norm = normalize(service);
        let acc = (0..norm.num_hubs())
            .map(|h| {
                norm.acceptance(h)
                    .iter()
                    .map(|a| table.alphabet_bits(a))
                    .collect()
            })
            .collect();
        let mut prog = GuardProgram {
            table: Arc::new(table),
            comp: Arc::new(comp),
            tau,
            words,
            norm,
            acc,
            trans: Vec::new(),
            nsym: 0,
            dfa_initial: 0,
            any_fail: Vec::new(),
            subset_size: Vec::new(),
            initial_verdict: None,
            build: GuardBuildStats::default(),
        };
        prog.determinize();
        Ok(prog)
    }

    /// Subset-constructs the DFA over the compiled composite: states are
    /// reachable `(sorted τ-closed subset, hub)` pairs, edges fuse the
    /// ext step, the τ-closure of its image and the ψ-hub step, and the
    /// progress verdicts are folded into the table (stall edges) and the
    /// per-state `any_fail` flags.
    fn determinize(&mut self) {
        let t0 = Instant::now();
        let nsym = self.table.len();
        let comp = &*self.comp;

        // Scratch for τ-closures and per-event ext steps. `tau_close`
        // takes a set whose members are distinct and already marked,
        // and leaves it τ-closed and sorted, with no state marked.
        let mut seen = Marks::new(comp.n);
        let tau_close = |set: &mut Vec<u32>, seen: &mut Marks| {
            let mut i = 0;
            while i < set.len() {
                let s = set[i] as usize;
                for &t in &comp.int_tgt[comp.int_off[s] as usize..comp.int_off[s + 1] as usize] {
                    if seen.insert(t) {
                        set.push(t);
                    }
                }
                i += 1;
            }
            seen.drain_sorted(set);
        };

        let mut dfa = DfaStates {
            index: HashMap::new(),
            members: Vec::new(),
            off: vec![0],
            hubs: Vec::new(),
            key: Vec::new(),
            work: Vec::new(),
        };
        let mut initial = vec![comp.initial];
        seen.insert(comp.initial);
        tau_close(&mut initial, &mut seen);
        let initial_hub = self.norm.initial_hub() as u32;
        let dfa_initial = dfa.intern(&initial, initial_hub);
        // The initial configuration may already fail containment for
        // every reachable state — sessions then start convicted, exactly
        // as the reference guard does.
        let initial_verdict = self
            .all_fail(&initial, initial_hub as usize)
            .then_some(Conviction::Stalled);

        let mut trans: Vec<u32> = Vec::new();
        let mut any_fail: Vec<bool> = Vec::new();
        let mut subset_size: Vec<u32> = Vec::new();
        let mut max_subset = 0usize;
        let mut subset: Vec<u32> = Vec::new();
        let mut next: Vec<u32> = Vec::new();
        // The subset's ext targets bucketed by event: those under event
        // `ev` are `bucket[start[ev]..start[ev + 1]]`.
        let mut start: Vec<u32> = vec![0; nsym + 1];
        let mut fill: Vec<u32> = vec![0; nsym];
        let mut bucket: Vec<u32> = Vec::new();
        while let Some(id) = dfa.work.pop() {
            subset.clear();
            subset.extend_from_slice(dfa.subset(id));
            let hub = dfa.hubs[id as usize];
            max_subset = max_subset.max(subset.len());
            trans.resize(dfa.len() * nsym, T_NOT_A_TRACE);
            any_fail.resize(dfa.len(), false);
            subset_size.resize(dfa.len(), 0);
            any_fail[id as usize] = subset.iter().any(|&s| !self.progress_ok(s, hub as usize));
            subset_size[id as usize] = subset.len() as u32;

            start.fill(0);
            for &s in &subset {
                let s = s as usize;
                for &ev in &comp.ext_ev[comp.ext_off[s] as usize..comp.ext_off[s + 1] as usize] {
                    start[ev as usize + 1] += 1;
                }
            }
            for ev in 0..nsym {
                start[ev + 1] += start[ev];
            }
            fill.copy_from_slice(&start[..nsym]);
            bucket.resize(start[nsym] as usize, 0);
            for &s in &subset {
                let s = s as usize;
                for k in comp.ext_off[s] as usize..comp.ext_off[s + 1] as usize {
                    let ev = comp.ext_ev[k] as usize;
                    bucket[fill[ev] as usize] = comp.ext_tgt[k];
                    fill[ev] += 1;
                }
            }

            let row = id as usize * nsym;
            for ev in 0..nsym {
                next.clear();
                for &t in &bucket[start[ev] as usize..start[ev + 1] as usize] {
                    if seen.insert(t) {
                        next.push(t);
                    }
                }
                trans[row + ev] = if next.is_empty() {
                    T_NOT_A_TRACE
                } else {
                    let eid = self.table.events[ev];
                    match self.norm.step(hub as usize, eid) {
                        None => {
                            seen.clear(&next);
                            T_SERVICE_VIOLATION
                        }
                        Some(next_hub) => {
                            tau_close(&mut next, &mut seen);
                            if self.all_fail(&next, next_hub) {
                                // A stall edge is terminal: the target
                                // state is never resident, so it is not
                                // interned or explored.
                                T_STALL
                            } else {
                                dfa.intern(&next, next_hub as u32)
                            }
                        }
                    }
                };
            }
        }
        // Every interned state was expanded, so every row is filled.
        debug_assert_eq!(trans.len(), dfa.len() * nsym);
        debug_assert!(
            dfa.len() < T_SENTINEL_BASE as usize,
            "guard DFA state space collides with verdict sentinels"
        );
        let build = GuardBuildStats {
            dfa_states: dfa.len(),
            dfa_events: nsym,
            table_bytes: trans.len() * 4 + any_fail.len() + subset_size.len() * 4,
            max_subset,
            build_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        self.nsym = nsym;
        self.dfa_initial = dfa_initial;
        self.initial_verdict = initial_verdict;
        self.trans = trans;
        self.any_fail = any_fail;
        self.subset_size = subset_size;
        self.build = build;
    }

    /// The shared event table (index ↔ event mapping on the wire).
    pub fn table(&self) -> &Arc<EventTable> {
        &self.table
    }

    /// Composite states of the compiled `B ‖ C`.
    pub fn num_states(&self) -> usize {
        self.comp.n
    }

    /// The compiled `B ‖ C` the guard runs on, over [`Self::table`]:
    /// registry admission proves satisfaction on exactly this composite
    /// ([`protoquot_spec::verify_compiled`]).
    pub(crate) fn composite(&self) -> &Arc<CompiledComposite> {
        &self.comp
    }

    /// The `τ*` rows of [`Self::composite`], so admission's check does
    /// not compute them again.
    pub(crate) fn tau_rows(&self) -> &Arc<Vec<u64>> {
        &self.tau
    }

    /// ψ-hubs of the normalized service.
    pub fn num_hubs(&self) -> usize {
        self.norm.num_hubs()
    }

    /// DFA states of the determinized guard.
    pub fn num_dfa_states(&self) -> usize {
        self.build.dfa_states
    }

    /// Build-time cost and size of the guard DFA.
    pub fn build_stats(&self) -> &GuardBuildStats {
        &self.build
    }

    /// Borrowed view of the determinized tables, for compiled-artifact
    /// serialization and the byte-identical rebuild check on load. The
    /// subset construction is deterministic for a given system, so two
    /// builds of the same specs always return identical tables.
    pub fn dfa_tables(&self) -> GuardDfaTables<'_> {
        GuardDfaTables {
            nsym: self.nsym,
            dfa_initial: self.dfa_initial,
            trans: &self.trans,
            any_fail: &self.any_fail,
            subset_size: &self.subset_size,
            initial_verdict: self.initial_verdict.as_ref(),
        }
    }

    /// Walks the DFA greedily (first non-convicting event from each
    /// state), returning up to `len` event indices of a genuine,
    /// never-convicting trace of the loaded system — the workload the
    /// relay-capacity benchmarks pump through the gateway. Shorter than
    /// `len` only if the walk hits a state with no surviving edge.
    pub fn sample_accepted(&self, len: usize) -> Vec<u16> {
        let mut out = Vec::with_capacity(len);
        let mut cur = self.dfa_initial;
        if self.initial_verdict.is_some() {
            return out;
        }
        for _ in 0..len {
            let row = &self.trans[cur as usize * self.nsym..(cur as usize + 1) * self.nsym];
            let Some(ev) = row.iter().position(|&t| t < T_SENTINEL_BASE) else {
                break;
            };
            out.push(ev as u16);
            cur = row[ev];
        }
        out
    }

    /// Does composite state `s` satisfy sink-acceptance containment
    /// against hub `hub`?
    fn progress_ok(&self, s: u32, hub: usize) -> bool {
        let row = &self.tau[s as usize * self.words..(s as usize + 1) * self.words];
        self.acc[hub]
            .iter()
            .any(|a| a.iter().zip(row).all(|(&aw, &rw)| aw & !rw == 0))
    }

    /// Does *every* state of `subset` fail containment against `hub`?
    fn all_fail(&self, subset: &[u32], hub: usize) -> bool {
        subset.iter().all(|&s| !self.progress_ok(s, hub))
    }
}

/// The state of one session's guard, apart from its program: one
/// `u32` DFA state and the conviction, if any. [`GuardProgram`]'s
/// transition functions advance it; a gateway keeps one per session
/// beside the session's converter version instead of a whole
/// [`SessionGuard`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct GuardState {
    cur: u32,
    convicted: Option<Conviction>,
}

impl GuardState {
    /// The conviction, if the session has one.
    #[inline]
    pub(crate) fn convicted(&self) -> Option<Conviction> {
        self.convicted
    }
}

impl GuardProgram {
    /// A fresh session's state: the initial DFA state, already
    /// convicted when the initial configuration fails progress
    /// containment for every reachable state.
    pub(crate) fn start(&self) -> GuardState {
        GuardState {
            cur: self.dfa_initial,
            convicted: self.initial_verdict,
        }
    }

    /// Validates one external event frame (an event-table index): a
    /// single transition-table load. On `Err` the state is convicted
    /// and stays convicted; every later call returns the same
    /// conviction.
    #[inline]
    pub(crate) fn observe(&self, st: &mut GuardState, event: u16) -> Result<(), Conviction> {
        if let Some(c) = st.convicted {
            return Err(c);
        }
        let ev = usize::from(event);
        if ev >= self.nsym {
            // The gateway rejects unknown indices before reaching the
            // guard; treat a stray one as a non-trace.
            st.convicted = Some(Conviction::NotATrace { event });
            return Err(Conviction::NotATrace { event });
        }
        let target = self.trans[st.cur as usize * self.nsym + ev];
        if target < T_SENTINEL_BASE {
            st.cur = target;
            return Ok(());
        }
        let c = match target {
            T_NOT_A_TRACE => Conviction::NotATrace { event },
            T_SERVICE_VIOLATION => Conviction::ServiceViolation { event },
            _ => Conviction::Stalled,
        };
        st.convicted = Some(c);
        Err(c)
    }

    /// Confirms or dismisses a client-attested stall.
    ///
    /// Convicts when some possible state fails containment — the
    /// attested stall then witnesses a reachable progress-failing pair.
    /// An attestation no possible state supports is dismissed (`Ok`).
    #[inline]
    pub(crate) fn attest_stall(&self, st: &mut GuardState) -> Result<(), Conviction> {
        if let Some(c) = st.convicted {
            return Err(c);
        }
        if self.any_fail[st.cur as usize] {
            st.convicted = Some(Conviction::Stalled);
            return Err(Conviction::Stalled);
        }
        Ok(())
    }
}

/// Per-session online guard state: one `u32` DFA state, with its
/// program.
///
/// [`SessionGuard::observe`] is a single transition-table load per
/// frame; the subset tracking, τ-closure and containment scans all
/// happened at [`GuardProgram::new`] time. The pre-determinization
/// implementation is retained as [`SessionGuardReference`] — the
/// differential oracle.
pub struct SessionGuard {
    prog: Arc<GuardProgram>,
    state: GuardState,
    observed: u64,
}

impl SessionGuard {
    /// A fresh guard at the initial DFA state.
    ///
    /// If the initial configuration already fails progress containment
    /// for every reachable state, the session starts convicted — the
    /// static verdict is necessarily a progress failure too.
    pub fn new(prog: Arc<GuardProgram>) -> SessionGuard {
        let state = prog.start();
        SessionGuard {
            prog,
            state,
            observed: 0,
        }
    }

    /// Validates one external event frame (an event-table index).
    ///
    /// On `Err` the session is convicted and stays convicted; every
    /// later call returns the same conviction.
    pub fn observe(&mut self, event: u16) -> Result<(), Conviction> {
        let fresh = self.state.convicted.is_none();
        let verdict = self.prog.observe(&mut self.state, event);
        // A stall edge extends the trace with a genuine step — the
        // conviction is about the state it lands in, so the frame
        // counts as observed (the reference guard agrees).
        if fresh && matches!(verdict, Ok(()) | Err(Conviction::Stalled)) {
            self.observed += 1;
        }
        verdict
    }

    /// Confirms or dismisses a client-attested stall (see
    /// [`GuardProgram`]'s stall rule: convicted when some possible
    /// state fails containment).
    pub fn attest_stall(&mut self) -> Result<(), Conviction> {
        self.prog.attest_stall(&mut self.state)
    }

    /// The conviction, if the session has one.
    pub fn convicted(&self) -> Option<&Conviction> {
        self.state.convicted.as_ref()
    }

    /// Frames accepted so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of composite states currently possible.
    pub fn possible_states(&self) -> usize {
        self.prog.subset_size[self.state.cur as usize] as usize
    }

    /// The interned event behind a wire index, if any.
    pub fn event_of(&self, event: u16) -> Option<EventId> {
        self.prog.table.event(u32::from(event))
    }
}

/// The pre-determinization per-session guard: re-plays subset tracking
/// over the compiled `B ‖ C` product (τ-closure + ext step), the ψ-hub
/// step and the containment scans on **every frame**. Retained verbatim
/// as the differential oracle for [`SessionGuard`] — the same
/// engine/reference split every other phase of this workspace has.
pub struct SessionGuardReference {
    prog: Arc<GuardProgram>,
    /// τ-closed, sorted, deduplicated set of possible composite states.
    possible: Vec<u32>,
    /// Scratch mark bits for the τ-closure (cleared after each use).
    seen: Vec<bool>,
    hub: usize,
    convicted: Option<Conviction>,
    observed: u64,
}

impl SessionGuardReference {
    /// A fresh guard at the initial state of the compiled product.
    pub fn new(prog: Arc<GuardProgram>) -> SessionGuardReference {
        let n = prog.num_states();
        let possible = vec![prog.comp.initial];
        let hub = prog.norm.initial_hub();
        let mut guard = SessionGuardReference {
            prog,
            possible,
            seen: vec![false; n],
            hub,
            convicted: None,
            observed: 0,
        };
        guard.tau_close();
        if guard.all_fail() {
            guard.convicted = Some(Conviction::Stalled);
        }
        guard
    }

    /// Extends `possible` with everything reachable over internal
    /// edges, leaving it sorted and deduplicated.
    fn tau_close(&mut self) {
        let comp = &self.prog.comp;
        for &s in &self.possible {
            self.seen[s as usize] = true;
        }
        let mut i = 0;
        while i < self.possible.len() {
            let s = self.possible[i] as usize;
            for k in comp.int_off[s] as usize..comp.int_off[s + 1] as usize {
                let t = comp.int_tgt[k];
                if !self.seen[t as usize] {
                    self.seen[t as usize] = true;
                    self.possible.push(t);
                }
            }
            i += 1;
        }
        self.possible.sort_unstable();
        for &s in &self.possible {
            self.seen[s as usize] = false;
        }
    }

    fn all_fail(&self) -> bool {
        self.possible
            .iter()
            .all(|&s| !self.prog.progress_ok(s, self.hub))
    }

    /// Validates one external event frame (an event-table index).
    pub fn observe(&mut self, event: u16) -> Result<(), Conviction> {
        if let Some(c) = &self.convicted {
            return Err(*c);
        }
        let Some(eid) = self.prog.table.event(u32::from(event)) else {
            let c = Conviction::NotATrace { event };
            self.convicted = Some(c);
            return Err(c);
        };
        let comp = &self.prog.comp;
        let mut next: Vec<u32> = Vec::with_capacity(self.possible.len());
        for &s in &self.possible {
            let s = s as usize;
            for k in comp.ext_off[s] as usize..comp.ext_off[s + 1] as usize {
                if comp.ext_ev[k] == u32::from(event) {
                    let t = comp.ext_tgt[k];
                    if !self.seen[t as usize] {
                        self.seen[t as usize] = true;
                        next.push(t);
                    }
                }
            }
        }
        for &t in &next {
            self.seen[t as usize] = false;
        }
        if next.is_empty() {
            let c = Conviction::NotATrace { event };
            self.convicted = Some(c);
            return Err(c);
        }
        let Some(hub) = self.prog.norm.step(self.hub, eid) else {
            let c = Conviction::ServiceViolation { event };
            self.convicted = Some(c);
            return Err(c);
        };
        self.possible = next;
        self.hub = hub;
        self.observed += 1;
        self.tau_close();
        if self.all_fail() {
            let c = Conviction::Stalled;
            self.convicted = Some(c);
            return Err(c);
        }
        Ok(())
    }

    /// Confirms or dismisses a client-attested stall.
    pub fn attest_stall(&mut self) -> Result<(), Conviction> {
        if let Some(c) = &self.convicted {
            return Err(*c);
        }
        if self
            .possible
            .iter()
            .any(|&s| !self.prog.progress_ok(s, self.hub))
        {
            let c = Conviction::Stalled;
            self.convicted = Some(c);
            return Err(c);
        }
        Ok(())
    }

    /// The conviction, if the session has one.
    pub fn convicted(&self) -> Option<&Conviction> {
        self.convicted.as_ref()
    }

    /// Frames accepted so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of composite states currently possible.
    pub fn possible_states(&self) -> usize {
        self.possible.len()
    }

    /// The interned event behind a wire index, if any.
    pub fn event_of(&self, event: u16) -> Option<EventId> {
        self.prog.table.event(u32::from(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_spec::SpecBuilder;

    fn service() -> Spec {
        let mut b = SpecBuilder::new("service");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u0);
        b.build().unwrap()
    }

    fn idx(prog: &GuardProgram, name: &str) -> u16 {
        prog.table
            .events
            .iter()
            .position(|e| e.name() == name)
            .unwrap() as u16
    }

    #[test]
    fn genuine_traces_are_accepted() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let mid = b.state("mid");
        let s1 = b.state("s1");
        b.ext(s0, "acc", mid);
        b.int(mid, s1);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let (acc, del) = (idx(&prog, "acc"), idx(&prog, "del"));
        let mut g = SessionGuard::new(Arc::clone(&prog));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        for _ in 0..3 {
            assert_eq!(g.observe(acc), Ok(()));
            assert_eq!(g.observe(del), Ok(()));
            assert_eq!(r.observe(acc), Ok(()));
            assert_eq!(r.observe(del), Ok(()));
        }
        assert_eq!(g.observed(), 6);
        assert_eq!(r.observed(), 6);
        assert!(g.convicted().is_none());
        assert_eq!(g.attest_stall(), Ok(()));
        assert_eq!(r.attest_stall(), Ok(()));
        assert!(prog.build_stats().dfa_states >= 2);
        assert!(prog.build_stats().table_bytes > 0);
    }

    #[test]
    fn non_traces_and_service_violations_convict() {
        // `del` is enabled initially in the implementation but not in
        // the service: membership passes, trace inclusion fails.
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        b.ext(s0, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let (acc, del) = (idx(&prog, "acc"), idx(&prog, "del"));

        let mut g = SessionGuard::new(Arc::clone(&prog));
        assert_eq!(
            g.observe(del),
            Err(Conviction::ServiceViolation { event: del })
        );
        // Convictions are sticky.
        assert_eq!(
            g.observe(acc),
            Err(Conviction::ServiceViolation { event: del })
        );

        // Double `acc` is impossible in the composite itself.
        let mut g = SessionGuard::new(Arc::clone(&prog));
        assert_eq!(g.observe(acc), Ok(()));
        assert_eq!(g.observe(acc), Err(Conviction::NotATrace { event: acc }));

        // The reference agrees frame for frame.
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(
            r.observe(del),
            Err(Conviction::ServiceViolation { event: del })
        );
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(r.observe(acc), Ok(()));
        assert_eq!(r.observe(acc), Err(Conviction::NotATrace { event: acc }));
    }

    #[test]
    fn dead_ends_convict_eagerly() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let dead = b.state("dead");
        b.ext(s0, "acc", dead);
        let implementation = b
            .build()
            .unwrap()
            .with_alphabet_extended(service().alphabet());
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let acc = idx(&prog, "acc");
        let mut g = SessionGuard::new(Arc::clone(&prog));
        assert_eq!(g.observe(acc), Err(Conviction::Stalled));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(r.observe(acc), Err(Conviction::Stalled));
    }

    #[test]
    fn attested_stalls_need_a_failing_witness() {
        // Nondeterministic `acc`: one branch progresses, one is stuck.
        // The eager all-fail rule cannot fire, but an attested stall is
        // confirmed by the stuck branch.
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let dead = b.state("dead");
        b.ext(s0, "acc", s1);
        b.ext(s0, "acc", dead);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let acc = idx(&prog, "acc");
        let mut g = SessionGuard::new(Arc::clone(&prog));
        assert_eq!(g.observe(acc), Ok(()));
        assert_eq!(g.possible_states(), 2);
        assert_eq!(g.attest_stall(), Err(Conviction::Stalled));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(r.observe(acc), Ok(()));
        assert_eq!(r.possible_states(), 2);
        assert_eq!(r.attest_stall(), Err(Conviction::Stalled));
    }

    #[test]
    fn interface_mismatch_is_rejected() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        b.ext(s0, "other", s0);
        let implementation = b.build().unwrap();
        assert!(GuardProgram::new(&[&implementation], &service()).is_err());
    }

    #[test]
    fn sampled_traces_never_convict() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let trace = prog.sample_accepted(256);
        assert_eq!(trace.len(), 256);
        let mut g = SessionGuard::new(Arc::clone(&prog));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        for &ev in &trace {
            assert_eq!(g.observe(ev), Ok(()));
            assert_eq!(r.observe(ev), Ok(()));
        }
    }

    #[test]
    fn stray_indices_convict_both_guards() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let mut g = SessionGuard::new(Arc::clone(&prog));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(g.observe(999), Err(Conviction::NotATrace { event: 999 }));
        assert_eq!(r.observe(999), Err(Conviction::NotATrace { event: 999 }));
    }
}
