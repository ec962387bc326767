//! Compiled CSR automata: dense `u32` state ids, event-indexed edge
//! tables, and bitset alphabets over an interned event table.
//!
//! The composite of `n` components is explored **once**, directly over
//! state tuples, instead of folding pairwise [`crate::compose`] calls
//! that materialize (and re-intern) every intermediate `Spec`. The
//! expansion scan below is ordered so that both the state numbering and
//! the per-state adjacency order are *identical* to what the reference
//! left fold would produce — that is what lets the engine reproduce the
//! reference verdicts, witness traces, and violation state ids bit for
//! bit (see `tests/verify_differential.rs`).

use crate::event::{Alphabet, EventId};
use crate::spec::{Spec, StateId};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Interned table of an alphabet's events, sorted ascending by event
/// *name* — the single event-id assignment point shared by the verify
/// engine, the simulation engine, and the runtime wire codec.
///
/// Numeric [`EventId`]s are process-local (the interner hands them out
/// in first-use order), so two processes built from the same
/// specification would disagree on them. Table indices depend only on
/// the event names: identical alphabets yield identical index
/// assignments in every process, which is what lets a gateway and a
/// remote load generator agree on the wire encoding of each event.
pub struct EventTable {
    /// The events, ascending by name; the table index of an event is
    /// its position here.
    pub events: Vec<EventId>,
    index: HashMap<EventId, u32>,
}

impl EventTable {
    /// Builds the table for `alphabet`. Index assignment depends only
    /// on the event names, never on interner history.
    pub fn new(alphabet: &Alphabet) -> EventTable {
        let mut events: Vec<EventId> = alphabet.iter().collect();
        events.sort_by_key(|e| e.name());
        let index = events
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as u32))
            .collect();
        EventTable { events, index }
    }

    /// Number of events in the table.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the table holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Words per bitset row (at least one so slices stay non-empty).
    pub fn words(&self) -> usize {
        self.events.len().div_ceil(64) + usize::from(self.events.is_empty())
    }

    /// The table index of `e`. Panics if `e` is not in the table.
    pub fn idx(&self, e: EventId) -> u32 {
        self.index[&e]
    }

    /// The table index of `e`, or `None` if `e` is not in the table.
    pub fn lookup(&self, e: EventId) -> Option<u32> {
        self.index.get(&e).copied()
    }

    /// The event behind table index `i`, or `None` if out of range.
    pub fn event(&self, i: u32) -> Option<EventId> {
        self.events.get(i as usize).copied()
    }

    /// Decodes a bitset row back into an [`Alphabet`].
    pub fn to_alphabet(&self, bits: &[u64]) -> Alphabet {
        let mut a = Alphabet::new();
        for (i, &e) in self.events.iter().enumerate() {
            if bits[i / 64] >> (i % 64) & 1 == 1 {
                a.insert(e);
            }
        }
        a
    }

    /// Encodes an [`Alphabet`] as a bitset row over this table.
    pub fn alphabet_bits(&self, a: &Alphabet) -> Vec<u64> {
        let mut bits = vec![0u64; self.words()];
        for e in a.iter() {
            set_bit(&mut bits, self.idx(e));
        }
        bits
    }
}

pub(crate) fn set_bit(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] |= 1u64 << (i % 64);
}

pub(crate) fn test_bit(bits: &[u64], i: u32) -> bool {
    bits[(i / 64) as usize] >> (i % 64) & 1 == 1
}

pub(crate) fn bits_subset(sub: &[u64], sup: &[u64]) -> bool {
    sub.iter().zip(sup).all(|(&a, &b)| a & !b == 0)
}

/// The compiled composite `P_0 ‖ … ‖ P_{n-1}` in CSR form.
///
/// External edges carry event-table indices; internal edges are plain
/// successor lists. For a single component the compile is the identity
/// on state ids; for `n ≥ 2` the numbering equals the reference fold's.
pub struct CompiledComposite {
    /// Number of composite states.
    pub n: usize,
    /// Initial composite state.
    pub initial: u32,
    /// CSR row offsets into `ext_ev`/`ext_tgt` (length `n + 1`).
    pub ext_off: Vec<u32>,
    /// Event-table index per external edge, in adjacency order.
    pub ext_ev: Vec<u32>,
    /// Target state per external edge.
    pub ext_tgt: Vec<u32>,
    /// CSR row offsets into `int_tgt` (length `n + 1`).
    pub int_off: Vec<u32>,
    /// Target state per internal edge, in adjacency order.
    pub int_tgt: Vec<u32>,
    /// Tuple-interning hits during the n-way exploration.
    pub dedup_hits: usize,
    /// Bytes held by the CSR arrays and interned tuple keys.
    pub arena_bytes: usize,
    /// Components per state tuple (0 for the single-component identity
    /// compile, which keeps no tuples).
    width: usize,
    /// The state tuples, `width` words per composite id, in id order:
    /// the interning arena of the n-way exploration.
    tuples: Vec<u32>,
}

impl CompiledComposite {
    /// Total edges (external + internal CSR entries).
    pub fn num_transitions(&self) -> usize {
        self.ext_ev.len() + self.int_tgt.len()
    }

    /// The component states behind composite state `s`, one per
    /// component (empty for the single-component identity compile).
    pub fn tuple(&self, s: u32) -> &[u32] {
        let at = s as usize * self.width;
        &self.tuples[at..at + self.width]
    }

    fn finish_arena(&mut self) {
        self.arena_bytes = 4
            * (self.tuples.len()
                + self.ext_off.len()
                + self.ext_ev.len()
                + self.ext_tgt.len()
                + self.int_off.len()
                + self.int_tgt.len());
    }
}

/// Identity compile of a single component: state `i` stays state `i`
/// (including unreachable ones — the product exploration never visits
/// them), so violation state ids match the reference exactly.
pub(crate) fn build_single(b: &Spec, tbl: &EventTable) -> CompiledComposite {
    let n = b.num_states();
    let mut ext_off = Vec::with_capacity(n + 1);
    let mut int_off = Vec::with_capacity(n + 1);
    let mut ext_ev = Vec::with_capacity(b.num_external());
    let mut ext_tgt = Vec::with_capacity(b.num_external());
    let mut int_tgt = Vec::with_capacity(b.num_internal());
    ext_off.push(0);
    int_off.push(0);
    for s in b.states() {
        for &(e, t) in b.external_from(s) {
            ext_ev.push(tbl.idx(e));
            ext_tgt.push(t.0);
        }
        for &t in b.internal_from(s) {
            int_tgt.push(t.0);
        }
        ext_off.push(ext_ev.len() as u32);
        int_off.push(int_tgt.len() as u32);
    }
    let mut c = CompiledComposite {
        n,
        initial: b.initial().0,
        ext_off,
        ext_ev,
        ext_tgt,
        int_off,
        int_tgt,
        dedup_hits: 0,
        arena_bytes: 0,
        width: 0,
        tuples: Vec::new(),
    };
    c.finish_arena();
    c
}

/// How one component edge participates in the composite.
#[derive(Clone, Copy)]
enum EdgeKind {
    /// Event owned by this component alone: external in the composite
    /// (payload = event-table index).
    Solo(u32),
    /// Event shared with component `other`: synchronises and hides.
    Shared(u32),
}

#[derive(Clone, Copy)]
struct PartEdge {
    e: EventId,
    kind: EdgeKind,
    tgt: u32,
}

/// One component's external edges, pre-classified, in CSR form: state
/// `s` owns `edges[off[s]..off[s + 1]]`, in the spec's stored order.
struct PartEdges {
    off: Vec<u32>,
    edges: Vec<PartEdge>,
}

impl PartEdges {
    fn of(&self, s: u32) -> &[PartEdge] {
        &self.edges[self.off[s as usize] as usize..self.off[s as usize + 1] as usize]
    }
}

/// Largest `Π|P_i|` for which compiling the composite of components
/// `P_i` ([`crate::compile_composite`]) looks state tuples up in a
/// direct table of `Π|P_i|` `u32`s (4 MiB at the cap) instead of
/// hashing them.
pub const DENSE_INDEX_CAP: usize = 1 << 20;

/// N-way reachable product exploration.
///
/// The scan order below flattens the reference left fold
/// `(…(P_0 ‖ P_1) ‖ …) ‖ P_{n-1}`: interning happens in exactly the
/// order the outermost pairwise [`crate::compose`] would intern, and
/// the per-state adjacency comes out as
///
/// * external: components ascending, solo edges in stored order;
/// * internal: synchronisations with component `n-1` first (driven by
///   the lower-indexed owner's edge order), then each inner fold
///   level's synchronisations descending, then every component's
///   internal moves ascending.
///
/// Events present in the table but shared (hence hidden) never reach
/// `ext_ev`; an event shared by more than two components must have been
/// rejected by the caller.
pub(crate) fn build_nway(parts: &[&Spec], tbl: &EventTable) -> CompiledComposite {
    let np = parts.len();
    debug_assert!(np >= 1);
    let last = np - 1;

    // Owners per event (at most two by the caller's check), and how an
    // edge on the event of component `i` joins the composite.
    let mut owners: HashMap<EventId, (usize, usize)> = HashMap::new();
    for (i, p) in parts.iter().enumerate() {
        for e in p.alphabet().iter() {
            owners
                .entry(e)
                .and_modify(|o| o.1 = i)
                .or_insert((i, usize::MAX));
        }
    }
    let kind = |e: EventId, i: usize| {
        let (lo, hi) = owners[&e];
        if hi == usize::MAX {
            EdgeKind::Solo(tbl.idx(e))
        } else {
            EdgeKind::Shared(if lo == i { hi as u32 } else { lo as u32 })
        }
    };
    let part_edges: Vec<PartEdges> = parts
        .iter()
        .enumerate()
        .map(|(i, p)| {
            // Each alphabet event classified once, in id order.
            let kinds: Vec<(EventId, EdgeKind)> =
                p.alphabet().iter().map(|e| (e, kind(e, i))).collect();
            let mut off = Vec::with_capacity(p.num_states() + 1);
            let mut edges = Vec::with_capacity(p.num_external());
            off.push(0);
            for s in p.states() {
                for &(e, t) in p.external_from(s) {
                    let kind = match kinds.binary_search_by_key(&e, |k| k.0) {
                        Ok(k) => kinds[k].1,
                        Err(_) => kind(e, i),
                    };
                    edges.push(PartEdge { e, kind, tgt: t.0 });
                }
                off.push(edges.len() as u32);
            }
            PartEdges { off, edges }
        })
        .collect();

    let sizes: Vec<usize> = parts.iter().map(|p| p.num_states()).collect();
    let mut x = Explorer {
        intern: TupleInterner::new(&sizes),
        cand: vec![0; np],
        work: vec![0],
        dedup_hits: 0,
    };
    let root: Vec<u32> = parts.iter().map(|p| p.initial().0).collect();
    x.intern.intern(&root);
    let mut ext_edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut int_edges: Vec<(u32, u32)> = Vec::new();

    let mut cur = vec![0u32; np];
    // LIFO pop mirrors the reference `compose` work stack, so ids are
    // assigned in the same first-reference order.
    while let Some(id) = x.work.pop() {
        cur.copy_from_slice(x.intern.get(id));
        // Phase A: the outermost fold level — solo externals and
        // synchronisations with the last component, interleaved in each
        // component's stored edge order.
        for i in 0..np {
            for pe in part_edges[i].of(cur[i]) {
                match pe.kind {
                    EdgeKind::Solo(ev) => {
                        let to = x.reach(&cur, i, pe.tgt, None);
                        ext_edges.push((id, ev, to));
                    }
                    EdgeKind::Shared(other) if other as usize == last && i != last => {
                        for qe in part_edges[last].of(cur[last]) {
                            if qe.e == pe.e {
                                let to = x.reach(&cur, i, pe.tgt, Some((last, qe.tgt)));
                                int_edges.push((id, to));
                            }
                        }
                    }
                    EdgeKind::Shared(_) => {}
                }
            }
        }
        // Phase B: inner fold levels' synchronisations, level descending.
        for k in (1..last).rev() {
            for i in 0..k {
                for pe in part_edges[i].of(cur[i]) {
                    if let EdgeKind::Shared(other) = pe.kind {
                        if other as usize == k {
                            for qe in part_edges[k].of(cur[k]) {
                                if qe.e == pe.e {
                                    let to = x.reach(&cur, i, pe.tgt, Some((k, qe.tgt)));
                                    int_edges.push((id, to));
                                }
                            }
                        }
                    }
                }
            }
        }
        // Phase C: internal moves of every component, ascending.
        for (i, p) in parts.iter().enumerate() {
            for &t in p.internal_from(StateId(cur[i])) {
                let to = x.reach(&cur, i, t.0, None);
                int_edges.push((id, to));
            }
        }
    }

    let n = x.intern.len();
    let (ext_off, ext_ev, ext_tgt) = csr_ext(n, &ext_edges);
    let (int_off, int_tgt) = csr_int(n, &int_edges);
    let mut c = CompiledComposite {
        n,
        initial: 0,
        ext_off,
        ext_ev,
        ext_tgt,
        int_off,
        int_tgt,
        dedup_hits: x.dedup_hits,
        arena_bytes: 0,
        width: np,
        tuples: x.intern.arena,
    };
    c.finish_arena();
    c
}

/// Exploration state of [`build_nway`]: the intern table, the LIFO
/// work stack, and one scratch tuple for building successors.
struct Explorer {
    intern: TupleInterner,
    cand: Vec<u32>,
    work: Vec<u32>,
    dedup_hits: usize,
}

impl Explorer {
    /// Interns `cur` with position `i` (and optionally `j`) replaced,
    /// pushing a fresh id on the work stack. Builds the candidate in
    /// the scratch tuple, so a hit allocates nothing.
    fn reach(&mut self, cur: &[u32], i: usize, ti: u32, j: Option<(usize, u32)>) -> u32 {
        self.cand.copy_from_slice(cur);
        self.cand[i] = ti;
        if let Some((j, tj)) = j {
            self.cand[j] = tj;
        }
        let (id, fresh) = self.intern.intern(&self.cand);
        if fresh {
            self.work.push(id);
        } else {
            self.dedup_hits += 1;
        }
        id
    }
}

/// Slot sentinel of [`TupleInterner`]; a full slot holds `id + 1`, so
/// a fresh table is all zeroes.
const EMPTY_SLOT: u32 = 0;

/// How [`TupleInterner`] finds the slot of a tuple.
enum Lookup {
    /// `slots` has one entry per tuple of the full product, at
    /// `Σ t_i · stride[i]`: no hashing and no key comparison. Used
    /// while `Π|P_i|` is at most [`DENSE_INDEX_CAP`]; the table is
    /// allocated zeroed and filled lazily, so pages no reachable tuple
    /// lands on are never touched.
    Dense { stride: Vec<usize> },
    /// Open addressing with linear probing, at most half full; the home
    /// slot is the top bits of a multiplicative hash. The hash starts
    /// from a per-table random seed: specs can arrive from outside the
    /// program (registry admission), and a fixed hash would let crafted
    /// state tuples collide on purpose.
    Hashed {
        /// `64 - log2(slots.len())`.
        shift: u32,
        seed: u64,
    },
}

/// Intern table over a flat arena of fixed-width `u32` tuples: id `k`
/// owns `arena[k * width..(k + 1) * width]`, and each slot holds
/// `id + 1` or [`EMPTY_SLOT`]. Ids are handed out in first-intern
/// order, so the index never shows in the result.
struct TupleInterner {
    width: usize,
    arena: Vec<u32>,
    slots: Vec<u32>,
    lookup: Lookup,
}

impl TupleInterner {
    /// An empty table for tuples over components of `sizes` states:
    /// dense when their product is at most [`DENSE_INDEX_CAP`], else
    /// hashed with one slot per component state (rounded up to a power
    /// of two), first grown past half of that.
    fn new(sizes: &[usize]) -> TupleInterner {
        let width = sizes.len();
        let expect: usize = sizes.iter().sum();
        let product = sizes
            .iter()
            .try_fold(1usize, |acc, &s| acc.checked_mul(s))
            .filter(|&p| p <= DENSE_INDEX_CAP);
        let (slots, lookup) = match product {
            Some(p) => {
                let mut stride = vec![1usize; width];
                for i in (0..width.saturating_sub(1)).rev() {
                    stride[i] = stride[i + 1] * sizes[i + 1];
                }
                (vec![EMPTY_SLOT; p], Lookup::Dense { stride })
            }
            None => {
                let cap = expect.next_power_of_two().max(16);
                let lookup = Lookup::Hashed {
                    shift: 64 - cap.trailing_zeros(),
                    seed: RandomState::new().hash_one(width),
                };
                (vec![EMPTY_SLOT; cap], lookup)
            }
        };
        TupleInterner {
            width,
            arena: Vec::with_capacity(expect * width),
            slots,
            lookup,
        }
    }

    fn len(&self) -> usize {
        self.arena.len() / self.width
    }

    fn get(&self, id: u32) -> &[u32] {
        let at = id as usize * self.width;
        &self.arena[at..at + self.width]
    }

    fn home(&self, t: &[u32], shift: u32, seed: u64) -> usize {
        let mut h = seed;
        for &w in t {
            h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        (h >> shift) as usize
    }

    /// The id of `t`, or the empty slot where it goes.
    fn find(&self, t: &[u32]) -> Result<u32, usize> {
        let (shift, seed) = match &self.lookup {
            Lookup::Dense { stride } => {
                let at: usize = t.iter().zip(stride).map(|(&x, &s)| x as usize * s).sum();
                return match self.slots[at] {
                    EMPTY_SLOT => Err(at),
                    slot => Ok(slot - 1),
                };
            }
            &Lookup::Hashed { shift, seed } => (shift, seed),
        };
        let mask = self.slots.len() - 1;
        let mut i = self.home(t, shift, seed);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                return Err(i);
            }
            if self.get(slot - 1) == t {
                return Ok(slot - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of `t`, interning it first if it is new (`true`).
    fn intern(&mut self, t: &[u32]) -> (u32, bool) {
        let at = match self.find(t) {
            Ok(id) => return (id, false),
            Err(at) => at,
        };
        let id = self.len() as u32;
        self.arena.extend_from_slice(t);
        self.slots[at] = id + 1;
        if matches!(self.lookup, Lookup::Hashed { .. }) && 2 * self.len() > self.slots.len() {
            self.grow();
        }
        (id, true)
    }

    /// Doubles the hashed slot array and re-inserts every id.
    fn grow(&mut self) {
        let Lookup::Hashed { shift, seed } = &mut self.lookup else {
            unreachable!("only the hashed table grows");
        };
        *shift -= 1;
        let (shift, seed) = (*shift, *seed);
        self.slots = vec![EMPTY_SLOT; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for id in 0..self.len() as u32 {
            let mut i = self.home(self.get(id), shift, seed);
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = id + 1;
        }
    }
}

/// Stable counting sort of `(from, ev, tgt)` edges into CSR rows.
fn csr_ext(n: usize, edges: &[(u32, u32, u32)]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for &(f, _, _) in edges {
        off[f as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut ev = vec![0u32; edges.len()];
    let mut tgt = vec![0u32; edges.len()];
    let mut cursor: Vec<u32> = off.clone();
    for &(f, e, t) in edges {
        let p = cursor[f as usize] as usize;
        ev[p] = e;
        tgt[p] = t;
        cursor[f as usize] += 1;
    }
    (off, ev, tgt)
}

fn csr_int(n: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for &(f, _) in edges {
        off[f as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut tgt = vec![0u32; edges.len()];
    let mut cursor: Vec<u32> = off.clone();
    for &(f, t) in edges {
        let p = cursor[f as usize] as usize;
        tgt[p] = t;
        cursor[f as usize] += 1;
    }
    (off, tgt)
}

/// `τ*` rows for every composite state: the externally offered events
/// after any number of internal moves, as bitsets over the event table.
///
/// One iterative Tarjan pass over the internal graph, linear in the
/// composite instead of the reference's per-state DFS. SCCs complete
/// successors first, so each SCC's row is computed as it completes:
/// its members' own events plus the rows of the states its members
/// reach in SCCs already complete.
pub fn tau_star_rows(comp: &CompiledComposite, words: usize) -> Vec<u64> {
    let n = comp.n;
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    // The SCC of a visited state, or UNVISITED while it is on the stack.
    let mut scc_of = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut frames: Vec<(u32, u32)> = Vec::new();
    let mut members: Vec<u32> = Vec::new();
    let mut acc = vec![0u64; words];
    let mut rows = vec![0u64; n * words];
    let mut next_index = 0u32;
    let mut next_scc = 0u32;

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        frames.push((root, 0));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            let s = v as usize;
            let begin = comp.int_off[s] as usize;
            let end = comp.int_off[s + 1] as usize;
            if (frame.1 as usize) < end - begin {
                let w = comp.int_tgt[begin + frame.1 as usize];
                frame.1 += 1;
                let ws = w as usize;
                if index[ws] == UNVISITED {
                    index[ws] = next_index;
                    low[ws] = next_index;
                    next_index += 1;
                    stack.push(w);
                    frames.push((w, 0));
                } else if scc_of[ws] == UNVISITED {
                    low[s] = low[s].min(index[ws]);
                }
                continue;
            }
            frames.pop();
            if let Some(parent) = frames.last() {
                let p = parent.0 as usize;
                low[p] = low[p].min(low[s]);
            }
            if low[s] != index[s] {
                continue;
            }
            members.clear();
            loop {
                let w = stack.pop().expect("Tarjan stack underflow");
                scc_of[w as usize] = next_scc;
                members.push(w);
                if w == v {
                    break;
                }
            }
            acc.fill(0);
            for &m in &members {
                let m = m as usize;
                for &ev in &comp.ext_ev[comp.ext_off[m] as usize..comp.ext_off[m + 1] as usize] {
                    set_bit(&mut acc, ev);
                }
                for &t in &comp.int_tgt[comp.int_off[m] as usize..comp.int_off[m + 1] as usize] {
                    let t = t as usize;
                    if scc_of[t] != next_scc {
                        debug_assert!(scc_of[t] < next_scc, "successor SCC must complete first");
                        for (a, r) in acc.iter_mut().zip(&rows[t * words..(t + 1) * words]) {
                            *a |= r;
                        }
                    }
                }
            }
            for &m in &members {
                let m = m as usize;
                rows[m * words..(m + 1) * words].copy_from_slice(&acc);
            }
            next_scc += 1;
        }
    }
    rows
}
