//! The (composite state × ψ-hub) product check: safety as trace
//! inclusion, progress as sink-acceptance containment.
//!
//! The happy path is fully parallel: a condvar work-queue frontier (the
//! `safety_engine` pattern) marks reachable pairs in an atomic bitmap,
//! then the progress scan partitions the pair space across the pool.
//! With one worker the frontier is a plain stack: the order of marking
//! does not matter, only the set of marked pairs.
//! Only when a check *fails* does a sequential canonical BFS re-walk
//! run, reproducing the reference exploration order exactly — so the
//! witness trace, violation state id, and needed/offered sets are bit
//! identical to [`crate::satisfies`] at every thread count.

use super::compiled::{bits_subset, tau_star_rows, CompiledComposite};
use super::norm::{CompiledNormal, NO_HUB};
use crate::satisfy::{SatisfactionResult, Violation};
use crate::spec::StateId;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use threadpool::ThreadPool;

use super::compiled::EventTable;

struct FrontierQueue {
    items: VecDeque<u64>,
    pending: usize,
}

struct Frontier {
    comp: Arc<CompiledComposite>,
    norm: Arc<CompiledNormal>,
    nh: u64,
    seen: Vec<AtomicU64>,
    queue: Mutex<FrontierQueue>,
    ready: Condvar,
    violated: AtomicBool,
}

fn try_mark(seen: &[AtomicU64], p: u64) -> bool {
    let bit = 1u64 << (p % 64);
    let word = &seen[(p / 64) as usize];
    // A plain load answers the pairs already seen without a
    // read-modify-write.
    word.load(Ordering::Relaxed) & bit == 0 && word.fetch_or(bit, Ordering::Relaxed) & bit == 0
}

/// Marks the unseen successors of pair `p` and appends them to `out`.
/// Returns `false` (flagging the frontier) if `p` has an external edge
/// ψ cannot take: a safety violation.
fn expand(sh: &Frontier, p: u64, out: &mut Vec<u64>) -> bool {
    let t = (p / sh.nh) as usize;
    let h = (p % sh.nh) as usize;
    let comp = &*sh.comp;
    for &s2 in &comp.int_tgt[comp.int_off[t] as usize..comp.int_off[t + 1] as usize] {
        let p2 = s2 as u64 * sh.nh + h as u64;
        if try_mark(&sh.seen, p2) {
            out.push(p2);
        }
    }
    let step = &sh.norm.step[h * sh.norm.ne..(h + 1) * sh.norm.ne];
    for k in comp.ext_off[t] as usize..comp.ext_off[t + 1] as usize {
        let h2 = step[comp.ext_ev[k] as usize];
        if h2 == NO_HUB {
            sh.violated.store(true, Ordering::Relaxed);
            return false;
        }
        let p2 = comp.ext_tgt[k] as u64 * sh.nh + h2 as u64;
        if try_mark(&sh.seen, p2) {
            out.push(p2);
        }
    }
    true
}

fn run_worker(sh: &Frontier) {
    let mut discovered: Vec<u64> = Vec::new();
    loop {
        let item = {
            let mut q = sh.queue.lock().expect("frontier queue poisoned");
            loop {
                if sh.violated.load(Ordering::Relaxed) {
                    q.items.clear();
                }
                if let Some(p) = q.items.pop_front() {
                    q.pending += 1;
                    break Some(p);
                }
                if q.pending == 0 {
                    break None;
                }
                q = sh.ready.wait(q).expect("frontier queue poisoned");
            }
        };
        let Some(p) = item else {
            sh.ready.notify_all();
            return;
        };

        discovered.clear();
        let abort = !expand(sh, p, &mut discovered);

        let mut q = sh.queue.lock().expect("frontier queue poisoned");
        if abort {
            q.items.clear();
        } else {
            q.items.extend(discovered.iter().copied());
        }
        q.pending -= 1;
        let wake = q.pending == 0 || abort || !q.items.is_empty();
        drop(q);
        if wake {
            sh.ready.notify_all();
        }
    }
}

/// Sequential canonical re-walk of the product, in exactly the
/// reference [`crate::satisfy`] exploration order: FIFO over pairs,
/// internal edges before external edges, stopping at the first
/// undefined ψ step when `stop` is set.
struct Walk {
    /// `(state, hub)` pairs in discovery order.
    pairs: Vec<(u32, u32)>,
    /// Per pair: parent index and the external event (as a table index,
    /// `u32::MAX` for internal moves / the root).
    parents: Vec<(u32, u32)>,
    /// First safety violation: (pair index, event-table index).
    violation: Option<(usize, u32)>,
}

const NO_EVENT: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

fn canonical_walk(comp: &CompiledComposite, norm: &CompiledNormal, stop: bool) -> Walk {
    let ne = norm.ne;
    let mut index: HashMap<(u32, u32), u32> = HashMap::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut parents: Vec<(u32, u32)> = Vec::new();
    let mut work: VecDeque<u32> = VecDeque::new();
    let start = (comp.initial, norm.initial);
    index.insert(start, 0);
    pairs.push(start);
    parents.push((NO_PARENT, NO_EVENT));
    work.push_back(0);
    let mut violation = None;

    while let Some(i) = work.pop_front() {
        let (t, h) = pairs[i as usize];
        let tu = t as usize;
        for k in comp.int_off[tu] as usize..comp.int_off[tu + 1] as usize {
            let key = (comp.int_tgt[k], h);
            if let std::collections::hash_map::Entry::Vacant(v) = index.entry(key) {
                let id = pairs.len() as u32;
                v.insert(id);
                pairs.push(key);
                parents.push((i, NO_EVENT));
                work.push_back(id);
            }
        }
        for k in comp.ext_off[tu] as usize..comp.ext_off[tu + 1] as usize {
            let ev = comp.ext_ev[k];
            let h2 = norm.step[h as usize * ne + ev as usize];
            if h2 == NO_HUB {
                if violation.is_none() {
                    violation = Some((i as usize, ev));
                    if stop {
                        return Walk {
                            pairs,
                            parents,
                            violation,
                        };
                    }
                }
                continue;
            }
            let key = (comp.ext_tgt[k], h2);
            if let std::collections::hash_map::Entry::Vacant(v) = index.entry(key) {
                let id = pairs.len() as u32;
                v.insert(id);
                pairs.push(key);
                parents.push((i, ev));
                work.push_back(id);
            }
        }
    }
    Walk {
        pairs,
        parents,
        violation,
    }
}

fn trace_to(walk: &Walk, tbl: &EventTable, mut i: usize) -> Vec<crate::event::EventId> {
    let mut rev = Vec::new();
    loop {
        let (p, ev) = walk.parents[i];
        if p == NO_PARENT {
            break;
        }
        if ev != NO_EVENT {
            rev.push(tbl.events[ev as usize]);
        }
        i = p as usize;
    }
    rev.reverse();
    rev
}

/// Outcome of the product check.
pub(crate) struct ProductOutcome {
    pub(crate) verdict: SatisfactionResult,
    /// Reachable product pairs (up to the stopping point on a safety
    /// violation — deterministic across thread counts by construction).
    pub(crate) pairs: usize,
}

pub(crate) fn run_product(
    comp: Arc<CompiledComposite>,
    norm: Arc<CompiledNormal>,
    tbl: &EventTable,
    tau: Option<Arc<Vec<u64>>>,
    threads: usize,
) -> ProductOutcome {
    let threads = threads.max(1);
    let nh = norm.nh as u64;
    let total = comp.n as u64 * nh;
    let seen: Vec<AtomicU64> = (0..total.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
    let root = comp.initial as u64 * nh + norm.initial as u64;
    try_mark(&seen, root);

    let frontier = Arc::new(Frontier {
        comp: Arc::clone(&comp),
        norm: Arc::clone(&norm),
        nh,
        seen,
        queue: Mutex::new(FrontierQueue {
            items: VecDeque::from([root]),
            pending: 0,
        }),
        ready: Condvar::new(),
        violated: AtomicBool::new(false),
    });

    if threads == 1 {
        // One worker needs no queue: a plain depth-first stack reaches
        // the same seen set (or the same "violated" flag).
        let mut stack = vec![root];
        while let Some(p) = stack.pop() {
            if !expand(&frontier, p, &mut stack) {
                break;
            }
        }
    } else {
        let pool = ThreadPool::new(threads);
        for _ in 0..threads {
            let sh = Arc::clone(&frontier);
            pool.execute(move || run_worker(&sh));
        }
        pool.join();
    }

    if frontier.violated.load(Ordering::Relaxed) {
        // Canonical re-walk to the reference's first violation.
        let walk = canonical_walk(&comp, &norm, true);
        let (i, ev) = walk
            .violation
            .expect("parallel frontier saw a violation the canonical walk must reach");
        let mut trace = trace_to(&walk, tbl, i);
        trace.push(tbl.events[ev as usize]);
        return ProductOutcome {
            verdict: Err(Violation::Safety { trace }),
            pairs: walk.pairs.len(),
        };
    }

    // Progress: some acceptance set of the hub must be offered (τ*) by
    // the composite state, for every reachable pair.
    let words = norm.words;
    let tau = tau.unwrap_or_else(|| Arc::new(tau_star_rows(&comp, words)));
    let any_fail = if threads == 1 {
        progress_scan_range(&norm, &frontier.seen, &tau, 0, total)
    } else {
        let fail = Arc::new(AtomicBool::new(false));
        let next_chunk = Arc::new(AtomicUsize::new(0));
        let chunk = ((total / (threads as u64 * 8)) + 1).max(256);
        let nchunks = total.div_ceil(chunk);
        let pool = ThreadPool::new(threads);
        for _ in 0..threads {
            let sh = Arc::clone(&frontier);
            let tau = Arc::clone(&tau);
            let fail = Arc::clone(&fail);
            let next_chunk = Arc::clone(&next_chunk);
            pool.execute(move || loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed) as u64;
                if c >= nchunks || fail.load(Ordering::Relaxed) {
                    return;
                }
                let lo = c * chunk;
                let hi = (lo + chunk).min(total);
                if progress_scan_range(&sh.norm, &sh.seen, &tau, lo, hi) {
                    fail.store(true, Ordering::Relaxed);
                    return;
                }
            });
        }
        pool.join();
        fail.load(Ordering::Relaxed)
    };

    let pairs = frontier
        .seen
        .iter()
        .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
        .sum();

    if !any_fail {
        return ProductOutcome {
            verdict: Ok(()),
            pairs,
        };
    }

    // Canonical re-walk (no safety violation exists) to the reference's
    // first progress-violating pair in discovery order.
    let walk = canonical_walk(&comp, &norm, false);
    debug_assert!(walk.violation.is_none());
    for (i, &(t, h)) in walk.pairs.iter().enumerate() {
        let offered = &tau[t as usize * words..(t as usize + 1) * words];
        let ok = norm
            .acceptance(h as usize)
            .any(|needed| bits_subset(needed, offered));
        if !ok {
            let needed = norm
                .acceptance(h as usize)
                .map(|bits| tbl.to_alphabet(bits))
                .collect();
            return ProductOutcome {
                verdict: Err(Violation::Progress {
                    trace: trace_to(&walk, tbl, i),
                    state: StateId(t),
                    needed,
                    offered: tbl.to_alphabet(offered),
                }),
                pairs,
            };
        }
    }
    unreachable!("parallel progress scan failed but canonical walk found no violating pair")
}

fn progress_scan_range(
    norm: &CompiledNormal,
    seen: &[AtomicU64],
    tau: &[u64],
    lo: u64,
    hi: u64,
) -> bool {
    let words = norm.words;
    let nh = norm.nh as u64;
    for p in lo..hi {
        if seen[(p / 64) as usize].load(Ordering::Relaxed) >> (p % 64) & 1 == 0 {
            continue;
        }
        let t = (p / nh) as usize;
        let h = (p % nh) as usize;
        let offered = &tau[t * words..(t + 1) * words];
        if !norm
            .acceptance(h)
            .any(|needed| bits_subset(needed, offered))
        {
            return true;
        }
    }
    false
}
