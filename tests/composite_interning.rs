//! The n-way composite against the pairwise fold, state for state, on
//! both of `compile_composite`'s tuple indexes.
//!
//! The exploration looks state tuples up in a direct table of
//! `Π|P_i|` slots while that product is at most [`DENSE_INDEX_CAP`],
//! and in a seeded hash table above it. The hash table starts with one
//! slot per component state (rounded up to a power of two, so at most
//! twice that) and doubles whenever it is half full, so a composite of
//! more than four times the component states grows it at least three
//! times. On either index, state numbering, names, per-state adjacency
//! order and state tuples must equal the reference left fold
//! [`compose_all`].

use protoquot_core::solve;
use protoquot_protocols::{exactly_once, nfa_blowup};
use protoquot_spec::{
    compile_composite, compose_all, compose_all_nway, EventTable, Spec, SpecBuilder, StateId,
    DENSE_INDEX_CAP,
};

/// The first occurrence of each item, in order (what `Spec` keeps of a
/// row with duplicate edges).
fn first_occurrences<T: PartialEq + Copy>(row: impl Iterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for x in row {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

/// `Π|P_i|`, saturating.
fn product(parts: &[&Spec]) -> usize {
    parts
        .iter()
        .fold(1usize, |acc, p| acc.saturating_mul(p.num_states()))
}

/// Asserts that `compose_all_nway` and `compile_composite` agree with
/// the left fold `compose_all` on `parts`, state for state.
fn assert_nway_equals_fold(parts: &[&Spec]) {
    let folded = compose_all(parts).unwrap();
    let nway = compose_all_nway(parts).unwrap();

    assert_eq!(nway.name(), folded.name());
    assert_eq!(nway.alphabet(), folded.alphabet());
    assert_eq!(nway.num_states(), folded.num_states());
    assert_eq!(nway.initial(), folded.initial());
    for s in folded.states() {
        assert_eq!(nway.state_name(s), folded.state_name(s), "name of {s:?}");
        assert_eq!(
            nway.external_from(s),
            folded.external_from(s),
            "ext of {s:?}"
        );
        assert_eq!(
            nway.internal_from(s),
            folded.internal_from(s),
            "int of {s:?}"
        );
    }

    let tbl = EventTable::new(folded.alphabet());
    let comp = compile_composite(parts, &tbl).unwrap();
    assert_eq!(comp.n, folded.num_states());
    assert_eq!(StateId(comp.initial), folded.initial());
    assert_eq!(comp.ext_off.len(), comp.n + 1);
    assert_eq!(comp.int_off.len(), comp.n + 1);
    for s in folded.states() {
        let i = s.0 as usize;
        let ext = first_occurrences(
            (comp.ext_off[i] as usize..comp.ext_off[i + 1] as usize).map(|k| {
                (
                    tbl.events[comp.ext_ev[k] as usize],
                    StateId(comp.ext_tgt[k]),
                )
            }),
        );
        assert_eq!(ext, folded.external_from(s), "CSR ext row of {s:?}");
        let int = first_occurrences(
            comp.int_tgt[comp.int_off[i] as usize..comp.int_off[i + 1] as usize]
                .iter()
                .map(|&t| StateId(t)),
        );
        assert_eq!(int, folded.internal_from(s), "CSR int row of {s:?}");
        let tuple = comp.tuple(s.0);
        assert_eq!(tuple.len(), parts.len());
        let mut label = parts[0].state_name(StateId(tuple[0])).to_owned();
        for (p, &t) in parts.iter().zip(tuple).skip(1) {
            label = format!("({label},{})", p.state_name(StateId(t)));
        }
        assert_eq!(label, folded.state_name(s), "tuple of {s:?}");
    }
}

/// Three rings: `left` (`l` states) steps on `a`, `middle` (`2m`
/// states) alternates `a` and `b`, `right` (`r` states) steps on `b`
/// and also moves internally from every fifth state; each has a solo
/// self-loop (`x`, `z`, `y`). `a` and `b` synchronise and hide, so
/// the left pair moves in lockstep while the right ring drifts: the
/// composite reaches about `2m · r` of the `l · 2m · r` tuples.
fn rings(l: usize, m: usize, r: usize) -> [Spec; 3] {
    let ring = |name: &str, prefix: &str, n: usize, step: &dyn Fn(usize) -> &'static str| {
        let mut b = SpecBuilder::new(name);
        let states: Vec<StateId> = (0..n).map(|i| b.state(&format!("{prefix}{i}"))).collect();
        for i in 0..n {
            b.ext(states[i], step(i), states[(i + 1) % n]);
        }
        b
    };
    let mut left = ring("left", "l", l, &|_| "a");
    let s = left.state("l0");
    left.ext(s, "x", s);
    let mut middle = ring("middle", "m", 2 * m, &|i| {
        if i % 2 == 0 {
            "a"
        } else {
            "b"
        }
    });
    let s = middle.state("m1");
    middle.ext(s, "z", s);
    let mut right = ring("right", "r", r, &|_| "b");
    for i in (0..r).step_by(5) {
        let (from, to) = (
            right.state(&format!("r{i}")),
            right.state(&format!("r{}", (i + 1) % r)),
        );
        right.int(from, to);
    }
    let s = right.state("r2");
    right.ext(s, "y", s);
    [left, middle, right].map(|b| b.build().unwrap())
}

/// A three-part product under the cap: the dense index.
#[test]
fn dense_index_equals_pairwise_fold() {
    let specs = rings(11, 11, 13);
    let parts: Vec<&Spec> = specs.iter().collect();
    assert!(product(&parts) <= DENSE_INDEX_CAP);
    assert_nway_equals_fold(&parts);
}

/// A three-part product over the cap: the hashed fallback, on a
/// composite large enough that its table grows at least three times.
#[test]
fn hashed_index_equals_pairwise_fold_as_it_grows() {
    let specs = rings(101, 101, 107);
    let parts: Vec<&Spec> = specs.iter().collect();
    assert!(
        product(&parts) > DENSE_INDEX_CAP,
        "{} tuples would take the dense index",
        product(&parts)
    );
    let component_states: usize = parts.iter().map(|p| p.num_states()).sum();
    let folded_states = compose_all(&parts).unwrap().num_states();
    assert!(
        folded_states > 4 * component_states,
        "{folded_states} composite states against {component_states} component states \
         would not grow the hash table three times"
    );
    assert_nway_equals_fold(&parts);
}

/// `nfa_blowup(9)` composed with its derived converter: thousands of
/// states against a few hundred component states. Its product is under
/// the cap, so the dense index serves it.
#[test]
fn nway_equals_pairwise_fold_on_a_growing_intern_table() {
    let (b, int) = nfa_blowup(9);
    let service = exactly_once();
    let converter = solve(&b, &service, &int)
        .expect("the blow-up family has a converter")
        .converter;
    let parts: [&Spec; 2] = [&b, &converter];
    let component_states = b.num_states() + converter.num_states();
    let folded_states = compose_all(&parts).unwrap().num_states();
    assert!(
        folded_states > 4 * component_states,
        "{folded_states} composite states against {component_states} component states"
    );
    assert!(product(&parts) <= DENSE_INDEX_CAP);
    assert_nway_equals_fold(&parts);
}
