//! The n-way composite against the pairwise fold, on a composite large
//! enough that the tuple intern table of `compile_composite` grows
//! several times while it is explored.
//!
//! `nfa_blowup(9)` composed with its derived converter has thousands
//! of states against a few hundred component states. The intern table
//! starts with one slot per component state (rounded up to a power of
//! two, so at most twice that) and doubles whenever it is half full, so
//! a composite of more than four times the component states grows it at
//! least three times. State numbering, names and per-state adjacency
//! order must still equal the reference left fold [`compose_all`] state
//! for state.

use protoquot_core::solve;
use protoquot_protocols::{exactly_once, nfa_blowup};
use protoquot_spec::{compile_composite, compose_all, compose_all_nway, EventTable, Spec, StateId};

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

#[test]
fn nway_equals_pairwise_fold_on_a_growing_intern_table() {
    let (b, int) = nfa_blowup(9);
    let service = exactly_once();
    let converter = solve(&b, &service, &int)
        .expect("the blow-up family has a converter")
        .converter;
    let parts: [&Spec; 2] = [&b, &converter];
    let folded = compose_all(&parts).unwrap();
    let nway = compose_all_nway(&parts).unwrap();

    let component_states = b.num_states() + converter.num_states();
    assert!(
        folded.num_states() > 4 * component_states,
        "{} composite states against {component_states} component states \
         would not grow the intern table several times",
        folded.num_states()
    );

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
    let comp = compile_composite(&parts, &tbl).unwrap();
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
        assert_eq!(tuple.len(), 2);
        let label = format!(
            "({},{})",
            b.state_name(StateId(tuple[0])),
            converter.state_name(StateId(tuple[1]))
        );
        assert_eq!(label, folded.state_name(s), "tuple of {s:?}");
    }
}
