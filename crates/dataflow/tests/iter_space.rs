//! The lazy iteration space and the iteration source's replay window.
//!
//! `IterSpace` is checked against a recursive enumeration kept here as the
//! reference, on random nests with triangular bounds, empty ranges and zero
//! levels; `count_iterations` against the reference's length. A loop-nest
//! `IterSource` driven through random squash floors and rewinds must emit,
//! for every iteration number, exactly the reference row.

use proptest::prelude::*;

use prevv_dataflow::components::{count_iterations, Bound, IterSource, IterSpace, LoopLevel};
use prevv_dataflow::{ChannelId, Component, Signals, SquashBus, Value};

/// The reference: every row of the nest, by recursion over the levels.
fn reference(levels: &[LoopLevel]) -> Vec<Vec<Value>> {
    fn resolve(b: Bound, outer: &[Value]) -> Value {
        match b {
            Bound::Const(c) => c,
            Bound::OuterPlus(level, off) => outer[level] + off,
        }
    }
    fn recurse(levels: &[LoopLevel], current: &mut Vec<Value>, rows: &mut Vec<Vec<Value>>) {
        let Some(level) = levels.get(current.len()) else {
            rows.push(current.clone());
            return;
        };
        let (lo, hi) = (resolve(level.lo, current), resolve(level.hi, current));
        for v in lo..hi {
            current.push(v);
            recurse(levels, current, rows);
            current.pop();
        }
    }
    let mut rows = Vec::new();
    recurse(levels, &mut Vec::new(), &mut rows);
    rows
}

/// A bound of level `depth`: a constant, or an enclosing variable plus an
/// offset. Small ranges on both sides make empty levels common.
fn bound(depth: usize, outer: bool, level: usize, value: Value) -> Bound {
    if outer && depth > 0 {
        Bound::OuterPlus(level % depth, value / 2)
    } else {
        Bound::Const(value)
    }
}

fn nest() -> impl Strategy<Value = Vec<LoopLevel>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            0usize..4,
            -2i64..4,
            any::<bool>(),
            0usize..4,
            -1i64..6,
        ),
        0..=4,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(d, (lo_outer, lo_level, lo, hi_outer, hi_level, hi))| {
                LoopLevel::new(
                    bound(d, lo_outer, lo_level, lo),
                    bound(d, hi_outer, hi_level, hi),
                )
            })
            .collect()
    })
}

/// One cycle of `src` with every output ready: the row it issued, if any.
fn issue(src: &mut IterSource, width: usize) -> Option<(u64, Vec<Value>)> {
    let mut sig = Signals::new(width);
    for k in 0..width {
        sig.accept(ChannelId::from_index(k));
    }
    src.eval(&mut sig);
    let tokens: Vec<_> = (0..width)
        .map(|k| sig.taken(ChannelId::from_index(k)))
        .collect::<Option<_>>()?;
    src.commit(&sig);
    let iter = tokens[0].iter;
    assert!(tokens.iter().all(|t| t.iter == iter), "one row per cycle");
    assert_eq!(
        tokens[0].value, iter as Value,
        "output 0 is the iteration number"
    );
    Some((iter, tokens[1..].iter().map(|t| t.value).collect()))
}

fn nest_source(levels: &[LoopLevel], bus: &SquashBus) -> IterSource {
    let outs = (0..=levels.len()).map(ChannelId::from_index).collect();
    IterSource::nest(levels, outs, bus.clone())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn the_enumerator_matches_the_reference(levels in nest()) {
        let rows = reference(&levels);
        let streamed: Vec<Vec<Value>> = IterSpace::new(&levels).collect();
        prop_assert_eq!(&streamed, &rows);
        prop_assert_eq!(count_iterations(&levels), Some(rows.len()));
    }

    /// Raise the floor and rewind at random points: every issued row is
    /// the reference row of its iteration number, a rewind to the floor
    /// never needs a dropped row, and the source ends exhausted.
    #[test]
    fn the_window_replays_every_row_at_or_above_the_floor(
        levels in nest(),
        moves in proptest::collection::vec((0u64..4, 0u64..3), 0..24),
    ) {
        let rows = reference(&levels);
        let bus = SquashBus::new();
        let mut src = nest_source(&levels, &bus);
        let width = levels.len() + 1;
        let mut issued = 0u64; // next iteration number the source issues
        for (advance, back) in moves {
            for _ in 0..advance {
                let Some((iter, row)) = issue(&mut src, width) else { break };
                prop_assert_eq!(iter, issued);
                prop_assert_eq!(&row, &rows[iter as usize]);
                issued += 1;
            }
            bus.raise_floor(issued.saturating_sub(back + 1));
            let from = bus.floor().max(issued.saturating_sub(back));
            src.flush(from);
            issued = issued.min(from);
        }
        while let Some((iter, row)) = issue(&mut src, width) {
            prop_assert_eq!(iter, issued);
            prop_assert_eq!(&row, &rows[iter as usize]);
            issued += 1;
        }
        prop_assert_eq!(issued, rows.len() as u64);
        prop_assert!(src.exhausted() && src.is_idle());
    }
}

#[test]
fn a_triangular_source_squashed_to_its_floor_re_emits_the_same_rows() {
    // for i in 0..5 { for j in i+1..5 }: 10 rows, the first level-1 range
    // starting past its level-0 value.
    let tri = [
        LoopLevel::upto(5),
        LoopLevel::new(Bound::OuterPlus(0, 1), Bound::Const(5)),
    ];
    let bus = SquashBus::new();
    let mut src = nest_source(&tri, &bus);
    let first: Vec<_> = (0..7).map(|_| issue(&mut src, 3).expect("row")).collect();
    // Iterations 0..3 become final; the next issue drops them.
    bus.raise_floor(3);
    let eighth = issue(&mut src, 3).expect("row");
    assert_eq!(eighth, (7, vec![2, 3]));
    src.flush(bus.floor());
    let replayed: Vec<_> = (0..5).map(|_| issue(&mut src, 3).expect("row")).collect();
    assert_eq!(replayed[..4], first[3..]);
    assert_eq!(replayed[4], eighth);
    let rest: Vec<_> = std::iter::from_fn(|| issue(&mut src, 3)).collect();
    assert_eq!(rest, vec![(8, vec![2, 4]), (9, vec![3, 4])]);
    // Rows 0..=7 were held before the floor rose; afterwards the window
    // never grew past rows 3..=9.
    assert_eq!(bus.window_high_water(), 8);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "below the replay window")]
fn a_rewind_below_the_floor_is_a_bug() {
    let bus = SquashBus::new();
    let mut src = nest_source(&[LoopLevel::upto(8)], &bus);
    for _ in 0..4 {
        issue(&mut src, 2);
    }
    bus.raise_floor(3);
    issue(&mut src, 2);
    src.flush(1);
}
