//! # sim-counters — one field list per counter type
//!
//! Every report the simulator prints is built from a counter *window*
//! (`now.delta(&start)`) or a shard *merge* (`acc.merge_from(&shard)`).
//! [`counters!`] writes both methods of a type from one list that gives each
//! field its combination rule, so a field is combined the same way in both,
//! and the generated `delta` is a `Self { .. }` literal: a field the list
//! leaves out is a compile error.
//!
//! | rule | window (`delta`) | merge (`merge_from`) |
//! |---|---|---|
//! | `sum` | `now - earlier` | `acc += other` |
//! | `per_unit` | element-wise `now - earlier` | concatenated: shards own distinct units |
//! | `samples` | the samples recorded after `earlier` | appended |
//! | `nested` | the field's own `delta` | the field's own `merge_from` |
//! | `optional` | `nested` when both sides have one, else `None` | likewise |
//! | `(keyed sum)`, `(keyed nested)` | `sum` / `nested` per key of `earlier` | `sum` / `nested` per key of `other` |
//! | `fixed` | `now`'s value | `acc`'s value |
//! | `(d, m)` | `d(&now, &earlier)` | `acc = m(&acc, &other)` |
//!
//! A merge folds *disjoint* instances in shard-id order, which fixes the
//! order of concatenated units and appended samples. The last rule is the
//! escape hatch for a field no other rule describes, written out where the
//! list names it.

/// Generates `delta` and `merge_from` for each listed type from its field
/// list, `Type { rule: field, field, …; rule: …; }` (rules in the crate
/// docs), e.g. `RowClassCounts { sum: hits, misses, conflicts; }`. Only the
/// two methods are emitted.
#[macro_export]
macro_rules! counters {
    ($($ty:ident { $($rule:tt: $($field:ident),+;)+ })+) => {$(
        impl $ty {
            /// The measurement window from `earlier` to `self`, each field
            /// by its rule in the type's `counters!` list. `earlier` must be
            /// a prior snapshot of the same counters.
            #[must_use]
            pub fn delta(&self, earlier: &Self) -> Self {
                Self { $($($field: $crate::delta_by!($rule, self.$field, earlier.$field),)+)+ }
            }

            /// Folds the counters of a *disjoint* instance (another shard,
            /// merged in shard-id order) into `self`, each field by its rule
            /// in the type's `counters!` list.
            pub fn merge_from(&mut self, other: &Self) {
                $($($crate::merge_by!($rule, self.$field, other.$field);)+)+
            }
        }
    )+};
}

/// One field's window under one rule (used by [`counters!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! delta_by {
    (sum, $now:expr, $then:expr) => {
        $now - $then
    };
    (per_unit, $now:expr, $then:expr) => {
        $now.iter()
            .zip(&$then)
            .map(|(now, then)| now - then)
            .collect()
    };
    (samples, $now:expr, $then:expr) => {
        $now[$then.len()..].to_vec()
    };
    (nested, $now:expr, $then:expr) => {
        $now.delta(&$then)
    };
    (optional, $now:expr, $then:expr) => {
        match (&$now, &$then) {
            (Some(now), Some(then)) => Some(now.delta(then)),
            _ => None,
        }
    };
    ((keyed $rule:ident), $now:expr, $then:expr) => {{
        let mut map = $now.clone();
        for (key, then) in &$then {
            let now = map.entry(key.clone()).or_default();
            // Bound first: `*now = *now - *then` trips clippy's
            // `assign_op_pattern` in every crate that lists a keyed sum.
            let window = $crate::delta_by!($rule, *now, *then);
            *now = window;
        }
        map
    }};
    (fixed, $now:expr, $then:expr) => {
        $now.clone()
    };
    (($delta:expr, $merge:expr), $now:expr, $then:expr) => {
        ($delta)(&$now, &$then)
    };
}

/// One field's merge under one rule (used by [`counters!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! merge_by {
    (sum, $acc:expr, $other:expr) => {
        $acc += $other
    };
    (per_unit, $acc:expr, $other:expr) => {
        $acc.extend_from_slice(&$other)
    };
    (samples, $acc:expr, $other:expr) => {
        $acc.extend_from_slice(&$other)
    };
    (nested, $acc:expr, $other:expr) => {
        $acc.merge_from(&$other)
    };
    (optional, $acc:expr, $other:expr) => {
        $acc = match ($acc.take(), &$other) {
            (Some(mut acc), Some(other)) => {
                acc.merge_from(other);
                Some(acc)
            }
            _ => None,
        }
    };
    ((keyed $rule:ident), $acc:expr, $other:expr) => {
        for (key, other) in &$other {
            let acc = $acc.entry(key.clone()).or_default();
            $crate::merge_by!($rule, *acc, *other);
        }
    };
    (fixed, $acc:expr, $other:expr) => {};
    (($delta:expr, $merge:expr), $acc:expr, $other:expr) => {
        $acc = ($merge)(&$acc, &$other)
    };
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Pair {
        a: u64,
        b: u64,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Every {
        count: u64,
        units: Vec<u64>,
        samples: Vec<usize>,
        inner: Pair,
        maybe: Option<Pair>,
        by_key: BTreeMap<&'static str, u64>,
        pairs_by_key: BTreeMap<&'static str, Pair>,
        timing: u32,
        origin: usize,
    }

    counters! {
        Pair { sum: a, b; }
        Every {
            sum: count;
            per_unit: units;
            samples: samples;
            nested: inner;
            optional: maybe;
            (keyed sum): by_key;
            (keyed nested): pairs_by_key;
            fixed: timing;
            (|_, start: &usize| *start, |_, _| 0): origin;
        }
    }

    fn every(n: u64, maybe: Option<Pair>) -> Every {
        let pair = Pair { a: n, b: 2 * n };
        Every {
            count: n,
            units: vec![n, 10 * n],
            samples: (0..n as usize).collect(),
            inner: pair,
            maybe,
            by_key: [("x", n), ("y", 3 * n)]
                .into_iter()
                .take(n as usize)
                .collect(),
            pairs_by_key: [("p", pair)].into_iter().collect(),
            timing: 7 + n as u32,
            origin: n as usize,
        }
    }

    #[test]
    fn a_window_applies_each_rule() {
        let some = Some(Pair { a: 1, b: 1 });
        let (start, end) = (every(1, some), every(3, Some(Pair { a: 4, b: 6 })));
        let window = end.delta(&start);
        assert_eq!(window.count, 2);
        assert_eq!(window.units, [2, 20]);
        assert_eq!(window.samples, [1, 2]);
        assert_eq!(window.inner, Pair { a: 2, b: 4 });
        assert_eq!(window.maybe, Some(Pair { a: 3, b: 5 }));
        assert_eq!(window.by_key, [("x", 2), ("y", 9)].into_iter().collect());
        assert_eq!(window.pairs_by_key["p"], Pair { a: 2, b: 4 });
        assert_eq!(window.timing, 10);
        assert_eq!(window.origin, 1);
        assert_eq!(end.delta(&every(1, None)).maybe, None);
    }

    #[test]
    fn a_merge_applies_each_rule() {
        let mut acc = every(1, Some(Pair { a: 1, b: 1 }));
        acc.merge_from(&every(2, Some(Pair { a: 5, b: 5 })));
        assert_eq!(acc.count, 3);
        assert_eq!(acc.units, [1, 10, 2, 20]);
        assert_eq!(acc.samples, [0, 0, 1]);
        assert_eq!(acc.inner, Pair { a: 3, b: 6 });
        assert_eq!(acc.maybe, Some(Pair { a: 6, b: 6 }));
        assert_eq!(acc.by_key, [("x", 3), ("y", 6)].into_iter().collect());
        assert_eq!(acc.pairs_by_key["p"], Pair { a: 3, b: 6 });
        assert_eq!(acc.timing, 8);
        assert_eq!(acc.origin, 0);
        acc.merge_from(&every(1, None));
        assert_eq!(acc.maybe, None);
    }
}
