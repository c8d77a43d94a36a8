//! Composite B+Tree keys: tuples of column values with sentinel
//! bounds, ordered lexicographically.
//!
//! A composite index over columns `(a, b, c)` stores one [`TupleKey`]
//! per row. Because tuple order is lexicographic, a *prefix* of the
//! key — values for `a` alone, or `a` and `b` — maps to a contiguous
//! key range, which is the **leftmost-prefix rule**: the index serves
//! any predicate set that pins a leftmost run of its columns (all
//! equalities plus at most one trailing range), and nothing else.
//!
//! Prefix ranges need per-component sentinels: "every key whose first
//! component is 7" is the range `(7, MIN, MIN) ..= (7, MAX, MAX)`.
//! [`KeyPart`] carries those sentinels as enum variants — `Min < Val(v)
//! < Max` falls out of the derived discriminant order, the same trick
//! MapDB and btreemapped use for their tuple serializers — so bound
//! construction never collides with a real stored value, not even
//! `i64::MIN`/`i64::MAX`.
//!
//! Stored keys use only [`KeyPart::Val`]; sentinels appear exclusively
//! in probe bounds. The encoding is total anyway (a tag byte per part)
//! so an encoded bound is still a valid page payload — [`NodeKey`] has
//! no "probe-only" mode.

use crate::bptree::NodeKey;
use flowtune_common::{FlowtuneError, Result};

/// Most components a composite key may carry. Two or three covers the
/// predicate sets the tuner observes; wider keys blow the fanout for
/// no modelled benefit.
pub const MAX_TUPLE_ARITY: usize = 3;

/// One component of a [`TupleKey`]: a column value or a per-component
/// sentinel bound. The derived `Ord` places `Min` below every `Val`
/// and `Max` above every `Val` via discriminant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeyPart {
    /// Below every value — low fill for prefix range bounds.
    Min,
    /// A real column value.
    Val(i64),
    /// Above every value — high fill for prefix range bounds.
    Max,
}

/// Encoding tag bytes, one per [`KeyPart`] variant.
const TAG_MIN: u8 = 0;
const TAG_VAL: u8 = 1;
const TAG_MAX: u8 = 2;

/// A composite key: 1–[`MAX_TUPLE_ARITY`] components compared
/// lexicographically (derived `Ord` on the `Vec` is exactly that).
///
/// All keys in one tree must share an arity — mixed arities would
/// still order consistently (shorter tuples sort first at the point of
/// divergence) but never arise: a composite index has a fixed column
/// list.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleKey {
    parts: Vec<KeyPart>,
}

impl TupleKey {
    /// A stored key from column values, in index-column order.
    ///
    /// Panics if `vals` is empty or wider than [`MAX_TUPLE_ARITY`] —
    /// arity is fixed when the index is declared, so a bad width is a
    /// construction error, not data.
    pub fn vals(vals: &[i64]) -> Self {
        assert!(
            (1..=MAX_TUPLE_ARITY).contains(&vals.len()),
            "tuple arity {} outside 1..={MAX_TUPLE_ARITY}",
            vals.len()
        );
        TupleKey {
            parts: vals.iter().map(|&v| KeyPart::Val(v)).collect(),
        }
    }

    /// Inclusive low bound for "every key starting with `prefix`":
    /// the prefix values followed by `Min` fill up to `arity`.
    pub fn prefix_lo(prefix: &[i64], arity: usize) -> Self {
        Self::bound(prefix, None, arity, KeyPart::Min)
    }

    /// Inclusive high bound for "every key starting with `prefix`":
    /// the prefix values followed by `Max` fill up to `arity`.
    pub fn prefix_hi(prefix: &[i64], arity: usize) -> Self {
        Self::bound(prefix, None, arity, KeyPart::Max)
    }

    /// Inclusive low bound for "keys starting with `prefix` whose next
    /// component is ≥ `from`" — the equality-prefix-plus-range shape of
    /// the leftmost rule.
    pub fn range_lo(prefix: &[i64], from: i64, arity: usize) -> Self {
        Self::bound(prefix, Some(from), arity, KeyPart::Min)
    }

    /// Inclusive high bound for "keys starting with `prefix` whose
    /// next component is ≤ `to`".
    pub fn range_hi(prefix: &[i64], to: i64, arity: usize) -> Self {
        Self::bound(prefix, Some(to), arity, KeyPart::Max)
    }

    fn bound(prefix: &[i64], pivot: Option<i64>, arity: usize, fill: KeyPart) -> Self {
        let pinned = prefix.len() + usize::from(pivot.is_some());
        assert!(
            (1..=MAX_TUPLE_ARITY).contains(&arity) && pinned <= arity,
            "bound pins {pinned} of {arity} components (max {MAX_TUPLE_ARITY})"
        );
        let mut parts: Vec<KeyPart> = prefix.iter().map(|&v| KeyPart::Val(v)).collect();
        if let Some(v) = pivot {
            parts.push(KeyPart::Val(v));
        }
        parts.resize(arity, fill);
        TupleKey { parts }
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.parts.len()
    }

    /// The `i`-th component's value, `None` for sentinels or out of
    /// range.
    pub fn component(&self, i: usize) -> Option<i64> {
        match self.parts.get(i)? {
            KeyPart::Val(v) => Some(*v),
            KeyPart::Min | KeyPart::Max => None,
        }
    }
}

impl NodeKey for TupleKey {
    fn encode_key(&self, out: &mut Vec<u8>) {
        #[expect(
            clippy::expect_used,
            reason = "arity is asserted ≤ MAX_TUPLE_ARITY at construction"
        )]
        let n = u8::try_from(self.parts.len()).expect("tuple arity fits u8");
        out.push(n);
        for part in &self.parts {
            match part {
                KeyPart::Min => out.push(TAG_MIN),
                KeyPart::Val(v) => {
                    out.push(TAG_VAL);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                KeyPart::Max => out.push(TAG_MAX),
            }
        }
    }

    fn decode_key(bytes: &[u8], at: &mut usize) -> Result<Self> {
        let n = usize::from(read_u8(bytes, at)?);
        if !(1..=MAX_TUPLE_ARITY).contains(&n) {
            return Err(FlowtuneError::corrupt(format!("tuple arity {n} invalid")));
        }
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            parts.push(match read_u8(bytes, at)? {
                TAG_MIN => KeyPart::Min,
                TAG_MAX => KeyPart::Max,
                TAG_VAL => {
                    let mut buf = [0u8; 8];
                    let Some(raw) = bytes.get(*at..*at + 8) else {
                        return Err(FlowtuneError::corrupt("tuple key truncated"));
                    };
                    buf.copy_from_slice(raw);
                    *at += 8;
                    KeyPart::Val(i64::from_le_bytes(buf))
                }
                tag => {
                    return Err(FlowtuneError::corrupt(format!(
                        "unknown tuple part tag {tag}"
                    )))
                }
            });
        }
        Ok(TupleKey { parts })
    }
}

fn read_u8(bytes: &[u8], at: &mut usize) -> Result<u8> {
    let Some(&b) = bytes.get(*at) else {
        return Err(FlowtuneError::corrupt("tuple key truncated"));
    };
    *at += 1;
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bptree::BPlusTree;
    use flowtune_common::SimRng;

    #[test]
    fn sentinels_bracket_all_values() {
        assert!(KeyPart::Min < KeyPart::Val(i64::MIN));
        assert!(KeyPart::Val(i64::MAX) < KeyPart::Max);
        assert!(KeyPart::Val(-1) < KeyPart::Val(0));
    }

    #[test]
    fn tuple_order_is_lexicographic() {
        let a = TupleKey::vals(&[1, 9, 9]);
        let b = TupleKey::vals(&[2, 0, 0]);
        assert!(a < b, "first component dominates");
        let lo = TupleKey::prefix_lo(&[2], 3);
        let hi = TupleKey::prefix_hi(&[2], 3);
        assert!(lo <= b && b <= hi, "prefix bounds bracket the prefix run");
        assert!(a < lo, "other prefixes fall outside");
    }

    #[test]
    fn encode_decode_round_trips() {
        let keys = [
            TupleKey::vals(&[0]),
            TupleKey::vals(&[i64::MIN, i64::MAX]),
            TupleKey::vals(&[7, -3, 42]),
            TupleKey::prefix_lo(&[7], 3),
            TupleKey::range_hi(&[7], 99, 3),
        ];
        for key in &keys {
            let mut buf = Vec::new();
            key.encode_key(&mut buf);
            let mut at = 0;
            let back = TupleKey::decode_key(&buf, &mut at).unwrap();
            assert_eq!(&back, key);
            assert_eq!(at, buf.len(), "decode consumes the whole encoding");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TupleKey::decode_key(&[], &mut 0).is_err());
        assert!(TupleKey::decode_key(&[0], &mut 0).is_err(), "arity 0");
        assert!(TupleKey::decode_key(&[9], &mut 0).is_err(), "arity 9");
        assert!(
            TupleKey::decode_key(&[1, 7], &mut 0).is_err(),
            "unknown tag"
        );
        assert!(
            TupleKey::decode_key(&[1, TAG_VAL, 1, 2], &mut 0).is_err(),
            "truncated value"
        );
    }

    #[test]
    #[should_panic(expected = "tuple arity")]
    fn oversized_tuple_is_a_construction_error() {
        let _ = TupleKey::vals(&[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "bound pins")]
    fn overfull_bound_is_a_construction_error() {
        let _ = TupleKey::range_lo(&[1, 2, 3], 4, 3);
    }

    /// Seeded property check: every prefix / prefix+range scan over a
    /// composite tree matches a naive filter over the raw tuples,
    /// element-wise and in order — including pivots at the component
    /// extremes, where only the sentinel variants keep bounds total.
    #[test]
    fn prefix_scans_match_naive_filter() {
        let mut rng = SimRng::seed_from_u64(0xC0);
        for _ in 0..40 {
            let n = rng.uniform_u64(1, 300) as usize;
            let tuples: Vec<[i64; 3]> = (0..n)
                .map(|_| {
                    [
                        rng.uniform_i64(0, 6),
                        rng.uniform_i64(0, 6),
                        rng.uniform_i64(0, 6),
                    ]
                })
                .collect();
            let mut pairs: Vec<(TupleKey, u32)> = tuples
                .iter()
                .enumerate()
                .map(|(i, t)| (TupleKey::vals(t), i as u32))
                .collect();
            pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            let t = BPlusTree::bulk_build(8, &pairs);

            for a in 0..6 {
                // One-column prefix.
                let got: Vec<u32> = t
                    .range(TupleKey::prefix_lo(&[a], 3), TupleKey::prefix_hi(&[a], 3))
                    .map(|(_, r)| r)
                    .collect();
                let want = naive(&tuples, |v| v[0] == a);
                assert_eq!(got, want, "prefix ({a})");
                for b in 0..6 {
                    // Two-column prefix.
                    let got: Vec<u32> = t
                        .range(
                            TupleKey::prefix_lo(&[a, b], 3),
                            TupleKey::prefix_hi(&[a, b], 3),
                        )
                        .map(|(_, r)| r)
                        .collect();
                    let want = naive(&tuples, |v| v[0] == a && v[1] == b);
                    assert_eq!(got, want, "prefix ({a},{b})");
                }
                // Prefix + trailing range on the second component.
                let (lo, hi) = (rng.uniform_i64(0, 6), rng.uniform_i64(0, 6));
                let got: Vec<u32> = t
                    .range(
                        TupleKey::range_lo(&[a], lo, 3),
                        TupleKey::range_hi(&[a], hi, 3),
                    )
                    .map(|(_, r)| r)
                    .collect();
                let want = naive(&tuples, |v| v[0] == a && (lo..=hi).contains(&v[1]));
                assert_eq!(got, want, "range ({a}, {lo}..={hi})");
            }
            // Pivot at the component extremes: sentinel bounds must
            // still bracket values equal to i64::MIN / i64::MAX.
            let got = t
                .range(
                    TupleKey::range_lo(&[], i64::MIN, 3),
                    TupleKey::range_hi(&[], i64::MAX, 3),
                )
                .count();
            assert_eq!(got, tuples.len(), "full-domain range sees every tuple");
        }
    }

    fn naive(tuples: &[[i64; 3]], pred: impl Fn(&[i64; 3]) -> bool) -> Vec<u32> {
        let mut hits: Vec<(TupleKey, u32)> = tuples
            .iter()
            .enumerate()
            .filter(|(_, v)| pred(v))
            .map(|(i, v)| (TupleKey::vals(v), i as u32))
            .collect();
        hits.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        hits.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn composite_keys_fit_default_order_pages() {
        // Arity-3 keys are 28 encoded bytes; a 64-order leaf stays
        // inside one 4 KiB page (6 + 64·(4 + 28) = 2054 bytes).
        let pairs: Vec<(TupleKey, u32)> = (0..5000)
            .map(|i| (TupleKey::vals(&[i / 100, i % 100, i % 7]), i as u32))
            .collect();
        let t = BPlusTree::bulk_build(64, &pairs);
        t.check_invariants().unwrap();
        t.verify_pages().unwrap();
        assert_eq!(t.len(), 5000);
    }
}
