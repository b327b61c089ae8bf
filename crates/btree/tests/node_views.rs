//! `InnerView` / `LeafView` ≡ `InnerNode::decode` / `LeafNode::decode`.
//!
//! The views are the read path and the owned nodes the mutation path of one
//! on-disk layout, so on any bytes they must tell the same story: the same
//! answers on a well-formed node, and the same `Ok`/`Err` verdict — without
//! a panic — on a truncated block or a damaged header.

use lidx_btree::{InnerNode, InnerView, LeafNode, LeafView};
use lidx_core::Key;
use proptest::prelude::*;

/// Room for the largest generated node: 12 header bytes + 60 × 16.
const BLOCK: usize = 1024;
const LEAF_HEADER: usize = 12;
const INNER_HEADER: usize = 8;

/// Checks that the two leaf readers agree on `buf`: both refuse it, or both
/// accept it and every accessor of the view matches the decoded node.
fn leaf_readers_agree(buf: &[u8], probes: &[Key]) -> Result<(), TestCaseError> {
    let (view, node) = match (LeafView::new(buf), LeafNode::decode(buf)) {
        (Err(_), Err(_)) => return Ok(()),
        (Ok(view), Ok(node)) => (view, node),
        (view, node) => {
            return Err(TestCaseError::fail(format!(
                "verdicts differ: view ok = {}, decode ok = {}",
                view.is_ok(),
                node.is_ok()
            )))
        }
    };
    prop_assert_eq!(view.len(), node.entries.len());
    prop_assert_eq!(view.is_empty(), node.entries.is_empty());
    prop_assert_eq!((view.next(), view.prev()), (node.next, node.prev));
    prop_assert_eq!(view.last_key(), node.entries.last().map(|e| e.0));
    for (i, &e) in node.entries.iter().enumerate() {
        prop_assert_eq!(view.entry(i), e);
    }
    // A damaged count can expose unsorted padding; searches are only
    // comparable (and only meaningful) over sorted keys.
    if !node.entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return Ok(());
    }
    for &p in probes {
        let lower = node.entries.partition_point(|&(k, _)| k < p);
        prop_assert_eq!(view.lower_bound(p), lower);
        prop_assert_eq!(view.entries_from(lower).collect::<Vec<_>>(), &node.entries[lower..]);
        let found = node.entries.binary_search_by_key(&p, |&(k, _)| k).ok();
        prop_assert_eq!(view.lookup(p), found.map(|i| node.entries[i].1));
        let upper = node.entries.partition_point(|&(k, _)| k <= p);
        prop_assert_eq!(view.floor(p), upper.checked_sub(1).map(|i| node.entries[i]));
    }
    Ok(())
}

/// The inner-node counterpart of [`leaf_readers_agree`].
fn inner_readers_agree(buf: &[u8], probes: &[Key]) -> Result<(), TestCaseError> {
    let (view, node) = match (InnerView::new(buf), InnerNode::decode(buf)) {
        (Err(_), Err(_)) => return Ok(()),
        (Ok(view), Ok(node)) => (view, node),
        (view, node) => {
            return Err(TestCaseError::fail(format!(
                "verdicts differ: view ok = {}, decode ok = {}",
                view.is_ok(),
                node.is_ok()
            )))
        }
    };
    prop_assert_eq!(view.len(), node.keys.len());
    prop_assert_eq!(view.is_empty(), node.keys.is_empty());
    for (i, &k) in node.keys.iter().enumerate() {
        prop_assert_eq!(view.key(i), k);
    }
    for (i, &c) in node.children.iter().enumerate() {
        prop_assert_eq!(view.child(i), c);
    }
    if node.keys.windows(2).all(|w| w[0] < w[1]) {
        for &p in probes {
            prop_assert_eq!(view.child_for(p), node.child_for(p));
        }
    }
    Ok(())
}

/// Every truncation of `buf`, and every value of every header byte.
fn damaged(buf: &[u8], header: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..buf.len()).map(|len| buf[..len].to_vec());
    let flips = (0..header).flat_map(move |at| {
        (1..=u8::MAX).map(move |mask| {
            let mut flipped = buf.to_vec();
            flipped[at] ^= mask;
            flipped
        })
    });
    cuts.chain(flips)
}

/// Probe keys: the stored keys, their neighbours, and the extremes.
fn probes_around(keys: impl Iterator<Item = Key>, extra: &[Key]) -> Vec<Key> {
    let mut probes: Vec<Key> =
        keys.flat_map(|k| [k.saturating_sub(1), k, k.saturating_add(1)]).collect();
    probes.extend_from_slice(extra);
    probes.extend([0, Key::MAX]);
    probes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn leaf_view_matches_decode(
        keys in proptest::collection::btree_set(0u64..5_000, 0..60),
        payload_seed in any::<u64>(),
        next in any::<u32>(),
        prev in any::<u32>(),
        extra in proptest::collection::vec(0u64..6_000, 1..8),
    ) {
        let entries = keys.iter().map(|&k| (k, k.wrapping_mul(payload_seed))).collect();
        let buf = LeafNode { entries, next, prev }.encode(BLOCK).unwrap();
        let probes = probes_around(keys.iter().copied(), &extra);
        prop_assert!(LeafView::new(&buf).is_ok());
        leaf_readers_agree(&buf, &probes)?;
        // The block as an inner node: the tag is wrong for both readers.
        inner_readers_agree(&buf, &probes)?;
        for bytes in damaged(&buf, LEAF_HEADER) {
            leaf_readers_agree(&bytes, &extra)?;
        }
    }

    #[test]
    fn inner_view_matches_decode(
        keys in proptest::collection::btree_set(0u64..5_000, 0..60),
        child_seed in any::<u32>(),
        extra in proptest::collection::vec(0u64..6_000, 1..8),
    ) {
        let children = (0..=keys.len() as u32).map(|i| i.wrapping_mul(child_seed) ^ i).collect();
        let node = InnerNode { keys: keys.iter().copied().collect(), children };
        let buf = node.encode(BLOCK).unwrap();
        let probes = probes_around(keys.iter().copied(), &extra);
        prop_assert!(InnerView::new(&buf).is_ok());
        inner_readers_agree(&buf, &probes)?;
        leaf_readers_agree(&buf, &probes)?;
        for bytes in damaged(&buf, INNER_HEADER) {
            inner_readers_agree(&bytes, &extra)?;
        }
    }
}
