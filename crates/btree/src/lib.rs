//! A disk-resident B+-tree — the traditional baseline of the evaluation.
//!
//! Every node occupies exactly one block. Inner nodes store separator keys
//! and child block ids; leaf nodes store dense, sorted key-payload pairs and
//! are linked to their siblings so range scans walk the leaf level without
//! touching inner nodes again (§3 and Table 2 of the paper).
//!
//! The tree is its two levels: [`InnerLevels`] (the routing nodes) over a
//! [`LeafLevel`] (the linked leaves), both in one file. Each is public on
//! its own: the leaf level is generic over a fixed-width [`LeafRecord`], so
//! the FITing-tree's directory runs both levels over its segment records,
//! and the hybrid designs run a learned router over a [`LeafLevel`].
//!
//! The index meta data (root block, height, key count) is kept in memory
//! while the index is open and persisted to block 0 of the file, matching
//! the paper's assumption that "the meta block … is stored in main memory
//! when in use" (§6.1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod levels;
mod node;
mod tree;

pub use levels::{Boundary, InnerLevels, LeafLevel, LeafLevelOf};
pub use node::{
    InnerNode, InnerView, LeafNode, LeafNodeOf, LeafRecord, LeafView, LeafViewOf, NodeCapacity,
    LEAF_HEADER,
};
pub use tree::{BTreeConfig, BTreeIndex};
