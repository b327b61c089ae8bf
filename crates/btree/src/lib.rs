//! A disk-resident B+-tree — the traditional baseline of the evaluation.
//!
//! Every node occupies exactly one block. Inner nodes store separator keys
//! and child block ids; leaf nodes store dense, sorted key-payload pairs and
//! are linked to their siblings so range scans walk the leaf level without
//! touching inner nodes again (§3 and Table 2 of the paper).
//!
//! The index meta data (root block, height, key count) is kept in memory
//! while the index is open and persisted to block 0 of the file, matching
//! the paper's assumption that "the meta block … is stored in main memory
//! when in use" (§6.1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod node;
mod tree;

pub use node::{InnerNode, InnerView, LeafNode, LeafView, NodeCapacity};
pub use tree::{scan_leaf_chain, BTreeConfig, BTreeIndex};
