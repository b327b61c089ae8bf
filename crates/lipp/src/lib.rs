//! An on-disk LIPP index (§2.2 / §4.2 of the paper).
//!
//! LIPP (Updatable Learned Index with Precise Positions) has a single node
//! type. Every node carries a linear model chosen by the FMCD algorithm and
//! an array of slots; each slot is `NULL`, `DATA` (a key-payload pair) or
//! `NODE` (a pointer to a child built from the keys that conflicted on that
//! slot). Predictions are *precise*: a lookup never needs a local search,
//! only one slot probe per level.
//!
//! The on-disk extension follows §4.2: the layout mirrors ALEX's (each node
//! is a contiguous block extent, the meta block stores the root) except that
//! the bitmap is replaced by a per-slot type flag stored inline with the
//! slot, so no separate utility blocks have to be fetched. A node's first
//! slots share its header's block ([`node`]), so a small conflict child is
//! one block. The price the paper measures remains: a large node's slots
//! mostly live in other blocks than its header (up to 2 · log N lookup
//! cost, S1), inserts create a new node roughly every third insertion and
//! must update statistics along the whole access path (O7 / S3), and scans
//! traverse interleaved `DATA`/`NODE` slots across many blocks (O5 / S2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod index;
pub mod node;

pub use index::{LippConfig, LippIndex};
