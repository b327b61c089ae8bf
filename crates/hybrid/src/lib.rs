//! Hybrid index designs: a learned inner structure over B+-tree-styled leaf
//! blocks (§6.1.2 / Table 5 of the paper, design principles P3 and P5).
//!
//! The idea the paper evaluates is to keep the *leaf level* exactly like a
//! B+-tree — dense, sorted key-payload pairs in linked blocks, which scans
//! love — and to replace only the routing structure above it with a learned
//! index over the per-leaf boundary keys (the minimum key of each leaf).
//! The leaf level is the B+-tree's own [`lidx_btree::LeafLevel`], in a file
//! of its own: the same bulk build (leaves 80 % full), run insert, split and
//! chain scan as [`lidx_btree::BTreeIndex`].
//!
//! Two learned directories are provided, each its own crate's structure
//! over the `(boundary, leaf block)` pairs, routed by that crate's floor
//! query and reopened from that crate's meta:
//!
//! * [`HybridInnerKind::Pla`] — a recursive ε-bounded piecewise-linear
//!   directory, the structure a FITing-tree or PGM would use for its inner
//!   part: one [`lidx_pgm::StaticPgm`] component ([`lidx_pgm::StaticPgm::floor`]).
//!   The harness reports it for both the "FITing-tree" and "PGM" hybrid
//!   columns of Table 5 (they behave identically at this granularity).
//! * [`HybridInnerKind::ModelTree`] — an FMCD-fitted model tree in the
//!   spirit of LIPP/ALEX inner nodes: a LIPP subtree (built by
//!   [`lidx_lipp::node::build_subtree`]) whose slots hold either a boundary
//!   with its leaf address or a child keyed by its first boundary, routed
//!   by a leftward floor walk from the predicted slot
//!   ([`lidx_lipp::node::Subtree::floor`]). Reported for the "ALEX" and
//!   "LIPP" hybrid columns.
//!
//! The plain B+-tree column of Table 5 is simply [`lidx_btree::BTreeIndex`].
//!
//! A reopen ([`HybridIndex::load`]) opens the saved directory and reads its
//! entries back; it writes nothing.
//!
//! All inner-structure I/O is attributed to [`lidx_storage::BlockKind::Inner`]
//! and leaf I/O to `Leaf`, so the fetched-block breakdown matches the paper's
//! accounting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod index;

pub use index::{HybridIndex, HybridInnerKind};
