//! An on-disk ALEX index (§2.2 / §4.1 of the paper).
//!
//! ALEX is a top-down learned index with two node types: *inner nodes* whose
//! linear model picks a child pointer in constant time, and *data nodes*
//! holding a model-based **gapped array** of key-payload slots plus a bitmap
//! marking which slots are occupied.
//!
//! The on-disk extensions follow §4.1 of the paper:
//!
//! * every node is stored as a contiguous extent of blocks (a node must not
//!   be scattered), with the meta block holding the root address;
//! * either a single file holds all nodes (Layout#1) or inner nodes and data
//!   nodes live in separate files (Layout#2, the paper's preferred layout);
//! * data-node lookups never touch the bitmap — gap slots duplicate their
//!   left neighbour, which is the disk equivalent of ALEX overwriting
//!   preceding empty slots (shortcoming S5);
//! * nor the data node's header: an inner node's child entry carries its
//!   data child's capacity and model, so a lookup goes from the parent
//!   straight to the predicted slot block, one block fewer than the
//!   paper's ALEX reads;
//! * inserts must read and update the bitmap and the node-header statistics,
//!   which is exactly the utility/maintenance overhead the paper measures in
//!   Fig. 6 (shortcoming S3);
//! * structural modification operations either expand a data node in place
//!   or split it downward into a new two-child inner node, mirroring ALEX's
//!   expansion / split mechanisms.
//!
//! Module layout: [`node`] defines the on-disk node formats, [`index`] the
//! tree operations and the [`lidx_core::DiskIndex`] implementation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod index;
pub mod node;

pub use index::{AlexConfig, AlexIndex, AlexLayout};
