//! # snow-net — transport substrate
//!
//! Layers 1–2 of the paper's protocol stack (Fig 1): the cost and fault
//! models beneath the communication services the SNOW protocols are
//! built on. The services themselves (§2.3: connection-oriented FIFO
//! channels, connectionless datagrams, ordered signals) live behind
//! `snow_vm::transport`; this crate supplies what every backend of that
//! seam shares:
//!
//! - [`link`] — a [`link::LinkModel`] per host pair that (a) accounts
//!   *modeled* seconds for the tables (10/100 Mbit Ethernet, hosts of
//!   very different speeds) and (b) optionally applies a scaled-down
//!   real delay ([`link::TimeScale`]) so interleavings such as Fig 13's
//!   early-arriving messages actually happen;
//! - [`frame`] — the versioned length-prefixed wire frame the socket
//!   backend writes and reads;
//! - [`fault`] — an adversarial network: a seeded, per-link
//!   [`fault::FaultPlan`] injects extra delay, transient partitions and
//!   connection resets on the connection-oriented service and drop/
//!   duplication on the connectionless one — deterministically, so any
//!   failing interleaving replays from its seed.

#![warn(missing_docs)]

pub mod fault;
pub mod frame;
pub mod link;

pub use fault::{DatagramVerdict, FaultInjector, FaultPlan, FaultSpec, FrameClass, LinkSel};
pub use frame::{
    encode_frame, read_frame, write_frame, BatchWriter, FrameError, FrameKind, FRAME_VERSION,
    MAX_BODY_BYTES, MAX_FRAME_BYTES,
};
pub use link::{LinkModel, TimeScale};
