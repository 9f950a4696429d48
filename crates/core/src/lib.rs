//! # snow-core — the SNOW communication-state-transfer protocols
//!
//! This crate is the primary contribution of the reproduced paper
//! (Chanchio & Sun, *Communication State Transfer for the Mobility of
//! Concurrent Heterogeneous Computing*, ICPP 2001): data-communication
//! and process-migration protocols that together transfer the
//! *communication state* — open connections plus messages in transit —
//! of a migrating process, while guaranteeing:
//!
//! 1. **no deadlock** introduced by migration (Theorem 1),
//! 2. **termination** of migration and no blocking of the computation
//!    (Lemma 1),
//! 3. **no message loss** (Theorem 2),
//! 4. **preserved point-to-point FIFO ordering** (Theorem 3), including
//!    under **simultaneous migrations** (Theorem 4).
//!
//! The algorithms map to the paper's figures:
//!
//! | paper | here |
//! |---|---|
//! | Fig 2 `send` | [`SnowProcess::send`] |
//! | Fig 3 `connect` | [`SnowProcess::connect_step`], driven by [`SnowProcess::send`] and [`SnowProcess::try_send`] |
//! | Fig 4 `recv` | [`SnowProcess::recv`] + the received-message-list [`Rml`] |
//! | Fig 5 `migrate` | [`SnowProcess::migrate`] |
//! | Fig 6 `disconnection_handler` | [`SnowProcess::poll_point`] signal handling |
//! | Fig 7 `initialize` | [`initialize`] |
//!
//! ## Quick start
//!
//! ```no_run
//! use snow_core::{Computation, Start};
//! use snow_vm::HostSpec;
//! use bytes::Bytes;
//!
//! let comp = Computation::builder()
//!     .hosts(HostSpec::ideal(), 3)
//!     .build();
//! let handles = comp.launch(2, |mut p, start| {
//!     if matches!(start, Start::Fresh) {
//!         if p.rank() == 0 {
//!             p.send(1, 7, Bytes::from_static(b"hello")).unwrap();
//!         } else {
//!             let (src, _tag, body) = p.recv(None, Some(7)).unwrap();
//!             assert_eq!((src, &body[..]), (0, &b"hello"[..]));
//!         }
//!     }
//!     p.finish();
//! });
//! for h in handles { h.join().unwrap(); }
//! ```

#![warn(missing_docs)]

pub mod compat;
pub mod computation;
pub mod error;
pub mod migrate;
pub mod process;
pub mod rml;

pub use compat::{snow_recv, snow_send, ANY_SOURCE, ANY_TAG};
pub use computation::{Computation, ComputationBuilder, Start};
pub use error::ProtoError;
pub use migrate::{initialize, AbortedMigration, MigrationOutcome, MigrationTimings};
pub use process::SnowProcess;
pub use rml::Rml;
pub use snow_sched::{DrainReport, RetryPolicy, SchedulerConfig};
pub use snow_state::PipelineConfig;
pub use snow_vm::wire::{DrainOutcome, DrainPoolConfig, DrainRankResult, FailCause};
