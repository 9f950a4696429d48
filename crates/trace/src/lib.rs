//! # snow-trace — instrumentation for the SNOW migration protocols
//!
//! The paper's evaluation (§6) leans on XPVM space-time diagrams
//! (Figs 10–13) and timing breakdowns (Tables 1–2). This crate is the
//! Rust stand-in for XPVM plus the paper's stopwatch:
//!
//! * [`Tracer`] — a low-overhead, thread-safe global event log. Every
//!   protocol-relevant action (send, recv, connection handshake,
//!   migration phase, signal, scheduler consult) is recorded with a
//!   nanosecond timestamp and the acting process's label.
//! * [`spacetime`] — renders an event log as an ASCII space-time diagram
//!   (process lanes over bucketed time) and extracts matched
//!   send→receive *message lines*, the "lines between timelines" of the
//!   XPVM figures.
//! * [`report`] — timing-breakdown accumulators for the tables
//!   (coordinate / collect / tx / restore / total) and a dependency-free
//!   JSON emitter/parser so harnesses can dump and reload
//!   machine-readable results.
//! * [`metrics`] — a per-migration metrics registry (phase latencies,
//!   bytes moved, chunk counts, retry/abort causes, queue depths) hung
//!   off the shared [`Tracer`], exported as JSONL plus a human summary.
//! * [`audit`](mod@audit) — an online protocol-invariant auditor that checks the
//!   paper's four guarantees (§4) against the ordered event log, both
//!   in-process at test time and offline via `snow-bench audit`.
//! * [`serial`] — typed JSONL (de)serialization of event logs for the
//!   offline audit path.
//!
//! Tracing is optional everywhere: a disabled tracer records nothing and
//! costs one relaxed atomic load per call site, so the Table 1 overhead
//! experiment is not polluted by instrumentation.

#![warn(missing_docs)]

pub mod audit;
pub mod event;
pub mod metrics;
pub mod phase;
pub mod report;
pub mod serial;
pub mod spacetime;
pub mod tracer;

pub use audit::{assert_clean, audit, AuditReport, Auditor, Violation};
pub use event::{Event, EventKind, MsgId};
pub use metrics::{
    DrainMetrics, MetricsRegistry, MigrationMetrics, MigrationVerdict, SchedulerRuling,
};
pub use phase::{MigrationPhase, PhaseWindows};
pub use report::{Breakdown, JsonValue};
pub use serial::{event_from_json, event_to_json, events_from_jsonl, events_to_jsonl};
pub use spacetime::{MessageLine, SpaceTime};
pub use tracer::Tracer;
