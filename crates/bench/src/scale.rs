//! `snow-bench scale` — the delivery-substrate scale suite.
//!
//! Two scenarios, each run at a sweep of rank counts (256 / 1k / 5k /
//! 10k by default), emitting one schema'd record apiece into
//! `BENCH_scale.json` (`snow-bench-scale/v1`) so the perf trajectory
//! of the substrate is tracked from this PR forward:
//!
//! * **all-pairs flood** — drives the post office, the sharded
//!   registry and the O(1) rank directory directly (no application
//!   protocol): every rank sends to a stride-sampled set of peers
//!   (all pairs when the budget allows), worker threads doing the
//!   directory lookup → registry borrow → `send` per message while
//!   receiver threads drain the inboxes. Messages carry an
//!   epoch-relative nanosecond stamp, so delivery latency is measured
//!   end to end through the real lookup+delivery path.
//! * **migration-under-load** — a real [`Computation`] ring (rank r →
//!   r+1) with co-located ranks on a fixed host pool; one mid-ring
//!   rank migrates to a spare host mid-run. The ranks are launched
//!   cooperatively and multiplexed onto a bounded worker pool (the
//!   non-blocking `try_send`/`try_recv`/`connect_step` API), so the
//!   10k-rank entry fits on one machine instead of needing 10k OS
//!   threads. Records steady-state throughput/latency plus the
//!   migration pause (wall time of the blocking migrate call, and the
//!   trace-derived start→commit interval when tracing is on). At ≤ 1k
//!   ranks the run is traced and audited against the §4 guarantees;
//!   untraced entries stamp `audit_skipped` with the reason.
//!
//! Latency quantiles come from a log-bucketed histogram
//! ([`LatencyHistogram`]) so the 10k-rank flood never holds millions
//! of raw samples.

use bytes::Bytes;
use snow_core::{Computation, Start};
use snow_net::{FrameClass, LinkModel, TimeScale};
use snow_sched::{IndexedDirectory, PlEntry};
use snow_state::{ExecState, MemoryGraph, ProcessState};
use snow_trace::report::JsonValue;
use snow_trace::{audit, EventKind, Tracer};
use snow_vm::vm::{ProcAddr, Registry};
use snow_vm::wire::{Envelope, ExeStatus, Incoming, Payload, ENVELOPE_OVERHEAD_BYTES};
use snow_vm::{HostId, HostSpec, NodeId, Post, TcpTransport, Transport, Vmid};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::pool::{
    default_workers, finish_and_retire, migrate_on_worker, migrate_retrying_once, run_pool, Drive,
};
use crate::schema::{validate_records, LatencyGate, TransportKind};

/// Schema tag stamped into every emitted document.
pub const SCHEMA: &str = "snow-bench-scale/v1";

pub use crate::hist::LatencyHistogram;

// ---------------------------------------------------------------------
// records
// ---------------------------------------------------------------------

/// One scenario measurement, serialised as one element of the
/// `records` array in `BENCH_scale.json`.
#[derive(Debug, Clone)]
pub struct ScaleRecord {
    /// `"all_pairs_flood"` or `"migration_under_load"`.
    pub scenario: &'static str,
    /// Transport backend the scenario ran on (`"inproc"` or `"tcp"`).
    pub transport: &'static str,
    /// Rank count the scenario ran at.
    pub ranks: usize,
    /// Messages delivered.
    pub msgs: u64,
    /// Wire bytes moved (payload + envelope overhead per message).
    pub bytes_moved: u64,
    /// Wall-clock seconds of the measured window.
    pub wall_s: f64,
    /// Delivered messages per wall second.
    pub msgs_per_sec: f64,
    /// Median delivery latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile delivery latency, microseconds.
    pub p99_latency_us: f64,
    /// Aggregate staged high-water mark over every inbox (satellite:
    /// the PR 3 queue-depth accounting, summed across the sharded
    /// post office).
    pub staged_high_water: u64,
    /// Destinations each rank flooded (flood only; `ranks - 1` means
    /// true all-pairs).
    pub fanout: Option<usize>,
    /// Ring rounds (migration scenario only).
    pub rounds: Option<u64>,
    /// Wall milliseconds the blocking migrate call took (migration
    /// scenario only): request → transfer → commit.
    pub pause_ms: Option<f64>,
    /// Trace-derived MigrationStart → MigrationCommit interval in
    /// milliseconds (traced migration runs only).
    pub pause_trace_ms: Option<f64>,
    /// §4 audit verdict (traced migration runs only).
    pub audit_clean: Option<bool>,
    /// Why the §4 audit did *not* run (untraced migration runs).
    /// Exactly one of `audit_clean` / `audit_skipped` is set on a
    /// migration record, so a null audit is always an explicit,
    /// explained decision rather than a silently dropped check.
    pub audit_skipped: Option<&'static str>,
    /// Whether the mid-run migration finally aborted after the
    /// harness's retry (migration scenario only). `Some(false)` is the
    /// healthy verdict; `Some(true)` is reported instead of panicking
    /// the bench.
    pub migration_aborted: Option<bool>,
}

impl ScaleRecord {
    /// This record as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let opt_num = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Num);
        JsonValue::Object(vec![
            ("scenario".into(), JsonValue::Str(self.scenario.into())),
            ("transport".into(), JsonValue::Str(self.transport.into())),
            ("ranks".into(), JsonValue::Num(self.ranks as f64)),
            ("msgs".into(), JsonValue::Num(self.msgs as f64)),
            (
                "bytes_moved".into(),
                JsonValue::Num(self.bytes_moved as f64),
            ),
            ("wall_s".into(), JsonValue::Num(self.wall_s)),
            ("msgs_per_sec".into(), JsonValue::Num(self.msgs_per_sec)),
            ("p50_latency_us".into(), JsonValue::Num(self.p50_latency_us)),
            ("p99_latency_us".into(), JsonValue::Num(self.p99_latency_us)),
            (
                "staged_high_water".into(),
                JsonValue::Num(self.staged_high_water as f64),
            ),
            (
                "fanout".into(),
                self.fanout
                    .map_or(JsonValue::Null, |f| JsonValue::Num(f as f64)),
            ),
            (
                "rounds".into(),
                self.rounds
                    .map_or(JsonValue::Null, |r| JsonValue::Num(r as f64)),
            ),
            ("pause_ms".into(), opt_num(self.pause_ms)),
            ("pause_trace_ms".into(), opt_num(self.pause_trace_ms)),
            (
                "audit_clean".into(),
                self.audit_clean.map_or(JsonValue::Null, JsonValue::Bool),
            ),
            (
                "audit_skipped".into(),
                self.audit_skipped
                    .map_or(JsonValue::Null, |r| JsonValue::Str(r.into())),
            ),
            (
                "migration_aborted".into(),
                self.migration_aborted
                    .map_or(JsonValue::Null, JsonValue::Bool),
            ),
        ])
    }
}

/// The `records` section of a `snow-bench-scale/v1` document.
pub fn records_section(records: &[ScaleRecord]) -> Vec<(&'static str, JsonValue)> {
    vec![(
        "records",
        JsonValue::Array(records.iter().map(ScaleRecord::to_json).collect()),
    )]
}

/// Validate a parsed `BENCH_scale.json` document against the
/// `snow-bench-scale/v1` schema: the CI `bench-smoke` gate. On top of
/// the shared frame ([`validate_records`]): a record of *each* scenario
/// is present, every record carries both latency quantiles and its
/// staged high-water mark, and every migration record a pause and an
/// explicit §4 audit disposition.
pub fn validate_document(doc: &JsonValue) -> Result<(), String> {
    let mut seen_flood = false;
    let mut seen_migration = false;
    validate_records(doc, SCHEMA, |r| {
        let scenario = r.str("scenario")?;
        match scenario {
            "all_pairs_flood" => seen_flood = true,
            "migration_under_load" => seen_migration = true,
            other => return Err(format!("record {}: unknown scenario {other:?}", r.i)),
        }
        r.num("p50_latency_us")?;
        r.num("p99_latency_us")?;
        r.num("staged_high_water")?;
        if scenario == "migration_under_load" {
            if r.num("pause_ms").is_err() {
                return Err(format!("record {}: migration record without pause_ms", r.i));
            }
            r.audit_disposition()?;
        }
        Ok(())
    })?;
    if !seen_flood {
        return Err("no all_pairs_flood record".into());
    }
    if !seen_migration {
        return Err("no migration_under_load record".into());
    }
    Ok(())
}

/// The latencies the regression gate checks on every scale record
/// (sub-50 µs baselines are exempt, see
/// [`crate::schema::gate_records`]).
pub const LATENCY_GATES: &[LatencyGate] = &[
    ("p50_latency_us", &["p50_latency_us"]),
    ("p99_latency_us", &["p99_latency_us"]),
];

// ---------------------------------------------------------------------
// scenario 1: all-pairs flood
// ---------------------------------------------------------------------

/// Parameters of one flood run.
#[derive(Debug, Clone, Copy)]
pub struct FloodConfig {
    /// Rank count.
    pub ranks: usize,
    /// Total message budget; fanout and per-pair counts derive from it.
    pub budget_msgs: u64,
    /// Payload bytes per message (≥ 8 for the timestamp).
    pub payload_bytes: usize,
    /// Sender/receiver worker threads per side.
    pub workers: usize,
    /// Backend the flood drives.
    pub transport: TransportKind,
}

impl FloodConfig {
    /// The standard sweep entry for `ranks` (2M-message budget, 64 B
    /// payloads, worker count matched to the machine).
    pub fn standard(ranks: usize) -> Self {
        FloodConfig {
            ranks,
            budget_msgs: 2_000_000,
            payload_bytes: 64,
            workers: default_workers(),
            transport: TransportKind::InProc,
        }
    }

    /// CI smoke variant: same shape, 1/20 the budget.
    pub fn smoke(ranks: usize) -> Self {
        FloodConfig {
            budget_msgs: 100_000,
            ..Self::standard(ranks)
        }
    }

    /// Destinations per source rank: all pairs when the budget covers
    /// them, stride-sampled otherwise.
    pub fn fanout(&self) -> usize {
        let per_rank = (self.budget_msgs / self.ranks as u64).max(1) as usize;
        per_rank.min(self.ranks - 1)
    }

    /// Messages per (source, destination) pair.
    pub fn msgs_per_pair(&self) -> u64 {
        (self.budget_msgs / (self.ranks as u64 * self.fanout() as u64)).max(1)
    }
}

/// Cap on in-flight messages: senders stall (spin-yield) while this
/// many posts are undelivered, bounding flood memory to tens of MB
/// instead of the whole budget.
const FLOOD_WINDOW: i64 = 200_000;

/// Hosts the flood spreads its vmids across (shard-spread only — no
/// daemons are involved in the direct substrate drive).
const FLOOD_HOSTS: u32 = 64;

/// Run the all-pairs flood: N inboxes behind the sharded registry, the
/// O(1) rank directory in front, sender workers flooding and receiver
/// workers draining concurrently.
pub fn run_flood(cfg: &FloodConfig) -> ScaleRecord {
    assert!(cfg.ranks >= 2, "flood needs at least two ranks");
    assert!(cfg.payload_bytes >= 8, "payload must hold the timestamp");
    let ranks = cfg.ranks;
    let fanout = cfg.fanout();
    let msgs_per_pair = cfg.msgs_per_pair();
    let total: u64 = ranks as u64 * fanout as u64 * msgs_per_pair;

    // Build the routing plane: rank → vmid directory, vmid → inbox
    // registry — exactly the two lookups every protocol-level send pays.
    let registry = Registry::new();
    let mut dir = IndexedDirectory::with_capacity(ranks);
    let mut posts: Vec<Post<Incoming>> = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let (tx, post) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
        let (sig_tx, _sig_rx) = crossbeam::channel::unbounded();
        let vmid = Vmid {
            host: HostId(rank as u32 % FLOOD_HOSTS),
            pid: (rank as u32) / FLOOD_HOSTS,
        };
        registry.register(
            vmid,
            ProcAddr {
                inbox: tx,
                signals: sig_tx,
                host: vmid.host,
                label: format!("p{rank}"),
            },
        );
        dir.insert(
            rank,
            PlEntry {
                vmid,
                status: ExeStatus::Running,
            },
        );
        posts.push(post);
    }
    let dir = Arc::new(dir);
    // `--transport tcp` routes every flood message through the framed
    // socket backend: same registry behind the scenes, but each send
    // crosses a localhost TCP stream (encode → frame → decode) before
    // the receiver-side delivery. The in-process run keeps the direct
    // registry drive so the baseline still measures the bare substrate.
    let tcp: Option<Arc<TcpTransport>> = match cfg.transport {
        TransportKind::InProc => None,
        TransportKind::Tcp => {
            let t = Arc::new(TcpTransport::new());
            t.attach(registry.clone());
            for h in 0..(ranks as u32).min(FLOOD_HOSTS) {
                t.host_joined(NodeId(h), None);
            }
            Some(t)
        }
    };
    let tracer = Tracer::disabled();
    let epoch = Instant::now();
    let outstanding = Arc::new(AtomicI64::new(0));
    let delivered = Arc::new(AtomicU64::new(0));

    // Receivers: each drains a contiguous slice of inboxes until the
    // whole budget has landed, then reports its histogram and the
    // staged high-water sum of its slice.
    let workers = cfg.workers.max(1);
    let chunk = ranks.div_ceil(workers);
    let mut rx_handles = Vec::new();
    let mut slices: Vec<Vec<Post<Incoming>>> = Vec::new();
    while !posts.is_empty() {
        let rest = posts.split_off(posts.len().min(chunk));
        slices.push(std::mem::replace(&mut posts, rest));
    }
    for slice in slices {
        let outstanding = Arc::clone(&outstanding);
        let delivered = Arc::clone(&delivered);
        rx_handles.push(std::thread::spawn(move || {
            let mut hist = LatencyHistogram::new();
            loop {
                let mut drained = 0u64;
                for post in &slice {
                    while let Ok(Some(Incoming::Data(env))) = post.try_recv() {
                        if let Payload::Data(b) = &env.payload {
                            let sent = u64::from_le_bytes(b[..8].try_into().unwrap());
                            let now = epoch.elapsed().as_nanos() as u64;
                            hist.record(now.saturating_sub(sent));
                        }
                        drained += 1;
                    }
                }
                if drained > 0 {
                    outstanding.fetch_sub(drained as i64, Ordering::Relaxed);
                    delivered.fetch_add(drained, Ordering::Relaxed);
                } else if delivered.load(Ordering::Relaxed) >= total {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
            let staged: u64 = slice.iter().map(|p| p.staged_high_water() as u64).sum();
            (hist, staged)
        }));
    }

    // Senders: partition the source ranks; destinations are stride-
    // sampled so a capped fanout still spreads over the whole rank
    // space (and covers all pairs when fanout == ranks - 1).
    let stride = ((ranks - 1) / fanout).max(1);
    let t0 = Instant::now();
    let mut tx_handles = Vec::new();
    for w in 0..workers {
        let registry = registry.clone();
        let dir = Arc::clone(&dir);
        let tracer = Arc::clone(&tracer);
        let outstanding = Arc::clone(&outstanding);
        let payload_bytes = cfg.payload_bytes;
        let tcp = tcp.clone();
        tx_handles.push(std::thread::spawn(move || {
            for src in (w..ranks).step_by(workers) {
                for k in 0..fanout {
                    let dest = (src + 1 + k * stride) % ranks;
                    for _ in 0..msgs_per_pair {
                        while outstanding.load(Ordering::Relaxed) >= FLOOD_WINDOW {
                            std::thread::yield_now();
                        }
                        let mut buf = vec![0u8; payload_bytes];
                        let now = epoch.elapsed().as_nanos() as u64;
                        buf[..8].copy_from_slice(&now.to_le_bytes());
                        let env = Envelope {
                            src,
                            tag: 7,
                            msg: tracer.next_msg_id(),
                            payload: Payload::Data(Bytes::from(buf)),
                        };
                        let bytes = env.wire_bytes();
                        let vmid = dir.lookup(dest).expect("dense directory").vmid;
                        outstanding.fetch_add(1, Ordering::Relaxed);
                        match &tcp {
                            Some(t) => t
                                .send_to(
                                    NodeId(src as u32 % FLOOD_HOSTS),
                                    vmid,
                                    Incoming::Data(env),
                                    bytes,
                                    FrameClass::Data,
                                )
                                .expect("flood nodes stay routable"),
                            None => registry
                                .with_addr(vmid, |addr| {
                                    addr.inbox.send_classed(
                                        Incoming::Data(env),
                                        bytes,
                                        FrameClass::Data,
                                    )
                                })
                                .expect("flood inboxes stay registered")
                                .expect("flood inboxes stay open"),
                        }
                    }
                }
            }
        }));
    }
    for h in tx_handles {
        h.join().unwrap();
    }
    let mut hist = LatencyHistogram::new();
    let mut staged_total = 0u64;
    for h in rx_handles {
        let (h_part, staged) = h.join().unwrap();
        hist.merge(&h_part);
        staged_total += staged;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(t) = &tcp {
        t.shutdown();
    }

    assert_eq!(hist.count(), total, "every flooded message is delivered");
    ScaleRecord {
        scenario: "all_pairs_flood",
        transport: cfg.transport.as_str(),
        ranks,
        msgs: total,
        bytes_moved: total * (cfg.payload_bytes as u64 + ENVELOPE_OVERHEAD_BYTES as u64),
        wall_s,
        msgs_per_sec: total as f64 / wall_s,
        p50_latency_us: hist.quantile_ns(0.50) / 1_000.0,
        p99_latency_us: hist.quantile_ns(0.99) / 1_000.0,
        staged_high_water: staged_total,
        fanout: Some(fanout),
        rounds: None,
        pause_ms: None,
        pause_trace_ms: None,
        audit_clean: None,
        audit_skipped: None,
        migration_aborted: None,
    }
}

// ---------------------------------------------------------------------
// scenario 2: migration under load
// ---------------------------------------------------------------------

/// Parameters of one migration-under-load run.
#[derive(Debug, Clone, Copy)]
pub struct MigrationLoadConfig {
    /// Rank count (ring of this size, co-located on [`Self::hosts`]).
    pub ranks: usize,
    /// Data rounds each rank drives through the ring.
    pub rounds: u64,
    /// Host pool size (plus one spare migration target).
    pub hosts: usize,
    /// Payload bytes per ring message (≥ 8 for the timestamp).
    pub payload_bytes: usize,
    /// Trace the run and audit it against §4. Adds per-event cost, so
    /// the ≥ 5k sweep entries turn it off; ≤ 1k keeps it on (the
    /// acceptance gate).
    pub trace: bool,
    /// Backend the ring's environment is built on.
    pub transport: TransportKind,
    /// Worker threads the ranks are multiplexed onto. The ring is
    /// driven cooperatively (`try_send`/`try_recv`), so rank count and
    /// thread count are decoupled: 10k ranks run on a handful of
    /// workers instead of 10k OS threads.
    pub workers: usize,
}

impl MigrationLoadConfig {
    /// The standard sweep entry for `ranks`: rounds scale inversely
    /// with the ring size, tracing on through 1k ranks.
    pub fn standard(ranks: usize) -> Self {
        MigrationLoadConfig {
            ranks,
            rounds: (20_000 / ranks as u64).clamp(4, 64),
            hosts: 16.min(ranks),
            payload_bytes: 64,
            trace: ranks <= 1024,
            transport: TransportKind::InProc,
            workers: default_workers(),
        }
    }

    /// CI smoke variant: a short traced ring.
    pub fn smoke(ranks: usize) -> Self {
        MigrationLoadConfig {
            rounds: 6,
            ..Self::standard(ranks)
        }
    }
}

/// Where a cooperatively driven ring rank stands between worker visits.
enum RingPhase {
    /// Trying to post this round's message to the right neighbour.
    Send,
    /// Waiting for this round's message from the left neighbour.
    Recv,
    /// The migrant, parked at its trigger round: pumping peers while it
    /// waits for the scheduler's `migration_request` signal.
    AwaitMigration,
}

/// A ring rank's state between worker visits: the per-rank loop of a
/// thread-per-rank ring, unrolled into a state machine the pool
/// advances one non-blocking step at a time.
struct RingRank {
    round: u64,
    phase: RingPhase,
    /// Aborted in-place migration attempts (migrant only); the migrant
    /// stops parking for the request after the second.
    attempts: u32,
    local: LatencyHistogram,
}

/// The ring's shape plus the measurement plumbing the pool feeds.
struct Ring {
    n: usize,
    rounds: u64,
    /// The round after which the migrant parks for its migration.
    trigger: u64,
    migrant: usize,
    payload_bytes: usize,
    epoch: Instant,
    hist: Mutex<LatencyHistogram>,
    staged: AtomicU64,
    /// Ranks that completed their first round — the migration request
    /// only fires once the whole ring is connected and in steady
    /// state, so the pause measures the protocol, not the connection
    /// storm (at 5k+ ranks the storm alone can swamp a single-core
    /// scheduler).
    ready: AtomicU64,
}

impl Ring {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A round's payload, stamped with its send time.
    fn payload(&self) -> Bytes {
        let mut buf = vec![0u8; self.payload_bytes];
        buf[..8].copy_from_slice(&self.now_ns().to_le_bytes());
        Bytes::from(buf)
    }

    /// The delivery latency of a stamped payload.
    fn latency(&self, b: &[u8]) -> u64 {
        let sent = u64::from_le_bytes(b[..8].try_into().unwrap());
        self.now_ns().saturating_sub(sent)
    }
}

/// Run the migration-under-load ring at `cfg.ranks`.
///
/// Ranks are launched cooperatively ([`Computation::launch_cooperative`])
/// and multiplexed onto `cfg.workers` pool threads ([`run_pool`]), with
/// the migrant on a worker of its own: while that worker blocks inside
/// the drain/transfer, the rest of the ring keeps pumping, which is
/// exactly what the drain needs to terminate.
pub fn run_migration_under_load(cfg: &MigrationLoadConfig) -> ScaleRecord {
    assert!(cfg.ranks >= 4, "ring needs at least four ranks");
    assert!(cfg.payload_bytes >= 8, "payload must hold the timestamp");
    let n = cfg.ranks;
    let rounds = cfg.rounds;
    let migrant = n / 2;

    let tracer = if cfg.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let mut builder = Computation::builder()
        .hosts(HostSpec::ideal(), cfg.hosts + 1)
        .tracer(Arc::clone(&tracer));
    if cfg.transport == TransportKind::Tcp {
        builder = builder.transport(Arc::new(TcpTransport::new()));
    }
    let comp = builder.build();
    let spare = comp.hosts()[cfg.hosts];
    let placement: Vec<HostId> = (0..n).map(|r| comp.hosts()[r % cfg.hosts]).collect();

    let ring = Arc::new(Ring {
        n,
        rounds,
        // Migrate once the ring is in steady state, with rounds left after.
        trigger: (rounds / 3).max(1),
        migrant,
        payload_bytes: cfg.payload_bytes,
        epoch: Instant::now(),
        hist: Mutex::new(LatencyHistogram::new()),
        staged: AtomicU64::new(0),
        ready: AtomicU64::new(0),
    });

    // The resumed migrant runs on a scheduler-owned thread, so it keeps
    // the straightforward blocking style: the ring from its restored
    // round to the end.
    let app_ring = Arc::clone(&ring);
    let t0 = Instant::now();
    let procs = comp.launch_cooperative(&placement, move |mut p, start| {
        let ring = &app_ring;
        let me = p.rank();
        let from = match &start {
            Start::Fresh => 0u64,
            Start::Resumed(s) => s
                .exec
                .local("round")
                .and_then(snow_codec::Value::as_u64)
                .unwrap_or(0),
        };
        let mut local = LatencyHistogram::new();
        for _round in from..ring.rounds {
            p.send((me + 1) % n, 1, ring.payload()).unwrap();
            let (_s, _t, b) = p.recv(Some((me + n - 1) % n), Some(1)).unwrap();
            local.record(ring.latency(&b));
        }
        ring.staged
            .fetch_add(p.cell().inbox_staged_high_water() as u64, Ordering::Relaxed);
        ring.hist.lock().unwrap().merge(&local);
        p.finish();
    });

    let vm = comp.vm();
    let (migration_aborted, pause_ms) = run_pool(
        procs,
        |_| RingRank {
            round: 0,
            phase: RingPhase::Send,
            attempts: 0,
            local: LatencyHistogram::new(),
        },
        &[migrant],
        cfg.workers,
        |d| step_ring_rank(d, &ring, vm),
        // Wait for steady state, then fire the migration while the pool
        // keeps the ring under load.
        || {
            while ring.ready.load(Ordering::Relaxed) < n as u64 {
                std::thread::yield_now();
            }
            let t_pause = Instant::now();
            let aborted = migrate_retrying_once(&comp, migrant, spare);
            (aborted, t_pause.elapsed().as_secs_f64() * 1_000.0)
        },
    );
    comp.join_init_processes();
    let wall_s = t0.elapsed().as_secs_f64();

    let hist = ring.hist.lock().unwrap().clone();
    let msgs = hist.count();
    let (pause_trace_ms, audit_clean, audit_skipped) = if cfg.trace {
        let events = tracer.snapshot();
        let start_ns = events.iter().find_map(|e| match e.kind {
            EventKind::MigrationStart { rank } if rank == migrant => Some(e.t_ns),
            _ => None,
        });
        let commit_ns = events.iter().find_map(|e| match e.kind {
            EventKind::MigrationCommit { rank } if rank == migrant => Some(e.t_ns),
            _ => None,
        });
        let pause = match (start_ns, commit_ns) {
            (Some(s), Some(c)) if c > s => Some((c - s) as f64 / 1_000_000.0),
            _ => None,
        };
        let report = audit::audit(&events);
        (pause, Some(report.is_clean()), None)
    } else {
        // An untraced run stamps the reason and says so on stderr, so a
        // dropped audit is always visible.
        let reason = "trace disabled at this rank count: per-event tracing cost \
                      would distort the measurement";
        eprintln!(
            "scale: migration_under_load ranks={n} transport={}: \
             §4 audit skipped ({reason})",
            cfg.transport.as_str()
        );
        (None, None, Some(reason))
    };

    ScaleRecord {
        scenario: "migration_under_load",
        transport: cfg.transport.as_str(),
        ranks: n,
        msgs,
        bytes_moved: msgs * (cfg.payload_bytes as u64 + ENVELOPE_OVERHEAD_BYTES as u64),
        wall_s,
        msgs_per_sec: msgs as f64 / wall_s,
        p50_latency_us: hist.quantile_ns(0.50) / 1_000.0,
        p99_latency_us: hist.quantile_ns(0.99) / 1_000.0,
        staged_high_water: ring.staged.load(Ordering::Relaxed),
        fanout: None,
        rounds: Some(rounds),
        pause_ms: Some(pause_ms),
        pause_trace_ms,
        audit_clean,
        audit_skipped,
        migration_aborted: Some(migration_aborted),
    }
}

/// Advance one ring rank by one cooperative step; returns whether any
/// progress was made: send right → recv left → (migrant only) park at
/// the trigger round and migrate.
fn step_ring_rank(d: &mut Drive<RingRank>, ring: &Ring, vm: &snow_vm::VirtualMachine) -> bool {
    let me = d.rank;
    let r = &mut d.app;
    let p = d.p.as_mut().expect("live rank has a process");
    match r.phase {
        RingPhase::Send => {
            // The migrant parks *before* sending the round after its
            // trigger: round `trigger` traffic completes, then the
            // process waits for the scheduler's signal so the resumed
            // process restarts at round `trigger + 1`.
            if me == ring.migrant && r.round == ring.trigger + 1 && r.attempts < 2 {
                r.phase = RingPhase::AwaitMigration;
                return true;
            }
            let sent = p
                .try_send((me + 1) % ring.n, 1, &ring.payload())
                .unwrap_or_else(|e| panic!("rank {me}: ring send failed: {e}"));
            if sent {
                r.phase = RingPhase::Recv;
            }
            sent
        }
        RingPhase::Recv => {
            let got = p
                .try_recv(Some((me + ring.n - 1) % ring.n), Some(1))
                .unwrap_or_else(|e| panic!("rank {me}: ring recv failed: {e}"));
            let Some((_s, _t, b)) = got else {
                return false;
            };
            r.local.record(ring.latency(&b));
            if r.round == 0 {
                ring.ready.fetch_add(1, Ordering::Relaxed);
            }
            r.round += 1;
            if r.round == ring.rounds {
                ring.staged
                    .fetch_add(p.cell().inbox_staged_high_water() as u64, Ordering::Relaxed);
                ring.hist.lock().unwrap().merge(&r.local);
                finish_and_retire(d.p.take().expect("live rank has a process"), vm);
            } else {
                r.phase = RingPhase::Send;
            }
            true
        }
        RingPhase::AwaitMigration => {
            // Keep draining peer traffic (and granting inbound
            // connections) while parked, or the ring stalls harder than
            // the migration pause itself.
            p.pump()
                .unwrap_or_else(|e| panic!("rank {me}: pump failed: {e}"));
            if !p
                .poll_point()
                .unwrap_or_else(|e| panic!("rank {me}: poll failed: {e}"))
            {
                return false;
            }
            let state = ProcessState::new(
                ExecState::at_entry().with_local("round", snow_codec::Value::U64(r.round)),
                MemoryGraph::new(),
            );
            let p = d.p.take().expect("live rank has a process");
            match migrate_on_worker(p, &state, vm) {
                None => ring.hist.lock().unwrap().merge(&r.local),
                // Rolled back in place: park again for the harness's
                // retry; after that, keep the ring alive in place
                // instead of panicking the bench.
                Some(p) => {
                    d.p = Some(p);
                    r.attempts += 1;
                    if r.attempts >= 2 {
                        r.phase = RingPhase::Send;
                    }
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{emit_document, gate_records, GateTolerances};

    fn doc(records: &[ScaleRecord]) -> JsonValue {
        emit_document(SCHEMA, true, records_section(records))
    }

    fn gate(current: &JsonValue, baseline: &JsonValue) -> Result<(), Vec<String>> {
        gate_records(current, baseline, LATENCY_GATES, GateTolerances::default())
    }

    #[test]
    fn small_flood_delivers_budget_without_staging() {
        let cfg = FloodConfig {
            ranks: 64,
            budget_msgs: 20_000,
            payload_bytes: 32,
            workers: 4,
            transport: TransportKind::InProc,
        };
        let rec = run_flood(&cfg);
        assert_eq!(rec.scenario, "all_pairs_flood");
        assert_eq!(rec.ranks, 64);
        assert_eq!(
            rec.msgs,
            64 * rec.fanout.unwrap() as u64 * cfg.msgs_per_pair()
        );
        assert!(rec.msgs_per_sec > 0.0);
        assert!(rec.p50_latency_us >= 0.0);
        assert!(rec.p99_latency_us >= rec.p50_latency_us);
        // ZERO-scale frames ride the immediate fast path end to end:
        // the staged accounting must stay empty in aggregate.
        assert_eq!(rec.staged_high_water, 0, "flood frames must not stage");
    }

    #[test]
    fn small_migration_ring_audits_clean() {
        let cfg = MigrationLoadConfig {
            ranks: 8,
            rounds: 6,
            hosts: 4,
            payload_bytes: 32,
            trace: true,
            transport: TransportKind::InProc,
            workers: 3,
        };
        let rec = run_migration_under_load(&cfg);
        assert_eq!(rec.scenario, "migration_under_load");
        assert!(rec.pause_ms.unwrap() > 0.0);
        assert_eq!(rec.audit_clean, Some(true), "§4 audit must stay clean");
        assert_eq!(rec.migration_aborted, Some(false));
        assert!(rec.msgs >= 8 * 5, "most ring rounds complete: {}", rec.msgs);
    }

    #[test]
    fn small_flood_crosses_tcp_sockets() {
        let cfg = FloodConfig {
            ranks: 16,
            budget_msgs: 2_000,
            payload_bytes: 32,
            workers: 2,
            transport: TransportKind::Tcp,
        };
        let rec = run_flood(&cfg);
        assert_eq!(rec.transport, "tcp");
        assert_eq!(
            rec.msgs,
            16 * rec.fanout.unwrap() as u64 * cfg.msgs_per_pair()
        );
    }

    #[test]
    fn document_roundtrip_validates() {
        let flood = ScaleRecord {
            scenario: "all_pairs_flood",
            transport: "inproc",
            ranks: 256,
            msgs: 1000,
            bytes_moved: 128_000,
            wall_s: 0.5,
            msgs_per_sec: 2000.0,
            p50_latency_us: 10.0,
            p99_latency_us: 90.0,
            staged_high_water: 0,
            fanout: Some(255),
            rounds: None,
            pause_ms: None,
            pause_trace_ms: None,
            audit_clean: None,
            audit_skipped: None,
            migration_aborted: None,
        };
        let migration = ScaleRecord {
            scenario: "migration_under_load",
            transport: "inproc",
            ranks: 256,
            msgs: 5000,
            bytes_moved: 640_000,
            wall_s: 1.0,
            msgs_per_sec: 5000.0,
            p50_latency_us: 15.0,
            p99_latency_us: 120.0,
            staged_high_water: 0,
            fanout: None,
            rounds: Some(20),
            pause_ms: Some(12.0),
            pause_trace_ms: Some(9.5),
            audit_clean: Some(true),
            audit_skipped: None,
            migration_aborted: Some(false),
        };
        let parsed =
            JsonValue::parse(&doc(&[flood.clone(), migration.clone()]).to_string()).unwrap();
        validate_document(&parsed).unwrap();

        // Schema violations are caught.
        let missing_migration = doc(&[flood]);
        assert!(validate_document(&missing_migration).is_err());
        let mut broken = migration;
        broken.pause_ms = None;
        let pauseless = doc(&[
            ScaleRecord {
                scenario: "all_pairs_flood",
                ..broken.clone()
            },
            broken,
        ]);
        assert!(
            validate_document(&pauseless).is_err(),
            "pause-less migration record"
        );
        assert!(validate_document(&JsonValue::parse("{}").unwrap()).is_err());
    }

    fn gate_fixture(msgs_per_sec: f64, p99_us: f64, aborted: Option<bool>) -> JsonValue {
        let rec = ScaleRecord {
            scenario: "all_pairs_flood",
            transport: "inproc",
            ranks: 256,
            msgs: 1000,
            bytes_moved: 128_000,
            wall_s: 0.5,
            msgs_per_sec,
            p50_latency_us: p99_us / 2.0,
            p99_latency_us: p99_us,
            staged_high_water: 0,
            fanout: Some(255),
            rounds: None,
            pause_ms: None,
            pause_trace_ms: None,
            audit_clean: None,
            audit_skipped: None,
            migration_aborted: aborted,
        };
        doc(&[rec])
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_on_collapse() {
        let baseline = gate_fixture(100_000.0, 500.0, None);
        // Half the throughput, slightly worse tail: inside tolerance.
        assert!(gate(&gate_fixture(50_000.0, 800.0, None), &baseline).is_ok());
        // Throughput collapse: gated.
        let errs = gate(&gate_fixture(1_000.0, 500.0, None), &baseline).unwrap_err();
        assert!(errs[0].contains("throughput"), "{errs:?}");
        // Latency blow-up: gated.
        let errs = gate(&gate_fixture(100_000.0, 50_000.0, None), &baseline).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("p99")), "{errs:?}");
        // A reported migration abort is gated even with healthy numbers.
        let errs = gate(&gate_fixture(100_000.0, 500.0, Some(true)), &baseline).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("aborted")), "{errs:?}");
    }

    #[test]
    fn gate_requires_a_common_record() {
        let baseline = gate_fixture(100_000.0, 500.0, None);
        let other = ScaleRecord {
            scenario: "migration_under_load",
            transport: "tcp",
            ranks: 64,
            msgs: 100,
            bytes_moved: 12_800,
            wall_s: 0.1,
            msgs_per_sec: 1_000.0,
            p50_latency_us: 10.0,
            p99_latency_us: 20.0,
            staged_high_water: 0,
            fanout: None,
            rounds: Some(6),
            pause_ms: Some(5.0),
            pause_trace_ms: None,
            audit_clean: Some(true),
            audit_skipped: None,
            migration_aborted: Some(false),
        };
        assert!(gate(&doc(&[other]), &baseline).is_err());
    }
}
