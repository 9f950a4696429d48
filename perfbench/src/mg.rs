//! The `mg_migrate` workload: the paper's Table 1 program, kernel MG on
//! the blocking `send`/`recv` API (one thread per rank, selective
//! receives), with a fixed count of migrations of ranks carrying a
//! 7.5 MB checkpoint. Each order is issued once the previous one has
//! committed.
//!
//! A timing [`Comm`] adapter around [`SnowComm`] measures the layer
//! calls and checks every message out of band: the sender queues a
//! digest of each buffer on its (src, dst) lane, and the receiver pops
//! and compares it, which catches loss, duplication and reordering per
//! (lane, tag). The final residuals must equal a raw-channel run of the
//! same configuration bit for bit.

use crate::report::{Job, Layer, MigSample};
use crate::shadow;
use crate::spans::{record_migration, SpanLog};
use snow_core::{Computation, MigrationOutcome, SnowProcess, Start};
use snow_mg::{run_mg, Comm, CommStats, MgCheckpoint, MgConfig, MgOutcome, RawNetwork, SnowComm};
use snow_net::TimeScale;
use snow_state::ProcessState;
use snow_vm::HostSpec;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Migrations per solve.
pub const MIGRATIONS: usize = 100;
/// Hosts kept free as migration destinations.
pub const SPARES: usize = 4;

/// The Table 1 configuration: n = 64 on 8 ranks, a 7.5 MB checkpoint
/// (§6.2), and enough iterations that every migration lands inside the
/// solve: each order waits for one iteration boundary, so 150
/// iterations leave 50 to spare.
pub fn config() -> MgConfig {
    MgConfig {
        iterations: 150,
        state_pad: 7_500_000,
        ..MgConfig::default()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("benchmark state poisoned")
}

/// Residual history of the same configuration over raw channels (the
/// "original" program): the reference every migrating solve must match.
pub fn run_raw_mg(cfg: &MgConfig) -> Result<Vec<Vec<f64>>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = RawNetwork::new(cfg.nprocs)
            .into_iter()
            .map(|mut c| {
                s.spawn(move || match run_mg(&mut c, cfg, None)? {
                    MgOutcome::Finished(r) => Ok(r.residuals),
                    MgOutcome::Migrate(_) => Err("raw channels never migrate".to_string()),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("raw MG rank panicked"))
            .collect()
    })
}

fn many<T: Default>(n: usize) -> Vec<T> {
    (0..n).map(|_| T::default()).collect()
}

fn digest(data: &[f64]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, x| {
        (h ^ x.to_bits()).wrapping_mul(0x100_0000_01b3)
    })
}

/// The source half of one migration, as the migrating rank saw it.
struct RankSide {
    rank: usize,
    poll: Instant,
    built: Instant,
    migrated: Instant,
    coordinate_ms: f64,
    rml_forwarded: f64,
}

/// What every rank thread of one solve shares.
struct Shared {
    epoch: Instant,
    np: usize,
    /// `(tag, digest, send-call ns)` in send order, per `src * np + dst`.
    lanes: Vec<Mutex<VecDeque<(i32, u64, u64)>>>,
    failed: AtomicU64,
    lat_ns: Mutex<Vec<u32>>,
    msgs: AtomicU64,
    bytes: AtomicU64,
    layer: Mutex<Layer>,
    sides: Mutex<Vec<RankSide>>,
    /// Per rank: when each resumed incarnation delivered its first message.
    first_recv: Vec<Mutex<Vec<Instant>>>,
    residuals: Vec<Mutex<Option<Vec<f64>>>>,
    comm_ns: Vec<AtomicU64>,
    life_ns: Vec<AtomicU64>,
    tracing: bool,
    /// One migrated state, kept for the traced run's shadow calls.
    sample_state: Mutex<Option<ProcessState>>,
}

impl Shared {
    fn fail(&self, what: String) {
        eprintln!("mg: {what}");
        self.failed.fetch_add(1, Relaxed);
    }
}

/// A [`Comm`] that times and checks every call into [`SnowComm`].
struct TimedComm {
    inner: SnowComm,
    sh: Arc<Shared>,
    rank: usize,
    /// Set until a resumed incarnation has delivered its first message.
    resumed: bool,
    poll_at: Option<Instant>,
    comm_ns: u64,
    lat_ns: Vec<u32>,
    msgs: u64,
    bytes: u64,
    layer: Layer,
}

impl TimedComm {
    fn new(p: SnowProcess, sh: Arc<Shared>, resumed: bool) -> TimedComm {
        let rank = p.rank();
        TimedComm {
            inner: SnowComm::new(p, sh.np),
            sh,
            rank,
            resumed,
            poll_at: None,
            comm_ns: 0,
            lat_ns: Vec::new(),
            msgs: 0,
            bytes: 0,
            layer: Layer::default(),
        }
    }

    fn delivered(&mut self, from: usize, tag: i32, data: &[f64], a: Instant) {
        let b = Instant::now();
        let wait = (b - a).as_nanos() as u64;
        self.comm_ns += wait;
        let expected = {
            let mut lane = lock(&self.sh.lanes[from * self.sh.np + self.rank]);
            let pos = lane.iter().position(|e| e.0 == tag);
            pos.and_then(|i| lane.remove(i))
        };
        match expected {
            Some((_, d, sent_ns)) if d == digest(data) => {
                let at = b.saturating_duration_since(self.sh.epoch).as_nanos() as u64;
                self.lat_ns
                    .push(at.saturating_sub(sent_ns).min(u64::from(u32::MAX)) as u32);
            }
            _ => self.sh.fail(format!(
                "rank {}: lane check failed on {from} tag {tag}",
                self.rank
            )),
        }
        self.msgs += 1;
        self.bytes += 8 * data.len() as u64;
        if std::mem::take(&mut self.resumed) {
            lock(&self.sh.first_recv[self.rank]).push(b);
        }
        if self.sh.tracing {
            self.layer.recv_calls += 1;
            self.layer.recv_ns += wait;
            self.layer.rml.record(self.inner.process().rml_len());
        }
    }

    /// Hand this incarnation's measurements to the shared tally.
    fn flush(&mut self) {
        let sh = &self.sh;
        sh.comm_ns[self.rank].fetch_add(std::mem::take(&mut self.comm_ns), Relaxed);
        lock(&sh.lat_ns).append(&mut self.lat_ns);
        sh.msgs.fetch_add(std::mem::take(&mut self.msgs), Relaxed);
        sh.bytes.fetch_add(std::mem::take(&mut self.bytes), Relaxed);
        lock(&sh.layer).merge(&std::mem::take(&mut self.layer));
    }
}

impl Comm for TimedComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.sh.np
    }

    fn send_f64(&mut self, to: usize, tag: i32, data: &[f64]) -> Result<(), String> {
        let dg = digest(data);
        let a = Instant::now();
        let at = a.saturating_duration_since(self.sh.epoch).as_nanos() as u64;
        lock(&self.sh.lanes[self.rank * self.sh.np + to]).push_back((tag, dg, at));
        let r = self.inner.send_f64(to, tag, data);
        let ns = a.elapsed().as_nanos() as u64;
        self.comm_ns += ns;
        if self.sh.tracing {
            self.layer.send_calls += 1;
            self.layer.send_ns += ns;
        }
        r
    }

    fn recv_f64(&mut self, from: usize, tag: i32) -> Result<Vec<f64>, String> {
        let a = Instant::now();
        let data = self.inner.recv_f64(from, tag)?;
        self.delivered(from, tag, &data, a);
        Ok(data)
    }

    fn recv_any_f64(&mut self, tag: i32) -> Result<(usize, Vec<f64>), String> {
        let a = Instant::now();
        let (from, data) = self.inner.recv_any_f64(tag)?;
        self.delivered(from, tag, &data, a);
        Ok((from, data))
    }

    fn poll_migration(&mut self) -> bool {
        let m = self.inner.poll_migration();
        if m {
            self.poll_at = Some(Instant::now());
        }
        m
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
}

/// One rank incarnation: run MG; at a migration request checkpoint
/// and migrate; on an abort resume in place.
fn rank_main(sh: &Arc<Shared>, cfg: &MgConfig, p: SnowProcess, start: Start) {
    let t_start = Instant::now();
    let rank = p.rank();
    let (mut resume, resumed) = match start {
        Start::Fresh => (None, false),
        Start::Resumed(state) => match MgCheckpoint::from_state(&state) {
            Ok(cp) => (Some(cp), true),
            Err(e) => {
                sh.fail(format!("rank {rank}: bad checkpoint: {e}"));
                p.finish();
                return;
            }
        },
    };
    let mut comm = TimedComm::new(p, Arc::clone(sh), resumed);
    loop {
        match run_mg(&mut comm, cfg, resume.take()) {
            Ok(MgOutcome::Finished(res)) => {
                *lock(&sh.residuals[rank]) = Some(res.residuals);
                comm.flush();
                comm.inner.into_process().finish();
                break;
            }
            Ok(MgOutcome::Migrate(cp)) => {
                let poll = comm.poll_at.take().unwrap_or_else(Instant::now);
                let mut state = cp.to_state();
                state.pad_to(cfg.state_pad);
                let built = Instant::now();
                comm.flush();
                match comm.inner.into_process().migrate(&state) {
                    Ok(MigrationOutcome::Completed(tm)) => {
                        lock(&sh.sides).push(RankSide {
                            rank,
                            poll,
                            built,
                            migrated: Instant::now(),
                            coordinate_ms: tm.coordinate_real_s * 1e3,
                            rml_forwarded: tm.rml_forwarded as f64,
                        });
                        if sh.tracing {
                            lock(&sh.sample_state).get_or_insert(state);
                        }
                        break;
                    }
                    Ok(MigrationOutcome::Aborted(a)) => {
                        sh.fail(format!("rank {rank}: migration aborted: {}", a.reason));
                        comm = TimedComm::new(a.process, Arc::clone(sh), false);
                        resume = Some(cp);
                    }
                    Err(e) => {
                        sh.fail(format!("rank {rank}: migrate failed: {e}"));
                        break;
                    }
                }
            }
            Err(e) => {
                sh.fail(format!("rank {rank}: MG failed: {e}"));
                comm.flush();
                break;
            }
        }
    }
    sh.life_ns[rank].fetch_add(t_start.elapsed().as_nanos() as u64, Relaxed);
}

/// Set-ups measured per solve besides the solve's own: one solve gives
/// too few for a steady median.
const SETUP_PROBES: usize = 9;

/// Build and launch a computation exactly as a solve does, with ranks
/// that end at once; returns the set-up time (s).
fn setup_probe(np: usize) -> f64 {
    let t = Instant::now();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), np + SPARES)
        .time_scale(TimeScale::ZERO)
        .build();
    let handles = comp.launch_placed(&comp.hosts()[..np], |p, _| p.finish());
    let setup_s = t.elapsed().as_secs_f64();
    for h in handles {
        h.join().expect("probe rank panicked");
    }
    comp.shutdown();
    setup_s
}

/// One solve: set up, run MG while the main thread issues the migrations of
/// `plan` one after another, then check every output.
pub fn run_job(
    cfg: &MgConfig,
    plan: &[(usize, usize)],
    reference: &[Vec<f64>],
    spans: Option<&SpanLog>,
    epoch: Instant,
) -> Job {
    let np = cfg.nprocs;
    let sh = Arc::new(Shared {
        epoch,
        np,
        lanes: many(np * np),
        failed: AtomicU64::new(0),
        lat_ns: Mutex::default(),
        msgs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        layer: Mutex::default(),
        sides: Mutex::default(),
        first_recv: many(np),
        residuals: many(np),
        comm_ns: many(np),
        life_ns: many(np),
        tracing: spans.is_some(),
        sample_state: Mutex::default(),
    });

    let t_setup = Instant::now();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), np + SPARES)
        .time_scale(TimeScale::ZERO)
        .build();
    let placement: Vec<_> = comp.hosts()[..np].to_vec();
    let app_sh = Arc::clone(&sh);
    let app_cfg = *cfg;
    let t_launch = Instant::now();
    let handles = comp.launch_placed(&placement, move |p, start| {
        rank_main(&app_sh, &app_cfg, p, start)
    });
    let launch_ms = t_launch.elapsed().as_secs_f64() * 1e3;
    let mut setups = vec![t_setup.elapsed().as_secs_f64()];

    let mut orders = Vec::with_capacity(plan.len());
    for &(victim, spare) in plan {
        let t0 = Instant::now();
        if let Err(e) = comp.migrate(victim, comp.hosts()[np + spare]) {
            sh.fail(format!("migration of rank {victim} failed: {e}"));
        }
        orders.push((victim, t0, Instant::now()));
    }
    for h in handles {
        if h.join().is_err() {
            sh.fail("a rank thread panicked".into());
        }
    }
    comp.join_init_processes();
    let solve_s = t_launch.elapsed().as_secs_f64();
    comp.shutdown();
    setups.extend((0..SETUP_PROBES).map(|_| setup_probe(np)));

    // Pair each order with the source half of its migration.
    let mut sides = std::mem::take(&mut *lock(&sh.sides));
    sides.sort_by_key(|s| s.migrated);
    if sides.len() != orders.len() {
        sh.fail(format!(
            "{} orders but {} migrations",
            orders.len(),
            sides.len()
        ));
    }
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    let mut migrations = Vec::new();
    let mut resume_ms = Vec::new();
    let mut seen = vec![0usize; np];
    for (k, ((victim, t0, t4), s)) in orders.iter().zip(&sides).enumerate() {
        if s.rank != *victim {
            sh.fail(format!(
                "migration {k} moved rank {} instead of {victim}",
                s.rank
            ));
        }
        if let Some(log) = spans {
            record_migration(log, k, [*t0, s.poll, s.built, s.migrated, *t4]);
        }
        migrations.push(MigSample {
            total_ms: ms(*t0, *t4),
            order_ms: ms(*t0, s.poll),
            checkpoint_ms: ms(s.poll, s.built),
            core_ms: ms(s.built, s.migrated),
            commit_ms: ms(s.migrated, *t4),
            coordinate_ms: s.coordinate_ms,
            rml_forwarded: s.rml_forwarded,
        });
        if let Some(first) = lock(&sh.first_recv[*victim]).get(seen[*victim]) {
            // Signed: the resumed rank may deliver before the main thread
            // hears of the commit.
            let d = first.saturating_duration_since(*t4).as_secs_f64()
                - t4.saturating_duration_since(*first).as_secs_f64();
            resume_ms.push(d * 1e3);
        }
        seen[*victim] += 1;
    }

    for (rank, want) in reference.iter().enumerate() {
        let got = lock(&sh.residuals[rank]).take();
        let same = got.as_ref().is_some_and(|g| {
            g.len() == want.len() && g.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !same {
            sh.fail(format!("rank {rank}: residuals differ from the raw run"));
        }
    }
    for (rank, lane) in sh.lanes.iter().enumerate() {
        if !lock(lane).is_empty() {
            sh.fail(format!("lane {rank}: messages sent but never received"));
        }
    }

    let secs = |a: &AtomicU64| a.load(Relaxed) as f64 / 1e9;
    let msgs = sh.msgs.load(Relaxed);
    let mut job = Job {
        setup_s: crate::stats::median(&setups).expect("at least one set-up"),
        solve_s,
        launch_ms,
        msgs,
        bytes: sh.bytes.load(Relaxed),
        window_s: solve_s,
        attempted: msgs + plan.len() as u64 + np as u64,
        resume_ms,
        layer: std::mem::take(&mut *lock(&sh.layer)),
        comm_s: sh.comm_ns.iter().map(secs).collect(),
        compute_s: sh
            .life_ns
            .iter()
            .zip(&sh.comm_ns)
            .map(|(l, c)| secs(l) - secs(c))
            .collect(),
        migrations,
        ..Job::default()
    };
    job.set_latency(std::mem::take(&mut *lock(&sh.lat_ns)));
    if let Some(state) = lock(&sh.sample_state).take() {
        match shadow::state_roundtrip(&state, 3) {
            Ok(s) => job.state = s,
            Err(e) => sh.fail(format!("state shadow: {e}")),
        }
    }
    job.failed = sh.failed.load(Relaxed);
    job
}
