//! The flood workloads: closed-loop `try_send`/`try_recv` traffic over
//! cooperatively launched ranks.
//!
//! Each rank keeps at most [`WINDOW`] messages in flight on each of its
//! lanes (a lane is one sender → receiver pair): a sender waits for the
//! receiver to take a message before issuing more. A job launches a
//! fresh computation, opens every lane with one warm-up message, then
//! sends `quota` timed messages per lane. `flood_tcp` migrates one rank
//! at a time during the flood, `flood_inproc` only after its flood has
//! drained, so its timed window runs nothing but the message path.
//!
//! Ranks are multiplexed onto a pool of rank-driving threads. A
//! migrating rank is lent to the main thread, which steps
//! it until its poll point fires and then runs `SnowProcess::migrate`;
//! while that blocks, the pool keeps every peer responsive. Migration
//! phases therefore run one pool thread, so at most two threads ever
//! drive ranks.

use crate::inputs::{FloodInputs, Sizes};
use crate::lanes::LaneChecker;
use crate::report::{Job, Layer, MigSample};
use crate::spans::{record_migration, Req, SpanLog};
use crate::{fatal, shadow};
use bytes::Bytes;
use snow_codec::Value;
use snow_core::{Computation, MigrationOutcome, SnowProcess};
use snow_net::TimeScale;
use snow_state::{ExecState, MemoryGraph, ProcessState};
use snow_vm::{HostSpec, TcpTransport};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const TAG: i32 = 7;
/// Receives per rank visit, so a busy receiver cannot starve its sends.
const RECV_BATCH: usize = 64;
/// Traced runs keep spans and frame shadows of 1 message in this many.
const SAMPLE: u64 = 64;
const NONE: usize = usize::MAX;
/// Hosts the ranks are placed on, round-robin.
pub const HOSTS: usize = 8;
/// Peers each rank sends to (and receives from).
pub const DEGREE: usize = 8;
/// Messages in flight per lane.
const WINDOW: u64 = 2;
/// Bytes of state a migrating rank carries.
const STATE_BYTES: usize = 256 * 1024;
/// Pause between a migrant's reconnection and the next order.
const GAP: Duration = Duration::from_millis(10);

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Net {
    InProc,
    Tcp,
}

/// When a job migrates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Migrations {
    /// One rank at a time for as long as the flood runs. The next order
    /// follows once the previous migrant has carried traffic on every
    /// one of its lanes again, plus [`GAP`].
    DuringFlood,
    /// This many, one at a time, after the flood has drained.
    AfterFlood(usize),
}

#[derive(Debug, Clone)]
pub struct FloodCfg {
    pub net: Net,
    pub ranks: usize,
    pub sizes: Sizes,
    /// Timed messages per lane.
    pub quota: u64,
    pub migrations: Migrations,
    /// Rank-driving threads while nothing migrates.
    pub workers: usize,
}

impl FloodCfg {
    pub fn inproc(workers: usize) -> FloodCfg {
        FloodCfg {
            net: Net::InProc,
            ranks: 64,
            sizes: Sizes::Fixed(64),
            quota: 1500,
            migrations: Migrations::AfterFlood(40),
            workers,
        }
    }

    pub fn tcp(workers: usize) -> FloodCfg {
        FloodCfg {
            net: Net::Tcp,
            ranks: 32,
            sizes: Sizes::Pareto {
                min: 64,
                max: 64 * 1024,
                alpha: 1.2,
            },
            quota: 1000,
            migrations: Migrations::DuringFlood,
            workers,
        }
    }

    /// Migrations a job can run at most (the victim list's length).
    pub fn max_migrations(&self) -> usize {
        match self.migrations {
            Migrations::DuringFlood => 4096,
            Migrations::AfterFlood(n) => n,
        }
    }
}

/// What every rank-driving thread shares within one job.
struct Ctx<'a> {
    inp: &'a FloodInputs,
    epoch: Instant,
    /// Messages delivered per lane: the senders' credit.
    delivered: Vec<AtomicU64>,
    delivered_total: AtomicU64,
    /// Messages each lane sends in the current phase, warm-up included.
    limit: AtomicU64,
    /// A rank the main thread wants lent out of the pool.
    isolate: AtomicUsize,
    stop: AtomicBool,
    spans: Option<&'a SpanLog>,
}

impl Ctx<'_> {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// One rank as the pool drives it.
struct Drive {
    rank: usize,
    p: Option<SnowProcess>,
    /// Held for a resumed incarnation: dropping it lets the
    /// scheduler-owned thread it was handed over from return.
    release: Option<mpsc::Sender<()>>,
    /// `(dst, lane)` of each outgoing lane.
    out: Vec<(usize, usize)>,
    sent: Vec<u64>,
    checker: LaneChecker,
    resumed_at: Option<Instant>,
}

/// What one thread saw.
#[derive(Default)]
struct Tally {
    lat_ns: Vec<u32>,
    msgs: u64,
    bytes: u64,
    last_delivery: Option<Instant>,
    offered: u64,
    failed: u64,
    resume_ms: Vec<f64>,
    layer: Layer,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.lat_ns.extend(o.lat_ns);
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.last_delivery = self.last_delivery.max(o.last_delivery);
        self.offered += o.offered;
        self.failed += o.failed;
        self.resume_ms.extend(o.resume_ms);
        self.layer.merge(&o.layer);
    }
}

type Handoff = (SnowProcess, mpsc::Sender<()>);

/// Check and account one payload that the `try_recv` call spanning
/// `call` delivered. Its header is seq (8) ‖ send-call time in ns since
/// the epoch (8) ‖ src (4) ‖ dst (4), all little-endian.
fn deliver(
    d: &mut Drive,
    src: usize,
    body: &[u8],
    call: (Option<Instant>, Instant),
    cx: &Ctx,
    t: &mut Tally,
) {
    let at = call.1;
    let field = |r: std::ops::Range<usize>| {
        body.get(r)
            .map(|b| b.iter().rev().fold(0u64, |acc, &x| acc << 8 | u64::from(x)))
    };
    let (Some(seq), Some(sent_ns), Some(hsrc), Some(hdst), Some(lane)) = (
        field(0..8),
        field(8..16),
        field(16..20),
        field(20..24),
        cx.inp.lane(src, d.rank),
    ) else {
        t.failed += 1;
        return;
    };
    if hsrc != src as u64 || hdst != d.rank as u64 || body.len() != cx.inp.size(lane, seq) {
        t.failed += 1;
    }
    d.checker.check(lane, seq);
    if let (Some(log), Some(a), 0) = (cx.spans, call.0, seq % SAMPLE) {
        let req = Req::Msg {
            lane: lane as u32,
            seq,
        };
        log.record(log.new_id(), 0, "core.try_recv", a, at, req);
    }
    cx.delivered[lane].fetch_add(1, Relaxed);
    cx.delivered_total.fetch_add(1, Relaxed);
    if seq == 0 {
        return; // warm-up
    }
    let at_ns = cx.ns(at);
    t.lat_ns
        .push(at_ns.saturating_sub(sent_ns).min(u64::from(u32::MAX)) as u32);
    t.msgs += 1;
    t.bytes += body.len() as u64;
    t.last_delivery = Some(at);
    if let Some(r0) = d.resumed_at.take() {
        t.resume_ms.push(at.duration_since(r0).as_secs_f64() * 1e3);
    }
}

/// One visit of a rank: receive, send what credit allows, hit the poll
/// point. Returns (progressed, migration requested).
fn step(d: &mut Drive, cx: &Ctx, t: &mut Tally) -> (bool, bool) {
    let Some(mut p) = d.p.take() else {
        return (false, false);
    };
    let mut progressed = false;
    let tracing = cx.spans.is_some();
    for _ in 0..RECV_BATCH {
        let a = if tracing {
            t.layer.backlog.record(p.cell().inbox_backlog());
            Some(Instant::now())
        } else {
            None
        };
        let got = p.try_recv(None, Some(TAG));
        let b = Instant::now();
        if let Some(a) = a {
            t.layer.try_recv_calls += 1;
            t.layer.try_recv_ns += (b - a).as_nanos() as u64;
        }
        match got {
            Ok(Some((src, _tag, body))) => {
                if tracing {
                    t.layer.try_recv_hits += 1;
                    t.layer.rml.record(p.rml_len());
                }
                deliver(d, src, &body, (a, b), cx, t);
                progressed = true;
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("rank {}: try_recv failed: {e}", d.rank);
                t.failed += 1;
                break;
            }
        }
    }
    let limit = cx.limit.load(Relaxed);
    for (k, &(dst, lane)) in d.out.iter().enumerate() {
        while d.sent[k] < limit
            && d.sent[k].saturating_sub(cx.delivered[lane].load(Relaxed)) < WINDOW
        {
            let seq = d.sent[k];
            let mut buf = vec![0u8; cx.inp.size(lane, seq)];
            let a = Instant::now();
            buf[..8].copy_from_slice(&seq.to_le_bytes());
            buf[8..16].copy_from_slice(&cx.ns(a).to_le_bytes());
            buf[16..20].copy_from_slice(&(d.rank as u32).to_le_bytes());
            buf[20..24].copy_from_slice(&(dst as u32).to_le_bytes());
            let payload = Bytes::from(buf);
            let sent = p.try_send(dst, TAG, &payload);
            if tracing {
                t.layer.try_send_calls += 1;
                t.layer.try_send_ns += a.elapsed().as_nanos() as u64;
                t.layer.try_send_ready += u64::from(matches!(sent, Ok(true)));
            }
            match sent {
                Ok(true) => {
                    d.sent[k] += 1;
                    t.offered += 1;
                    progressed = true;
                    if let (Some(log), 0) = (cx.spans, seq % SAMPLE) {
                        let b = Instant::now();
                        let req = Req::Msg {
                            lane: lane as u32,
                            seq,
                        };
                        log.record(log.new_id(), 0, "core.try_send", a, b, req);
                        if let Some(ns) = shadow::frame_roundtrip_ns(&payload) {
                            t.layer.frame_ns += ns;
                            t.layer.frame_bytes += payload.len() as u64;
                        }
                    }
                }
                Ok(false) => break, // connection still opening
                Err(e) => {
                    eprintln!("rank {}: try_send to {dst} failed: {e}", d.rank);
                    t.failed += 1;
                    break;
                }
            }
        }
    }
    let pending = p.poll_point().unwrap_or_else(|e| {
        eprintln!("rank {}: poll point failed: {e}", d.rank);
        t.failed += 1;
        false
    });
    d.p = Some(p);
    (progressed, pending)
}

/// A pool thread: step its ranks until told to stop, lending a rank to
/// the main thread on request and taking it back afterwards.
fn pool(
    cx: &Ctx,
    mut mine: Vec<Drive>,
    lend: mpsc::Sender<Drive>,
    back: mpsc::Receiver<Drive>,
) -> (Vec<Drive>, Tally) {
    let mut t = Tally::default();
    while !cx.stop.load(Relaxed) {
        while let Ok(d) = back.try_recv() {
            mine.push(d);
        }
        let want = cx.isolate.load(Relaxed);
        if want != NONE {
            if let Some(i) = mine.iter().position(|d| d.rank == want) {
                cx.isolate.store(NONE, Relaxed);
                lend.send(mine.swap_remove(i))
                    .expect("the main thread waits for the lent rank");
            }
        }
        let mut progressed = false;
        for d in &mut mine {
            progressed |= step(d, cx, &mut t).0;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    (mine, t)
}

/// The state a migrating rank carries: its rank, padded to
/// [`STATE_BYTES`].
fn victim_state(rank: usize) -> ProcessState {
    let mut state = ProcessState::new(
        ExecState::at_entry().with_local("rank", Value::U64(rank as u64)),
        MemoryGraph::new(),
    );
    state.pad_to(STATE_BYTES);
    state
}

/// Migrate the rank `d` (lent to this thread) to the `k`-th
/// destination, exactly as `Computation::migrate` does — request, then
/// wait for the commit — while stepping the victim until its poll point
/// fires.
fn migrate_one(
    comp: &Computation,
    cx: &Ctx,
    k: usize,
    d: &mut Drive,
    t: &mut Tally,
    handoff: &mpsc::Receiver<Handoff>,
) -> Option<MigSample> {
    let victim = d.rank;
    let dest = comp.hosts()[cx.inp.dest_hosts[k]];
    let t0 = Instant::now();
    if let Err(e) = comp.migrate_async(victim, dest) {
        eprintln!("migration {k}: request refused: {e}");
        t.failed += 1;
        return None;
    }
    loop {
        let (progressed, pending) = step(d, cx, t);
        if pending {
            break;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    let t1 = Instant::now();
    let state = victim_state(victim);
    let t2 = Instant::now();
    let p = d.p.take().expect("a lent rank is live");
    let old = p.vmid();
    let timings = match p.migrate(&state) {
        Ok(MigrationOutcome::Completed(tm)) => tm,
        Ok(MigrationOutcome::Aborted(a)) => {
            eprintln!("migration {k}: aborted: {}", a.reason);
            t.failed += 1;
            d.p = Some(a.process);
            let _ = comp.wait_migration_done(victim);
            return None;
        }
        Err(e) => fatal(&format!("migration {k}: protocol error: {e}")),
    };
    let t3 = Instant::now();
    // The source incarnation is gone: retire it (or let its parked
    // thread return, which retires it).
    match d.release.take() {
        Some(release) => drop(release),
        None => comp.vm().retire(old),
    }
    if let Err(e) = comp.wait_migration_done(victim) {
        eprintln!("migration {k}: commit failed: {e}");
        t.failed += 1;
    }
    let t4 = Instant::now();
    let (p, release) = handoff
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| fatal(&format!("migration {k}: resumed rank never arrived")));
    d.p = Some(p);
    d.release = Some(release);
    d.resumed_at = Some(t4);
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    if let Some(log) = cx.spans {
        record_migration(log, k, [t0, t1, t2, t3, t4]);
    }
    Some(MigSample {
        total_ms: ms(t0, t4),
        order_ms: ms(t0, t1),
        checkpoint_ms: ms(t1, t2),
        core_ms: ms(t2, t3),
        commit_ms: ms(t3, t4),
        coordinate_ms: timings.coordinate_real_s * 1e3,
        rml_forwarded: timings.rml_forwarded as f64,
    })
}

/// Run the pool until `target` messages have been delivered in total,
/// with migrations as `plan` says (`None`: none in this phase).
fn run_phase(
    comp: &Computation,
    cx: &Ctx,
    drives: Vec<Drive>,
    workers: usize,
    target: u64,
    plan: Option<Migrations>,
    handoff: &mpsc::Receiver<Handoff>,
) -> (Vec<Drive>, Tally, Vec<MigSample>) {
    let workers = if plan.is_some() { 1 } else { workers.max(1) };
    let mut parts: Vec<Vec<Drive>> = (0..workers).map(|_| Vec::new()).collect();
    for d in drives {
        parts[d.rank % workers].push(d);
    }
    cx.stop.store(false, Relaxed);
    let (lend_tx, lend_rx) = mpsc::channel();
    let mut backs = Vec::new();
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let mut drives = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                let (back_tx, back_rx) = mpsc::channel();
                backs.push(back_tx);
                let lend = lend_tx.clone();
                s.spawn(move || pool(cx, part, lend, back_rx))
            })
            .collect();
        let mut borrow_and_migrate = |k: usize| {
            cx.isolate.store(cx.inp.victims[k], Relaxed);
            let mut d = lend_rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| fatal("the pool never lent the victim"));
            samples.extend(migrate_one(comp, cx, k, &mut d, &mut tally, handoff));
            backs[0].send(d).expect("pool takes the rank back");
        };
        match plan {
            Some(Migrations::DuringFlood) => {
                let mut k = 0;
                while cx.delivered_total.load(Relaxed) < target && k < cx.inp.victims.len() {
                    borrow_and_migrate(k);
                    let lanes = cx.inp.incident_lanes(cx.inp.victims[k]);
                    let before: Vec<u64> = lanes
                        .iter()
                        .map(|&l| cx.delivered[l].load(Relaxed))
                        .collect();
                    while cx.delivered_total.load(Relaxed) < target
                        && lanes
                            .iter()
                            .zip(&before)
                            .any(|(&l, &b)| cx.delivered[l].load(Relaxed) == b)
                    {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    k += 1;
                    std::thread::sleep(GAP);
                }
            }
            Some(Migrations::AfterFlood(n)) => (0..n).for_each(&mut borrow_and_migrate),
            None => {}
        }
        while cx.delivered_total.load(Relaxed) < target {
            std::thread::sleep(Duration::from_millis(1));
        }
        cx.stop.store(true, Relaxed);
        for h in handles {
            let (part, t) = h.join().expect("pool thread panicked");
            drives.extend(part);
            tally.merge(t);
        }
    });
    (drives, tally, samples)
}

/// One job: build, launch and warm up a computation (set-up), flood,
/// migrate, check every lane, tear down.
pub fn run_job(cfg: &FloodCfg, inp: &FloodInputs, spans: Option<&SpanLog>, epoch: Instant) -> Job {
    let t_setup = Instant::now();
    let mut builder = Computation::builder()
        .hosts(HostSpec::ideal(), HOSTS)
        .time_scale(TimeScale::ZERO);
    if cfg.net == Net::Tcp {
        builder = builder.transport(Arc::new(TcpTransport::new()));
    }
    let comp = builder.build();
    let placement: Vec<_> = (0..cfg.ranks).map(|r| comp.hosts()[r % HOSTS]).collect();
    let (handoff_tx, handoff_rx) = mpsc::channel::<Handoff>();
    let t_launch = Instant::now();
    // A resumed incarnation is handed back to the pool; its
    // scheduler-owned thread parks until the pool is done with it.
    let procs = comp.launch_cooperative(&placement, move |p, _start| {
        let (release, parked) = mpsc::channel::<()>();
        if handoff_tx.send((p, release)).is_ok() {
            let _ = parked.recv();
        }
    });
    let launch_ms = t_launch.elapsed().as_secs_f64() * 1e3;
    let drives: Vec<Drive> = procs
        .into_iter()
        .enumerate()
        .map(|(rank, p)| {
            let out: Vec<(usize, usize)> = inp.peers[rank]
                .iter()
                .map(|&dst| (dst, inp.lane(rank, dst).expect("peer has a lane")))
                .collect();
            Drive {
                rank,
                p: Some(p),
                release: None,
                sent: vec![0; out.len()],
                out,
                checker: LaneChecker::new(inp.lanes),
                resumed_at: None,
            }
        })
        .collect();
    let cx = Ctx {
        inp,
        epoch,
        delivered: (0..inp.lanes).map(|_| AtomicU64::new(0)).collect(),
        delivered_total: AtomicU64::new(0),
        limit: AtomicU64::new(1),
        isolate: AtomicUsize::new(NONE),
        stop: AtomicBool::new(false),
        spans,
    };
    let lanes = inp.lanes as u64;

    // Warm-up: one message per lane opens every connection.
    let (drives, mut tally, _) =
        run_phase(&comp, &cx, drives, cfg.workers, lanes, None, &handoff_rx);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let limit = 1 + cfg.quota;
    cx.limit.store(limit, Relaxed);
    let t_window = Instant::now();
    let during = matches!(cfg.migrations, Migrations::DuringFlood).then_some(cfg.migrations);
    let (drives, t, mut migrations) = run_phase(
        &comp,
        &cx,
        drives,
        cfg.workers,
        lanes * limit,
        during,
        &handoff_rx,
    );
    tally.merge(t);
    let window_s = tally
        .last_delivery
        .map_or(0.0, |l| l.saturating_duration_since(t_window).as_secs_f64());
    let mut drives = drives;
    if let Migrations::AfterFlood(_) = cfg.migrations {
        let (d, t, m) = run_phase(
            &comp,
            &cx,
            drives,
            1,
            lanes * limit,
            Some(cfg.migrations),
            &handoff_rx,
        );
        drives = d;
        tally.merge(t);
        migrations.extend(m);
    }

    // Every lane delivered all it offered, in order; then tear down.
    let mut failed = tally.failed;
    for d in &mut drives {
        for src in 0..cfg.ranks {
            if let Some(lane) = inp.lane(src, d.rank) {
                d.checker.check_complete(lane, limit);
            }
        }
        failed += d.checker.violations();
        if let Some(p) = d.p.take() {
            let vmid = p.vmid();
            p.finish();
            if d.release.take().is_none() {
                comp.vm().retire(vmid);
            }
        }
    }
    drop(drives);
    while let Ok((p, _release)) = handoff_rx.try_recv() {
        p.finish();
    }
    comp.join_init_processes();
    let solve_s = t_launch.elapsed().as_secs_f64();
    comp.shutdown();

    let mut job = Job {
        setup_s,
        solve_s,
        launch_ms,
        msgs: tally.msgs,
        bytes: tally.bytes,
        window_s,
        attempted: tally.offered + migrations.len() as u64,
        failed,
        resume_ms: tally.resume_ms,
        layer: tally.layer,
        migrations,
        ..Job::default()
    };
    job.set_latency(tally.lat_ns);
    if spans.is_some() {
        match shadow::state_roundtrip(&victim_state(0), 5) {
            Ok(s) => job.state = s,
            Err(e) => {
                eprintln!("state shadow: {e}");
                job.failed += 1;
            }
        }
    }
    job
}
