//! # snow-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation (§6) plus
//! Criterion micro-benchmarks for the ablations. See DESIGN.md for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured records.
//!
//! | target | regenerates |
//! |---|---|
//! | `cargo run -p snow-bench --release --bin table1` | Table 1: MG turnaround, original / modified / migration |
//! | `cargo run -p snow-bench --release --bin table2` | Table 2: heterogeneous migration breakdown |
//! | `cargo run -p snow-bench --release --bin fig10` | Figs 10–12: homogeneous migration space-time diagram + A–D checks |
//! | `cargo run -p snow-bench --release --bin fig13` | Fig 13: heterogeneous migration, captured+forwarded messages |
//! | `cargo run -p snow-bench --release --bin ablation` | §7 comparison table (SNOW vs forwarding vs broadcast vs CoCheck) |
//! | `cargo run -p snow-bench --bin audit -- --dir target/audit-logs` | offline §4-guarantee audit of exported event logs |
//! | `cargo run -p snow-bench --release --bin scale` | BENCH_scale.json: flood + migration-under-load at 256/1k/5k ranks |
//! | `cargo run -p snow-bench --release --bin workload` | BENCH_workload.json: open-loop soak with phase-sliced latency + quantified §7 ablation under load |
//! | `cargo bench -p snow-bench` | overhead (A3), state transfer (A4), migration cost vs peers (A2), baseline costs (A1), post-office path |
//!
//! | module | holds |
//! |---|---|
//! | [`pool`] | the pooled cooperative rank runtime the `scale` ring and the `workload` soak run on |
//! | [`schema`] | the document schema/gate frame both `BENCH_*.json` documents share, and their `--validate`/`--gate` CLI |
//! | [`scale`] | flood + migration-under-load scenarios and the `snow-bench-scale/v1` record |
//! | [`workload`] | open-loop soak, §7 ablation and the `snow-bench-workload/v1` record |
//! | [`chaos`] | seeded fault-injection scenarios |
//! | [`hist`] | the log-bucketed latency histogram |

pub mod chaos;
pub mod hist;
pub mod pool;
pub mod scale;
pub mod schema;
pub mod workload;

use snow_core::{Computation, MigrationTimings};
use snow_mg::{mg_app_instrumented, MgConfig, MgResult, RawNetwork};
use snow_net::TimeScale;
use snow_trace::Tracer;
use snow_vm::HostSpec;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Outcome of one distributed MG run over the SNOW protocol.
pub struct SnowMgRun {
    /// Wall-clock turnaround of the whole computation.
    pub wall_s: f64,
    /// Per-rank results (residuals, slabs, comm stats).
    pub results: HashMap<usize, MgResult>,
    /// Timings of any migrations performed.
    pub migrations: Vec<MigrationTimings>,
}

/// Run kernel MG over SNOW on `spec` hosts. When `migrate` is set, rank
/// 0 is migrated to a spare host (request fired immediately; the poll
/// point honours `cfg.min_migrate_iter`).
pub fn run_snow_mg(
    cfg: MgConfig,
    spec: HostSpec,
    scale: TimeScale,
    migrate: bool,
    tracer: Arc<Tracer>,
) -> SnowMgRun {
    let results = Arc::new(Mutex::new(HashMap::new()));
    let timings = Arc::new(Mutex::new(Vec::new()));
    let comp = Computation::builder()
        .hosts(spec, cfg.nprocs + 2)
        .time_scale(scale)
        .tracer(tracer)
        .build();
    let spare = comp.hosts()[cfg.nprocs + 1];
    let t0 = Instant::now();
    let handles = comp.launch(
        cfg.nprocs,
        mg_app_instrumented(cfg, Arc::clone(&results), Arc::clone(&timings)),
    );
    if migrate {
        comp.migrate(0, spare).expect("migration commits");
    }
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
    let wall_s = t0.elapsed().as_secs_f64();
    let results = results.lock().unwrap().clone();
    let migrations = timings.lock().unwrap().clone();
    SnowMgRun {
        wall_s,
        results,
        migrations,
    }
}

/// Run kernel MG on raw pre-wired channels (the Table 1 "original"
/// program). Returns (wall seconds, per-rank results).
pub fn run_raw_mg(cfg: MgConfig) -> (f64, Vec<MgResult>) {
    let comms = RawNetwork::new(cfg.nprocs);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for mut c in comms {
        handles.push(std::thread::spawn(move || {
            match snow_mg::run_mg(&mut c, &cfg, None).unwrap() {
                snow_mg::MgOutcome::Finished(r) => r,
                snow_mg::MgOutcome::Migrate(_) => unreachable!(),
            }
        }));
    }
    let results: Vec<MgResult> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    (t0.elapsed().as_secs_f64(), results)
}

/// Mean communication seconds across ranks.
pub fn mean_comm_s(results: impl IntoIterator<Item = snow_mg::CommStats>) -> f64 {
    let v: Vec<f64> = results.into_iter().map(|s| s.comm_seconds).collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_small_mg_both_ways() {
        let cfg = MgConfig::small(2);
        let (wall, raw) = run_raw_mg(cfg);
        assert!(wall > 0.0);
        assert_eq!(raw.len(), 2);
        let run = run_snow_mg(
            cfg,
            HostSpec::ideal(),
            TimeScale::ZERO,
            true,
            Tracer::disabled(),
        );
        assert_eq!(run.results.len(), 2);
        assert_eq!(run.migrations.len(), 1);
        // Identical numerics between backends.
        assert_eq!(run.results[&0].residuals, raw[0].residuals);
    }
}
