//! perfbench — the SNOW stack's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flood_inproc|flood_tcp|mg_migrate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats one fixed job (launch a computation, drive it through
//! the public API, check every output, tear it down) until `--seconds`
//! have passed, and prints one JSON line last: the end-to-end metrics
//! with `--trace 0`, taken over the jobs the hypervisor did not disturb
//! (see [`CLEAN_STEAL_PCT`]), or the per-layer metrics with `--trace 1`. A
//! traced run first repeats the untraced run for half the time, so it
//! can report what tracing costs, then traces the other half. Spans go
//! to `perfbench/spans/`, a per-layer summary to standard error.

mod flood;
mod inputs;
mod lanes;
mod mg;
mod report;
mod shadow;
mod spans;
mod stats;

use flood::FloodCfg;
use inputs::FloodInputs;
use report::{Job, Outcome, END_TO_END, PER_LAYER};
use spans::SpanLog;
use std::path::Path;
use std::time::{Duration, Instant};

/// No run may take longer than this, build excluded.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Print `msg` and end the process with a failure code (no result line).
pub fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(3)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    FloodInproc,
    FloodTcp,
    MgMigrate,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = match get("--workload")?.as_str() {
        "flood_inproc" => Workload::FloodInproc,
        "flood_tcp" => Workload::FloodTcp,
        "mg_migrate" => Workload::MgMigrate,
        w => return Err(format!("unknown workload {w}")),
    };
    let num = |s: String, flag: &str| s.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seconds = num(get("--seconds")?, "--seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num(get("--seed")?, "--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// One workload's jobs and their generated inputs.
enum Plan {
    Flood(FloodCfg, FloodInputs),
    Mg {
        cfg: snow_mg::MgConfig,
        plan: Vec<(usize, usize)>,
        reference: Vec<Vec<f64>>,
    },
}

impl Plan {
    fn new(w: Workload, seed: u64) -> Plan {
        // Rank-driving threads: never more than the cores, at most two.
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let flood = |cfg: FloodCfg| {
            let inp = FloodInputs::generate(
                seed,
                cfg.ranks,
                flood::HOSTS,
                flood::DEGREE,
                &cfg.sizes,
                cfg.max_migrations(),
            );
            Plan::Flood(cfg, inp)
        };
        match w {
            Workload::FloodInproc => flood(FloodCfg::inproc(workers)),
            Workload::FloodTcp => flood(FloodCfg::tcp(workers)),
            Workload::MgMigrate => {
                let cfg = mg::config();
                let reference = mg::run_raw_mg(&cfg)
                    .unwrap_or_else(|e| fatal(&format!("raw MG reference failed: {e}")));
                Plan::Mg {
                    plan: inputs::mg_plan(seed, cfg.nprocs, mg::SPARES, mg::MIGRATIONS),
                    cfg,
                    reference,
                }
            }
        }
    }

    /// Jobs a run makes at least, so set-up time has a median.
    fn min_jobs(&self) -> usize {
        3
    }

    /// Undisturbed jobs the end-to-end metrics need: enough for 100
    /// migrations, so a p90 can be reported.
    fn min_clean(&self) -> usize {
        match self {
            Plan::Flood(..) => 3,
            Plan::Mg { .. } => 1,
        }
    }

    fn job(&self, spans: Option<&SpanLog>, epoch: Instant) -> Job {
        match self {
            Plan::Flood(cfg, inp) => flood::run_job(cfg, inp, spans, epoch),
            Plan::Mg {
                cfg,
                plan,
                reference,
            } => mg::run_job(cfg, plan, reference, spans, epoch),
        }
    }

    /// The figure tracing overhead is judged on, and whether higher is
    /// better.
    fn headline(&self, jobs: &[Job]) -> (f64, bool) {
        let v = |f: fn(&Job) -> f64| stats::median(&jobs.iter().map(f).collect::<Vec<_>>());
        match self {
            Plan::Flood(..) => (v(|j| j.msgs as f64 / j.window_s).unwrap_or(0.0), true),
            Plan::Mg { .. } => (v(|j| j.solve_s).unwrap_or(0.0), false),
        }
    }
}

/// A job during which the hypervisor gave less than this share of the
/// machine's CPU time (%) to other guests counts as undisturbed. On a
/// shared host, steal episodes last tens of seconds and slow whole
/// jobs by tens of percent, which says nothing about the program.
const CLEAN_STEAL_PCT: f64 = 3.0;

fn undisturbed(job: &&Job) -> bool {
    job.steal_pct < CLEAN_STEAL_PCT
}

/// Repeat jobs for `seconds`, and for up to half as long again while
/// fewer than [`Plan::min_clean`] jobs ran undisturbed. With a span
/// log, derive each job's traced figures from its spans and keep the
/// spans in `kept`.
fn run_jobs(
    plan: &Plan,
    seconds: f64,
    log: Option<&SpanLog>,
    kept: &mut Vec<spans::Span>,
) -> Vec<Job> {
    let t0 = Instant::now();
    let mut jobs = Vec::new();
    let wanting = |jobs: &[Job]| {
        let t = t0.elapsed().as_secs_f64();
        jobs.len() < plan.min_jobs()
            || t < seconds
            || (jobs.iter().filter(undisturbed).count() < plan.min_clean() && t < 1.5 * seconds)
    };
    while wanting(&jobs) {
        let cpu0 = cpu_jiffies();
        let mut job = plan.job(log, t0);
        let cpu1 = cpu_jiffies();
        if let Some(log) = log {
            let s = log.take();
            derive_from_spans(&mut job, &s);
            kept.extend(s);
        }
        // Time the hypervisor gave other guests: a high share slows
        // every figure of this job without any change in the program.
        job.steal_pct = 100.0 * (cpu1.0 - cpu0.0) as f64 / (cpu1.1 - cpu0.1).max(1) as f64;
        eprintln!(
            "job {}: setup {:.3} s, solve {:.3} s, {} msgs in {:.3} s (p99 {:.0} us), \
             {} migrations, {} failed, cpu steal {:.1}%",
            jobs.len(),
            job.setup_s,
            job.solve_s,
            job.msgs,
            job.window_s,
            job.msg_p99_us.unwrap_or(0.0),
            job.migrations.len(),
            job.failed,
            job.steal_pct
        );
        jobs.push(job);
    }
    jobs
}

/// (steal, all) CPU jiffies of the machine so far, from `/proc/stat`;
/// zeros where that is not available.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Message transit times, migration self times and reconciliation.
fn derive_from_spans(job: &mut Job, s: &[spans::Span]) {
    let sent: std::collections::HashMap<spans::Req, u64> = s
        .iter()
        .filter(|x| x.name == "core.try_send")
        .map(|x| (x.req, x.end_ns))
        .collect();
    job.transit_us = s
        .iter()
        .filter(|x| x.name == "core.try_recv")
        .filter_map(|x| {
            sent.get(&x.req)
                .map(|&e| x.end_ns.saturating_sub(e) as f64 / 1e3)
        })
        .collect();
    let self_ns = spans::self_times(s);
    job.migrate_self_ms = self_ns
        .get("sched.migrate")
        .map(|v| v.iter().map(|&n| n as f64 / 1e6).collect())
        .unwrap_or_default();
    job.reconcile_pct = spans::reconcile(s);
}

fn summarize(s: &[spans::Span], reconcile: &[f64]) {
    eprintln!("{:<18} {:>9} {:>14}", "span", "count", "self p50 (us)");
    for (name, v) in spans::self_times(s) {
        let us: Vec<f64> = v.iter().map(|&n| n as f64 / 1e3).collect();
        let p50 = stats::median(&us).unwrap_or(0.0);
        eprintln!("{name:<18} {:>9} {p50:>14.1}", v.len());
    }
    let worst = reconcile.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "{} migrations; segments cover each wall time to within {worst:.3}%",
        reconcile.len()
    );
}

/// The jobs the end-to-end metrics are taken over: the undisturbed
/// ones if there are enough, else the half (rounded up) with the least
/// steal.
fn least_disturbed(jobs: &[Job], min_clean: usize) -> Vec<Job> {
    let clean: Vec<Job> = jobs.iter().filter(undisturbed).cloned().collect();
    if clean.len() >= min_clean {
        return clean;
    }
    eprintln!("too few undisturbed jobs: using the least-disturbed half");
    let mut by_steal: Vec<&Job> = jobs.iter().collect();
    by_steal.sort_by(|a, b| a.steal_pct.total_cmp(&b.steal_pct));
    by_steal.truncate(jobs.len().div_ceil(2));
    by_steal.into_iter().cloned().collect()
}

fn run(args: &Args) -> Outcome {
    let plan = Plan::new(args.workload, args.seed);
    let mut kept = Vec::new();
    // With a traced run, a migration whose segments do not add up to
    // its wall time fails the run.
    let (jobs, metrics, unreconciled) = if !args.trace {
        let jobs = run_jobs(&plan, args.seconds, None, &mut kept);
        let metrics = report::end_to_end(
            &least_disturbed(&jobs, plan.min_clean()),
            report::rss_peak_mb(),
        )
        .unwrap_or_else(|e| fatal(&e));
        (jobs, metrics, 0)
    } else {
        let half = args.seconds / 2.0;
        let mut jobs = run_jobs(&plan, half, None, &mut kept);
        let log = SpanLog::new(Instant::now());
        let traced = run_jobs(&plan, half, Some(&log), &mut kept);
        let (base, higher_better) = plan.headline(&jobs);
        let (with, _) = plan.headline(&traced);
        let overhead = if higher_better {
            (base - with) / base * 100.0
        } else {
            (with - base) / base * 100.0
        };
        let reconcile: Vec<f64> = traced
            .iter()
            .flat_map(|j| j.reconcile_pct.clone())
            .collect();
        summarize(&kept, &reconcile);
        let name = format!("{:?}-seed{}.tsv", args.workload, args.seed).to_lowercase();
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(name);
        if let Err(e) = spans::write_tsv(&path, &kept) {
            eprintln!("could not write spans: {e}");
        }
        let metrics = report::per_layer(&traced, overhead);
        jobs.extend(traced);
        let unreconciled = reconcile.iter().filter(|&&p| p >= 5.0).count() as u64;
        (jobs, metrics, unreconciled)
    };
    let attempted = jobs.iter().map(|j| j.attempted).sum();
    let failed = jobs.iter().map(|j| j.failed).sum::<u64>() + unreconciled;
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload <flood_inproc|flood_tcp|mg_migrate> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2)
    });
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        fatal("run exceeded its time limit");
    });
    let outcome = run(&args);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report::render(&outcome, table));
    if !outcome.correct {
        eprintln!(
            "perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn metrics_skip_jobs_the_hypervisor_disturbed() {
        let jobs = |steal: &[f64]| -> Vec<Job> {
            steal
                .iter()
                .map(|&s| Job {
                    steal_pct: s,
                    ..Job::default()
                })
                .collect()
        };
        let pick = |steal: &[f64], min_clean| -> Vec<f64> {
            least_disturbed(&jobs(steal), min_clean)
                .iter()
                .map(|j| j.steal_pct)
                .collect()
        };
        assert_eq!(pick(&[0.5, 5.0, 1.0, 10.0, 2.0], 3), vec![0.5, 1.0, 2.0]);
        // Too few undisturbed jobs: the least-disturbed half.
        assert_eq!(pick(&[5.0, 10.0, 1.0], 3), vec![1.0, 5.0]);
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload flood_tcp --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::FloodTcp);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload mg_migrate --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload mg_migrate --seed 1 --trace 0")).is_err());
    }
}
