//! `snow-bench workload` — open-loop soak under migration plus the §7
//! ablation, emitting the schema'd `BENCH_workload.json` baseline.
//!
//! The soak offers seeded Poisson traffic with bounded-Pareto sizes and
//! Zipf fan-in while migrations fire mid-stream; service latency is
//! measured from the *scheduled* arrival time and sliced by migration
//! phase (pre/during/post), so the pause shows up as a tail-latency
//! delta instead of a throughput dip (see `snow_bench::workload`). The
//! same generated schedules then drive the three `snow-baselines`
//! mini-systems into the quantified §7 ablation table.
//!
//! `--smoke` shrinks the soak for CI; `--transport inproc,tcp` sweeps
//! both backends into one document; `--twice` runs the inproc soak a
//! second time and fails unless the delivery digests match (seeded
//! determinism); `--validate FILE` schema-checks an existing document;
//! `--gate FILE --baseline FILE` regression-gates a fresh run against
//! the committed baseline (the CI `workload-smoke` gate).
//!
//! Usage:
//!   cargo run -p snow-bench --release --bin workload
//!   cargo run -p snow-bench --release --bin workload -- --ranks 256 --smoke --twice
//!   cargo run -p snow-bench --release --bin workload -- --transport inproc,tcp --out BENCH_workload.json
//!   cargo run -p snow-bench --bin workload -- --validate BENCH_workload.json
//!   cargo run -p snow-bench --bin workload -- --gate BENCH_run.json --baseline BENCH_workload.json

use snow_bench::schema::{emit_document, DocCli, TransportKind};
use snow_bench::workload::{
    run_ablation, run_workload, sections, validate_document, AblationConfig, SoakConfig,
    WorkloadRecord, LATENCY_GATES, SCHEMA,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: workload [--ranks N] [--smoke] [--seed S] [--duration-ms MS] [--twice]\n\
         \x20      [--transport inproc|tcp[,...]] [--out FILE]\n\
         \x20      [--validate FILE]\n\
         \x20      [--gate FILE --baseline FILE [--min-throughput-ratio R] [--max-latency-ratio R]]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut ranks = 256usize;
    let mut smoke = false;
    let mut seed: Option<u64> = None;
    let mut duration_ms: Option<u64> = None;
    let mut twice = false;
    let mut out = PathBuf::from("BENCH_workload.json");
    let mut doc_cli = DocCli::default();
    let mut transports: Vec<TransportKind> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ranks" => {
                ranks = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 4)
                    .unwrap_or_else(|| usage());
            }
            "--smoke" => smoke = true,
            "--twice" => twice = true,
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--duration-ms" => {
                duration_ms = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&d| d > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--transport" => {
                let spec = args.next().unwrap_or_else(|| usage());
                for part in spec.split(',') {
                    transports.push(TransportKind::parse(part.trim()).unwrap_or_else(|| usage()));
                }
            }
            "--out" => out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            flag => {
                if !doc_cli.take_flag(flag, &mut args) {
                    usage()
                }
            }
        }
    }

    if let Some(code) = doc_cli.run("workload", validate_document, LATENCY_GATES) {
        return code;
    }

    let explicit_transports = !transports.is_empty();
    if transports.is_empty() {
        transports = vec![TransportKind::InProc, TransportKind::Tcp];
    }

    let mut records: Vec<WorkloadRecord> = Vec::new();
    for &transport in &transports {
        let mut cfg = if smoke {
            SoakConfig::smoke(ranks)
        } else {
            SoakConfig::standard(ranks)
        };
        cfg.transport = transport;
        if let Some(s) = seed {
            cfg.gen.seed = s;
        }
        if let Some(d) = duration_ms {
            cfg.duration_ms = d;
        }
        eprintln!(
            "workload: open-loop soak ranks={ranks} transport={} rate={:.0}/s dur={} ms seed={}",
            transport.as_str(),
            cfg.gen.rate_hz,
            cfg.duration_ms,
            cfg.gen.seed
        );
        let rec = run_workload(&cfg);
        eprintln!(
            "workload:   {} msgs  {:.0}/s  pre p50 {:.1} us  during p99 {:.1} us  \
             post p50 {:.1} us  pause {:.1} ms  digest {}",
            rec.msgs,
            rec.msgs_per_sec,
            rec.pre.p50_us,
            rec.during.p99_us,
            rec.post.p50_us,
            rec.pause_ms,
            rec.digest
        );
        if rec.audit_clean == Some(false) {
            eprintln!("workload: §4 AUDIT VIOLATION — not emitting a dirty baseline");
            return ExitCode::FAILURE;
        }
        if rec.migration_aborted {
            eprintln!("workload: migration aborted even after the retry");
        }
        if twice && transport == TransportKind::InProc {
            eprintln!("workload: replaying the soak to check seeded determinism");
            let again = run_workload(&cfg);
            if again.digest != rec.digest {
                eprintln!(
                    "workload: REPLAY DIVERGED: {} vs {}",
                    rec.digest, again.digest
                );
                return ExitCode::FAILURE;
            }
            eprintln!("workload:   replay digest matches ({})", rec.digest);
        }
        records.push(rec);
    }

    let abl_cfg = if smoke {
        AblationConfig::smoke(seed.unwrap_or(42))
    } else {
        AblationConfig::standard(seed.unwrap_or(42))
    };
    eprintln!(
        "workload: §7 ablation procs={} span={} ms rate={:.0}/s",
        abl_cfg.procs, abl_cfg.span_ms, abl_cfg.rate_hz
    );
    let ablation = run_ablation(&abl_cfg);
    for row in &ablation {
        eprintln!(
            "workload:   {:<10} coord={:<4} disturbed={:<3} hops={:.1} blocked={:<4} \
             state={} B  post p99 {}",
            row.strategy,
            row.coordination_msgs,
            row.processes_disturbed,
            row.residual_hops,
            row.blocked_msgs,
            row.state_bytes_moved,
            row.post_p99_us
                .map_or("n/a".into(), |v| format!("{v:.0} us")),
        );
    }

    let doc = emit_document(SCHEMA, smoke, sections(&records, &ablation));
    if let Err(e) = validate_document(&doc) {
        // A deliberately restricted sweep cannot satisfy the
        // both-transports completeness rule; that is fine for ad-hoc
        // runs, but a full (default-sweep) document must validate.
        if explicit_transports && e.contains("no record on transport") {
            eprintln!("workload: note: partial sweep, not a valid committed baseline ({e})");
        } else {
            eprintln!("workload: emitted document fails its own schema: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&out, format!("{doc}\n")) {
        eprintln!("workload: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{}: {} records, {} ablation rows",
        out.display(),
        records.len(),
        ablation.len()
    );
    ExitCode::SUCCESS
}
