//! Open-loop soak integration: a short seeded workload with a migration
//! fired mid-stream, on both transports, audited against the §4
//! guarantees.
//!
//! What each run must show:
//!  - the §4 audit comes back clean (tracing is ON at this scale);
//!  - the during-migration histogram is non-empty — the phase
//!    classifier actually caught deliveries inside the window;
//!  - the post-migration median returns to within tolerance of the
//!    pre-migration median — the pause is a *transient*, not a
//!    permanent tax (this is the paper's core claim vs forwarding);
//!  - the delivered-lane digest is reproducible for the seed.
//!
//! Budgets are deliberately loose: CI machines are noisy, and the
//! precise magnitudes live in `BENCH_workload.json`, gated separately.

use snow_bench::schema::TransportKind;
use snow_bench::workload::{run_workload, GenConfig, SoakConfig, WorkloadRecord};
use snow_net::TimeScale;

fn soak(transport: TransportKind) -> SoakConfig {
    SoakConfig {
        gen: GenConfig {
            seed: 1007,
            ranks: 12,
            rate_hz: 16_000.0,
            pareto_alpha: 1.3,
            min_bytes: 32,
            max_bytes: 2048,
            zipf_theta: 0.8,
        },
        duration_ms: 900,
        hosts: 6,
        workers: 4,
        migrations: 1,
        trace: true,
        transport,
        time_scale: TimeScale::ZERO,
    }
}

fn assert_soak_invariants(rec: &WorkloadRecord) {
    let t = rec.transport;
    assert_eq!(
        rec.audit_clean,
        Some(true),
        "{t}: migration mid-soak left a dirty §4 audit"
    );
    assert!(!rec.migration_aborted, "{t}: migration aborted after retry");
    assert!(rec.msgs > 0);
    assert!(
        rec.pre.count > 0,
        "{t}: no deliveries before the migration window"
    );
    assert!(
        rec.during.count > 0,
        "{t}: the during-migration histogram is empty — the phase \
         classifier missed the window entirely"
    );
    assert!(
        rec.post.count > 0,
        "{t}: no deliveries after the migration window"
    );
    // Recovery: the post-migration median must be in the same regime as
    // the pre-migration one. A forwarding-style residual hop tax would
    // shift every post-migration delivery; a transient pause only
    // stretches the tail.
    let budget = rec.pre.p50_us * 8.0 + 800.0;
    assert!(
        rec.post.p50_us <= budget,
        "{t}: post-migration p50 {:.1} us never recovered \
         (pre p50 {:.1} us, budget {:.1} us)",
        rec.post.p50_us,
        rec.pre.p50_us,
        budget
    );
    // The traced pause window must exist and be sane.
    let pause = rec
        .pause_trace_ms
        .expect("traced run must derive the migration window");
    assert!(
        (0.0..5_000.0).contains(&pause),
        "{t}: trace-derived pause {pause} ms is implausible"
    );
}

#[test]
fn open_loop_soak_with_migration_inproc() {
    let rec = run_workload(&soak(TransportKind::InProc));
    assert_soak_invariants(&rec);
}

#[test]
fn open_loop_soak_with_migration_tcp() {
    let rec = run_workload(&soak(TransportKind::Tcp));
    assert_soak_invariants(&rec);
}

#[test]
fn soak_digest_is_reproducible_across_transports() {
    // Same seed ⇒ identical delivered lanes, and the digest excludes
    // the transport: the modeled substrate and the framed-TCP backend
    // must deliver the exact same per-lane sequences (§4 zero loss +
    // FIFO), pause or no pause.
    let mut cfg = soak(TransportKind::InProc);
    cfg.gen.seed = 2025;
    cfg.duration_ms = 500;
    let a = run_workload(&cfg);
    let b = run_workload(&cfg);
    assert_eq!(a.digest, b.digest, "inproc replay diverged");
    let mut tcp = cfg;
    tcp.transport = TransportKind::Tcp;
    let c = run_workload(&tcp);
    assert_eq!(a.digest, c.digest, "tcp delivered different lanes");
}
