//! Metric tables, the per-layer accumulator and the result line.

use crate::stats::{median, sorted, tail, CountHist};
use std::collections::BTreeMap;

/// End-to-end metrics (untraced run), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("msgs_per_s", "msg/s"),
    ("bytes_per_s", "B/s"),
    ("msg_p50_us", "us"),
    ("msg_p99_us", "us"),
    ("migrate_p50_ms", "ms"),
    ("migrate_p90_ms", "ms"),
    ("solve_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics (traced run), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.try_send.calls", "count"),
    ("core.try_send.self_us", "us"),
    ("core.try_send.ready_ratio", "1"),
    ("core.try_recv.calls", "count"),
    ("core.try_recv.self_us", "us"),
    ("core.try_recv.hit_ratio", "1"),
    ("core.send.self_us", "us"),
    ("core.recv.wait_us", "us"),
    ("core.rml.depth_p50", "count"),
    ("core.rml.depth_max", "count"),
    ("core.migrate.self_ms", "ms"),
    ("core.migrate.coordinate_ms", "ms"),
    ("core.migrate.rml_forwarded", "count"),
    ("core.resume_ms", "ms"),
    ("vm.transit_us_p50", "us"),
    ("vm.transit_us_p99", "us"),
    ("vm.inbox_backlog_p50", "count"),
    ("vm.inbox_backlog_max", "count"),
    ("vm.launch_ms", "ms"),
    ("net.frame_ns_per_kib", "ns/KiB"),
    ("sched.order_ms", "ms"),
    ("state.checkpoint_ms", "ms"),
    ("sched.commit_ms", "ms"),
    ("sched.migrate.self_ms", "ms"),
    ("sched.migrate.reconcile_pct", "%"),
    ("state.collect_ms", "ms"),
    ("state.stream_ms", "ms"),
    ("state.restore_ms", "ms"),
    ("state.bytes", "B"),
    ("state.chunks", "count"),
    ("mg.compute_s", "s"),
    ("mg.comm_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// One migration as the benchmark saw it. The four segments are
/// consecutive: order (the `Computation::migrate` call until the
/// victim's poll point fires), checkpoint (building the state),
/// core (`SnowProcess::migrate`), commit (until `Computation::migrate`
/// returns).
#[derive(Debug, Clone, Default)]
pub struct MigSample {
    pub total_ms: f64,
    pub order_ms: f64,
    pub checkpoint_ms: f64,
    pub core_ms: f64,
    pub commit_ms: f64,
    pub coordinate_ms: f64,
    pub rml_forwarded: f64,
}

/// Counters the traced run gathers at each layer boundary.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub try_send_calls: u64,
    pub try_send_ready: u64,
    pub try_send_ns: u64,
    pub try_recv_calls: u64,
    pub try_recv_hits: u64,
    pub try_recv_ns: u64,
    pub send_calls: u64,
    pub send_ns: u64,
    pub recv_calls: u64,
    pub recv_ns: u64,
    pub rml: CountHist,
    pub backlog: CountHist,
    pub frame_ns: u64,
    pub frame_bytes: u64,
}

impl Layer {
    pub fn merge(&mut self, o: &Layer) {
        self.try_send_calls += o.try_send_calls;
        self.try_send_ready += o.try_send_ready;
        self.try_send_ns += o.try_send_ns;
        self.try_recv_calls += o.try_recv_calls;
        self.try_recv_hits += o.try_recv_hits;
        self.try_recv_ns += o.try_recv_ns;
        self.send_calls += o.send_calls;
        self.send_ns += o.send_ns;
        self.recv_calls += o.recv_calls;
        self.recv_ns += o.recv_ns;
        self.rml.merge(&o.rml);
        self.backlog.merge(&o.backlog);
        self.frame_ns += o.frame_ns;
        self.frame_bytes += o.frame_bytes;
    }
}

/// Shadow timings of the state layer on a migrated state.
#[derive(Debug, Clone, Default)]
pub struct StateShadow {
    pub collect_ms: Vec<f64>,
    pub stream_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub bytes: f64,
    pub chunks: f64,
}

/// Everything one job (one computation, set up and torn down) yields.
#[derive(Debug, Clone, Default)]
pub struct Job {
    pub setup_s: f64,
    pub solve_s: f64,
    pub launch_ms: f64,
    /// Messages and payload bytes delivered in the measured window.
    pub msgs: u64,
    pub bytes: u64,
    pub window_s: f64,
    /// Per-message latency, send call to receive return: median and
    /// p99 of this job (µs).
    pub msg_p50_us: Option<f64>,
    pub msg_p99_us: Option<f64>,
    pub migrations: Vec<MigSample>,
    pub resume_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub layer: Layer,
    pub transit_us: Vec<f64>,
    pub state: StateShadow,
    pub reconcile_pct: Vec<f64>,
    pub migrate_self_ms: Vec<f64>,
    /// Share of the machine's CPU time stolen by the hypervisor while
    /// the job ran (%).
    pub steal_pct: f64,
    pub compute_s: Vec<f64>,
    pub comm_s: Vec<f64>,
}

impl Job {
    /// Summarize the per-message latencies (ns) of this job.
    pub fn set_latency(&mut self, lat_ns: Vec<u32>) {
        let us = sorted(lat_ns.into_iter().map(|n| f64::from(n) / 1e3).collect());
        self.msg_p50_us = median(&us);
        self.msg_p99_us = tail(&us, 0.99);
    }
}

/// The result of a run: one JSON line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

fn field<T>(jobs: &[Job], f: impl Fn(&Job) -> T) -> Vec<T> {
    jobs.iter().map(f).collect()
}

fn pooled(jobs: &[Job], f: impl Fn(&Job) -> Vec<f64>) -> Vec<f64> {
    sorted(jobs.iter().flat_map(f).collect())
}

/// The median, or 0 for a layer this workload does not exercise.
fn med0(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// End-to-end metrics over the jobs of an untraced run. Errors name a
/// metric the run could not measure.
pub fn end_to_end(jobs: &[Job], rss_mb: f64) -> Result<BTreeMap<&'static str, f64>, String> {
    let mig = pooled(jobs, |j| j.migrations.iter().map(|m| m.total_ms).collect());
    let per_s = |n: &dyn Fn(&Job) -> u64| {
        median(&field(jobs, |j| n(j) as f64 / j.window_s.max(1e-9))).unwrap_or(0.0)
    };
    let need = |name: &str, v: Option<f64>| v.ok_or(format!("too few samples for {name}"));
    let mut m = BTreeMap::new();
    m.insert(
        "setup_s",
        need("setup_s", median(&field(jobs, |j| j.setup_s)))?,
    );
    m.insert("msgs_per_s", per_s(&|j| j.msgs));
    m.insert("bytes_per_s", per_s(&|j| j.bytes));
    let each = |f: fn(&Job) -> Option<f64>| jobs.iter().map(f).collect::<Option<Vec<f64>>>();
    m.insert(
        "msg_p50_us",
        need(
            "msg_p50_us",
            each(|j| j.msg_p50_us).and_then(|v| median(&v)),
        )?,
    );
    m.insert(
        "msg_p99_us",
        need(
            "msg_p99_us",
            each(|j| j.msg_p99_us).and_then(|v| median(&v)),
        )?,
    );
    m.insert("migrate_p50_ms", need("migrate_p50_ms", median(&mig))?);
    m.insert("migrate_p90_ms", need("migrate_p90_ms", tail(&mig, 0.90))?);
    m.insert(
        "solve_s",
        need("solve_s", median(&field(jobs, |j| j.solve_s)))?,
    );
    m.insert("rss_peak_mb", rss_mb);
    if let Some((k, _)) = m.iter().find(|(_, v)| !v.is_finite() || **v <= 0.0) {
        return Err(format!("{k} is not a positive number"));
    }
    Ok(m)
}

/// Per-layer metrics over the jobs of a traced run; `overhead_pct`
/// compares it with the untraced run of the same seed.
pub fn per_layer(jobs: &[Job], overhead_pct: f64) -> BTreeMap<&'static str, f64> {
    let mut l = Layer::default();
    for j in jobs {
        l.merge(&j.layer);
    }
    let migs: Vec<&MigSample> = jobs.iter().flat_map(|j| &j.migrations).collect();
    let mig = |f: fn(&MigSample) -> f64| med0(&migs.iter().map(|m| f(m)).collect::<Vec<_>>());
    let transit = pooled(jobs, |j| j.transit_us.clone());
    let all = |f: fn(&Job) -> &Vec<f64>| jobs.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let state = |f: fn(&StateShadow) -> &Vec<f64>| {
        med0(
            &jobs
                .iter()
                .flat_map(|j| f(&j.state))
                .copied()
                .collect::<Vec<_>>(),
        )
    };
    let mut m = BTreeMap::new();
    m.insert("core.try_send.calls", l.try_send_calls as f64);
    m.insert(
        "core.try_send.self_us",
        ratio(l.try_send_ns, l.try_send_calls) / 1e3,
    );
    m.insert(
        "core.try_send.ready_ratio",
        ratio(l.try_send_ready, l.try_send_calls),
    );
    m.insert("core.try_recv.calls", l.try_recv_calls as f64);
    m.insert(
        "core.try_recv.self_us",
        ratio(l.try_recv_ns, l.try_recv_calls) / 1e3,
    );
    m.insert(
        "core.try_recv.hit_ratio",
        ratio(l.try_recv_hits, l.try_recv_calls),
    );
    m.insert("core.send.self_us", ratio(l.send_ns, l.send_calls) / 1e3);
    m.insert("core.recv.wait_us", ratio(l.recv_ns, l.recv_calls) / 1e3);
    m.insert("core.rml.depth_p50", l.rml.p50());
    m.insert("core.rml.depth_max", l.rml.max());
    m.insert("core.migrate.self_ms", mig(|m| m.core_ms));
    m.insert("core.migrate.coordinate_ms", mig(|m| m.coordinate_ms));
    m.insert("core.migrate.rml_forwarded", mig(|m| m.rml_forwarded));
    m.insert("core.resume_ms", med0(&all(|j| &j.resume_ms)));
    m.insert("vm.transit_us_p50", med0(&transit));
    m.insert("vm.transit_us_p99", tail(&transit, 0.99).unwrap_or(0.0));
    m.insert("vm.inbox_backlog_p50", l.backlog.p50());
    m.insert("vm.inbox_backlog_max", l.backlog.max());
    m.insert("vm.launch_ms", med0(&field(jobs, |j| j.launch_ms)));
    m.insert(
        "net.frame_ns_per_kib",
        ratio(l.frame_ns * 1024, l.frame_bytes),
    );
    m.insert("sched.order_ms", mig(|m| m.order_ms));
    m.insert("state.checkpoint_ms", mig(|m| m.checkpoint_ms));
    m.insert("sched.commit_ms", mig(|m| m.commit_ms));
    m.insert("sched.migrate.self_ms", med0(&all(|j| &j.migrate_self_ms)));
    m.insert(
        "sched.migrate.reconcile_pct",
        all(|j| &j.reconcile_pct).into_iter().fold(0.0, f64::max),
    );
    m.insert("state.collect_ms", state(|s| &s.collect_ms));
    m.insert("state.stream_ms", state(|s| &s.stream_ms));
    m.insert("state.restore_ms", state(|s| &s.restore_ms));
    m.insert(
        "state.bytes",
        jobs.iter().map(|j| j.state.bytes).fold(0.0, f64::max),
    );
    m.insert(
        "state.chunks",
        jobs.iter().map(|j| j.state.chunks).fold(0.0, f64::max),
    );
    m.insert("mg.compute_s", med0(&all(|j| &j.compute_s)));
    m.insert("mg.comm_s", med0(&all(|j| &j.comm_s)));
    m.insert("trace.overhead_pct", overhead_pct);
    m
}

/// Render the result line: exactly the metrics of `table`, each with
/// its unit.
pub fn render(o: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = o.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn outcome() -> Outcome {
        Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: BTreeMap::from([("setup_s", 0.25)]),
        }
    }

    #[test]
    fn output_carries_every_metric_with_its_unit() {
        for table in [END_TO_END, PER_LAYER] {
            let line = render(&outcome(), table);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
            for (name, unit) in table {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{name} missing");
                let unit_at = line.find(&entry).unwrap();
                let rest = &line[unit_at..];
                assert!(rest.contains(&format!("\"unit\": \"{unit}\"}}")));
            }
            assert_eq!(line.matches("\"value\"").count(), table.len());
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "{name} ({unit}) not declared"
            );
        }
        let declared = BENCHMARK_JSON.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn end_to_end_refuses_unmeasured_tails() {
        let mut job = Job {
            setup_s: 0.1,
            solve_s: 1.0,
            window_s: 1.0,
            msgs: 5,
            bytes: 320,
            ..Job::default()
        };
        job.set_latency(vec![1000; 5]);
        let err = end_to_end(&[job], 10.0).unwrap_err();
        assert!(err.contains("msg_p99_us"), "{err}");
    }
}
