//! The schema and regression-gate frame shared by the `snow-bench`
//! documents (`BENCH_scale.json`, `BENCH_workload.json`).
//!
//! Every document is `{schema, created_unix, smoke, records, …}`; every
//! record carries `scenario`, `transport`, `ranks` and its throughput.
//! This module holds what that shape implies once: emitting the
//! envelope ([`emit_document`]), the validation frame
//! ([`validate_records`]), the regression gate ([`gate_records`]) and
//! the `--validate`/`--gate` half of the bench CLIs ([`DocCli`]). The
//! scenario modules add only their record types and their own checks.

use snow_trace::report::JsonValue;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Which [`snow_vm::Transport`] backend a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// The default in-process substrate (direct registry delivery).
    InProc,
    /// Framed localhost-TCP sockets ([`snow_vm::TcpTransport`]).
    Tcp,
}

impl TransportKind {
    /// The name stamped into records and accepted by `--transport`.
    pub fn as_str(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parse a `--transport` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inproc" => Some(TransportKind::InProc),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }
}

/// Wrap `sections` (`records` first, then any scenario extras) into a
/// document stamped with `schema`, the creation time and `smoke`.
pub fn emit_document(schema: &str, smoke: bool, sections: Vec<(&str, JsonValue)>) -> JsonValue {
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut fields = vec![
        ("schema".into(), JsonValue::Str(schema.into())),
        ("created_unix".into(), JsonValue::Num(created as f64)),
        ("smoke".into(), JsonValue::Bool(smoke)),
    ];
    fields.extend(sections.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Object(fields)
}

/// Read and parse a JSON document.
pub fn read_doc(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

// ---------------------------------------------------------------------
// validation
// ---------------------------------------------------------------------

/// `v[field]` if it is a finite, non-negative number.
pub fn non_negative(v: &JsonValue, field: &str) -> Option<f64> {
    v.get(field)
        .and_then(JsonValue::as_f64)
        .filter(|x| x.is_finite() && *x >= 0.0)
}

/// One record under validation, with error messages that name it.
pub struct Record<'a> {
    /// Index in the `records` array.
    pub i: usize,
    /// The record itself.
    pub rec: &'a JsonValue,
}

impl Record<'_> {
    /// The "bad or missing `field`" error for this record.
    pub fn bad(&self, field: &str) -> String {
        format!("record {}: bad or missing {field}", self.i)
    }

    /// A finite, non-negative number.
    pub fn num(&self, field: &str) -> Result<f64, String> {
        non_negative(self.rec, field).ok_or_else(|| self.bad(field))
    }

    /// A string field.
    pub fn str(&self, field: &str) -> Result<&str, String> {
        self.rec
            .get(field)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| self.bad(field))
    }

    /// The §4 audit disposition must be explicit: a verdict
    /// (`audit_clean`) or a stamped reason the audit was skipped
    /// (`audit_skipped`) — never both, never neither.
    pub fn audit_disposition(&self) -> Result<(), String> {
        let audited = self
            .rec
            .get("audit_clean")
            .and_then(JsonValue::as_bool)
            .is_some();
        let skipped = self
            .rec
            .get("audit_skipped")
            .and_then(JsonValue::as_str)
            .is_some_and(|s| !s.is_empty());
        if audited == skipped {
            return Err(format!(
                "record {}: needs exactly one of audit_clean / audit_skipped",
                self.i
            ));
        }
        Ok(())
    }
}

/// The validation frame every document shares: the `schema` tag, a
/// non-empty `records` array, and on every record a `scenario` string,
/// `ranks` ≥ 1, `msgs` ≥ 1, a positive `msgs_per_sec` and finite
/// non-negative `bytes_moved`/`wall_s`. `check` then runs the
/// scenario's own rules on each record.
pub fn validate_records(
    doc: &JsonValue,
    schema: &str,
    mut check: impl FnMut(&Record) -> Result<(), String>,
) -> Result<(), String> {
    let tag = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if tag != schema {
        return Err(format!("schema {tag:?}, expected {schema:?}"));
    }
    let records = doc
        .get("records")
        .and_then(JsonValue::as_array)
        .ok_or("missing records array")?;
    if records.is_empty() {
        return Err("records array is empty".into());
    }
    for (i, rec) in records.iter().enumerate() {
        let r = Record { i, rec };
        r.str("scenario")?;
        if r.num("ranks")? < 1.0 {
            return Err(r.bad("ranks"));
        }
        if r.num("msgs")? < 1.0 {
            return Err(r.bad("msgs"));
        }
        if r.num("msgs_per_sec")? <= 0.0 {
            return Err(r.bad("msgs_per_sec"));
        }
        r.num("bytes_moved")?;
        r.num("wall_s")?;
        check(&r)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// regression gate
// ---------------------------------------------------------------------

/// Tolerances for [`gate_records`]. Ratios are against the committed
/// baseline: generous by default because the CI runners' absolute
/// numbers swing hard with machine load — the gate exists to catch
/// order-of-magnitude regressions, not single-digit noise.
#[derive(Debug, Clone, Copy)]
pub struct GateTolerances {
    /// Minimum fraction of baseline throughput a record must keep.
    pub min_throughput_ratio: f64,
    /// Maximum multiple of a baseline latency a record may show.
    pub max_latency_ratio: f64,
}

impl Default for GateTolerances {
    fn default() -> Self {
        GateTolerances {
            min_throughput_ratio: 0.2,
            max_latency_ratio: 5.0,
        }
    }
}

/// Latencies below this floor (microseconds) are never gated: at
/// single-digit-µs baselines a ratio check only measures scheduler
/// jitter.
pub const GATE_LATENCY_FLOOR_US: f64 = 50.0;

/// A gated latency: the label violations name it by, and its path
/// inside a record (e.g. `["phases", "post", "p50_us"]`).
pub type LatencyGate = (&'static str, &'static [&'static str]);

fn at(rec: &JsonValue, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(rec, |v, k| v.get(k))
        .and_then(JsonValue::as_f64)
}

fn gate_key(rec: &JsonValue) -> Option<(&str, &str, u64)> {
    Some((
        rec.get("scenario")?.as_str()?,
        rec.get("transport")?.as_str()?,
        rec.get("ranks")?.as_f64()? as u64,
    ))
}

/// Gate a fresh document against the committed baseline: for every
/// `(scenario, transport, ranks)` key present in *both*, throughput
/// must not collapse below `min_throughput_ratio × baseline` and each
/// of `latencies` must not balloon past `max_latency_ratio × baseline`
/// (never below [`GATE_LATENCY_FLOOR_US`]). A reported migration abort
/// or a failed §4 audit always gates. At least one common key is
/// required. Returns every violation, not just the first.
pub fn gate_records(
    current: &JsonValue,
    baseline: &JsonValue,
    latencies: &[LatencyGate],
    tol: GateTolerances,
) -> Result<(), Vec<String>> {
    let records = |doc: &JsonValue| -> Vec<JsonValue> {
        doc.get("records")
            .and_then(JsonValue::as_array)
            .map(|a| a.to_vec())
            .unwrap_or_default()
    };
    let base_recs = records(baseline);
    let mut compared = 0usize;
    let mut violations = Vec::new();
    for cur in &records(current) {
        let Some(key) = gate_key(cur) else { continue };
        let Some(base) = base_recs.iter().find(|b| gate_key(b) == Some(key)) else {
            continue;
        };
        compared += 1;
        let tag = format!("{}/{}@{}", key.0, key.1, key.2);
        if let (Some(c), Some(b)) = (at(cur, &["msgs_per_sec"]), at(base, &["msgs_per_sec"])) {
            let floor = b * tol.min_throughput_ratio;
            if c < floor {
                violations.push(format!(
                    "{tag}: throughput {c:.0} msgs/s below gate {floor:.0} \
                     (baseline {b:.0} × {:.2})",
                    tol.min_throughput_ratio
                ));
            }
        }
        for (label, path) in latencies {
            if let (Some(c), Some(b)) = (at(cur, path), at(base, path)) {
                let ceil = (b * tol.max_latency_ratio).max(GATE_LATENCY_FLOOR_US);
                if c > ceil {
                    violations.push(format!(
                        "{tag}: {label} {c:.1} µs above gate {ceil:.1} \
                         (baseline {b:.1} × {:.2})",
                        tol.max_latency_ratio
                    ));
                }
            }
        }
        if cur.get("migration_aborted").and_then(JsonValue::as_bool) == Some(true) {
            violations.push(format!("{tag}: migration aborted after retry"));
        }
        if cur.get("audit_clean").and_then(JsonValue::as_bool) == Some(false) {
            violations.push(format!("{tag}: §4 audit violation"));
        }
    }
    if compared == 0 {
        violations.push("no (scenario, transport, ranks) pair is common to both documents".into());
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

// ---------------------------------------------------------------------
// the --validate / --gate CLI
// ---------------------------------------------------------------------

/// The `--validate FILE` and `--gate FILE --baseline FILE
/// [--min-throughput-ratio R] [--max-latency-ratio R]` flags of a bench
/// binary.
#[derive(Default)]
pub struct DocCli {
    validate: Option<PathBuf>,
    gate: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tol: GateTolerances,
}

impl DocCli {
    /// Take `flag` and its value from `args` if it is one of the
    /// document flags. `false` when the flag is not one of them or its
    /// value is missing or malformed.
    pub fn take_flag(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) -> bool {
        let path = match flag {
            "--validate" => &mut self.validate,
            "--gate" => &mut self.gate,
            "--baseline" => &mut self.baseline,
            "--min-throughput-ratio" => {
                return take_ratio(args, &mut self.tol.min_throughput_ratio)
            }
            "--max-latency-ratio" => return take_ratio(args, &mut self.tol.max_latency_ratio),
            _ => return false,
        };
        *path = args.next().map(PathBuf::from);
        path.is_some()
    }

    /// Run `--validate` or `--gate` if either was given, printing the
    /// verdict under the binary's `name`; `None` when neither was
    /// requested. A gated document must pass `validate` first.
    pub fn run(
        self,
        name: &str,
        validate: fn(&JsonValue) -> Result<(), String>,
        latencies: &[LatencyGate],
    ) -> Option<ExitCode> {
        let fail = |msg: String| {
            eprintln!("{name}: {msg}");
            ExitCode::FAILURE
        };
        if let Some(path) = self.validate {
            let doc = match read_doc(&path) {
                Ok(d) => d,
                Err(e) => return Some(fail(e)),
            };
            return Some(match validate(&doc) {
                Ok(()) => {
                    println!("{}: valid snow-bench-{name} document", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("{} fails schema: {e}", path.display())),
            });
        }
        let current_path = self.gate?;
        let Some(baseline_path) = self.baseline else {
            return Some(fail("--gate requires --baseline FILE".into()));
        };
        let (current, base) = match (read_doc(&current_path), read_doc(&baseline_path)) {
            (Ok(c), Ok(b)) => (c, b),
            (Err(e), _) | (_, Err(e)) => return Some(fail(e)),
        };
        if let Err(e) = validate(&current) {
            return Some(fail(format!(
                "{} fails schema: {e}",
                current_path.display()
            )));
        }
        Some(match gate_records(&current, &base, latencies, self.tol) {
            Ok(()) => {
                println!(
                    "{}: within tolerance of {}",
                    current_path.display(),
                    baseline_path.display()
                );
                ExitCode::SUCCESS
            }
            Err(violations) => {
                for v in &violations {
                    eprintln!("{name}: GATE {v}");
                }
                fail(format!(
                    "{} regression(s) against baseline",
                    violations.len()
                ))
            }
        })
    }
}

fn take_ratio(args: &mut impl Iterator<Item = String>, slot: &mut f64) -> bool {
    match args.next().and_then(|s| s.parse().ok()) {
        Some(r) => {
            *slot = r;
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scale, workload};

    fn committed(name: &str) -> JsonValue {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        read_doc(&path).unwrap()
    }

    #[test]
    fn committed_baselines_validate_and_gate_against_themselves() {
        let scale_doc = committed("BENCH_scale.json");
        scale::validate_document(&scale_doc).unwrap();
        gate_records(
            &scale_doc,
            &scale_doc,
            scale::LATENCY_GATES,
            GateTolerances::default(),
        )
        .unwrap();

        let workload_doc = committed("BENCH_workload.json");
        workload::validate_document(&workload_doc).unwrap();
        gate_records(
            &workload_doc,
            &workload_doc,
            workload::LATENCY_GATES,
            GateTolerances::default(),
        )
        .unwrap();
    }
}
