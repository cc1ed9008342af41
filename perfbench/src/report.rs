//! The result of one run: metrics with units and sample counts, request
//! accounting by failure class, and the machine fingerprint.

use crate::fleet::is_typed_error;
use serde_json::Value;
use std::collections::BTreeMap;

/// A value that stands for "never completed": a latency percentile that
/// lands on a failed request. A failed request misses every limit.
pub const NEVER_MS: f64 = 1e12;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value was computed from.
    pub samples: usize,
    /// What the value is, where the name alone does not say.
    pub note: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    /// Failed requests by failure class.
    pub failures: BTreeMap<&'static str, u64>,
    /// Requests answered with the pipeline's typed error, which are not
    /// failures (see [`is_typed_error`]).
    pub typed_errors: u64,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note: "",
        });
    }

    /// Counts a request that did not produce a design, as a typed error
    /// or as a failure of its class.
    pub fn unserved(&mut self, class: &'static str) {
        if is_typed_error(class) {
            self.typed_errors += 1;
        } else {
            *self.failures.entry(class).or_insert(0) += 1;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Prints the human-readable summary, then the result object as the
    /// last line of standard output.
    pub fn print(&self, workload: &str, seed: u64, fingerprint: &Fingerprint) {
        println!("fingerprint {}", fingerprint.json());
        let classes: Vec<String> = self
            .failures
            .iter()
            .map(|(c, n)| format!("{c} {n}"))
            .collect();
        println!(
            "{workload} seed {seed}: sent {}, designs {}, typed errors {}, failed {}{}",
            self.attempted,
            self.attempted - self.typed_errors - self.failed(),
            self.typed_errors,
            self.failed(),
            if classes.is_empty() {
                String::new()
            } else {
                format!(" ({})", classes.join(", "))
            }
        );
        for note in &self.notes {
            println!("  {note}");
        }
        for m in &self.metrics {
            println!(
                "  {:<22} {:>14.4} {:<7} n={:<6} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        println!("{}", self.json());
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric with its value and unit.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value
                } else {
                    NEVER_MS
                };
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed())),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("finite metrics serialize")
    }
}

/// The latency tail of an ascending sample, printed with every run but
/// not gated: on a shared two-core machine its run-to-run spread is
/// wider than any bound the benchmark may set.
pub fn tail_note(sorted: &[f64]) -> String {
    use crate::stats::{beyond, percentile};
    format!(
        "tail (not gated): lat_p90_ms {:.4}, lat_p95_ms {:.4}, lat_p99_ms {:.4} over n={} ({} beyond p99)",
        percentile(sorted, 0.9),
        percentile(sorted, 0.95),
        percentile(sorted, 0.99),
        sorted.len(),
        beyond(sorted.len(), 0.99)
    )
}

/// The machine a result was measured on.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub avx2: bool,
    pub avx512f: bool,
    pub rustc: &'static str,
    pub profile: &'static str,
}

impl Fingerprint {
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512f) = (
            std::is_x86_feature_detected!("avx2"),
            std::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512f) = (false, false);
        Fingerprint {
            nproc: crate::fleet::nproc(),
            avx2,
            avx512f,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    pub fn json(&self) -> String {
        let doc = Value::Object(vec![
            ("nproc".to_string(), Value::UInt(self.nproc as u64)),
            ("avx2".to_string(), Value::Bool(self.avx2)),
            ("avx512f".to_string(), Value::Bool(self.avx512f)),
            ("rustc".to_string(), Value::Str(self.rustc.to_string())),
            ("profile".to_string(), Value::Str(self.profile.to_string())),
        ]);
        serde_json::to_string(&doc).expect("the fingerprint serializes")
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`), or
/// `None` where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.unserved("panic");
        r.unserved("model_error");
        r.metric("lat_p50_ms", 1.25, "ms", 2);
        r.metric("lat_p99_ms", f64::INFINITY, "ms", 2);
        let line = r.json();
        let v: Value = serde_json::from_str(&line).expect("valid JSON");
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        assert_eq!(r.typed_errors, 1);
        let p99 = v
            .get("metrics")
            .and_then(|m| m.get("lat_p99_ms"))
            .and_then(|m| m.get("value"));
        assert!(matches!(p99, Some(Value::Float(x)) if *x == NEVER_MS));
    }
}
