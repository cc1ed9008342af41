//! The per-layer metrics of a traced run.
//!
//! Every traced run reports the same list, so the layers a workload
//! bypasses read 0. Times are medians over the spans (or requests) that
//! reached the layer; counts marked `count/req` are means per traced
//! request; plain counts are totals over the traced requests.

use crate::report::Metric;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use syncircuit_serve::{DaemonStats, RegistryStats};

/// Serving-stack figures that come from the TCP run and the registry
/// replay rather than from spans.
#[derive(Debug, Default)]
pub struct Serving {
    pub registry: RegistryStats,
    pub daemon: DaemonStats,
    /// Per request: end-to-end latency minus the replayed service and
    /// wire time (derived, not measured inside the daemon).
    pub wait_ms: Vec<f64>,
    /// Per open-loop send: how late it left against its due time.
    pub lag_ms: Vec<f64>,
    /// Highest ladder rate that met the latency limit.
    pub slo_rps: f64,
    pub rungs_run: usize,
}

fn med_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        note: "",
    }
}

/// The full per-layer list. `requests` is the number of traced
/// requests; `overhead_pct` compares traced against untraced service
/// time over the same requests.
pub fn per_layer(
    t: &Tracer,
    requests: usize,
    overhead_pct: f64,
    serving: Option<&Serving>,
) -> Vec<Metric> {
    let per_req = |span: &str, name: &'static str| -> Metric {
        // Layers report self time; the request, its whole duration.
        let xs = t.per_request_ms(span, span == "request");
        m(name, med_or_zero(&xs), "ms", xs.len())
    };
    let span_ms = |span: &str| -> Vec<f64> {
        t.spans()
            .iter()
            .zip(t.self_times())
            .filter(|(s, _)| s.name == span)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect()
    };
    let mean = |counter: &'static str| -> f64 {
        if requests == 0 {
            0.0
        } else {
            t.counter(counter) / requests as f64
        }
    };
    let parse = span_ms("persist.parse");
    let get = span_ms("registry.get");
    let load = span_ms("registry.load");
    let enc_req = span_ms("wire.encode_req");
    let enc_resp = span_ms("wire.encode_resp");
    let dec_resp = span_ms("wire.decode_resp");
    let responses = t.counter("wire.responses");
    let default = Serving::default();
    let s = serving.unwrap_or(&default);
    let lag_p99 = if s.lag_ms.is_empty() {
        0.0
    } else {
        percentile(&sorted(&s.lag_ms), 0.99)
    };

    vec![
        m("persist.parse_ms", med_or_zero(&parse), "ms", parse.len()),
        m(
            "persist.artifact_kb",
            if parse.is_empty() {
                0.0
            } else {
                t.counter("persist.bytes") / parse.len() as f64 / 1024.0
            },
            "KiB",
            parse.len(),
        ),
        m("registry.get_ms", med_or_zero(&get), "ms", get.len()),
        m("registry.load_ms", med_or_zero(&load), "ms", load.len()),
        m(
            "registry.hit_ratio",
            ratio(s.registry.hits as f64, s.registry.loads as f64),
            "ratio",
            (s.registry.hits + s.registry.loads) as usize,
        ),
        m("registry.loads", s.registry.loads as f64, "count", 1),
        m(
            "registry.evictions",
            s.registry.evictions as f64,
            "count",
            1,
        ),
        m("daemon.served", s.daemon.served as f64, "count", 1),
        m("daemon.rejected", s.daemon.rejected as f64, "count", 1),
        m("daemon.panicked", s.daemon.panicked as f64, "count", 1),
        Metric {
            note: "derived: latency minus replayed service and wire time",
            ..m(
                "daemon.wait_ms",
                med_or_zero(&s.wait_ms),
                "ms",
                s.wait_ms.len(),
            )
        },
        m("coalesce.hits", s.daemon.coalesce_hits as f64, "count", 1),
        m(
            "coalesce.hit_ratio",
            ratio(
                s.daemon.coalesce_hits as f64,
                s.daemon.coalesce_misses as f64,
            ),
            "ratio",
            (s.daemon.coalesce_hits + s.daemon.coalesce_misses) as usize,
        ),
        m(
            "wire.encode_req_us",
            med_or_zero(&enc_req) * 1e3,
            "us",
            enc_req.len(),
        ),
        m(
            "wire.encode_resp_ms",
            med_or_zero(&enc_resp),
            "ms",
            enc_resp.len(),
        ),
        m(
            "wire.decode_resp_ms",
            med_or_zero(&dec_resp),
            "ms",
            dec_resp.len(),
        ),
        m(
            "wire.resp_kb",
            if responses == 0.0 {
                0.0
            } else {
                t.counter("wire.resp_bytes") / responses / 1024.0
            },
            "KiB",
            responses as usize,
        ),
        per_req("attrs", "attrs.ms"),
        per_req("diffusion", "diffusion.ms"),
        m(
            "diffusion.edges",
            mean("diffusion.edges"),
            "count/req",
            requests,
        ),
        per_req("refine", "refine.ms"),
        m(
            "refine.errors",
            t.counter("refine.errors"),
            "count",
            requests,
        ),
        per_req("mcts", "mcts.ms"),
        m(
            "mcts.evaluations",
            mean("mcts.evaluations"),
            "count/req",
            requests,
        ),
        m(
            "mcts.registers",
            mean("mcts.registers"),
            "count/req",
            requests,
        ),
        m("cone.hits", mean("cone.hits"), "count/req", requests),
        m("cone.misses", mean("cone.misses"), "count/req", requests),
        m(
            "cone.evictions",
            mean("cone.evictions"),
            "count/req",
            requests,
        ),
        m(
            "cone.hit_ratio",
            ratio(t.counter("cone.hits"), t.counter("cone.misses")),
            "ratio",
            requests,
        ),
        per_req("request", "request.ms"),
        m("loadgen.lag_p99_ms", lag_p99, "ms", s.lag_ms.len()),
        m("serve.slo_rps", s.slo_rps, "1/s", s.rungs_run),
        m("trace.overhead_pct", overhead_pct, "%", requests),
    ]
}
