//! The in-process workloads, `gen-large` and `diffuse-wide`.
//!
//! Both call `SynCircuit::generate_one` on one resident model, so the
//! registry, the daemon, the coalescer and the wire are bypassed: a
//! change to the serving layers must predict no change here.
//!
//! A run has two phases over one request list, alternating in short
//! cycles. With one request in flight, each request's time is its
//! service time (`lat_p50_ms` and the tail). Then the same requests go
//! through `generate_batch_with(requests, nproc)` in chunks on a second
//! model, and the median chunk rate is the saturated throughput
//! (`designs_per_s`).
//!
//! - **`gen-large`**: the serving fleet's tenant model (tiny
//!   configuration, incremental cone reward), 144–288 nodes, Phase 3
//!   on. Phase 3 (`mcts` and the shared `cone` cache) is most of a
//!   request; `diffusion` and `refine` are under 10%. The batch phase
//!   shares one cone cache across workers. The cone cache capacity is
//!   not stored in model artifacts, so a loaded model's cache is
//!   unbounded and grows over the run.
//! - **`diffuse-wide`**: a model fit with `PipelineConfig::standard()`
//!   (hidden 48), 144–288 nodes, Phase 3 off per request, so
//!   `diffusion` and its `nn` kernels dominate at a wider shape than
//!   the other workloads use. A kernel change that helps hidden 16 and
//!   hurts hidden 48 shows here. At the commit that added this
//!   benchmark every request panics ("shared suffix longer than 32
//!   (got 48)"): the run reports all of them failed, with no latency
//!   samples, and fixes nothing.

use crate::fleet::{self, agrees, guarded, load, nproc, outcome_of, Outcome, ScratchDir, PANIC};
use crate::layers::per_layer;
use crate::report::{peak_rss_mb, tail_note, Report};
use crate::stats::{median, percentile, sorted, Stratified};
use crate::trace::Tracer;
use crate::Args;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use syncircuit_core::{GenRequest, SynCircuit};

/// One in-process workload.
pub struct Spec {
    pub name: &'static str,
    fit: fn() -> SynCircuit,
    /// Inclusive node-count range of the requests.
    nodes: (usize, usize),
    /// Per-request Phase 3 switch (`None`: the model's default, on).
    optimize: Option<bool>,
}

fn gen_large_model() -> SynCircuit {
    fleet::tenant_model(0)
}

pub const GEN_LARGE: Spec = Spec {
    name: "gen-large",
    fit: gen_large_model,
    nodes: (144, 288),
    optimize: None,
};

pub const DIFFUSE_WIDE: Spec = Spec {
    name: "diffuse-wide",
    fit: fleet::wide_model,
    nodes: (144, 288),
    optimize: Some(false),
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Requests served during each set-up, before timing starts.
const WARMUP: u64 = 2;
/// Requests per second of `--seconds`. A run serves a fixed number of
/// requests rather than as many as fit in its time: the loaded model's
/// cone cache is unbounded and grows with every request, so a count
/// that followed the machine's speed would make peak memory follow it
/// too. At this commit the one-in-flight phase takes about 70% of
/// `--seconds` and the batch phase about half as long again.
const REQUESTS_PER_SECOND: f64 = 18.0;
/// Alternations of the two phases within a run.
const CYCLES: usize = 5;
/// Requests per worker in one batch chunk: large enough that a chunk's
/// last, partly idle moments are a small part of it.
const CHUNK_PER_WORKER: usize = 16;
/// Size strata per block of consecutive requests (see [`Stratified`]).
const STRATA: usize = 32;

/// The request list, a pure function of the seed, grown on demand.
struct Requests {
    sizes: Stratified,
    base: u64,
    nodes: (usize, usize),
    optimize: Option<bool>,
    list: Vec<GenRequest>,
}

impl Requests {
    fn new(seed: u64, spec: &Spec) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Requests {
            base: rng.gen::<u64>(),
            sizes: Stratified::new(rng.gen::<u64>(), STRATA),
            nodes: spec.nodes,
            optimize: spec.optimize,
            list: Vec::new(),
        }
    }

    fn get(&mut self, k: usize) -> &GenRequest {
        while self.list.len() <= k {
            let (lo, hi) = self.nodes;
            let n = lo + (self.sizes.draw() * (hi - lo + 1) as f64) as usize;
            // Distinct seeds: no two requests of a run are the same.
            let mut r = GenRequest::nodes(n).seeded(self.base.wrapping_add(self.list.len() as u64));
            if let Some(on) = self.optimize {
                r = r.optimize(on);
            }
            self.list.push(r);
        }
        &self.list[k]
    }
}

struct Setup {
    model: SynCircuit,
    artifact: PathBuf,
    seconds: Vec<f64>,
}

/// Fits the model, writes its artifact, loads it back and serves a
/// warm-up, `SETUP_REPS` times; keeps the last resident model.
fn setup(spec: &Spec, dir: &ScratchDir) -> Result<Setup, String> {
    let artifact = dir.path().join(format!("{}.json", spec.name));
    let mut seconds = Vec::new();
    let mut model = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        (spec.fit)().save(&artifact).map_err(|e| e.to_string())?;
        let resident = load(&artifact, None)?;
        for w in 0..WARMUP {
            let mut r = GenRequest::nodes(spec.nodes.0).seeded(u64::MAX - w);
            if let Some(on) = spec.optimize {
                r = r.optimize(on);
            }
            let _ = guarded(|| resident.generate_one(&r));
        }
        seconds.push(start.elapsed().as_secs_f64());
        model = Some(resident);
    }
    Ok(Setup {
        model: model.expect("at least one set-up ran"),
        artifact,
        seconds,
    })
}

pub fn run(spec: &Spec, args: &Args) -> Result<(Report, Option<Tracer>), String> {
    let dir = ScratchDir::create(spec.name)?;
    let setup = setup(spec, &dir)?;
    let mut requests = Requests::new(args.seed, spec);
    if args.trace {
        return traced(spec, args, &setup, &mut requests);
    }
    let mut report = Report::default();

    // The two phases alternate in short cycles, so that both sample the
    // whole run rather than one of them a quieter or busier stretch of
    // a shared machine.
    //
    // One request in flight gives service time. Then the same requests
    // go in batches across every core to a second freshly loaded model,
    // so the batches read none of the cones the first phase cached.
    // Each phase's outputs are the other's reference: direct
    // `generate_one` on one fresh model, `generate_batch_with` on
    // another.
    let fresh = load(&setup.artifact, None)?;
    let workers = nproc();
    let chunk = CHUNK_PER_WORKER * workers;
    let mut lat_ms = Vec::new();
    let mut served: Vec<Outcome> = Vec::new();
    let mut rates = Vec::new();
    let mut batched: Vec<Outcome> = Vec::new();
    let per_cycle = ((REQUESTS_PER_SECOND * args.seconds / CYCLES as f64).round() as usize).max(1);
    for _ in 0..CYCLES {
        let first = served.len();
        for _ in 0..per_cycle {
            let request = requests.get(served.len());
            let t0 = Instant::now();
            let result = guarded(|| setup.model.generate_one(request));
            let took = t0.elapsed();
            let outcome = outcome_of(result);
            lat_ms.push(match outcome.failure() {
                None => took.as_secs_f64() * 1e3,
                Some(_) => f64::INFINITY,
            });
            served.push(outcome);
        }
        for batch in requests.list[first..served.len()].chunks(chunk) {
            let t0 = Instant::now();
            let results = catch_unwind(AssertUnwindSafe(|| {
                fresh.generate_batch_with(batch, workers)
            }));
            let took = t0.elapsed();
            match results {
                Ok(results) => {
                    let ok = results.iter().filter(|r| r.is_ok()).count();
                    if batch.len() == chunk {
                        rates.push(ok as f64 / took.as_secs_f64());
                    }
                    batched.extend(results.into_iter().map(|r| outcome_of(guarded(|| r))));
                }
                Err(_) => {
                    // A worker's panic ends the whole batch and its
                    // message is lost: every request in it counts as a
                    // failed panic.
                    batched.extend(batch.iter().map(|_| Outcome::Failed {
                        class: PANIC,
                        detail: String::new(),
                    }));
                }
            }
        }
    }
    let n = served.len();
    let peak = peak_rss_mb();

    let mut mismatches = 0usize;
    for (k, (a, b)) in served.iter().zip(&batched).enumerate() {
        for outcome in [a, b] {
            if let Some(class) = outcome.failed() {
                report.unserved(class);
            }
        }
        if !agrees(b, a) {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!(
                    "{}: request {k}: generate_batch_with gave {b:?}, generate_one {a:?}",
                    spec.name
                );
            }
        }
    }
    report.correct = mismatches == 0;
    report.attempted = (served.len() + batched.len()) as u64;
    if let Some((_, Outcome::Failed { detail, .. })) = served
        .iter()
        .enumerate()
        .find(|(_, o)| o.failed().is_some())
    {
        report
            .notes
            .push(format!("first request without a design: {detail}"));
    }
    report.notes.push(format!(
        "fail_ratio {:.4}; typed_error_ratio {:.4}; one in flight: {n} requests; batch: the same {n} in chunks of {chunk} on {workers} workers",
        report.failed() as f64 / report.attempted.max(1) as f64,
        report.typed_errors as f64 / report.attempted.max(1) as f64
    ));

    report.metric("setup_s", median(&setup.seconds), "s", setup.seconds.len());
    let ok = lat_ms.iter().filter(|x| x.is_finite()).count();
    if ok == 0 {
        report
            .notes
            .push("no latency samples: every request failed".to_string());
    } else {
        let lat = sorted(&lat_ms);
        report.metric("lat_p50_ms", percentile(&lat, 0.5), "ms", n);
        report.notes.push(tail_note(&lat));
        if !rates.is_empty() {
            report.metric("designs_per_s", median(&rates), "1/s", rates.len());
        }
    }
    if let Some(mb) = peak {
        report.metric("peak_rss_mb", mb, "MiB", 1);
    }
    Ok((report, None))
}

/// The traced run: each request goes through `generate_one` on one
/// fresh model and through the traced phase decomposition on another,
/// in alternating order; both outputs must be byte-identical.
fn traced(
    spec: &Spec,
    args: &Args,
    setup: &Setup,
    requests: &mut Requests,
) -> Result<(Report, Option<Tracer>), String> {
    let mut tracer = Tracer::new();
    let untraced = load(&setup.artifact, Some(&mut tracer))?;
    let decomposed = load(&setup.artifact, Some(&mut tracer))?;
    let window = Duration::from_secs_f64(args.seconds);
    let mut report = Report::default();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut mismatches = 0usize;
    let mut k = 0usize;
    let start = Instant::now();
    while start.elapsed() < window {
        let request = requests.get(k);
        let req = k as u64;
        let mut run_plain = || {
            let t0 = Instant::now();
            let result = guarded(|| untraced.generate_one(request));
            plain += t0.elapsed();
            outcome_of(result)
        };
        let mut run_traced = |tracer: &mut Tracer| {
            let t0 = Instant::now();
            let root = tracer.open(req, None, "request");
            let result =
                guarded(|| fleet::generate_traced(&decomposed, request, tracer, req, root));
            tracer.close(root);
            traced += t0.elapsed();
            outcome_of(result)
        };
        let (a, b) = if k.is_multiple_of(2) {
            let a = run_plain();
            (a, run_traced(&mut tracer))
        } else {
            let b = run_traced(&mut tracer);
            (run_plain(), b)
        };
        if a != b {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!(
                    "{}: traced request {k} differs from generate_one: {b:?} vs {a:?}",
                    spec.name
                );
            }
        }
        if let Some(class) = b.failed() {
            report.unserved(class);
        }
        k += 1;
    }
    let overhead_pct = (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0;
    report.correct = mismatches == 0;
    report.attempted = k as u64;
    report.notes.push(format!(
        "traced {k} requests: {:.1} ms traced vs {:.1} ms untraced service time (overhead {overhead_pct:.2}%)",
        traced.as_secs_f64() * 1e3,
        plain.as_secs_f64() * 1e3
    ));
    report.metrics = per_layer(&tracer, k, overhead_pct, None);
    Ok((report, Some(tracer)))
}
