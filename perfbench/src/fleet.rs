//! Models, artifacts, outcomes, the direct-generation reference and the
//! traced phase decomposition shared by every workload.

use crate::trace::Tracer;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use syncircuit_core::{
    optimize_registers, refine, Error, GenRequest, Generated, IncrementalConeReward,
    PipelineConfig, RewardKind, SamplerScratch, SynCircuit,
};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::CircuitGraph;

/// Worker and client thread count: the machine's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn corpus(seed: u64) -> Vec<CircuitGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..2)
        .map(|_| random_circuit_with_size(&mut rng, 20))
        .collect()
}

/// Tenant `t` of the serving fleet: the load generator's tenant model
/// (tiny configuration, incremental cone reward, bounded cone cache).
pub fn tenant_model(t: usize) -> SynCircuit {
    let seed = 1000 + t as u64;
    let config = PipelineConfig::builder()
        .seed(seed)
        .reward(RewardKind::IncrementalCone)
        .cone_cache_capacity(64)
        .build()
        .expect("the tenant configuration is valid");
    SynCircuit::fit(&corpus(seed), config).expect("a tenant model fits its corpus")
}

/// A model at the experiment-scale width (`PipelineConfig::standard()`,
/// hidden 48).
pub fn wide_model() -> SynCircuit {
    SynCircuit::fit(&corpus(7), PipelineConfig::standard())
        .expect("the standard model fits its corpus")
}

/// A directory for one run's artifacts and trace, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(workload: &str) -> Result<Self, String> {
        let dir = out_dir().join(format!("tmp-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where runs leave their trace files (inside the benchmark's own
/// directory, so a run writes nothing outside its checkout).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Reads and parses a model artifact. With a tracer, the parse (the
/// file read excluded) is recorded as a `persist.parse` span and the
/// artifact size is counted.
pub fn load(path: &Path, tracer: Option<&mut Tracer>) -> Result<SynCircuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let start = Instant::now();
    let model = SynCircuit::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(t) = tracer {
        t.record(SETUP_REQ, None, "persist.parse", start, Instant::now());
        t.count("persist.bytes", text.len() as f64);
    }
    Ok(model)
}

/// Request id of spans that belong to no request (set-up and reference
/// model loads).
pub const SETUP_REQ: u64 = u64::MAX;

/// A 64-bit digest of encoded output bytes; two outputs agree when
/// their encodings do.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Digest of a design's canonical JSON encoding.
pub fn design_digest(design: &Generated) -> u64 {
    digest(
        serde_json::to_string(design)
            .expect("a design serializes")
            .as_bytes(),
    )
}

/// What one request came to, as compared against the reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Served; the digest of its encoded bytes.
    Served(u64),
    /// Failed. `class` names the failure class; `detail` identifies the
    /// failure for the comparison with direct generation.
    Failed { class: &'static str, detail: String },
}

impl Outcome {
    /// The class of an outcome that is not a design: a failure or a
    /// typed error.
    pub fn failed(&self) -> Option<&'static str> {
        match self {
            Outcome::Served(_) => None,
            Outcome::Failed { class, .. } => Some(class),
        }
    }

    /// The class of an outcome that counts as a failed request: any
    /// outcome but a design or a typed error (see [`is_typed_error`]).
    pub fn failure(&self) -> Option<&'static str> {
        self.failed().filter(|class| !is_typed_error(class))
    }
}

/// Whether `class` is the pipeline's typed error (`ERROR` in-process,
/// `MODEL_ERROR` over TCP). Such an error is the program's answer to
/// the request: it is deterministic, it is checked against direct
/// generation exactly as a design is, and the serving path delivered
/// it intact, so it is counted apart and not as a failed request.
/// Panics, shed requests and I/O errors are the failures.
pub fn is_typed_error(class: &str) -> bool {
    class == ERROR || class == MODEL_ERROR
}

/// Failure class of a request that panicked in-process.
pub const PANIC: &str = "panic";
/// Failure class of a request that returned a typed error in-process.
pub const ERROR: &str = "error";
/// Over TCP: the daemon isolated a worker panic (`WorkerPanicked`).
pub const WORKER_PANICKED: &str = "worker_panicked";
/// Over TCP: the daemon returned the pipeline's typed error.
pub const MODEL_ERROR: &str = "model_error";
/// Over TCP: admission shed the request (`Overloaded`).
pub const OVERLOADED: &str = "overloaded";
/// Over TCP: any other serving error.
pub const SERVE_ERROR: &str = "serve_error";
/// Over TCP: the socket or the frame failed, or no answer came.
pub const IO: &str = "io";

/// Whether a served outcome agrees with direct generation. Designs
/// agree when their encoded bytes do; failures when they are of the
/// same kind and, where both carry one, the same message. A batch that
/// panics loses its workers' messages, so an empty detail matches any.
/// Shed and lost requests have nothing to compare and never agree.
pub fn agrees(served: &Outcome, reference: &Outcome) -> bool {
    match (served, reference) {
        (Outcome::Served(a), Outcome::Served(b)) => a == b,
        (
            Outcome::Failed {
                class: a,
                detail: x,
            },
            Outcome::Failed {
                class: b,
                detail: y,
            },
        ) => {
            let kind = match *a {
                WORKER_PANICKED => PANIC,
                MODEL_ERROR => ERROR,
                other => other,
            };
            kind == *b && (x.is_empty() || y.is_empty() || x == y)
        }
        _ => false,
    }
}

/// The message a panic payload carries.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one generation, turning a panic or an error into a failure.
pub fn guarded(f: impl FnOnce() -> Result<Generated, Error>) -> Result<Generated, Outcome> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(design)) => Ok(design),
        Ok(Err(e)) => Err(Outcome::Failed {
            class: ERROR,
            detail: e.to_string(),
        }),
        Err(payload) => Err(Outcome::Failed {
            class: PANIC,
            detail: panic_message(payload.as_ref()),
        }),
    }
}

/// The outcome of one in-process generation.
pub fn outcome_of(result: Result<Generated, Outcome>) -> Outcome {
    match result {
        Ok(design) => Outcome::Served(design_digest(&design)),
        Err(failed) => failed,
    }
}

/// Maps `f` over `0..n` on `threads` threads; results in index order.
pub fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break mine;
                        }
                        mine.push((k, f(k)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .expect("a reference worker panicked outside its guard")
            })
            .collect()
    });
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (k, v) in parts.into_iter().flatten() {
        out[k] = Some(v);
    }
    out.into_iter()
        .map(|v| v.expect("every index was mapped"))
        .collect()
}

/// `SynCircuit::generate_one`, decomposed into its phases through the
/// public API, with a span around each phase and counts for each
/// layer. It must produce exactly the bytes `generate_one` does; every
/// traced run checks that against the untraced run.
///
/// The decomposition runs *in place of* `generate_one` on a model of
/// its own: replaying the phases after `generate_one` on the same model
/// would read a warm cone cache and understate the Phase 3 cost.
pub fn generate_traced(
    model: &SynCircuit,
    request: &GenRequest,
    tracer: &mut Tracer,
    req: u64,
    parent: usize,
) -> Result<Generated, Error> {
    let config = model.config();
    let seed = request.seed().unwrap_or(config.seed());
    assert!(
        request.attrs().is_none() && request.phases().diffusion,
        "the benchmark only sends node-count requests with Phase 1 on"
    );
    let attrs = tracer.time(req, Some(parent), "attrs", || {
        let mut rng = StdRng::seed_from_u64(seed);
        model
            .attr_model()
            .sample_attrs(request.node_count(), &mut rng)
    });
    let optimize = request
        .phases()
        .optimize
        .unwrap_or(config.optimize_redundancy());
    if optimize && !config.optimize_redundancy() {
        config.validate_phase3()?;
    }
    let sampled = tracer.time(req, Some(parent), "diffusion", || {
        model.diffusion_model().sample_with(
            &attrs,
            seed.wrapping_add(1),
            &mut SamplerScratch::new(),
        )
    });
    let gini_edges: usize = sampled.parents.iter().map(Vec::len).sum();
    tracer.count("diffusion.edges", gini_edges as f64);
    let refined = tracer.time(req, Some(parent), "refine", || {
        refine(
            &attrs,
            &sampled,
            model.attr_model(),
            config.refine(),
            seed.wrapping_add(2),
        )
    });
    let mut gval = match refined {
        Ok(g) => g,
        Err(e) => {
            tracer.count("refine.errors", 1.0);
            return Err(e.into());
        }
    };
    gval.set_name(format!("syncircuit_{seed:x}"));
    if !optimize {
        return Ok(Generated {
            graph: gval.clone(),
            gval,
            gini_edges,
            mcts: Vec::new(),
            seed,
        });
    }
    assert_eq!(
        config.reward(),
        RewardKind::IncrementalCone,
        "the decomposition mirrors the incremental-cone reward only"
    );
    let mut mcts = config.mcts().clone();
    mcts.seed = seed.wrapping_add(3);
    let reward = IncrementalConeReward::with_shared(model.cone_cache().clone());
    let before = model.cone_cache().total_stats();
    let (graph, outcomes) = tracer.time(req, Some(parent), "mcts", || {
        optimize_registers(&gval, &reward, &mcts, config.cone_selection())
    });
    let after = model.cone_cache().total_stats();
    tracer.count("cone.hits", (after.hits - before.hits) as f64);
    tracer.count("cone.misses", (after.misses - before.misses) as f64);
    tracer.count(
        "cone.evictions",
        (after.evictions - before.evictions) as f64,
    );
    tracer.count("mcts.registers", outcomes.len() as f64);
    tracer.count(
        "mcts.evaluations",
        outcomes.iter().map(|o| o.evaluations as f64).sum(),
    );
    Ok(Generated {
        graph,
        gval,
        gini_edges,
        mcts: outcomes,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_index_order() {
        assert_eq!(par_map(7, 3, |k| k * k), [0, 1, 4, 9, 16, 25, 36]);
        assert!(par_map(0, 2, |k| k).is_empty());
    }

    #[test]
    fn decomposition_matches_generate_one() {
        let requests = [
            GenRequest::nodes(24).seeded(5),
            GenRequest::nodes(40).seeded(6).optimize(false),
        ];
        let direct = tenant_model(3);
        let traced = tenant_model(3);
        let mut tracer = Tracer::new();
        for (k, request) in requests.iter().enumerate() {
            let root = tracer.open(k as u64, None, "request");
            let got = generate_traced(&traced, request, &mut tracer, k as u64, root);
            tracer.close(root);
            let want = direct.generate_one(request);
            assert_eq!(
                outcome_of(got.map_err(|e| Outcome::Failed {
                    class: ERROR,
                    detail: e.to_string()
                })),
                outcome_of(guarded(|| want))
            );
        }
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "request",
                "attrs",
                "diffusion",
                "refine",
                "mcts",
                "request",
                "attrs",
                "diffusion",
                "refine"
            ]
        );
        assert!(tracer.counter("mcts.evaluations") > 0.0);
    }
}
