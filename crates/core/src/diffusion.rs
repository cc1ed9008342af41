//! Phase 1 — DCG generation with discrete diffusion (paper §IV).
//!
//! Training corrupts real adjacency matrices with the two-state forward
//! kernel and teaches the denoiser to predict the clean edges
//! (x0-parameterization, BCE loss over candidate pairs). Sampling starts
//! from Bernoulli noise matched to corpus density and walks the exact
//! D3PM posterior back to `t = 0`, producing the initial graph `G_ini`
//! together with the edge-probability matrix `P_E^(0)` that Phase 2
//! consumes.
//!
//! Scoring all `N²` pairs per step is intractable for the paper's >10K
//! node regime, so the decoder can run in **sparse candidate mode**
//! ([`DecodeMode::Sparse`]): per node, only current noisy parents plus a
//! seeded random sample of alternatives are scored (the SparseDigress
//! idea the paper cites). [`DecodeMode::Dense`] scores every pair and is
//! the reference implementation used in tests.

use crate::denoiser::{
    adjacency_operator, feature_matrix, feature_matrix_into, Denoiser, DenoiserScratch,
    DenoiserWeightPack, TimeEmbCache,
};
use crate::error::Error;
use crate::schedule::NoiseSchedule;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use syncircuit_graph::fingerprint::splitmix64;
use syncircuit_graph::{CircuitGraph, Node, NodeType};
use syncircuit_nn::sparse::RowNormAdj;
use syncircuit_nn::{Adam, Gradients, Matrix, ParamStore, Tape};

/// Edge-decoding strategy during training and sampling.
///
/// Serializes as `"dense"` or `{"sparse": candidates_per_node}` (the
/// vendored serde derive only covers unit-variant enums, so the impls
/// live in [`crate::persist`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeMode {
    /// Score every ordered pair (reference; `O(N²)` per step).
    Dense,
    /// Score current noisy parents plus `candidates_per_node` random
    /// alternatives per node (linear in `N`).
    Sparse {
        /// Extra random candidate parents scored per node per step.
        candidates_per_node: usize,
    },
}

/// Hyper-parameters of the diffusion model.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiffusionConfig {
    /// Hidden width of the denoiser (paper: 256).
    pub hidden: usize,
    /// MPNN layers in the encoder (paper: 5).
    pub layers: usize,
    /// Diffusion steps (paper: 9).
    pub steps: usize,
    /// Training epochs over the corpus.
    ///
    /// Since the epoch-synchronous trainer (PR 4), one epoch is one
    /// *averaged* optimizer step over every corpus graph's gradient —
    /// not one Adam step per graph as in the earlier sequential-SGD
    /// loop. Configs tuned against the old loop that need comparable
    /// optimizer-update counts should scale `epochs` by roughly the
    /// corpus size.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Negative pairs sampled per positive pair in the loss.
    pub neg_ratio: f64,
    /// Decoding strategy.
    pub decode: DecodeMode,
    /// Global-norm gradient clip.
    pub grad_clip: f32,
}

impl DiffusionConfig {
    /// Small configuration for tests and doctests.
    pub fn tiny() -> Self {
        DiffusionConfig {
            hidden: 16,
            layers: 2,
            steps: 4,
            epochs: 15,
            lr: 0.01,
            neg_ratio: 1.0,
            decode: DecodeMode::Sparse {
                candidates_per_node: 8,
            },
            grad_clip: 5.0,
        }
    }

    /// The paper's configuration (§VII-A: 9 steps, 5 MPNN layers,
    /// 256-dim embeddings). Expensive on CPU; experiments default to a
    /// scaled-down variant.
    pub fn paper() -> Self {
        DiffusionConfig {
            hidden: 256,
            layers: 5,
            steps: 9,
            epochs: 300,
            lr: 3e-3,
            neg_ratio: 2.0,
            decode: DecodeMode::Sparse {
                candidates_per_node: 32,
            },
            grad_clip: 5.0,
        }
    }
}

/// Result of one reverse-diffusion run: the initial synthetic graph
/// `G_ini` (as parent lists) plus the final edge-probability matrix.
#[derive(Clone, Debug)]
pub struct SampledGraph {
    /// Parent lists of `G_ini` (deduplicated, unordered).
    pub parents: Vec<Vec<u32>>,
    /// Final-step edge probabilities `P_E^{(0)}`.
    pub probs: EdgeProbs,
}

/// Sparse edge-probability matrix with a default for unscored pairs.
///
/// Keyed through a cheap multiply-xor hasher — the sampler records one
/// entry per candidate pair per step, and every read is key-addressed
/// or explicitly sorted ([`EdgeProbs::candidates_for`]), so map order
/// never reaches the output bytes.
#[derive(Clone, Debug)]
pub struct EdgeProbs {
    map: HashMap<(u32, u32), f32, syncircuit_graph::hash::FxBuildHasher>,
    default: f32,
}

impl EdgeProbs {
    /// Creates an edge-probability table with the given default for
    /// unscored pairs.
    pub fn new(default: f32) -> Self {
        EdgeProbs {
            map: HashMap::default(),
            default,
        }
    }

    /// Probability of the directed edge `from → to`.
    pub fn get(&self, from: u32, to: u32) -> f32 {
        self.map.get(&(from, to)).copied().unwrap_or(self.default)
    }

    /// Pre-sizes the table for `n` additional pairs (allocation hoist
    /// for bulk recording; never observable in the contents).
    pub(crate) fn reserve(&mut self, n: usize) {
        self.map.reserve(n);
    }

    /// Records a probability (keeps the maximum on repeat inserts, so
    /// late-step refinements never erase earlier candidates).
    pub fn record(&mut self, from: u32, to: u32, p: f32) {
        self.map
            .entry((from, to))
            .and_modify(|old| *old = old.max(p))
            .or_insert(p);
    }

    /// Number of explicitly scored pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no pair was scored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All scored pairs `(from, to, p)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        self.map.iter().map(|(&(f, t), &p)| (f, t, p))
    }

    /// Candidate parents of node `to`, sorted by descending probability
    /// (ties broken by node id for determinism).
    pub fn candidates_for(&self, to: u32) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = self
            .map
            .iter()
            .filter(|(&(_, t), _)| t == to)
            .map(|(&(f, _), &p)| (f, p))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// A trained diffusion model over circuit DCGs.
///
/// Persists through the versioned model artifact (see
/// [`crate::persist`]): the parameter store and hyper-parameters are
/// stored verbatim, and the denoiser architecture is rebuilt from the
/// config on load.
#[derive(Debug)]
pub struct DiffusionModel {
    pub(crate) store: ParamStore,
    pub(crate) denoiser: Denoiser,
    pub(crate) config: DiffusionConfig,
    /// Mean out-degree of the training corpus (noise-density prior).
    pub(crate) mean_degree: f64,
    /// Precomputed `t_emb(t)` / `r(t)` / `d(t)` rows for every step —
    /// a pure function of the trained parameters, rebuilt whenever a
    /// model is assembled (end of training or artifact restore), which
    /// is the only time parameters can change.
    pub(crate) time_cache: TimeEmbCache,
    /// Panel-packed serving copies of every weight matrix the sampler
    /// multiplies by (same lifecycle as `time_cache`: rebuilt at
    /// assembly, immutable afterwards).
    pub(crate) weight_pack: DenoiserWeightPack,
}

/// Reusable buffers for [`DiffusionModel::sample_with`]: the denoiser
/// inference scratch, the CSR adjacency rebuilt in place each step, the
/// parent/pair/probability vectors, and the epoch-stamped per-node sets
/// that replace the per-step hash sets. One scratch serves any sequence
/// of requests of any size; reuse never changes sampled bytes
/// (property-tested in `tests/infer_equivalence.rs`).
#[derive(Debug, Default)]
pub struct SamplerScratch {
    den: DenoiserScratch,
    feats: Matrix,
    proj: Matrix,
    adj: RowNormAdj,
    current: Vec<Vec<u32>>,
    next: Vec<Vec<u32>>,
    pairs: Vec<(u32, u32)>,
    p0: Vec<f32>,
    rec_by_dst: Vec<Vec<(u32, f32)>>,
    rec_slot: Vec<f32>,
    rec_touched: Vec<u32>,
    stamps: NodeStamps,
    reg_mask: Vec<bool>,
}

impl SamplerScratch {
    /// Empty scratch; buffers grow to the request size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Epoch-stamped per-node membership set (the `ConeScratch` trick):
/// `begin` bumps the epoch instead of clearing, so membership resets in
/// O(1) and the backing vector is reused across steps and requests.
#[derive(Debug, Default)]
struct NodeStamps {
    stamp: Vec<u32>,
    epoch: u32,
}

impl NodeStamps {
    /// Starts a fresh empty set over `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Inserts `i`, returning `true` when it was not yet present.
    fn insert(&mut self, i: u32) -> bool {
        let slot = &mut self.stamp[i as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    fn contains(&self, i: u32) -> bool {
        self.stamp[i as usize] == self.epoch
    }
}

/// Per-graph data pre-extracted once before the epoch loop.
struct TrainGraph {
    feats: Matrix,
    edges: Vec<(u32, u32)>,
    n: usize,
    schedule: NoiseSchedule,
}

/// Seed of the per-`(epoch, graph)` corruption/negative-sampling RNG:
/// a splitmix64 chain over the master seed, so every graph's gradient
/// contribution is a pure function of `(params, graph, epoch)` — the
/// property that lets [`DiffusionModel::train_with_workers`] compute
/// them on any thread and still merge bit-identically.
fn epoch_graph_seed(seed: u64, epoch: usize, graph: usize) -> u64 {
    splitmix64(splitmix64(seed ^ 0x9E37_79B9_7F4A_7C15) ^ ((epoch as u64) << 32 | graph as u64))
}

impl DiffusionModel {
    /// Trains the denoiser on real circuits (single worker; see
    /// [`DiffusionModel::train_with_workers`] for the parallel
    /// bit-identical variant).
    ///
    /// Training is epoch-synchronous: every epoch computes one BCE
    /// gradient per corpus graph against the epoch-start parameters
    /// (per-graph RNG seeded by a splitmix64 chain over
    /// `(master seed, epoch, graph index)`), merges them in corpus
    /// order, averages, clips, and applies a single Adam step.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCorpus`] when `graphs` is empty.
    pub fn train(
        graphs: &[CircuitGraph],
        config: DiffusionConfig,
        seed: u64,
    ) -> Result<Self, Error> {
        Self::train_with_workers(graphs, config, seed, 1)
    }

    /// [`DiffusionModel::train`] with per-graph gradient work fanned out
    /// across `workers` scoped threads.
    ///
    /// **Bit-identical to the sequential path** for every worker count:
    /// each graph's gradient is a pure function of the epoch-start
    /// parameters and its derived seed, results land in per-graph slots,
    /// and the merge (sum → average → clip → Adam) always runs on one
    /// thread in corpus order — so the only thing parallelism changes is
    /// wall-clock time (property-tested in
    /// `tests/shared_cache_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCorpus`] when `graphs` is empty.
    pub fn train_with_workers(
        graphs: &[CircuitGraph],
        config: DiffusionConfig,
        seed: u64,
        workers: usize,
    ) -> Result<Self, Error> {
        if graphs.is_empty() {
            return Err(Error::EmptyCorpus);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let denoiser = Denoiser::new(
            &mut store,
            config.hidden,
            config.layers,
            config.steps,
            &mut rng,
        );
        let mut adam = Adam::with_lr(config.lr);

        let total_nodes: usize = graphs.iter().map(CircuitGraph::node_count).sum();
        let total_edges: usize = graphs.iter().map(CircuitGraph::edge_count).sum();
        let mean_degree = (total_edges as f64 / total_nodes.max(1) as f64).max(0.5);

        // Pre-extract per-graph data.
        let prepared: Vec<TrainGraph> = graphs
            .iter()
            .map(|g| {
                let attrs: Vec<Node> = g.iter().map(|(_, n)| *n).collect();
                let mut edges: Vec<(u32, u32)> = g
                    .edges()
                    .map(|e| (e.from.index() as u32, e.to.index() as u32))
                    .collect();
                edges.sort_unstable();
                edges.dedup();
                let n = g.node_count();
                let pi = (mean_degree / n.max(2) as f64).clamp(1e-4, 0.5);
                TrainGraph {
                    feats: feature_matrix(&attrs),
                    edges,
                    n,
                    schedule: NoiseSchedule::cosine(config.steps, pi),
                }
            })
            .collect();

        for epoch in 0..config.epochs {
            let slots: Vec<Option<Gradients>> =
                crate::par::parallel_map(prepared.len(), workers, |gi| {
                    graph_gradient(
                        &store,
                        &denoiser,
                        &config,
                        &prepared[gi],
                        epoch_graph_seed(seed, epoch, gi),
                    )
                });

            // Deterministic reduction: sum in corpus order (f32 addition
            // is order-sensitive), average over contributing graphs,
            // clip, one Adam step per epoch.
            let mut merged: Option<Gradients> = None;
            let mut contributing = 0usize;
            for g in slots {
                let Some(g) = g else { continue };
                contributing += 1;
                match merged.as_mut() {
                    Some(m) => m.accumulate(&g),
                    None => merged = Some(g),
                }
            }
            if let Some(mut grads) = merged {
                grads.scale(1.0 / contributing as f32);
                grads.clip_norm(config.grad_clip);
                adam.step(&mut store, &grads);
            }
        }

        Ok(DiffusionModel::assemble(store, denoiser, config, mean_degree))
    }

    /// Final assembly shared by training and artifact restore: builds
    /// the per-model time-embedding cache from the (now final)
    /// parameters. Parameters never change after assembly, so the cache
    /// cannot go stale — a re-`fit` produces a new model and with it a
    /// fresh cache.
    pub(crate) fn assemble(
        store: ParamStore,
        denoiser: Denoiser,
        config: DiffusionConfig,
        mean_degree: f64,
    ) -> Self {
        let time_cache = denoiser.build_time_cache(&store);
        let weight_pack = denoiser.pack_weights(&store);
        DiffusionModel {
            store,
            denoiser,
            config,
            mean_degree,
            time_cache,
            weight_pack,
        }
    }

    /// Configured hyper-parameters.
    pub fn config(&self) -> &DiffusionConfig {
        &self.config
    }

    /// Mean out-degree learned from the corpus.
    pub fn mean_degree(&self) -> f64 {
        self.mean_degree
    }

    /// Configured diffusion steps.
    pub fn steps(&self) -> usize {
        self.config.steps
    }

    /// Runs the reverse denoising process conditioned on node attributes,
    /// producing `G_ini` and `P_E^{(0)}`.
    ///
    /// One-shot convenience over [`DiffusionModel::sample_with`]: a
    /// private scratch amortizes all per-step buffers over the steps of
    /// this call. Long-lived callers (streams, batch workers) hold a
    /// [`SamplerScratch`] and amortize across requests too.
    pub fn sample(&self, attrs: &[Node], seed: u64) -> SampledGraph {
        self.sample_with(attrs, seed, &mut SamplerScratch::new())
    }

    /// [`DiffusionModel::sample`] with caller-owned scratch buffers —
    /// the serving hot path.
    ///
    /// The reverse loop runs entirely on the forward-only inference
    /// engine with the per-model time-embedding cache; the per-step
    /// hash sets of the original implementation are epoch-stamped
    /// per-node sets, the CSR adjacency is rebuilt in place, and the
    /// feature matrix is built once per call. Output bytes are
    /// **identical** to [`DiffusionModel::sample_via_tape`] for every
    /// `(attrs, seed)` — same RNG draw sequence, bit-equal
    /// probabilities — regardless of whether `scratch` is cold or was
    /// used by any other request before (property-tested in
    /// `tests/infer_equivalence.rs`).
    pub fn sample_with(
        &self,
        attrs: &[Node],
        seed: u64,
        scratch: &mut SamplerScratch,
    ) -> SampledGraph {
        let n = attrs.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = (self.mean_degree / n.max(2) as f64).clamp(1e-4, 0.5);
        let schedule = NoiseSchedule::cosine(self.config.steps, pi);
        feature_matrix_into(attrs, &mut scratch.feats);
        // The encoder's feature projection is step-invariant: hoist it
        // out of the reverse-diffusion loop (bit-identical, see
        // `Denoiser::project_features_into`).
        self.denoiser.project_features_into(
            &self.store,
            &scratch.feats,
            &self.weight_pack,
            &mut scratch.proj,
        );
        scratch.reg_mask.clear();
        scratch
            .reg_mask
            .extend(attrs.iter().map(|a| a.ty() == NodeType::Reg));

        // A_T ~ Bernoulli(π) per ordered pair (self-pairs only for regs).
        reset_buckets(&mut scratch.current, n);
        for j in 0..n {
            for i in 0..n {
                if i == j && !scratch.reg_mask[j] {
                    continue;
                }
                if rng.gen_bool(pi) {
                    scratch.current[j].push(i as u32);
                }
            }
        }

        reset_buckets(&mut scratch.rec_by_dst, n);
        for t in (1..=self.config.steps).rev() {
            candidate_pairs_into(
                self.config.decode,
                &scratch.current,
                n,
                &scratch.reg_mask,
                &mut rng,
                &mut scratch.stamps,
                &mut scratch.pairs,
            );
            if scratch.pairs.is_empty() {
                continue;
            }
            scratch.adj.rebuild_from_parents(&scratch.current);
            self.denoiser.predict_probs_into(
                &self.store,
                &scratch.proj,
                &scratch.adj,
                &scratch.pairs,
                t,
                &self.time_cache,
                &self.weight_pack,
                &mut scratch.den,
                &mut scratch.p0,
            );
            // The two-state posterior depends only on `(t, a_t, a_0)` —
            // hoist all four values out of the pair loop;
            // `posterior_prob` is then the same two multiplies per pair
            // (bit-identical to calling it directly).
            let post = [
                [
                    schedule.posterior_given_a0(t, false, false),
                    schedule.posterior_given_a0(t, false, true),
                ],
                [
                    schedule.posterior_given_a0(t, true, false),
                    schedule.posterior_given_a0(t, true, true),
                ],
            ];

            // Candidate pairs are grouped by destination `j` (both
            // decode modes emit them that way), so current-edge lookup
            // for posterior conditioning stamps one parent list per
            // group instead of building an edge hash set.
            reset_buckets(&mut scratch.next, n);
            let mut group_j = u32::MAX;
            for (k, &(i, j)) in scratch.pairs.iter().enumerate() {
                if j != group_j {
                    debug_assert!(group_j == u32::MAX || j > group_j, "pairs must stay grouped");
                    scratch.stamps.begin(n);
                    for &p in &scratch.current[j as usize] {
                        scratch.stamps.insert(p);
                    }
                    group_j = j;
                }
                let a_t = scratch.stamps.contains(i);
                let p0_k = scratch.p0[k];
                let p0 = (p0_k as f64).clamp(0.0, 1.0);
                let p_prev = p0 * post[a_t as usize][1] + (1.0 - p0) * post[a_t as usize][0];
                if rng.gen_bool(p_prev.clamp(0.0, 1.0)) {
                    scratch.next[j as usize].push(i);
                }
                if t == 1 {
                    scratch.rec_by_dst[j as usize].push((i, p0_k));
                } else {
                    // keep intermediate evidence as a fallback prior
                    scratch.rec_by_dst[j as usize].push((i, p0_k * 0.5));
                }
            }
            for ps in scratch.next.iter_mut() {
                ps.sort_unstable();
                ps.dedup();
            }
            std::mem::swap(&mut scratch.current, &mut scratch.next);
        }

        // Deferred probability consolidation: `record` keeps the maximum
        // over repeat sightings, and max is order-insensitive, so
        // folding the per-destination record logs through an
        // epoch-stamped slot array and bulk-inserting with reserved
        // capacity yields exactly the map the per-pair `record` calls
        // build — without growing a hash table inside the hot loop.
        let mut probs = EdgeProbs::new((pi * 0.5) as f32);
        probs.reserve(scratch.rec_by_dst.iter().map(Vec::len).sum());
        if scratch.rec_slot.len() < n {
            scratch.rec_slot.resize(n, 0.0);
        }
        for (j, bucket) in scratch.rec_by_dst.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            scratch.stamps.begin(n);
            scratch.rec_touched.clear();
            for &(i, p) in bucket {
                let slot = &mut scratch.rec_slot[i as usize];
                if scratch.stamps.insert(i) {
                    *slot = p;
                    scratch.rec_touched.push(i);
                } else {
                    *slot = slot.max(p);
                }
            }
            for &i in &scratch.rec_touched {
                probs.record(i, j as u32, scratch.rec_slot[i as usize]);
            }
        }

        SampledGraph {
            parents: scratch.current.clone(),
            probs,
        }
    }

    /// The original tape-based reverse-diffusion loop, kept verbatim as
    /// the **oracle** for the inference engine: per step it re-runs the
    /// full autodiff tape, clones the feature matrix, and rebuilds hash
    /// sets — byte-equality of [`DiffusionModel::sample_with`] against
    /// this path at every seed/config is what the `infer_equivalence`
    /// property suite asserts.
    pub fn sample_via_tape(&self, attrs: &[Node], seed: u64) -> SampledGraph {
        let n = attrs.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = (self.mean_degree / n.max(2) as f64).clamp(1e-4, 0.5);
        let schedule = NoiseSchedule::cosine(self.config.steps, pi);
        let feats = feature_matrix(attrs);
        let reg_mask: Vec<bool> = attrs.iter().map(|a| a.ty() == NodeType::Reg).collect();

        // A_T ~ Bernoulli(π) per ordered pair (self-pairs only for regs).
        let mut current: Vec<Vec<u32>> = vec![Vec::new(); n];
        for j in 0..n {
            for i in 0..n {
                if i == j && !reg_mask[j] {
                    continue;
                }
                if rng.gen_bool(pi) {
                    current[j].push(i as u32);
                }
            }
        }

        let mut probs = EdgeProbs::new((pi * 0.5) as f32);
        for t in (1..=self.config.steps).rev() {
            let pairs = self.candidate_pairs(&current, n, &reg_mask, &mut rng);
            if pairs.is_empty() {
                continue;
            }
            let adj = adjacency_operator(&current);
            let p0 = self
                .denoiser
                .predict_probs(&self.store, feats.clone(), &adj, &pairs, t);

            // Current-edge lookup for posterior conditioning.
            let now: std::collections::HashSet<(u32, u32)> = current
                .iter()
                .enumerate()
                .flat_map(|(j, ps)| ps.iter().map(move |&i| (i, j as u32)))
                .collect();

            let mut next: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (k, &(i, j)) in pairs.iter().enumerate() {
                let a_t = now.contains(&(i, j));
                let p_prev = schedule.posterior_prob(t, a_t, p0[k] as f64);
                if rng.gen_bool(p_prev.clamp(0.0, 1.0)) {
                    next[j as usize].push(i);
                }
                if t == 1 {
                    probs.record(i, j, p0[k]);
                } else {
                    // keep intermediate evidence as a fallback prior
                    probs.record(i, j, p0[k] * 0.5);
                }
            }
            for ps in next.iter_mut() {
                ps.sort_unstable();
                ps.dedup();
            }
            current = next;
        }

        SampledGraph {
            parents: current,
            probs,
        }
    }

    fn candidate_pairs(
        &self,
        current: &[Vec<u32>],
        n: usize,
        reg_mask: &[bool],
        rng: &mut StdRng,
    ) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        match self.config.decode {
            DecodeMode::Dense => {
                for (j, &j_is_reg) in reg_mask.iter().enumerate() {
                    for i in 0..n {
                        if i == j && !j_is_reg {
                            continue;
                        }
                        pairs.push((i as u32, j as u32));
                    }
                }
            }
            DecodeMode::Sparse {
                candidates_per_node,
            } => {
                let mut seen: std::collections::HashSet<(u32, u32)> =
                    std::collections::HashSet::new();
                for (j, ps) in current.iter().enumerate() {
                    for &i in ps {
                        if seen.insert((i, j as u32)) {
                            pairs.push((i, j as u32));
                        }
                    }
                    for _ in 0..candidates_per_node {
                        let i = rng.gen_range(0..n as u32);
                        if i as usize == j && !reg_mask[j] {
                            continue;
                        }
                        if seen.insert((i, j as u32)) {
                            pairs.push((i, j as u32));
                        }
                    }
                }
            }
        }
        pairs
    }
}

/// Clears `lists` to `n` empty buckets, keeping every inner allocation
/// for reuse.
fn reset_buckets<T>(lists: &mut Vec<Vec<T>>, n: usize) {
    if lists.len() > n {
        lists.truncate(n);
    }
    for l in lists.iter_mut() {
        l.clear();
    }
    while lists.len() < n {
        lists.push(Vec::new());
    }
}

/// Scratch-buffer variant of [`DiffusionModel::candidate_pairs`]: same
/// pair order and same RNG draw sequence, but the dedup set is an
/// epoch-stamped per-node set (candidates are grouped by destination
/// `j`, so dedup only ever needs the sources of the current group) and
/// the output vector is reused.
fn candidate_pairs_into(
    decode: DecodeMode,
    current: &[Vec<u32>],
    n: usize,
    reg_mask: &[bool],
    rng: &mut StdRng,
    stamps: &mut NodeStamps,
    pairs: &mut Vec<(u32, u32)>,
) {
    pairs.clear();
    match decode {
        DecodeMode::Dense => {
            for (j, &j_is_reg) in reg_mask.iter().enumerate() {
                for i in 0..n {
                    if i == j && !j_is_reg {
                        continue;
                    }
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        DecodeMode::Sparse {
            candidates_per_node,
        } => {
            for (j, ps) in current.iter().enumerate() {
                stamps.begin(n);
                for &i in ps {
                    if stamps.insert(i) {
                        pairs.push((i, j as u32));
                    }
                }
                for _ in 0..candidates_per_node {
                    let i = rng.gen_range(0..n as u32);
                    if i as usize == j && !reg_mask[j] {
                        continue;
                    }
                    if stamps.insert(i) {
                        pairs.push((i, j as u32));
                    }
                }
            }
        }
    }
}

/// One graph's BCE gradient against the epoch-start parameters: corrupt
/// with the derived RNG, assemble candidate pairs (positives + sampled
/// negatives + noisy-present pairs), forward, backward. Returns `None`
/// when the graph contributes no candidate pairs.
///
/// Pure in `(store, prepared graph, rng_seed)` — safe to compute on any
/// worker thread without affecting the merged result.
fn graph_gradient(
    store: &ParamStore,
    denoiser: &Denoiser,
    config: &DiffusionConfig,
    tg: &TrainGraph,
    rng_seed: u64,
) -> Option<Gradients> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let t = rng.gen_range(1..=config.steps);
    let (noisy_parents, noisy_edges) = corrupt(&tg.edges, tg.n, &tg.schedule, t, &mut rng);

    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut labels: Vec<f32> = Vec::new();
    let pos: std::collections::HashSet<(u32, u32)> = tg.edges.iter().copied().collect();
    for &e in &tg.edges {
        pairs.push(e);
        labels.push(1.0);
    }
    let neg_count = ((tg.edges.len() as f64) * config.neg_ratio).ceil() as usize;
    for _ in 0..neg_count {
        let i = rng.gen_range(0..tg.n as u32);
        let j = rng.gen_range(0..tg.n as u32);
        if !pos.contains(&(i, j)) {
            pairs.push((i, j));
            labels.push(0.0);
        }
    }
    for &e in &noisy_edges {
        if !pos.contains(&e) {
            pairs.push(e);
            labels.push(0.0);
        }
    }
    if pairs.is_empty() {
        return None;
    }

    let adj = adjacency_operator(&noisy_parents);
    let mut tape = Tape::new(store);
    let h = denoiser.encode(&mut tape, tg.feats.clone(), &adj, t);
    let logits = denoiser.decode_pairs(&mut tape, h, &pairs, t);
    let targets = Matrix::from_vec(pairs.len(), 1, labels);
    let loss = tape.bce_with_logits_mean(logits, targets);
    Some(tape.backward(loss))
}

/// Applies the closed-form forward corruption at step `t`: every true
/// edge survives with probability ᾱ_t + (1−ᾱ_t)·π; every non-edge turns
/// on with probability (1−ᾱ_t)·π. Returns parent lists and the edge list
/// of `A_t`.
fn corrupt(
    edges: &[(u32, u32)],
    n: usize,
    schedule: &NoiseSchedule,
    t: usize,
    rng: &mut StdRng,
) -> (Vec<Vec<u32>>, Vec<(u32, u32)>) {
    let keep_p = schedule.forward_prob(t, true);
    let flip_p = schedule.forward_prob(t, false);
    let mut parents: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut out_edges = Vec::new();
    let pos: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
    for &(i, j) in edges {
        if rng.gen_bool(keep_p) {
            parents[j as usize].push(i);
            out_edges.push((i, j));
        }
    }
    // Noise insertions: expected flip_p·(n²−m); sample count then place
    // uniformly (avoiding duplicates cheaply).
    let total_pairs = (n * n).saturating_sub(edges.len());
    let expected = flip_p * total_pairs as f64;
    let count = sample_poissonish(expected, rng);
    for _ in 0..count {
        let i = rng.gen_range(0..n as u32);
        let j = rng.gen_range(0..n as u32);
        if pos.contains(&(i, j)) {
            continue;
        }
        parents[j as usize].push(i);
        out_edges.push((i, j));
    }
    for ps in parents.iter_mut() {
        ps.sort_unstable();
        ps.dedup();
    }
    out_edges.sort_unstable();
    out_edges.dedup();
    (parents, out_edges)
}

/// Samples an integer with the given mean (Poisson via inversion for
/// small means, normal approximation for large ones).
fn sample_poissonish(mean: f64, rng: &mut StdRng) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let l = (-mean).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l || k > 1000 {
                return k;
            }
            k += 1;
        }
    } else {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + z * mean.sqrt()).round().max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::testing::random_circuit_with_size;

    fn tiny_corpus(seed: u64, count: usize) -> Vec<CircuitGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| random_circuit_with_size(&mut rng, 25))
            .collect()
    }

    #[test]
    fn training_and_sampling_end_to_end() {
        let corpus = tiny_corpus(5, 3);
        let model = DiffusionModel::train(&corpus, DiffusionConfig::tiny(), 42).unwrap();
        let attrs: Vec<Node> = corpus[0].iter().map(|(_, n)| *n).collect();
        let sampled = model.sample(&attrs, 7);
        assert_eq!(sampled.parents.len(), attrs.len());
        assert!(!sampled.probs.is_empty(), "final step must score pairs");
        let edge_count: usize = sampled.parents.iter().map(Vec::len).sum();
        // density should be in a sane band around the corpus density
        let expected = model.mean_degree() * attrs.len() as f64;
        assert!(
            (edge_count as f64) < expected * 5.0 + 20.0,
            "exploded: {edge_count} vs expected ~{expected}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let corpus = tiny_corpus(6, 2);
        let model = DiffusionModel::train(&corpus, DiffusionConfig::tiny(), 1).unwrap();
        let attrs: Vec<Node> = corpus[0].iter().map(|(_, n)| *n).collect();
        let a = model.sample(&attrs, 9);
        let b = model.sample(&attrs, 9);
        assert_eq!(a.parents, b.parents);
        let c = model.sample(&attrs, 10);
        assert!(a.parents != c.parents || a.probs.len() != c.probs.len());
    }

    #[test]
    fn dense_mode_scores_all_pairs() {
        let corpus = tiny_corpus(8, 2);
        let mut cfg = DiffusionConfig::tiny();
        cfg.decode = DecodeMode::Dense;
        cfg.epochs = 3;
        let model = DiffusionModel::train(&corpus, cfg, 2).unwrap();
        let attrs: Vec<Node> = corpus[0].iter().map(|(_, n)| *n).collect();
        let sampled = model.sample(&attrs, 3);
        let n = attrs.len();
        let regs = attrs.iter().filter(|a| a.ty() == NodeType::Reg).count();
        // all ordered pairs except non-register self loops
        assert_eq!(sampled.probs.len(), n * n - (n - regs));
    }

    #[test]
    fn corrupt_zero_steps_is_identity_at_t0_marginal() {
        // At t=1 with tiny β, almost all edges survive.
        let mut rng = StdRng::seed_from_u64(3);
        let edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, (i + 1) % 20)).collect();
        let schedule = NoiseSchedule::cosine(9, 0.01);
        let (_, kept) = corrupt(&edges, 20, &schedule, 1, &mut rng);
        assert!(kept.len() >= 18, "kept only {}", kept.len());
    }

    #[test]
    fn corrupt_final_step_is_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let edges: Vec<(u32, u32)> = (0..30u32).map(|i| (i, (i + 1) % 30)).collect();
        let original: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
        let schedule = NoiseSchedule::cosine(9, 0.03);
        let (_, at) = corrupt(&edges, 30, &schedule, 9, &mut rng);
        // ᾱ_9 ≈ 0: original edges survive only at the π noise level.
        let survivors = at.iter().filter(|e| original.contains(e)).count();
        assert!(survivors < 10, "{survivors} original edges survive at t=T");
        // and fresh noise edges appear
        let noise = at.iter().filter(|e| !original.contains(e)).count();
        assert!(noise > 5, "expected noise insertions, got {noise}");
    }

    #[test]
    fn edge_probs_candidates_sorted() {
        let mut p = EdgeProbs::new(0.01);
        p.record(3, 1, 0.9);
        p.record(5, 1, 0.4);
        p.record(2, 1, 0.9);
        p.record(7, 2, 0.8);
        let c = p.candidates_for(1);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].0, 2); // 0.9, tie broken by id
        assert_eq!(c[1].0, 3);
        assert_eq!(c[2].0, 5);
        assert_eq!(p.get(9, 9), 0.01);
    }

    #[test]
    fn edge_probs_record_keeps_max() {
        let mut p = EdgeProbs::new(0.0);
        p.record(1, 2, 0.3);
        p.record(1, 2, 0.8);
        p.record(1, 2, 0.1);
        assert!((p.get(1, 2) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn poissonish_sampler_mean() {
        let mut rng = StdRng::seed_from_u64(11);
        for mean in [0.5, 5.0, 80.0] {
            let total: usize = (0..2000).map(|_| sample_poissonish(mean, &mut rng)).sum();
            let avg = total as f64 / 2000.0;
            assert!(
                (avg - mean).abs() < mean * 0.15 + 0.1,
                "mean {mean}: got {avg}"
            );
        }
    }
}
