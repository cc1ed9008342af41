//! Phase 3 — MCTS-based redundancy refinement (paper §VI).
//!
//! Synthetic circuits fresh out of Phase 2 carry heavy logic redundancy:
//! synthesis deletes registers whose driving cones collapse *and*
//! registers whose values never reach an output. This module implements
//! the paper's search:
//!
//! - **state** — an adjacency matrix (a circuit graph);
//! - **action** — the atomic *parent swap*: edges `(i→j)` and `(p→q)`
//!   become `(p→j)` and `(i→q)`, preserving every node's in- and
//!   out-degree; each action is validity-checked against `C`;
//! - **reward** — post-synthesis circuit size (PCS), from the exact
//!   synthesis simulator, the dirty-cone incremental evaluator
//!   ([`IncrementalConeReward`], which re-scores only the cones a swap
//!   touched, from a per-apex memo diffed against the previous state),
//!   or a trained discriminator ([`crate::discriminator`]);
//! - **selection** — UCB1 with `c = √2`;
//! - **simulation/backprop** — the paper's modification: the value
//!   propagated is the *maximum* reward seen along the simulation path,
//!   not the terminal value, and the globally best state is returned.
//!
//! Registers are optimized "one by one" (§VI-A): for each target
//! register, the search runs on the **full design** with swaps biased to
//! edges incident to that register's driving cone, and the design-level
//! PCS as reward.
//!
//! # Zero-clone evaluation engine
//!
//! The search never clones the working graph per step. One
//! [`SwapGraph`] holds the state; tree edges store the [`SwapDelta`]
//! returned by its in-place `try_apply`, and each simulation descends
//! by replaying deltas and rewinds by undoing them in LIFO order
//! (O(arity) each, with the children index and the Zobrist adjacency
//! fingerprint maintained incrementally — see
//! `syncircuit_graph::swap`). Candidate swap sampling reads a live
//! `PoolView`: the full-design pool has a *static* layout because
//! swaps preserve every in-degree, so a pool index maps to a fixed
//! `(child, slot)` pair and the current parent is read straight from
//! the graph; the cone-focused pool keeps per-child focused-slot counts
//! in a Fenwick tree patched per swap instead of being rebuilt from
//! `scope.pools()` on every rollout step. Rewards are memoized by the
//! maintained fingerprint (`RewardCache` semantics unchanged), and
//! the state is only cloned when a new global best is found.
//!
//! The pre-existing clone-based implementation survives unchanged in
//! [`oracle`] as a reference: property tests assert the fast engine
//! produces byte-identical [`MctsOutcome`]s (best graph, reward bits,
//! evaluation counts) on random circuits under fixed seeds.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use syncircuit_graph::cone::all_driving_cones;
use syncircuit_graph::fingerprint::zobrist_fingerprint;
use syncircuit_graph::swap::{SwapDelta, SwapGraph};
use syncircuit_graph::{CircuitGraph, NodeId};
use std::sync::Arc;
use syncircuit_synth::incremental::{ConeCacheStats, ConeSynthCache, SharedConeSynthCache};

/// Reward oracle: post-synthesis circuit size of a candidate state.
pub trait RewardModel {
    /// PCS of the circuit (larger ⇒ less redundancy).
    fn pcs(&self, g: &CircuitGraph) -> f64;
}

/// Exact reward through the synthesis simulator.
#[derive(Clone, Debug, Default)]
pub struct ExactSynthReward {
    lib: syncircuit_synth::CellLibrary,
}

impl ExactSynthReward {
    /// Exact reward with the default cell library.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RewardModel for ExactSynthReward {
    fn pcs(&self, g: &CircuitGraph) -> f64 {
        // Bit-identical to `pcs(&optimize_with(g, lib))`, but skips
        // netlist materialization (see `syncircuit_synth::pcs_with`).
        syncircuit_synth::pcs_with(g, &self.lib)
    }
}

/// Dirty-cone incremental reward: design PCS decomposed into per-cone
/// synthesis results (`syncircuit_synth::incremental`). The evaluator
/// keeps a per-apex memo of the graph it scored last and diffs each new
/// state against it in O(V + E), so a reward query after a swap only
/// re-walks, re-keys and looks up the cones holding a node whose parent
/// list changed; a cone missing from the shared table is synthesized
/// straight from the host graph. Deterministic and self-consistent, but
/// *not* bit-identical to [`ExactSynthReward`] (global CSE is invisible
/// to cone-local synthesis); use it where reward-model throughput
/// dominates, e.g. full-design register optimization.
///
/// The memo table can be shared between reward instances — and between
/// worker threads — via [`IncrementalConeReward::with_shared`]: each
/// instance keeps private query scratch (this type is deliberately
/// `!Sync`; give every worker its own instance over one
/// [`SharedConeSynthCache`] `Arc`), while cone synthesis results
/// deduplicate globally. Sharing never changes returned rewards: the
/// table memoizes a pure function of cone structure.
#[derive(Debug, Default)]
pub struct IncrementalConeReward {
    cache: RefCell<ConeSynthCache>,
}

impl IncrementalConeReward {
    /// Evaluator with the default cell library and a private table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluator view over an existing shared cone-synthesis table
    /// (fresh private scratch, shared memo entries).
    pub fn with_shared(shared: Arc<SharedConeSynthCache>) -> Self {
        IncrementalConeReward {
            cache: RefCell::new(ConeSynthCache::with_shared(shared)),
        }
    }

    /// Cone-cache hit/miss counters accumulated so far (summed over all
    /// views of the underlying table when it is shared). Hits count
    /// shared-table lookups only: cones the per-apex memo answers never
    /// reach the table.
    pub fn cache_stats(&self) -> ConeCacheStats {
        self.cache.borrow().stats()
    }
}

impl RewardModel for IncrementalConeReward {
    fn pcs(&self, g: &CircuitGraph) -> f64 {
        self.cache.borrow_mut().pcs(g)
    }
}

/// MCTS hyper-parameters.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MctsConfig {
    /// Simulations per register cone (paper: 500).
    pub simulations: usize,
    /// Maximum rollout depth (paper: 10).
    pub max_depth: usize,
    /// UCB1 exploration constant (paper: √2).
    pub exploration: f64,
    /// Candidate actions sampled when expanding a node.
    pub actions_per_expansion: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            simulations: 500,
            max_depth: 10,
            exploration: std::f64::consts::SQRT_2,
            actions_per_expansion: 12,
            seed: 0,
        }
    }
}

impl MctsConfig {
    /// Small configuration for tests.
    pub fn tiny() -> Self {
        MctsConfig {
            simulations: 30,
            max_depth: 4,
            actions_per_expansion: 6,
            ..MctsConfig::default()
        }
    }
}

/// Outcome of one optimization run.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MctsOutcome {
    /// Best state found (≥ initial by reward).
    pub best: CircuitGraph,
    /// Reward of the best state.
    pub best_reward: f64,
    /// Reward of the initial state.
    pub initial_reward: f64,
    /// Number of reward-model evaluations spent.
    pub evaluations: usize,
}

/// The atomic parent-swap action on two directed edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Swap {
    i: NodeId,
    j: NodeId,
    p: NodeId,
    q: NodeId,
}

/// Search scope: which edges may participate in swaps.
#[derive(Clone, Debug)]
struct Scope {
    /// Optional node mask biasing the first edge of every swap.
    focus: Option<Vec<bool>>,
    /// Whether edges into output ports may be swapped (full-design mode).
    include_sink_inputs: bool,
}

/// Fenwick (binary indexed) tree over per-child focused-slot counts,
/// supporting O(log n) point update and rank-select.
#[derive(Clone, Debug)]
struct Fenwick {
    tree: Vec<usize>,
}

impl Fenwick {
    fn from_counts(counts: &[usize]) -> Fenwick {
        let mut f = Fenwick {
            tree: vec![0; counts.len() + 1],
        };
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                f.add(i, c as isize);
            }
        }
        f
    }

    fn add(&mut self, mut i: usize, delta: isize) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as isize + delta) as usize;
            i += i & i.wrapping_neg();
        }
    }

    /// Finds the child owning global rank `r` (0-based) and the rank
    /// remainder within that child.
    fn select(&self, mut r: usize) -> (usize, usize) {
        let mut pos = 0usize;
        let mut bit = self.tree.len().next_power_of_two() >> 1;
        while bit > 0 {
            let next = pos + bit;
            if next < self.tree.len() && self.tree[next] <= r {
                r -= self.tree[next];
                pos = next;
            }
            bit >>= 1;
        }
        (pos, r)
    }
}

/// Focused-subset index of the first-edge pool under a cone mask.
#[derive(Clone, Debug)]
struct FocusIndex {
    mask: Vec<bool>,
    counts: Vec<usize>,
    fenwick: Fenwick,
    total: usize,
}

/// Live view of the swap-sampling edge pools.
///
/// Replaces the per-state `EdgePools` materialization of the reference
/// path: the full-design pool (`second`) enumerates edges in canonical
/// child-major slot order, and since swaps preserve every in-degree its
/// index → `(child, slot)` layout is immutable — the current parent is
/// read live from the graph. The cone-focused pool (`first`) is the
/// canonical-order subset of slots whose edge touches the mask; its
/// per-child cardinalities live in a Fenwick tree patched in O(log n)
/// when a swap rewrites a child's parent list. Sampling draws the same
/// uniform indices over the same pool orderings as the reference, so
/// the RNG streams stay bit-identical.
#[derive(Clone, Debug)]
struct PoolView {
    /// Static pool-index → (child, slot) map for the full-design pool.
    second_index: Vec<(u32, u32)>,
    /// Per-child inclusion (non-sink or `include_sink_inputs`).
    included: Vec<bool>,
    focus: Option<FocusIndex>,
}

impl PoolView {
    fn new(g: &CircuitGraph, scope: &Scope) -> PoolView {
        let n = g.node_count();
        let mut second_index = Vec::with_capacity(g.edge_count());
        let mut included = vec![false; n];
        for id in g.node_ids() {
            if !scope.include_sink_inputs && g.ty(id).is_sink() {
                continue;
            }
            included[id.index()] = true;
            for slot in 0..g.parents(id).len() {
                second_index.push((id.index() as u32, slot as u32));
            }
        }
        let focus = scope.focus.as_ref().map(|mask| {
            let counts: Vec<usize> = (0..n)
                .map(|c| focused_count(g, mask, &included, NodeId::new(c)))
                .collect();
            let total = counts.iter().sum();
            let fenwick = Fenwick::from_counts(&counts);
            FocusIndex {
                mask: mask.clone(),
                counts,
                fenwick,
                total,
            }
        });
        PoolView {
            second_index,
            included,
            focus,
        }
    }

    /// Re-derives one child's focused-slot count after its parent list
    /// changed under a swap (the only way pool membership can move).
    fn note_child_changed(&mut self, child: NodeId, g: &CircuitGraph) {
        let Some(f) = &mut self.focus else { return };
        let new = focused_count(g, &f.mask, &self.included, child);
        let old = f.counts[child.index()];
        if new != old {
            f.fenwick.add(child.index(), new as isize - old as isize);
            f.total = f.total + new - old;
            f.counts[child.index()] = new;
        }
    }

    fn second_len(&self) -> usize {
        self.second_index.len()
    }

    /// Length of the first-edge pool, including the reference's
    /// empty-focus fallback to the full pool.
    fn first_len(&self) -> usize {
        match &self.focus {
            Some(f) if f.total > 0 => f.total,
            _ => self.second_index.len(),
        }
    }

    /// The `r`-th edge of the full-design pool in canonical order.
    fn second(&self, r: usize, g: &CircuitGraph) -> (NodeId, NodeId) {
        let (c, slot) = self.second_index[r];
        let child = NodeId::new(c as usize);
        (g.parents(child)[slot as usize], child)
    }

    /// The `r`-th edge of the focused pool in canonical order.
    fn first(&self, r: usize, g: &CircuitGraph) -> (NodeId, NodeId) {
        match &self.focus {
            Some(f) if f.total > 0 => {
                let (c, mut rem) = f.fenwick.select(r);
                let child = NodeId::new(c);
                let ps = g.parents(child);
                if f.mask[c] {
                    (ps[rem], child)
                } else {
                    for &p in ps {
                        if f.mask[p.index()] {
                            if rem == 0 {
                                return (p, child);
                            }
                            rem -= 1;
                        }
                    }
                    unreachable!("fenwick rank within focused count")
                }
            }
            _ => self.second(r, g),
        }
    }
}

fn focused_count(g: &CircuitGraph, mask: &[bool], included: &[bool], child: NodeId) -> usize {
    if !included[child.index()] {
        return 0;
    }
    let ps = g.parents(child);
    if mask[child.index()] {
        ps.len()
    } else {
        ps.iter().filter(|p| mask[p.index()]).count()
    }
}

/// The zero-clone evaluation engine: one in-place graph plus the live
/// pool view, kept in sync across apply/replay/undo.
struct Engine {
    sg: SwapGraph,
    pool: PoolView,
}

impl Engine {
    fn new(initial: &CircuitGraph, scope: &Scope) -> Engine {
        let sg = SwapGraph::new(initial.clone());
        let pool = PoolView::new(sg.graph(), scope);
        Engine { sg, pool }
    }

    #[inline]
    fn graph(&self) -> &CircuitGraph {
        self.sg.graph()
    }

    #[inline]
    fn fp(&self) -> u64 {
        self.sg.fingerprint()
    }

    fn try_apply(&mut self, s: Swap) -> Option<SwapDelta> {
        let d = self.sg.try_apply(s.i, s.j, s.p, s.q)?;
        self.pool.note_child_changed(d.j, self.sg.graph());
        self.pool.note_child_changed(d.q, self.sg.graph());
        Some(d)
    }

    fn replay(&mut self, d: &SwapDelta) {
        self.sg.apply_replay(d);
        self.pool.note_child_changed(d.j, self.sg.graph());
        self.pool.note_child_changed(d.q, self.sg.graph());
    }

    fn undo(&mut self, d: &SwapDelta) {
        self.sg.undo(d);
        self.pool.note_child_changed(d.j, self.sg.graph());
        self.pool.note_child_changed(d.q, self.sg.graph());
    }

    /// Samples a candidate swap with the reference's exact RNG pattern:
    /// one uniform draw over the focused pool, one over the full pool.
    fn sample(&self, rng: &mut StdRng) -> Option<Swap> {
        let second_len = self.pool.second_len();
        if second_len < 2 {
            // The reference bails when `first` is empty or `second` has
            // fewer than two edges; with the fallback, `first` is empty
            // iff `second` is.
            return None;
        }
        let a = self.pool.first(rng.gen_range(0..self.pool.first_len()), self.graph());
        let b = self.pool.second(rng.gen_range(0..second_len), self.graph());
        Some(Swap {
            i: a.0,
            j: a.1,
            p: b.0,
            q: b.1,
        })
    }
}

use syncircuit_graph::hash::{FpBuildHasher, FxBuildHasher};

type SwapSet = HashSet<Swap, FxBuildHasher>;

/// Reward cache keyed by the state's adjacency fingerprint.
struct RewardCache<'a> {
    model: &'a dyn RewardModel,
    cache: HashMap<u64, f64, FpBuildHasher>,
    /// Distinct states evaluated by the underlying model.
    evaluations: usize,
    /// All reward queries including cache hits (loop-bound guard).
    queries: usize,
}

impl<'a> RewardCache<'a> {
    fn new(model: &'a dyn RewardModel) -> Self {
        RewardCache {
            model,
            cache: HashMap::default(),
            evaluations: 0,
            queries: 0,
        }
    }

    /// Reward of `g`, whose fingerprint the caller already knows (the
    /// engine maintains it incrementally; the oracle recomputes it).
    fn reward_keyed(&mut self, fp: u64, g: &CircuitGraph) -> f64 {
        self.queries += 1;
        if let Some(&r) = self.cache.get(&fp) {
            return r;
        }
        self.evaluations += 1;
        let r = self.model.pcs(g);
        self.cache.insert(fp, r);
        r
    }
}

struct TreeNode {
    /// Swap leading here from the parent (`None` for the root).
    delta: Option<SwapDelta>,
    parent: Option<usize>,
    children: Vec<usize>,
    untried: Vec<Swap>,
    visits: f64,
    value_sum: f64,
    reward: f64,
    depth: usize,
}

/// Samples up to `count` distinct candidate actions from the live pool
/// view (hash-set dedup instead of the former quadratic `contains`;
/// `seen` is caller-owned scratch reused across expansions).
fn propose_actions(engine: &Engine, count: usize, rng: &mut StdRng, seen: &mut SwapSet) -> Vec<Swap> {
    let mut out = Vec::with_capacity(count);
    seen.clear();
    for _ in 0..count * 4 {
        if out.len() >= count {
            break;
        }
        if let Some(s) = engine.sample(rng) {
            if seen.insert(s) {
                out.push(s);
            }
        }
    }
    out
}

/// Core UCB1 tree search with max-reward backpropagation, running on
/// the zero-clone engine (see module docs).
fn search(
    initial: &CircuitGraph,
    scope: &Scope,
    reward_model: &dyn RewardModel,
    config: &MctsConfig,
) -> MctsOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rewards = RewardCache::new(reward_model);
    let mut engine = Engine::new(initial, scope);
    let initial_reward = rewards.reward_keyed(engine.fp(), engine.graph());
    let mut best: Option<CircuitGraph> = None;
    let mut best_reward = initial_reward;

    let mut seen = SwapSet::default();
    let mut nodes: Vec<TreeNode> = vec![TreeNode {
        delta: None,
        parent: None,
        children: Vec::new(),
        untried: propose_actions(&engine, config.actions_per_expansion, &mut rng, &mut seen),
        visits: 0.0,
        value_sum: 0.0,
        reward: initial_reward,
        depth: 0,
    }];
    let mut rollout: Vec<SwapDelta> = Vec::new();

    for _sim in 0..config.simulations {
        // --- selection (descend by replaying the stored deltas) ---
        let mut cur = 0usize;
        while nodes[cur].untried.is_empty()
            && !nodes[cur].children.is_empty()
            && nodes[cur].depth < config.max_depth
        {
            let ln_n = nodes[cur].visits.max(1.0).ln();
            let c = config.exploration;
            cur = *nodes[cur]
                .children
                .iter()
                .max_by(|&&a, &&b| {
                    let ucb = |k: usize| {
                        let node = &nodes[k];
                        let n = node.visits.max(1e-9);
                        node.value_sum / n + c * (ln_n / n).sqrt()
                    };
                    ucb(a).total_cmp(&ucb(b))
                })
                .expect("children checked non-empty");
            let d = nodes[cur].delta.expect("non-root node has a delta");
            engine.replay(&d);
        }

        // --- expansion ---
        let mut leaf = cur;
        if nodes[cur].depth < config.max_depth {
            while let Some(action) = nodes[cur].untried.pop() {
                if let Some(delta) = engine.try_apply(action) {
                    let r = rewards.reward_keyed(engine.fp(), engine.graph());
                    if r > best_reward {
                        best_reward = r;
                        best = Some(engine.graph().clone());
                    }
                    let depth = nodes[cur].depth + 1;
                    let untried =
                        propose_actions(&engine, config.actions_per_expansion, &mut rng, &mut seen);
                    nodes.push(TreeNode {
                        delta: Some(delta),
                        parent: Some(cur),
                        children: Vec::new(),
                        untried,
                        visits: 0.0,
                        value_sum: 0.0,
                        reward: r,
                        depth,
                    });
                    let new_idx = nodes.len() - 1;
                    nodes[cur].children.push(new_idx);
                    leaf = new_idx;
                    break;
                }
            }
        }

        // --- simulation (random rollout, tracking the max reward) ---
        let mut reward_max = nodes[leaf].reward;
        let remaining = config.max_depth.saturating_sub(nodes[leaf].depth);
        for _ in 0..remaining {
            let mut stepped = false;
            for _try in 0..8 {
                if let Some(sw) = engine.sample(&mut rng) {
                    if let Some(d) = engine.try_apply(sw) {
                        let r = rewards.reward_keyed(engine.fp(), engine.graph());
                        if r > best_reward {
                            best_reward = r;
                            best = Some(engine.graph().clone());
                        }
                        reward_max = reward_max.max(r);
                        rollout.push(d);
                        stepped = true;
                        break;
                    }
                }
            }
            if !stepped {
                break;
            }
        }

        // --- backpropagation of the max reward ---
        let mut up = Some(leaf);
        while let Some(k) = up {
            nodes[k].visits += 1.0;
            nodes[k].value_sum += reward_max;
            up = nodes[k].parent;
        }

        // --- rewind to the root state (strict LIFO undo) ---
        for d in rollout.drain(..).rev() {
            engine.undo(&d);
        }
        let mut back = leaf;
        loop {
            if let Some(d) = nodes[back].delta {
                engine.undo(&d);
            }
            match nodes[back].parent {
                Some(parent) => back = parent,
                None => break,
            }
        }
    }

    MctsOutcome {
        best: best.unwrap_or_else(|| initial.clone()),
        best_reward,
        initial_reward,
        evaluations: rewards.evaluations,
    }
}

/// Optimizes one standalone (cone) circuit with MCTS over unrestricted
/// swaps; edges into output ports stay fixed (the measured endpoint).
pub fn optimize_cone_mcts(
    initial: &CircuitGraph,
    reward_model: &dyn RewardModel,
    config: &MctsConfig,
) -> MctsOutcome {
    let scope = Scope {
        focus: None,
        include_sink_inputs: false,
    };
    search(initial, &scope, reward_model, config)
}

/// Random-search ablation (paper Fig. 4): random valid swaps with the
/// same evaluation budget, keeping the best state seen. `focus_nodes`
/// biases the first edge of each swap when given (same scope as
/// [`optimize_registers`]). Runs on the zero-clone engine: the walk
/// mutates one graph in place and rewinds by undoing its delta trail
/// instead of cloning the initial state on every reset.
pub fn optimize_random_walk(
    initial: &CircuitGraph,
    focus_nodes: Option<&[NodeId]>,
    include_sink_inputs: bool,
    reward_model: &dyn RewardModel,
    evaluation_budget: usize,
    max_depth: usize,
    seed: u64,
) -> MctsOutcome {
    let scope = Scope {
        focus: focus_nodes.map(|ns| node_mask(initial, ns)),
        include_sink_inputs,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rewards = RewardCache::new(reward_model);
    let mut engine = Engine::new(initial, &scope);
    let initial_reward = rewards.reward_keyed(engine.fp(), engine.graph());
    let mut best: Option<CircuitGraph> = None;
    let mut best_reward = initial_reward;

    let mut trail: Vec<SwapDelta> = Vec::new();
    let mut depth = 0usize;
    // Small state spaces exhaust distinct evaluations early; the query
    // cap bounds the walk regardless.
    let query_cap = evaluation_budget.saturating_mul(20).max(64);
    while rewards.evaluations < evaluation_budget && rewards.queries < query_cap {
        if depth >= max_depth {
            rewind(&mut engine, &mut trail);
            depth = 0;
        }
        let mut advanced = false;
        for _try in 0..8 {
            if let Some(sw) = engine.sample(&mut rng) {
                if let Some(d) = engine.try_apply(sw) {
                    let r = rewards.reward_keyed(engine.fp(), engine.graph());
                    if r > best_reward {
                        best_reward = r;
                        best = Some(engine.graph().clone());
                    }
                    trail.push(d);
                    depth += 1;
                    advanced = true;
                    break;
                }
            }
        }
        if !advanced {
            rewind(&mut engine, &mut trail);
            depth = 0;
            // Graphs with no valid swap at all: stop instead of spinning.
            let any_valid = (0..16).any(|_| {
                engine
                    .sample(&mut rng)
                    .and_then(|sw| engine.try_apply(sw))
                    .map(|d| engine.undo(&d))
                    .is_some()
            });
            if !any_valid {
                break;
            }
        }
    }

    MctsOutcome {
        best: best.unwrap_or_else(|| initial.clone()),
        best_reward,
        initial_reward,
        evaluations: rewards.evaluations,
    }
}

/// Undoes every delta of a random-walk trail (back to the initial state).
fn rewind(engine: &mut Engine, trail: &mut Vec<SwapDelta>) {
    for d in trail.drain(..).rev() {
        engine.undo(&d);
    }
}

/// Backwards-compatible alias of [`optimize_random_walk`] for standalone
/// cone circuits.
pub fn optimize_cone_random(
    initial: &CircuitGraph,
    reward_model: &dyn RewardModel,
    evaluation_budget: usize,
    max_depth: usize,
    seed: u64,
) -> MctsOutcome {
    optimize_random_walk(
        initial,
        None,
        false,
        reward_model,
        evaluation_budget,
        max_depth,
        seed,
    )
}

/// Which register cones to optimize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConeSelection {
    /// Every register cone, in node order.
    All,
    /// Only the `k` registers whose cones are smallest contributors to
    /// the design PCS (cheapest proxy: processed in ascending cone size).
    WorstK(usize),
}

fn node_mask(g: &CircuitGraph, nodes: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; g.node_count()];
    for &n in nodes {
        mask[n.index()] = true;
    }
    mask
}

/// Focus node set for a register: its driving cone (members + apex), so
/// first-swap edges touch the cone's fan-in *or* fan-out boundary.
fn cone_focus(g: &CircuitGraph, register: NodeId) -> Vec<NodeId> {
    let cone = syncircuit_graph::cone::driving_cone(g, register);
    let mut nodes = cone.members;
    nodes.push(register);
    nodes
}

/// Registers to optimize under a [`ConeSelection`], in processing order.
fn selected_registers(g: &CircuitGraph, selection: ConeSelection) -> Vec<NodeId> {
    let mut registers: Vec<NodeId> = all_driving_cones(g)
        .into_iter()
        .map(|c| c.register)
        .collect();
    if let ConeSelection::WorstK(k) = selection {
        // Cheap ranking: smaller cones are likelier to collapse entirely.
        let mut sized: Vec<(NodeId, usize)> = registers
            .iter()
            .map(|&r| (r, syncircuit_graph::cone::driving_cone(g, r).size()))
            .collect();
        sized.sort_by_key(|&(_, s)| s);
        registers = sized.into_iter().take(k).map(|(r, _)| r).collect();
    }
    registers
}

/// Full Phase 3: optimizes the design register by register (paper §VI-A)
/// with design-level PCS as the reward and cone-focused swap sampling.
///
/// Returns the optimized graph and the per-register outcomes.
pub fn optimize_registers(
    g: &CircuitGraph,
    reward_model: &dyn RewardModel,
    config: &MctsConfig,
    selection: ConeSelection,
) -> (CircuitGraph, Vec<MctsOutcome>) {
    let mut work = g.clone();
    let registers = selected_registers(&work, selection);
    let mut outcomes = Vec::new();
    for (step, &reg) in registers.iter().enumerate() {
        let focus = cone_focus(&work, reg);
        let scope = Scope {
            focus: Some(node_mask(&work, &focus)),
            include_sink_inputs: true,
        };
        let mut cfg = config.clone();
        cfg.seed = config.seed.wrapping_add(step as u64 * 7919);
        let outcome = search(&work, &scope, reward_model, &cfg);
        if outcome.best_reward > outcome.initial_reward {
            work = outcome.best.clone();
        }
        outcomes.push(outcome);
    }
    debug_assert!(work.is_valid());
    (work, outcomes)
}

/// The random-search counterpart of [`optimize_registers`] (paper
/// Fig. 4's ablation): identical scope and per-register evaluation
/// budget, but purely random valid swaps.
pub fn optimize_registers_random(
    g: &CircuitGraph,
    reward_model: &dyn RewardModel,
    evaluations_per_register: usize,
    max_depth: usize,
    selection: ConeSelection,
    seed: u64,
) -> (CircuitGraph, Vec<MctsOutcome>) {
    let mut work = g.clone();
    let registers = selected_registers(&work, selection);
    let mut outcomes = Vec::new();
    for (step, &reg) in registers.iter().enumerate() {
        let focus = cone_focus(&work, reg);
        let outcome = optimize_random_walk(
            &work,
            Some(&focus),
            true,
            reward_model,
            evaluations_per_register,
            max_depth,
            seed.wrapping_add(step as u64 * 104729),
        );
        if outcome.best_reward > outcome.initial_reward {
            work = outcome.best.clone();
        }
        outcomes.push(outcome);
    }
    (work, outcomes)
}

/// The original clone-based Phase-3 implementation, kept verbatim as
/// the equivalence oracle for the zero-clone engine.
///
/// Every function here clones the state per candidate swap and rebuilds
/// edge pools per step, exactly as shipped before the in-place engine
/// landed. Property tests (`tests/engine_equivalence.rs`) assert the
/// fast path returns byte-identical outcomes; nothing in the production
/// pipeline calls into this module.
#[doc(hidden)]
pub mod oracle {
    use super::{
        node_mask, selected_registers, zobrist_fingerprint, ConeSelection, MctsConfig,
        MctsOutcome, RewardCache, RewardModel, Swap,
    };
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use syncircuit_graph::comb::edge_would_close_comb_loop;
    use syncircuit_graph::{CircuitGraph, NodeId, NodeType};

    /// Applies a swap if it keeps the circuit valid; returns a new state.
    pub(super) fn apply_swap(g: &CircuitGraph, s: Swap) -> Option<CircuitGraph> {
        if s.i == s.p && s.j == s.q {
            return None; // identical edge
        }
        if s.j == s.q {
            return None; // same child: swap is a no-op permutation of slots
        }
        // New self-loops only allowed on registers.
        if s.p == s.j && !g.ty(s.j).is_register() {
            return None;
        }
        if s.i == s.q && !g.ty(s.q).is_register() {
            return None;
        }
        // Outputs never drive anything: they cannot become parents.
        if g.ty(s.i).is_sink() || g.ty(s.p).is_sink() {
            return None;
        }
        // Keep the adjacency binary: reject if a new edge already exists.
        if g.has_edge(s.p, s.j) || g.has_edge(s.i, s.q) {
            return None;
        }
        // Bit-selects must stay in range of their (new) parent.
        let fits = |child: NodeId, parent: NodeId| {
            let c = g.node(child);
            c.ty() != NodeType::BitSelect || (c.aux() as u32 + c.width()) <= g.node(parent).width()
        };
        if !fits(s.j, s.p) || !fits(s.q, s.i) {
            return None;
        }

        let mut out = g.clone();
        out.remove_edge(s.i, s.j).ok()?;
        out.remove_edge(s.p, s.q).ok()?;
        // Check each insertion against combinational loops, incrementally.
        let children = out.children_index();
        if edge_would_close_comb_loop(&out, &children, s.p, s.j) {
            return None;
        }
        out.add_edge(s.p, s.j).ok()?;
        let children = out.children_index();
        if edge_would_close_comb_loop(&out, &children, s.i, s.q) {
            return None;
        }
        out.add_edge(s.i, s.q).ok()?;
        debug_assert!(out.is_valid(), "swap must preserve validity");
        Some(out)
    }

    /// Edge pools a state offers to the swap sampler.
    #[derive(Clone, Debug, Default)]
    pub(super) struct EdgePools {
        /// First-edge candidates (focused on the target cone when set).
        pub(super) first: Vec<(NodeId, NodeId)>,
        /// Second-edge candidates (the whole design).
        pub(super) second: Vec<(NodeId, NodeId)>,
    }

    /// Clone-based search scope (materializes pools per state).
    #[derive(Clone, Debug)]
    pub(super) struct Scope {
        pub(super) focus: Option<Vec<bool>>,
        pub(super) include_sink_inputs: bool,
    }

    impl Scope {
        pub(super) fn pools(&self, g: &CircuitGraph) -> EdgePools {
            let mut first = Vec::new();
            let mut second = Vec::new();
            for e in g.edges() {
                if !self.include_sink_inputs && g.ty(e.to).is_sink() {
                    continue;
                }
                let pair = (e.from, e.to);
                second.push(pair);
                let focused = match &self.focus {
                    None => true,
                    Some(mask) => mask[e.from.index()] || mask[e.to.index()],
                };
                if focused {
                    first.push(pair);
                }
            }
            if first.is_empty() {
                first = second.clone();
            }
            EdgePools { first, second }
        }
    }

    pub(super) fn sample_swap(rng: &mut StdRng, pools: &EdgePools) -> Option<Swap> {
        if pools.first.is_empty() || pools.second.len() < 2 {
            return None;
        }
        let a = pools.first[rng.gen_range(0..pools.first.len())];
        let b = pools.second[rng.gen_range(0..pools.second.len())];
        Some(Swap {
            i: a.0,
            j: a.1,
            p: b.0,
            q: b.1,
        })
    }

    fn propose_actions(
        g: &CircuitGraph,
        scope: &Scope,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<Swap> {
        let pools = scope.pools(g);
        let mut out = Vec::new();
        for _ in 0..count * 4 {
            if out.len() >= count {
                break;
            }
            if let Some(s) = sample_swap(rng, &pools) {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    struct TreeNode {
        state: CircuitGraph,
        parent: Option<usize>,
        children: Vec<usize>,
        untried: Vec<Swap>,
        visits: f64,
        value_sum: f64,
        reward: f64,
        depth: usize,
    }

    fn search(
        initial: &CircuitGraph,
        scope: &Scope,
        reward_model: &dyn RewardModel,
        config: &MctsConfig,
    ) -> MctsOutcome {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut rewards = RewardCache::new(reward_model);
        let initial_reward = rewards.reward_keyed(zobrist_fingerprint(initial), initial);
        let mut best = initial.clone();
        let mut best_reward = initial_reward;

        let mut nodes: Vec<TreeNode> = vec![TreeNode {
            state: initial.clone(),
            parent: None,
            children: Vec::new(),
            untried: propose_actions(initial, scope, config.actions_per_expansion, &mut rng),
            visits: 0.0,
            value_sum: 0.0,
            reward: initial_reward,
            depth: 0,
        }];

        for _sim in 0..config.simulations {
            // --- selection ---
            let mut cur = 0usize;
            while nodes[cur].untried.is_empty()
                && !nodes[cur].children.is_empty()
                && nodes[cur].depth < config.max_depth
            {
                let ln_n = nodes[cur].visits.max(1.0).ln();
                let c = config.exploration;
                cur = *nodes[cur]
                    .children
                    .iter()
                    .max_by(|&&a, &&b| {
                        let ucb = |k: usize| {
                            let node = &nodes[k];
                            let n = node.visits.max(1e-9);
                            node.value_sum / n + c * (ln_n / n).sqrt()
                        };
                        ucb(a).total_cmp(&ucb(b))
                    })
                    .expect("children checked non-empty");
            }

            // --- expansion ---
            let mut leaf = cur;
            if nodes[cur].depth < config.max_depth {
                while let Some(action) = nodes[cur].untried.pop() {
                    if let Some(state) = apply_swap(&nodes[cur].state, action) {
                        let r = rewards.reward_keyed(zobrist_fingerprint(&state), &state);
                        if r > best_reward {
                            best_reward = r;
                            best = state.clone();
                        }
                        let depth = nodes[cur].depth + 1;
                        let untried =
                            propose_actions(&state, scope, config.actions_per_expansion, &mut rng);
                        nodes.push(TreeNode {
                            state,
                            parent: Some(cur),
                            children: Vec::new(),
                            untried,
                            visits: 0.0,
                            value_sum: 0.0,
                            reward: r,
                            depth,
                        });
                        let new_idx = nodes.len() - 1;
                        nodes[cur].children.push(new_idx);
                        leaf = new_idx;
                        break;
                    }
                }
            }

            // --- simulation (random rollout, tracking the max reward) ---
            let mut roll_state = nodes[leaf].state.clone();
            let mut reward_max = nodes[leaf].reward;
            let remaining = config.max_depth.saturating_sub(nodes[leaf].depth);
            for _ in 0..remaining {
                let pools = scope.pools(&roll_state);
                let mut stepped = false;
                for _try in 0..8 {
                    if let Some(sw) = sample_swap(&mut rng, &pools) {
                        if let Some(next) = apply_swap(&roll_state, sw) {
                            let r = rewards.reward_keyed(zobrist_fingerprint(&next), &next);
                            if r > best_reward {
                                best_reward = r;
                                best = next.clone();
                            }
                            reward_max = reward_max.max(r);
                            roll_state = next;
                            stepped = true;
                            break;
                        }
                    }
                }
                if !stepped {
                    break;
                }
            }

            // --- backpropagation of the max reward ---
            let mut up = Some(leaf);
            while let Some(k) = up {
                nodes[k].visits += 1.0;
                nodes[k].value_sum += reward_max;
                up = nodes[k].parent;
            }
        }

        MctsOutcome {
            best,
            best_reward,
            initial_reward,
            evaluations: rewards.evaluations,
        }
    }

    /// Clone-based reference of [`super::optimize_cone_mcts`].
    pub fn optimize_cone_mcts(
        initial: &CircuitGraph,
        reward_model: &dyn RewardModel,
        config: &MctsConfig,
    ) -> MctsOutcome {
        let scope = Scope {
            focus: None,
            include_sink_inputs: false,
        };
        search(initial, &scope, reward_model, config)
    }

    /// Clone-based reference of [`super::optimize_random_walk`].
    pub fn optimize_random_walk(
        initial: &CircuitGraph,
        focus_nodes: Option<&[NodeId]>,
        include_sink_inputs: bool,
        reward_model: &dyn RewardModel,
        evaluation_budget: usize,
        max_depth: usize,
        seed: u64,
    ) -> MctsOutcome {
        let scope = Scope {
            focus: focus_nodes.map(|ns| node_mask(initial, ns)),
            include_sink_inputs,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rewards = RewardCache::new(reward_model);
        let initial_reward = rewards.reward_keyed(zobrist_fingerprint(initial), initial);
        let mut best = initial.clone();
        let mut best_reward = initial_reward;

        let mut state = initial.clone();
        let mut depth = 0usize;
        let query_cap = evaluation_budget.saturating_mul(20).max(64);
        while rewards.evaluations < evaluation_budget && rewards.queries < query_cap {
            if depth >= max_depth {
                state = initial.clone();
                depth = 0;
            }
            let pools = scope.pools(&state);
            let mut advanced = false;
            for _try in 0..8 {
                if let Some(sw) = sample_swap(&mut rng, &pools) {
                    if let Some(next) = apply_swap(&state, sw) {
                        let r = rewards.reward_keyed(zobrist_fingerprint(&next), &next);
                        if r > best_reward {
                            best_reward = r;
                            best = next.clone();
                        }
                        state = next;
                        depth += 1;
                        advanced = true;
                        break;
                    }
                }
            }
            if !advanced {
                state = initial.clone();
                depth = 0;
                // Graphs with no valid swap at all: stop instead of spinning.
                let pools = scope.pools(&state);
                let any_valid = (0..16).any(|_| {
                    sample_swap(&mut rng, &pools)
                        .and_then(|sw| apply_swap(&state, sw))
                        .is_some()
                });
                if !any_valid {
                    break;
                }
            }
        }

        MctsOutcome {
            best,
            best_reward,
            initial_reward,
            evaluations: rewards.evaluations,
        }
    }

    /// Clone-based reference of [`super::optimize_registers`].
    pub fn optimize_registers(
        g: &CircuitGraph,
        reward_model: &dyn RewardModel,
        config: &MctsConfig,
        selection: ConeSelection,
    ) -> (CircuitGraph, Vec<MctsOutcome>) {
        let mut work = g.clone();
        let registers = selected_registers(&work, selection);
        let mut outcomes = Vec::new();
        for (step, &reg) in registers.iter().enumerate() {
            let focus = super::cone_focus(&work, reg);
            let scope = Scope {
                focus: Some(node_mask(&work, &focus)),
                include_sink_inputs: true,
            };
            let mut cfg = config.clone();
            cfg.seed = config.seed.wrapping_add(step as u64 * 7919);
            let outcome = search(&work, &scope, reward_model, &cfg);
            if outcome.best_reward > outcome.initial_reward {
                work = outcome.best.clone();
            }
            outcomes.push(outcome);
        }
        (work, outcomes)
    }

    /// Clone-based reference of [`super::optimize_registers_random`].
    pub fn optimize_registers_random(
        g: &CircuitGraph,
        reward_model: &dyn RewardModel,
        evaluations_per_register: usize,
        max_depth: usize,
        selection: ConeSelection,
        seed: u64,
    ) -> (CircuitGraph, Vec<MctsOutcome>) {
        let mut work = g.clone();
        let registers = selected_registers(&work, selection);
        let mut outcomes = Vec::new();
        for (step, &reg) in registers.iter().enumerate() {
            let focus = super::cone_focus(&work, reg);
            let outcome = optimize_random_walk(
                &work,
                Some(&focus),
                true,
                reward_model,
                evaluations_per_register,
                max_depth,
                seed.wrapping_add(step as u64 * 104729),
            );
            if outcome.best_reward > outcome.initial_reward {
                work = outcome.best.clone();
            }
            outcomes.push(outcome);
        }
        (work, outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::NodeType;

    /// A deliberately redundant cone: the register's driver collapses to
    /// a constant (xor(x, x) = 0), so PCS starts at rock bottom, but a
    /// swap can rewire it to productive logic.
    fn redundant_cone() -> CircuitGraph {
        let mut g = CircuitGraph::new("redundant");
        let i1 = g.add_node(NodeType::Input, 8);
        let i2 = g.add_node(NodeType::Input, 8);
        let x = g.add_node(NodeType::Xor, 8); // xor(i1, i1) → constant 0
        let a = g.add_node(NodeType::Add, 8); // add(i2, i2): alive
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(x, &[i1, i1]).unwrap();
        g.set_parents(a, &[i2, i2]).unwrap();
        g.set_parents(r, &[x]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        // keep `a` attached to the output cone via a second output
        let o2 = g.add_node(NodeType::Output, 8);
        g.set_parents(o2, &[a]).unwrap();
        g
    }

    fn scope_all() -> Scope {
        Scope {
            focus: None,
            include_sink_inputs: false,
        }
    }

    #[test]
    fn swap_preserves_degrees_and_validity() {
        let g = redundant_cone();
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = Engine::new(&g, &scope_all());
        let mut applied = 0;
        for _ in 0..200 {
            if let Some(sw) = engine.sample(&mut rng) {
                if let Some(d) = engine.try_apply(sw) {
                    assert!(engine.graph().is_valid());
                    assert_eq!(engine.graph().in_degrees(), g.in_degrees());
                    assert_eq!(engine.graph().out_degrees(), g.out_degrees());
                    assert_eq!(engine.graph().edge_count(), g.edge_count());
                    engine.undo(&d);
                    applied += 1;
                }
            }
        }
        assert!(applied > 0, "some swaps must be applicable");
        assert_eq!(engine.graph(), &g, "undo must restore the state");
    }

    #[test]
    fn swap_rejects_same_child() {
        let g = redundant_cone();
        let mut engine = Engine::new(&g, &scope_all());
        let sw = Swap {
            i: NodeId::new(0),
            j: NodeId::new(2),
            p: NodeId::new(0),
            q: NodeId::new(2),
        };
        assert!(engine.try_apply(sw).is_none());
    }

    #[test]
    fn engine_sampling_matches_oracle_pools() {
        // The live pool view must draw exactly the edges the materialized
        // reference pools draw, state for state — including under a
        // cone-focus mask and across applied swaps.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let g = syncircuit_graph::testing::random_circuit_with_size(&mut rng, 30);
        let focus: Vec<NodeId> = g
            .nodes_of_type(NodeType::Reg)
            .into_iter()
            .take(2)
            .collect();
        for (focus_opt, include) in [
            (None, false),
            (Some(&focus[..]), true),
            (Some(&focus[..]), false),
        ] {
            let scope = Scope {
                focus: focus_opt.map(|ns| node_mask(&g, ns)),
                include_sink_inputs: include,
            };
            let oracle_scope = oracle::Scope {
                focus: focus_opt.map(|ns| node_mask(&g, ns)),
                include_sink_inputs: include,
            };
            let mut engine = Engine::new(&g, &scope);
            let mut state = g.clone();
            let mut rng_fast = StdRng::seed_from_u64(123);
            let mut rng_ref = StdRng::seed_from_u64(123);
            for step in 0..200 {
                let pools = oracle_scope.pools(&state);
                let want = oracle::sample_swap(&mut rng_ref, &pools);
                let got = engine.sample(&mut rng_fast);
                assert_eq!(got, want, "step {step} include={include}");
                if let Some(sw) = got {
                    let next = oracle::apply_swap(&state, sw);
                    let d = engine.try_apply(sw);
                    assert_eq!(d.is_some(), next.is_some(), "accept/reject must agree");
                    if let Some(next) = next {
                        assert_eq!(engine.graph(), &next);
                        state = next;
                    }
                }
            }
        }
    }

    #[test]
    fn mcts_improves_redundant_cone() {
        let g = redundant_cone();
        let reward = ExactSynthReward::new();
        let mut cfg = MctsConfig::tiny();
        cfg.simulations = 60;
        cfg.seed = 5;
        let out = optimize_cone_mcts(&g, &reward, &cfg);
        assert!(out.best.is_valid());
        assert!(
            out.best_reward > out.initial_reward,
            "MCTS must find an improvement: {} vs {}",
            out.best_reward,
            out.initial_reward
        );
        assert!(out.evaluations > 0);
    }

    #[test]
    fn random_ablation_runs_within_budget() {
        let g = redundant_cone();
        let reward = ExactSynthReward::new();
        let out = optimize_cone_random(&g, &reward, 40, 5, 11);
        assert!(out.best.is_valid());
        assert!(out.evaluations <= 41);
        assert!(out.best_reward >= out.initial_reward);
    }

    #[test]
    fn optimize_registers_fixes_cone_collapse() {
        // A redundant register cone that degree-preserving swaps *can*
        // fix: the dead driver sub(i1, i1) sits next to a mux whose
        // select can be traded into the subtractor.
        let mut g = CircuitGraph::new("design");
        let i1 = g.add_node(NodeType::Input, 8);
        let sel = g.add_node(NodeType::Input, 1);
        let s = g.add_node(NodeType::Sub, 8); // sub(i1, i1) = 0
        let m = g.add_node(NodeType::Mux, 8); // mux(sel, s, s) = s = 0
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s, &[i1, i1]).unwrap();
        g.set_parents(m, &[sel, s, s]).unwrap();
        g.set_parents(r, &[m]).unwrap();
        g.set_parents(o, &[r]).unwrap();

        let before = syncircuit_synth::optimize(&g);
        assert_eq!(before.stats.seq_bits_after, 0, "register must start dead");

        let reward = ExactSynthReward::new();
        let mut cfg = MctsConfig::tiny();
        cfg.simulations = 120;
        cfg.max_depth = 6;
        let (opt, outcomes) = optimize_registers(&g, &reward, &cfg, ConeSelection::All);
        assert!(opt.is_valid());
        assert!(!outcomes.is_empty());
        let after = syncircuit_synth::optimize(&opt);
        assert!(
            after.stats.seq_bits_after > before.stats.seq_bits_after,
            "SCPR must improve: {:?} -> {:?}",
            before.stats.seq_bits_after,
            after.stats.seq_bits_after
        );
        // degrees preserved globally
        assert_eq!(opt.in_degrees(), g.in_degrees());
        assert_eq!(opt.out_degrees(), g.out_degrees());
    }

    #[test]
    fn optimize_registers_fixes_fanout_deadness() {
        // A register whose value never reaches an output: the only fix
        // is trading an output's driver into the dead path — exactly
        // what full-design swaps with sink inputs enable.
        let mut g = CircuitGraph::new("fanout_dead");
        let i1 = g.add_node(NodeType::Input, 8);
        let i2 = g.add_node(NodeType::Input, 8);
        let dead_r = g.add_node(NodeType::Reg, 8);
        let sink_n = g.add_node(NodeType::Not, 8); // consumes dead_r, also dead
        let live_x = g.add_node(NodeType::Xor, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(dead_r, &[i1]).unwrap();
        g.set_parents(sink_n, &[dead_r]).unwrap();
        g.set_parents(live_x, &[i1, i2]).unwrap();
        g.set_parents(o, &[live_x]).unwrap();

        let before = syncircuit_synth::optimize(&g);
        assert_eq!(before.stats.seq_bits_after, 0, "register starts unobserved");

        let reward = ExactSynthReward::new();
        let mut cfg = MctsConfig::tiny();
        cfg.simulations = 150;
        cfg.max_depth = 6;
        let (opt, _) = optimize_registers(&g, &reward, &cfg, ConeSelection::All);
        let after = syncircuit_synth::optimize(&opt);
        assert!(
            after.stats.seq_bits_after > 0,
            "full-design swaps must resurrect the unobserved register"
        );
    }

    #[test]
    fn worst_k_selection_limits_work() {
        let mut g = CircuitGraph::new("multi");
        let i = g.add_node(NodeType::Input, 4);
        let mut prev = i;
        for _ in 0..4 {
            let n = g.add_node(NodeType::Not, 4);
            g.set_parents(n, &[prev]).unwrap();
            let r = g.add_node(NodeType::Reg, 4);
            g.set_parents(r, &[n]).unwrap();
            prev = r;
        }
        let o = g.add_node(NodeType::Output, 4);
        g.set_parents(o, &[prev]).unwrap();
        let reward = ExactSynthReward::new();
        let cfg = MctsConfig::tiny();
        let (_, outcomes) = optimize_registers(&g, &reward, &cfg, ConeSelection::WorstK(2));
        assert!(outcomes.len() <= 2);
    }

    #[test]
    fn random_registers_ablation_is_bounded_and_valid() {
        let g = redundant_cone();
        let reward = ExactSynthReward::new();
        let (opt, outcomes) = optimize_registers_random(&g, &reward, 25, 4, ConeSelection::All, 3);
        assert!(opt.is_valid());
        for o in &outcomes {
            assert!(o.evaluations <= 26);
            assert!(o.best_reward >= o.initial_reward);
        }
    }

    #[test]
    fn fingerprint_distinguishes_rewirings() {
        let g = redundant_cone();
        let mut g2 = g.clone();
        g2.set_parents_unchecked(NodeId::new(2), &[NodeId::new(1), NodeId::new(1)]);
        assert_ne!(zobrist_fingerprint(&g), zobrist_fingerprint(&g2));
        assert_eq!(zobrist_fingerprint(&g), zobrist_fingerprint(&g.clone()));
    }

    /// The reward model contract: a cone whose logic survives synthesis
    /// must score higher than one that collapses.
    #[test]
    fn exact_reward_orders_redundancy() {
        let reward = ExactSynthReward::new();
        let mut dead = CircuitGraph::new("dead");
        let i = dead.add_node(NodeType::Input, 8);
        let x = dead.add_node(NodeType::Xor, 8);
        let r = dead.add_node(NodeType::Reg, 8);
        let o = dead.add_node(NodeType::Output, 8);
        dead.set_parents(x, &[i, i]).unwrap();
        dead.set_parents(r, &[x]).unwrap();
        dead.set_parents(o, &[r]).unwrap();

        let mut alive = CircuitGraph::new("alive");
        let i1 = alive.add_node(NodeType::Input, 8);
        let i2 = alive.add_node(NodeType::Input, 8);
        let x = alive.add_node(NodeType::Xor, 8);
        let r = alive.add_node(NodeType::Reg, 8);
        let o = alive.add_node(NodeType::Output, 8);
        alive.set_parents(x, &[i1, i2]).unwrap();
        alive.set_parents(r, &[x]).unwrap();
        alive.set_parents(o, &[r]).unwrap();

        assert!(reward.pcs(&alive) > reward.pcs(&dead));
    }

    /// Same contract for the incremental cone evaluator, plus cache
    /// effectiveness across repeated queries: a repeat on an unchanged
    /// graph is answered by the per-apex memo without touching the
    /// shared table, and a fresh reward over the same table hits it.
    #[test]
    fn incremental_reward_orders_redundancy_and_caches() {
        let reward = IncrementalConeReward::new();
        let g = redundant_cone();
        let first = reward.pcs(&g);
        let cold = reward.cache_stats();
        let second = reward.pcs(&g);
        assert_eq!(
            first.to_bits(),
            second.to_bits(),
            "evaluator must be deterministic"
        );
        assert_eq!(
            reward.cache_stats(),
            cold,
            "repeat query does no lookups and no synthesis"
        );
        let shared = reward.cache.borrow().shared().clone();
        let fresh = IncrementalConeReward::with_shared(shared);
        assert_eq!(fresh.pcs(&g).to_bits(), first.to_bits());
        let warm = fresh.cache_stats();
        assert_eq!(warm.misses, cold.misses, "fresh reward synthesizes nothing");
        assert!(
            warm.hits > cold.hits,
            "fresh reward must hit the cone cache"
        );
    }

    #[test]
    fn swap_never_makes_output_a_parent() {
        let g = redundant_cone();
        let mut engine = Engine::new(&g, &scope_all());
        // attempt to use the output node (5) as a new parent
        let sw = Swap {
            i: NodeId::new(5),
            j: NodeId::new(2),
            p: NodeId::new(0),
            q: NodeId::new(3),
        };
        assert!(engine.try_apply(sw).is_none());
    }
}
