//! A warm `ConeSynthCache` view ≡ a fresh one, step by step.
//!
//! The incremental reward keeps a per-apex memo across queries and only
//! re-scores the cones whose recorded members changed parent lists since
//! its previous query. This battery drives a `SwapGraph` the way the
//! MCTS engine does — validated swaps, LIFO undos, tree-path replays —
//! and then jumps to unrelated graphs (same node count, then a different
//! one, then back). It also jumps between rewirings that keep every
//! node attribute (the memo then patches its snapshot in place) and
//! walks one view through more than a thousand queries. After every
//! step the warm view must return exactly the bits a fresh view
//! returns, over an unbounded table and over a 1-shard, 2-entry CLOCK
//! table that evicts constantly.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use syncircuit_graph::swap::{SwapDelta, SwapGraph};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::{CircuitGraph, NodeId};
use syncircuit_synth::{CellLibrary, ConeSynthCache, SharedConeSynthCache};

/// Asserts the warm view scores `g` exactly as a fresh private view.
fn check(warm: &mut ConeSynthCache, g: &CircuitGraph, step: &str) {
    let fresh = ConeSynthCache::new().pcs(g);
    assert_eq!(warm.pcs(g).to_bits(), fresh.to_bits(), "{step}");
}

/// A random existing edge `(parent → child)`.
fn random_edge(g: &CircuitGraph, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
    let child = NodeId::new(rng.gen_range(0..g.node_count()));
    let ps = g.parents(child);
    (!ps.is_empty()).then(|| (ps[rng.gen_range(0..ps.len())], child))
}

/// Rewires `g` by up to `swaps` random validated parent swaps: every
/// node keeps its attributes, only the wiring moves.
fn rewired(g: &CircuitGraph, swaps: usize, rng: &mut StdRng) -> CircuitGraph {
    let mut sg = SwapGraph::new(g.clone());
    for _ in 0..swaps {
        if let (Some((i, j)), Some((p, q))) = (
            random_edge(sg.graph(), rng),
            random_edge(sg.graph(), rng),
        ) {
            let _ = sg.try_apply(i, j, p, q);
        }
    }
    sg.into_graph()
}

fn unbounded() -> Arc<SharedConeSynthCache> {
    Arc::new(SharedConeSynthCache::new())
}

fn evicting() -> Arc<SharedConeSynthCache> {
    Arc::new(SharedConeSynthCache::with_shards_and_capacity(CellLibrary::default(), 1, 2))
}

fn drive(seed: u64, n: usize, steps: usize, table: Arc<SharedConeSynthCache>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sg = SwapGraph::new(random_circuit_with_size(&mut rng, n));
    let mut warm = ConeSynthCache::with_shared(table);
    check(&mut warm, sg.graph(), "initial");
    let mut path: Vec<SwapDelta> = Vec::new();
    let mut applied = 0;
    for step in 0..steps {
        match rng.gen_range(0..4) {
            0 | 1 => {
                let (Some((i, j)), Some((p, q))) = (
                    random_edge(sg.graph(), &mut rng),
                    random_edge(sg.graph(), &mut rng),
                ) else {
                    continue;
                };
                if let Some(d) = sg.try_apply(i, j, p, q) {
                    path.push(d);
                    applied += 1;
                }
            }
            2 => {
                if let Some(d) = path.pop() {
                    sg.undo(&d);
                }
            }
            _ => {
                // Rewind the whole path, score the root, then replay it.
                for d in path.iter().rev() {
                    sg.undo(d);
                }
                check(&mut warm, sg.graph(), &format!("step {step}: rewound"));
                for d in &path {
                    sg.apply_replay(d);
                }
            }
        }
        check(&mut warm, sg.graph(), &format!("step {step}"));
    }
    assert!(applied > 0, "the walk must apply swaps");

    let same_count = random_circuit_with_size(&mut rng, n);
    assert_eq!(same_count.node_count(), sg.graph().node_count());
    check(&mut warm, &same_count, "unrelated graph, same node count");
    let other_count = random_circuit_with_size(&mut rng, n + 7);
    check(
        &mut warm,
        &other_count,
        "unrelated graph, different node count",
    );
    check(&mut warm, sg.graph(), "back to the walked graph");
}

/// Jumps one warm view back and forth between rewirings of one graph
/// that share every node attribute, so each query takes the memo's
/// in-place snapshot path rather than a rebuild.
fn jump_between_rewirings(seed: u64, n: usize, table: Arc<SharedConeSynthCache>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = random_circuit_with_size(&mut rng, n);
    let variants: Vec<CircuitGraph> = (0..6)
        .map(|k| rewired(&base, 1 + 4 * k, &mut rng))
        .collect();
    assert!(
        variants.iter().any(|v| (0..n).any(|u| {
            let u = NodeId::new(u);
            v.parents(u) != base.parents(u)
        })),
        "some rewiring moves an edge"
    );
    let mut warm = ConeSynthCache::with_shared(table);
    check(&mut warm, &base, "base");
    for step in 0..40 {
        let g = &variants[rng.gen_range(0..variants.len())];
        check(&mut warm, g, &format!("jump {step}"));
        if step % 5 == 0 {
            check(&mut warm, &base, &format!("jump {step}: back to base"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn warm_view_matches_fresh_view(seed in any::<u64>(), n in 12usize..60) {
        drive(seed, n, 48, unbounded());
        drive(seed, n, 48, evicting());
    }

    #[test]
    fn warm_view_matches_fresh_view_across_rewirings(seed in any::<u64>(), n in 12usize..60) {
        jump_between_rewirings(seed, n, unbounded());
        jump_between_rewirings(seed, n, evicting());
    }
}

#[test]
fn long_walk_on_one_view() {
    // Far more than 1 000 queries on one view (a check per step, plus
    // the rewound roots): the snapshot is patched in place thousands of
    // times and must never drift from a fresh evaluation.
    drive(0x10_00, 40, 1200, unbounded());
    drive(0x10_01, 24, 1200, evicting());
}
