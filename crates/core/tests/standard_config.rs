//! `PipelineConfig::standard()` end to end: the experiment-scale preset
//! (hidden-48 denoiser, discriminator reward, every register cone) must
//! fit and generate, and so must the same preset on the dirty-cone
//! incremental reward, which then carries its per-apex memo across every
//! register of the model. Each either produces a valid design or returns
//! a typed `Error` — never a panic — and a repeat call reproduces the
//! same bytes.

use rand::{rngs::StdRng, SeedableRng};
use syncircuit_core::{ConeSelection, GenRequest, PipelineConfig, RewardKind, SynCircuit};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::CircuitGraph;

fn corpus() -> Vec<CircuitGraph> {
    let mut rng = StdRng::seed_from_u64(4848);
    (0..2)
        .map(|_| random_circuit_with_size(&mut rng, 24))
        .collect()
}

fn fits_and_generates(config: PipelineConfig) {
    assert_eq!(config.diffusion().hidden, 48);
    let model = SynCircuit::fit(&corpus(), config).expect("standard() fits");
    let request = GenRequest::nodes(40).seeded(9);
    let first = model.generate_one(&request);
    let again = model.generate_one(&request);
    match (&first, &again) {
        (Ok(a), Ok(b)) => {
            assert!(a.graph.is_valid(), "{:?}", a.graph.validate());
            assert!(!a.mcts.is_empty(), "Phase 3 ran");
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "a repeat call reproduces the same bytes"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        _ => panic!("repeat call changed outcome: {first:?} vs {again:?}"),
    }
}

#[test]
fn standard_preset_fits_and_generates() {
    fits_and_generates(PipelineConfig::standard());
}

#[test]
fn standard_preset_on_incremental_cone_reward() {
    let config = PipelineConfig::standard()
        .into_builder()
        .reward(RewardKind::IncrementalCone)
        .cone_selection(ConeSelection::All)
        .build()
        .expect("valid configuration");
    fits_and_generates(config);
}
