//! Logic-synthesis simulator and static timing analysis for SynCircuit.
//!
//! The paper labels designs with Synopsys Design Compiler® + NanGate 45nm
//! (§VII-A) and measures redundancy through what synthesis *deletes*
//! (SCPR, §VI) and sizes through post-synthesis area (PCS, §VI-B). This
//! crate substitutes a deterministic synthesis simulator implementing the
//! optimization mechanisms that drive those metrics:
//!
//! - [`optimize`] — constant propagation (including sequential constants),
//!   algebraic identity rewriting, common-subexpression elimination
//!   (including register merging), and dead-code elimination, iterated to
//!   a fixpoint;
//! - [`area`] — a NanGate45-inspired per-cell area model and
//!   NAND2-equivalent gate counts;
//! - [`sta`] — topological static timing analysis producing per-endpoint
//!   slack, WNS, TNS and violating-path counts;
//! - [`labels`] — the end-to-end labeling flow used as ground truth by the
//!   downstream PPA-prediction experiments (Table III).
//!
//! Semantics preservation is property-tested against the bit-accurate
//! interpreter in `syncircuit-graph` (up to the documented
//! initialization transient of sequential constant propagation).
//!
//! # Example
//!
//! ```
//! use syncircuit_graph::{CircuitGraph, NodeType};
//! use syncircuit_synth::optimize;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = CircuitGraph::new("dead_reg");
//! let i = g.add_node(NodeType::Input, 8);
//! let dead = g.add_node(NodeType::Reg, 8); // never reaches an output
//! let o = g.add_node(NodeType::Output, 8);
//! g.set_parents(dead, &[i])?;
//! g.set_parents(o, &[i])?;
//! let result = optimize(&g);
//! assert_eq!(result.stats.seq_bits_after, 0); // swept
//! assert_eq!(result.stats.seq_bits_before, 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod incremental;
pub mod labels;
pub mod passes;
pub mod sta;

pub use area::{area_of_graph, gate_count, CellLibrary};
pub use incremental::{ConeCacheStats, ConeShardStats, ConeSynthCache, SharedConeSynthCache};
pub use labels::{label_design, DesignLabels, LabelConfig};
pub use passes::{
    cone_optimized_area, optimize, optimized_area, pcs_with, AreaScratch, SynthResult, SynthStats,
};
pub use sta::{timing_analysis, TimingReport};

/// Sequential cell preservation ratio (paper §VI): sequential bits in the
/// synthesized netlist divided by sequential bits in the pre-synthesis
/// design. Real designs sit between ~0.7 and 1.0; redundant synthetic
/// designs can fall below 0.1.
pub fn scpr(result: &SynthResult) -> f64 {
    if result.stats.seq_bits_before == 0 {
        return 1.0;
    }
    result.stats.seq_bits_after as f64 / result.stats.seq_bits_before as f64
}

/// Post-synthesis circuit size (paper §VI-B): post-synthesis area divided
/// by the number of pre-synthesis nodes. Larger PCS ⇒ less logic was
/// optimized away ⇒ less redundancy.
pub fn pcs(result: &SynthResult) -> f64 {
    if result.stats.nodes_before == 0 {
        return 0.0;
    }
    result.stats.area_after / result.stats.nodes_before as f64
}
