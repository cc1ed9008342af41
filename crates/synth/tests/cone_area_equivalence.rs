//! The allocation-free cone miss path is bit-identical to its oracle:
//! `cone_optimized_area` on a cone of a host graph must return exactly
//! `optimized_area` of the standalone circuit `cone_circuit_parts`
//! builds from that cone, for every register and output apex.

use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use syncircuit_graph::cone::{cone_circuit_parts, fanin_cone_into, ConeScratch};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::{CircuitGraph, Node, NodeId, NodeType};
use syncircuit_synth::{cone_optimized_area, optimized_area, AreaScratch, CellLibrary};

/// Checks every register and output apex of `g` against the oracle,
/// reusing one working scratch throughout; returns the apexes checked.
fn check_all_apexes(g: &CircuitGraph, lib: &CellLibrary, scratch: &mut AreaScratch) -> usize {
    let mut cone = ConeScratch::new();
    let mut checked = 0;
    for (apex, node) in g.iter() {
        if !matches!(node.ty(), NodeType::Reg | NodeType::Output) {
            continue;
        }
        let (members, boundary) = fanin_cone_into(g, apex, &mut cone);
        let local: HashMap<NodeId, usize> = boundary
            .iter()
            .chain(members)
            .chain(std::iter::once(&apex))
            .enumerate()
            .map(|(k, &id)| (id, k))
            .collect();
        let oracle = optimized_area(&cone_circuit_parts(g, apex, members, boundary).circuit, lib);
        let fast = cone_optimized_area(g, apex, members, boundary, |v| local[&v], lib, scratch);
        assert_eq!(
            fast.to_bits(),
            oracle.to_bits(),
            "{}: cone of {apex} ({} members, {} boundary)",
            g.name(),
            members.len(),
            boundary.len()
        );
        checked += 1;
    }
    checked
}

#[test]
fn random_circuits_match_the_standalone_oracle() {
    let lib = CellLibrary::default();
    let mut scratch = AreaScratch::new();
    let mut rng = StdRng::seed_from_u64(0xC0_4E);
    let mut apexes = 0;
    for k in 0..320 {
        let n = 10 + (k * 37) % 201; // 10..=210, spread over the range
        let g = random_circuit_with_size(&mut rng, n);
        apexes += check_all_apexes(&g, &lib, &mut scratch);
    }
    assert!(apexes > 3000, "battery covers many cones: {apexes}");
}

#[test]
fn self_feeding_register_cone() {
    // r ← add(r, 1): the apex is its own member's parent, so the
    // feedback edge stays inside the cone.
    let mut g = CircuitGraph::new("counter");
    let one = g.add_const(8, 1);
    let r = g.add_node(NodeType::Reg, 8);
    let s = g.add_node(NodeType::Add, 8);
    let o = g.add_node(NodeType::Output, 8);
    g.set_parents(s, &[r, one]).unwrap();
    g.set_parents(r, &[s]).unwrap();
    g.set_parents(o, &[r]).unwrap();
    let lib = CellLibrary::default();
    assert_eq!(check_all_apexes(&g, &lib, &mut AreaScratch::new()), 2);
}

#[test]
fn constant_boundary_leaves() {
    // Constants keep their value at the boundary (masked to their
    // width, as `add_const` does), so folding sees the same operands:
    // and(x, 0) collapses and or(x, all-ones) saturates, while an
    // unmasked constant pushed as a raw node folds like its masked
    // value.
    let mut g = CircuitGraph::new("consts");
    let x = g.add_node(NodeType::Input, 4);
    let zero = g.add_const(4, 0);
    let ones = g.push_node(Node::with_aux(NodeType::Const, 4, 0xFFF));
    let five = g.add_const(4, 5);
    let a = g.add_node(NodeType::And, 4);
    let b = g.add_node(NodeType::Or, 4);
    let c = g.add_node(NodeType::Add, 4);
    let ra = g.add_node(NodeType::Reg, 4);
    let rb = g.add_node(NodeType::Reg, 4);
    let rc = g.add_node(NodeType::Reg, 4);
    g.set_parents(a, &[x, zero]).unwrap();
    g.set_parents(b, &[x, ones]).unwrap();
    g.set_parents(c, &[five, ones]).unwrap();
    g.set_parents(ra, &[a]).unwrap();
    g.set_parents(rb, &[b]).unwrap();
    g.set_parents(rc, &[c]).unwrap();
    for r in [ra, rb, rc] {
        let o = g.add_node(NodeType::Output, 4);
        g.set_parents(o, &[r]).unwrap();
    }
    let lib = CellLibrary::default();
    assert_eq!(check_all_apexes(&g, &lib, &mut AreaScratch::new()), 6);
}

#[test]
fn sink_apex_gets_no_extra_port() {
    // An output apex is its own observation port. Its cone here is a
    // live xor of two inputs feeding the port directly; the oracle
    // circuit has exactly one output, and the fast path must agree.
    let mut g = CircuitGraph::new("sink");
    let i1 = g.add_node(NodeType::Input, 8);
    let i2 = g.add_node(NodeType::Input, 8);
    let x = g.add_node(NodeType::Xor, 8);
    let o = g.add_node(NodeType::Output, 8);
    g.set_parents(x, &[i1, i2]).unwrap();
    g.set_parents(o, &[x]).unwrap();
    let mut cone = ConeScratch::new();
    let (members, boundary) = fanin_cone_into(&g, o, &mut cone);
    let oracle = cone_circuit_parts(&g, o, members, boundary).circuit;
    assert_eq!(oracle.count_of_type(NodeType::Output), 1);
    let lib = CellLibrary::default();
    assert!(optimized_area(&oracle, &lib) > 0.0);
    assert_eq!(check_all_apexes(&g, &lib, &mut AreaScratch::new()), 1);
}

/// A standalone cone circuit as plain data: every node with its parent
/// indices (the circuit's name is not structure).
type Structure = Vec<(Node, Vec<usize>)>;

fn structure(g: &CircuitGraph) -> Structure {
    g.iter()
        .map(|(id, node)| (*node, g.parents(id).iter().map(|p| p.index()).collect()))
        .collect()
}

/// A valid circuit whose combinational logic is mostly 2:1 muxes
/// (arity 3, the only parent list the cone key packs into two words).
/// Combinational parents come from lower-indexed non-register nodes or
/// any register, so every cycle passes through a register.
fn mux_heavy_circuit(rng: &mut StdRng, n: usize) -> CircuitGraph {
    use rand::Rng;
    let mut g = CircuitGraph::new("muxes");
    let widths = [1u32, 4, 8];
    let mut drivers = Vec::new();
    for _ in 0..3 {
        drivers.push(g.add_node(NodeType::Input, widths[rng.gen_range(0..3usize)]));
    }
    drivers.push(g.add_const(1, rng.gen_range(0..2u64)));
    drivers.push(g.add_const(8, rng.gen()));
    let regs: Vec<NodeId> = (0..n / 6)
        .map(|_| g.add_node(NodeType::Reg, widths[rng.gen_range(0..3usize)]))
        .collect();
    drivers.extend_from_slice(&regs);
    for _ in 0..n {
        let ty = match rng.gen_range(0..10u32) {
            0 => NodeType::Not,
            1 => NodeType::And,
            _ => NodeType::Mux,
        };
        let node = g.add_node(ty, widths[rng.gen_range(0..3usize)]);
        // A small window of drivers makes shared and duplicated parents
        // (and so structurally equal cones) common.
        let lo = drivers.len().saturating_sub(12);
        let parents: Vec<NodeId> = (0..ty.arity())
            .map(|_| drivers[rng.gen_range(lo..drivers.len())])
            .collect();
        g.set_parents(node, &parents).unwrap();
        drivers.push(node);
    }
    for &r in &regs {
        let d = drivers[rng.gen_range(0..drivers.len())];
        g.set_parents(r, &[d]).unwrap();
    }
    for _ in 0..3 {
        let d = drivers[rng.gen_range(0..drivers.len())];
        let o = g.add_node(NodeType::Output, g.node(d).width());
        g.set_parents(o, &[d]).unwrap();
    }
    assert!(g.is_valid(), "{:?}", g.validate());
    g
}

/// Copies of `g` that each rewire one parent slot of one mux (every
/// slot, the select and both data inputs, in turn) to another driver
/// that keeps the circuit valid: cones that differ in exactly one
/// packed parent id.
fn rewired_copies(g: &CircuitGraph, rng: &mut StdRng) -> Vec<CircuitGraph> {
    use rand::Rng;
    let muxes = g.nodes_of_type(NodeType::Mux);
    let mut copies = Vec::new();
    for (k, &m) in muxes.iter().enumerate().take(12) {
        let slot = k % 3;
        let drivers: Vec<NodeId> = g
            .iter()
            .filter(|(id, node)| id.index() < m.index() || node.ty() == NodeType::Reg)
            .filter(|(id, node)| node.ty() != NodeType::Output && *id != g.parents(m)[slot])
            .map(|(id, _)| id)
            .collect();
        let mut copy = g.clone();
        copy.set_parent_slot(m, slot, drivers[rng.gen_range(0..drivers.len())]);
        assert!(copy.is_valid(), "{:?}", copy.validate());
        copies.push(copy);
    }
    copies
}

#[test]
fn equal_cone_keys_mean_equal_cone_circuits() {
    use syncircuit_synth::incremental::cone_key;
    let lib = CellLibrary::default();
    let mut rng = StdRng::seed_from_u64(0xC0_4E);
    let mut graphs: Vec<CircuitGraph> = (0..320)
        .map(|k| random_circuit_with_size(&mut rng, 10 + (k * 37) % 201))
        .collect();
    for k in 0..40 {
        let g = mux_heavy_circuit(&mut rng, 12 + k * 3);
        graphs.extend(rewired_copies(&g, &mut rng));
        graphs.push(g);
    }

    let mut seen: HashMap<u64, (Structure, u64)> = HashMap::new();
    let mut by_structure: HashMap<Structure, u64> = HashMap::new();
    let (mut cones, mut repeats, mut mux_cones) = (0, 0, 0);
    let mut cone = ConeScratch::new();
    for g in &graphs {
        for (apex, node) in g.iter() {
            if !matches!(node.ty(), NodeType::Reg | NodeType::Output) {
                continue;
            }
            let (members, boundary) = fanin_cone_into(g, apex, &mut cone);
            let key = cone_key(g, apex, members, boundary);
            let circuit = cone_circuit_parts(g, apex, members, boundary).circuit;
            let area = optimized_area(&circuit, &lib).to_bits();
            let shape = structure(&circuit);
            cones += 1;
            mux_cones += usize::from(members.iter().any(|&m| g.ty(m) == NodeType::Mux));
            match seen.get(&key) {
                Some((first, first_area)) => {
                    repeats += 1;
                    assert_eq!(first, &shape, "{}: cone of {apex} shares key {key:#x}", g.name());
                    assert_eq!(*first_area, area, "{}: cone of {apex}", g.name());
                }
                None => {
                    let clash = by_structure.insert(shape.clone(), key);
                    assert!(clash.is_none(), "one structure, two keys");
                    seen.insert(key, (shape, area));
                }
            }
        }
    }
    assert!(cones > 4000, "audit covers many cones: {cones}");
    assert!(repeats > 1000, "equal cones recur, so equal keys are exercised: {repeats}");
    assert!(mux_cones > 500, "arity-3 members are exercised: {mux_cones}");
    assert_eq!(seen.len(), by_structure.len());
}
