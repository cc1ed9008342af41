//! Synthesis optimization passes.
//!
//! [`optimize`] runs constant propagation, algebraic identity rewriting,
//! common-subexpression elimination and dead-code elimination to a
//! fixpoint, then compacts the surviving logic into a fresh netlist
//! graph. These are exactly the mechanisms that make redundant synthetic
//! circuits collapse during real synthesis (the paper's SCPR story, §VI).
//!
//! # Sequential constant propagation
//!
//! A register whose D input is tied to a constant is replaced by that
//! constant. This assumes the register initializes to its tied value
//! (one reachable state), matching how synthesis sweeps constant
//! registers; it makes the optimized circuit equivalent to the original
//! only *after* an initialization transient, which the semantics
//! property tests account for.

use crate::area::{area_of_graph, gate_count, CellLibrary};
use std::collections::HashMap;
use std::hash::Hasher;
use syncircuit_graph::hash::FxHasher;
use syncircuit_graph::interp::eval_op;
use syncircuit_graph::{mask, CircuitGraph, Node, NodeId, NodeType};

/// Aggregate statistics of one synthesis run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SynthStats {
    /// Node count of the input design.
    pub nodes_before: usize,
    /// Node count of the optimized netlist.
    pub nodes_after: usize,
    /// Cell area of the input design.
    pub area_before: f64,
    /// Cell area of the optimized netlist.
    pub area_after: f64,
    /// Register bits before synthesis (SCPR denominator).
    pub seq_bits_before: u64,
    /// Register bits surviving synthesis (SCPR numerator).
    pub seq_bits_after: u64,
    /// NAND2-equivalent gates before synthesis.
    pub gates_before: u64,
    /// NAND2-equivalent gates after synthesis.
    pub gates_after: u64,
}

/// Output of [`optimize`]: the compacted netlist plus statistics and a
/// map from original registers to surviving netlist registers.
#[derive(Clone, Debug)]
pub struct SynthResult {
    /// The optimized, compacted netlist.
    pub netlist: CircuitGraph,
    /// Before/after statistics.
    pub stats: SynthStats,
    /// Maps each original register to the netlist register that now holds
    /// its state (absent when the register was swept or folded to a
    /// constant). Merged registers map to the same netlist node.
    pub reg_map: HashMap<NodeId, NodeId>,
}

/// Runs the full optimization pipeline with the default cell library.
///
/// # Panics
///
/// Debug-asserts that the input graph is valid (correct arities, no
/// combinational loops); optimizing an invalid graph is unspecified.
pub fn optimize(g: &CircuitGraph) -> SynthResult {
    optimize_with(g, &CellLibrary::default())
}

/// Fixed-capacity parent slots (arity ≤ 3 = Mux): the working copy of
/// the wiring during optimization, flat in one `Vec` so the passes make
/// zero per-node heap allocations.
#[derive(Clone, Copy, Debug, Default)]
struct Slots {
    p: [usize; 3],
    len: u8,
}

impl Slots {
    /// Slots holding `map(id)` for each id, in slot order.
    fn mapped(ids: &[NodeId], map: impl Fn(NodeId) -> usize) -> Slots {
        debug_assert!(ids.len() <= 3, "node arity exceeds Mux");
        let mut s = Slots::default();
        for &id in ids {
            s.p[s.len as usize] = map(id);
            s.len += 1;
        }
        s
    }

    #[inline]
    fn as_slice(&self) -> &[usize] {
        &self.p[..self.len as usize]
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }
}

/// Working state of one synthesis run: node attributes, wiring and the
/// replacement map, plus the CSE table and liveness buffers. Loaded either
/// from a whole graph ([`optimized_area`], [`optimize_with`]) or straight
/// from a cone of a host graph ([`cone_optimized_area`]); reusing one
/// scratch keeps repeated runs allocation-free once its buffers are warm.
#[derive(Debug, Default)]
pub struct AreaScratch {
    nodes: Vec<Node>,
    parents: Vec<Slots>,
    repl: Vec<Option<usize>>,
    cse: CseTable,
    live: Vec<bool>,
    stack: Vec<usize>,
}

impl AreaScratch {
    /// Empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Working state loaded with the whole of `g`.
    fn for_graph(g: &CircuitGraph) -> Self {
        debug_assert!(g.is_valid(), "optimize requires a valid graph");
        let mut s = Self::new();
        for (id, node) in g.iter() {
            s.nodes.push(*node);
            s.parents.push(Slots::mapped(g.parents(id), NodeId::index));
        }
        s
    }

    /// Runs the fold/CSE fixpoint on the loaded state.
    fn run_fixpoint(&mut self) {
        let n = self.nodes.len();
        assert!(n < u32::MAX as usize, "CSE keys hold 32-bit node indices");
        self.repl.clear();
        self.repl.resize(n, None);
        let mut rounds = 0usize;
        loop {
            let mut changed = false;
            changed |= fold_and_simplify(&mut self.nodes, &mut self.parents, &mut self.repl);
            changed |= cse(&self.nodes, &self.parents, &mut self.repl, &mut self.cse);
            rounds += 1;
            if !changed || rounds > n + 4 {
                break;
            }
        }
    }

    /// Liveness: reverse reachability from outputs over resolved parents.
    fn mark_live(&mut self) {
        let (nodes, parents, repl) = (&self.nodes, &self.parents, &self.repl);
        self.live.clear();
        self.live.resize(nodes.len(), false);
        self.stack.clear();
        for u in 0..nodes.len() {
            if repl[u].is_none() && nodes[u].ty() == NodeType::Output {
                self.live[u] = true;
                self.stack.push(u);
            }
        }
        while let Some(u) = self.stack.pop() {
            for &p in parents[u].as_slice() {
                let p = resolve(repl, p);
                if !self.live[p] {
                    self.live[p] = true;
                    self.stack.push(p);
                }
            }
        }
    }

    /// Fixpoint, liveness, then the cell areas of the surviving nodes
    /// summed in node order.
    fn optimized_area(&mut self, lib: &CellLibrary) -> f64 {
        self.run_fixpoint();
        self.mark_live();
        let mut area = 0.0;
        for u in 0..self.nodes.len() {
            if self.live[u] && self.repl[u].is_none() {
                area += lib.node_area(&self.nodes[u]);
            }
        }
        area
    }
}

/// Runs the full optimization pipeline with an explicit cell library.
pub fn optimize_with(g: &CircuitGraph, lib: &CellLibrary) -> SynthResult {
    let mut s = AreaScratch::for_graph(g);
    s.run_fixpoint();
    s.mark_live();
    compact(g, &s, lib)
}

/// Post-synthesis circuit size of `g` without materializing the
/// compacted netlist: runs the same fixpoint and liveness, then sums
/// cell areas of the surviving nodes directly. Bit-identical to
/// `crate::pcs(&optimize_with(g, lib))` (same nodes, same summation
/// order), but skips netlist construction, the register map, and the
/// before-side statistics — the Phase-3 reward hot path.
pub fn pcs_with(g: &CircuitGraph, lib: &CellLibrary) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    optimized_area(g, lib) / n as f64
}

/// Post-synthesis cell area of `g` without materializing the netlist;
/// bit-identical to `optimize_with(g, lib).stats.area_after`.
pub fn optimized_area(g: &CircuitGraph, lib: &CellLibrary) -> f64 {
    AreaScratch::for_graph(g).optimized_area(lib)
}

/// Post-synthesis cell area of the standalone circuit of one cone of
/// `g`, without building it: bit-identical to
/// `optimized_area(&cone_circuit_parts(g, apex, members, boundary).circuit, lib)`.
///
/// The working state is filled straight from the host graph in the
/// order `cone_circuit_parts` builds its nodes — boundary leaves
/// (constants keep their value, everything else becomes an input),
/// members, the apex, then a fresh output port unless the apex is a
/// sink. `local(v)` must return that cone-local position for every
/// boundary node, member and the apex (the order
/// [`fanin_cone_into`](syncircuit_graph::cone::fanin_cone_into)'s
/// slices give). Allocation-free once `scratch` is warm.
pub fn cone_optimized_area(
    g: &CircuitGraph,
    apex: NodeId,
    members: &[NodeId],
    boundary: &[NodeId],
    local: impl Fn(NodeId) -> usize,
    lib: &CellLibrary,
    scratch: &mut AreaScratch,
) -> f64 {
    scratch.nodes.clear();
    scratch.parents.clear();
    for &b in boundary {
        debug_assert_eq!(local(b), scratch.nodes.len(), "boundary order");
        let node = g.node(b);
        let w = node.width();
        scratch.nodes.push(match node.ty() {
            NodeType::Const => Node::with_aux(NodeType::Const, w, node.aux() & mask(w)),
            _ => Node::new(NodeType::Input, w),
        });
        scratch.parents.push(Slots::default());
    }
    for &m in members.iter().chain(std::iter::once(&apex)) {
        debug_assert_eq!(local(m), scratch.nodes.len(), "member order");
        scratch.nodes.push(*g.node(m));
        scratch.parents.push(Slots::mapped(g.parents(m), &local));
    }
    let apex_node = g.node(apex);
    if !apex_node.ty().is_sink() {
        scratch
            .nodes
            .push(Node::new(NodeType::Output, apex_node.width()));
        scratch.parents.push(Slots::mapped(&[apex], &local));
    }
    scratch.optimized_area(lib)
}

fn resolve(repl: &[Option<usize>], mut u: usize) -> usize {
    let mut hops = 0;
    while let Some(v) = repl[u] {
        u = v;
        hops += 1;
        debug_assert!(hops <= repl.len(), "replacement cycle (invalid input graph?)");
        if hops > repl.len() {
            break;
        }
    }
    u
}

fn is_const(nodes: &[Node], u: usize) -> Option<u64> {
    (nodes[u].ty() == NodeType::Const).then(|| nodes[u].aux())
}

fn fold_and_simplify(
    nodes: &mut [Node],
    parents: &mut [Slots],
    repl: &mut [Option<usize>],
) -> bool {
    let n = nodes.len();
    let mut changed = false;
    for u in 0..n {
        if repl[u].is_some() {
            continue;
        }
        let ty = nodes[u].ty();
        if matches!(ty, NodeType::Input | NodeType::Const | NodeType::Output) {
            continue;
        }
        // Resolve parents through the replacement map, in place (arity
        // is at most 3, so a stack buffer avoids per-node allocations).
        let arity = parents[u].len();
        let mut ps_buf = [0usize; 3];
        for (slot, p) in ps_buf.iter_mut().enumerate().take(arity) {
            let r = resolve(repl, parents[u].p[slot]);
            parents[u].p[slot] = r;
            *p = r;
        }
        let ps = &ps_buf[..arity];
        let w = nodes[u].width();
        let same_width = |v: usize, nodes: &[Node]| nodes[v].width() == w;

        // Registers: sequential constant propagation.
        if ty == NodeType::Reg {
            if let Some(v) = is_const(nodes, ps[0]) {
                nodes[u] = Node::with_aux(NodeType::Const, w, v & mask(w));
                parents[u].clear();
                changed = true;
            }
            continue;
        }

        // Full constant folding.
        let mut const_buf = [None; 3];
        for (slot, v) in const_buf.iter_mut().enumerate().take(arity) {
            *v = is_const(nodes, ps[slot]);
        }
        let const_vals = &const_buf[..arity];
        if !ps.is_empty() && const_vals.iter().all(Option::is_some) {
            let aux = if ty == NodeType::Concat {
                nodes[ps[1]].width() as u64
            } else {
                nodes[u].aux()
            };
            let v = eval_op(ty, aux, |k| const_vals[k].unwrap_or(0)) & mask(w);
            nodes[u] = Node::with_aux(NodeType::Const, w, v);
            parents[u].clear();
            changed = true;
            continue;
        }

        // Width-preserving algebraic identities.
        let mut replace_with: Option<usize> = None;
        let mut rewrite_const: Option<u64> = None;
        match ty {
            NodeType::And => {
                if ps[0] == ps[1] && same_width(ps[0], nodes) {
                    replace_with = Some(ps[0]);
                } else if const_vals.iter().flatten().any(|&v| v & mask(w) == 0) {
                    rewrite_const = Some(0);
                } else if let Some(k) = all_ones_side(const_vals, w) {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                }
            }
            NodeType::Or => {
                if ps[0] == ps[1] && same_width(ps[0], nodes) {
                    replace_with = Some(ps[0]);
                } else if let Some(k) = zero_side(const_vals) {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                } else if all_ones_side(const_vals, w).is_some() {
                    rewrite_const = Some(mask(w));
                }
            }
            NodeType::Xor => {
                if ps[0] == ps[1] {
                    rewrite_const = Some(0);
                } else if let Some(k) = zero_side(const_vals) {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                }
            }
            NodeType::Add => {
                if let Some(k) = zero_side(const_vals) {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                }
            }
            NodeType::Sub => {
                if ps[0] == ps[1] {
                    rewrite_const = Some(0);
                } else if const_vals[1] == Some(0) && same_width(ps[0], nodes) {
                    replace_with = Some(ps[0]);
                }
            }
            NodeType::Mul => {
                if const_vals.iter().flatten().any(|&v| v == 0) {
                    rewrite_const = Some(0);
                } else if let Some(k) = const_vals
                    .iter()
                    .position(|&v| v == Some(1))
                {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                }
            }
            NodeType::Eq
                if ps[0] == ps[1] => {
                    rewrite_const = Some(1);
                }
            NodeType::Lt
                if ps[0] == ps[1] => {
                    rewrite_const = Some(0);
                }
            NodeType::Shl | NodeType::Shr
                if const_vals[1] == Some(0) && same_width(ps[0], nodes) => {
                    replace_with = Some(ps[0]);
                }
            NodeType::Mux => {
                if let Some(sel) = is_const(nodes, ps[0]) {
                    let chosen = if sel != 0 { ps[1] } else { ps[2] };
                    if same_width(chosen, nodes) {
                        replace_with = Some(chosen);
                    }
                } else if ps[1] == ps[2] && same_width(ps[1], nodes) {
                    replace_with = Some(ps[1]);
                }
            }
            NodeType::Not => {
                // ~~x → x (all widths equal)
                let inner = ps[0];
                if nodes[inner].ty() == NodeType::Not
                    && repl[inner].is_none()
                    && same_width(inner, nodes)
                {
                    let x = resolve(repl, parents[inner].p[0]);
                    if same_width(x, nodes) && x != u {
                        replace_with = Some(x);
                    }
                }
            }
            NodeType::BitSelect
                if nodes[u].aux() == 0 && same_width(ps[0], nodes) => {
                    replace_with = Some(ps[0]);
                }
            _ => {}
        }

        if let Some(v) = rewrite_const {
            nodes[u] = Node::with_aux(NodeType::Const, w, v & mask(w));
            parents[u].clear();
            changed = true;
        } else if let Some(target) = replace_with {
            if target != u {
                repl[u] = Some(target);
                changed = true;
            }
        }
    }
    changed
}

fn zero_side(const_vals: &[Option<u64>]) -> Option<usize> {
    const_vals.iter().position(|&v| v == Some(0))
}

fn all_ones_side(const_vals: &[Option<u64>], w: u32) -> Option<usize> {
    const_vals
        .iter()
        .position(|&v| v.is_some_and(|x| x & mask(w) == mask(w)))
}

/// Packed CSE key: `[type | arity << 8 | width << 32, aux, p0 | p1 << 32,
/// p2]`, where `p*` are the resolved 32-bit parent indices, padded with
/// `u32::MAX` past the arity.
type CseKey = [u64; 4];

/// One slot of a [`CseTable`]: a key, the round stamp that makes the
/// slot live, and the first node index that carried the key.
#[derive(Clone, Copy, Debug, Default)]
struct CseSlot {
    key: CseKey,
    stamp: u32,
    canon: u32,
}

/// Open-addressing (linear probing) table of the CSE keys seen in one
/// round. A round uses a power-of-two prefix of at least twice the node
/// count, so probes always find a free slot; starting a round bumps the
/// stamp instead of clearing, and the buffer only ever grows.
#[derive(Debug, Default)]
struct CseTable {
    slots: Vec<CseSlot>,
    mask: usize,
    stamp: u32,
}

impl CseTable {
    /// Starts a round over `n` nodes: every slot becomes free.
    fn begin_round(&mut self, n: usize) {
        let cap = (2 * n).next_power_of_two().max(2);
        if self.slots.len() < cap {
            self.slots.resize(cap, CseSlot::default());
        }
        self.mask = cap - 1;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            self.stamp = 1;
        }
    }

    /// The first node index that carried `key` this round; records `u`
    /// (and returns it) when the key is new.
    #[inline]
    fn first_or_insert(&mut self, key: CseKey, u: u32) -> u32 {
        let mut h = FxHasher::default();
        key.iter().for_each(|&w| h.write_u64(w));
        let mut i = h.finish() as usize & self.mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.stamp {
                *slot = CseSlot {
                    key,
                    stamp: self.stamp,
                    canon: u,
                };
                return u;
            }
            if slot.key == key {
                return slot.canon;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Sets the stamp so the next rounds exercise the wraparound.
    #[cfg(test)]
    fn force_stamp(&mut self, stamp: u32) {
        self.stamp = stamp;
    }
}

/// Common-subexpression elimination. Inputs and outputs never merge;
/// constants, combinational nodes and registers with identical
/// (type, width, aux, parents) do. Commutative operators sort their
/// parent pair before keying. The first node (in index order) carrying
/// a key is its canonical copy; later ones are replaced by it.
///
/// Keys are packed into four words (arity ≤ 3, 32-bit indices) and
/// looked up in a stamped open-addressing table owned by the caller's
/// scratch and reused across fixpoint rounds, so a round allocates
/// nothing and clears nothing.
fn cse(nodes: &[Node], parents: &[Slots], repl: &mut [Option<usize>], seen: &mut CseTable) -> bool {
    seen.begin_round(nodes.len());
    let mut changed = false;
    for u in 0..nodes.len() {
        if repl[u].is_some() {
            continue;
        }
        let ty = nodes[u].ty();
        if matches!(ty, NodeType::Input | NodeType::Output) {
            continue;
        }
        let len = parents[u].len();
        let mut ps = [u32::MAX; 3];
        for (slot, p) in ps.iter_mut().enumerate().take(len) {
            *p = resolve(repl, parents[u].p[slot]) as u32;
        }
        if matches!(
            ty,
            NodeType::And | NodeType::Or | NodeType::Xor | NodeType::Add | NodeType::Mul | NodeType::Eq
        ) {
            ps[..len].sort_unstable();
        }
        let key = [
            ty as u64 | (len as u64) << 8 | (nodes[u].width() as u64) << 32,
            nodes[u].aux(),
            ps[0] as u64 | (ps[1] as u64) << 32,
            ps[2] as u64,
        ];
        let canon = seen.first_or_insert(key, u as u32) as usize;
        if canon != u {
            repl[u] = Some(canon);
            changed = true;
        }
    }
    changed
}

/// Dead-code elimination + compaction into a fresh graph.
fn compact(original: &CircuitGraph, s: &AreaScratch, lib: &CellLibrary) -> SynthResult {
    let (nodes, parents, repl, live) = (&s.nodes, &s.parents, &s.repl, &s.live);
    let n = nodes.len();

    let mut netlist = CircuitGraph::new(original.name());
    let mut old_to_new: Vec<Option<NodeId>> = vec![None; n];
    for u in 0..n {
        if live[u] && repl[u].is_none() {
            old_to_new[u] = Some(netlist.push_node(nodes[u]));
        }
    }
    let mut buf = [NodeId::new(0); 3];
    for u in 0..n {
        let Some(new_id) = old_to_new[u] else { continue };
        let k = parents[u].len();
        for (slot, &p) in parents[u].as_slice().iter().enumerate() {
            buf[slot] = old_to_new[resolve(repl, p)].expect("live node's parent must be live");
        }
        netlist.set_parents_unchecked(new_id, &buf[..k]);
    }

    let mut reg_map = HashMap::new();
    for (id, node) in original.iter() {
        if node.ty().is_register() {
            let r = resolve(repl, id.index());
            if let Some(new_id) = old_to_new[r] {
                if netlist.ty(new_id).is_register() {
                    reg_map.insert(id, new_id);
                }
            }
        }
    }

    let stats = SynthStats {
        nodes_before: original.node_count(),
        nodes_after: netlist.node_count(),
        area_before: area_of_graph(original, lib),
        area_after: area_of_graph(&netlist, lib),
        seq_bits_before: original.register_bits(),
        seq_bits_after: netlist.register_bits(),
        gates_before: gate_count(original, lib),
        gates_after: gate_count(&netlist, lib),
    };
    SynthResult {
        netlist,
        stats,
        reg_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_register_swept() {
        let mut g = CircuitGraph::new("dead");
        let i = g.add_node(NodeType::Input, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[i]).unwrap();
        g.set_parents(o, &[i]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 0);
        assert!(!res.reg_map.contains_key(&r));
        assert!(res.netlist.is_valid());
    }

    #[test]
    fn live_register_survives_and_maps() {
        let mut g = CircuitGraph::new("live");
        let i = g.add_node(NodeType::Input, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[i]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 8);
        let mapped = res.reg_map[&r];
        assert!(res.netlist.ty(mapped).is_register());
    }

    #[test]
    fn sequential_constant_folds() {
        // reg fed by const, output = reg + input
        let mut g = CircuitGraph::new("seqconst");
        let c = g.add_const(8, 5);
        let r = g.add_node(NodeType::Reg, 8);
        let i = g.add_node(NodeType::Input, 8);
        let s = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[c]).unwrap();
        g.set_parents(s, &[r, i]).unwrap();
        g.set_parents(o, &[s]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 0, "constant register swept");
        assert!(!res.reg_map.contains_key(&r));
    }

    #[test]
    fn full_constant_cone_folds_to_const() {
        let mut g = CircuitGraph::new("fold");
        let a = g.add_const(8, 3);
        let b = g.add_const(8, 4);
        let s = g.add_node(NodeType::Add, 8);
        let m = g.add_node(NodeType::Mul, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s, &[a, b]).unwrap();
        g.set_parents(m, &[s, s]).unwrap();
        g.set_parents(o, &[m]).unwrap();
        let res = optimize(&g);
        // netlist: const 49 → output
        assert_eq!(res.netlist.count_of_type(NodeType::Const), 1);
        let c = res.netlist.nodes_of_type(NodeType::Const)[0];
        assert_eq!(res.netlist.node(c).aux(), 49);
        assert_eq!(res.netlist.node_count(), 2);
    }

    #[test]
    fn cse_merges_duplicate_logic() {
        let mut g = CircuitGraph::new("cse");
        let a = g.add_node(NodeType::Input, 8);
        let b = g.add_node(NodeType::Input, 8);
        let s1 = g.add_node(NodeType::Add, 8);
        let s2 = g.add_node(NodeType::Add, 8); // same as s1 (commuted)
        let x = g.add_node(NodeType::Xor, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s1, &[a, b]).unwrap();
        g.set_parents(s2, &[b, a]).unwrap();
        g.set_parents(x, &[s1, s2]).unwrap();
        g.set_parents(o, &[x]).unwrap();
        let res = optimize(&g);
        // xor(s,s) → 0, so everything folds to a constant output
        let consts = res.netlist.nodes_of_type(NodeType::Const);
        assert_eq!(consts.len(), 1);
        assert_eq!(res.netlist.node(consts[0]).aux(), 0);
    }

    #[test]
    fn register_merging() {
        let mut g = CircuitGraph::new("regmerge");
        let i = g.add_node(NodeType::Input, 4);
        let r1 = g.add_node(NodeType::Reg, 4);
        let r2 = g.add_node(NodeType::Reg, 4);
        let s = g.add_node(NodeType::Add, 4);
        let o = g.add_node(NodeType::Output, 4);
        g.set_parents(r1, &[i]).unwrap();
        g.set_parents(r2, &[i]).unwrap();
        g.set_parents(s, &[r1, r2]).unwrap();
        g.set_parents(o, &[s]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 4, "duplicate registers merged");
        assert_eq!(res.reg_map[&r1], res.reg_map[&r2]);
    }

    #[test]
    fn mux_same_branches_simplifies() {
        let mut g = CircuitGraph::new("mux");
        let s = g.add_node(NodeType::Input, 1);
        let a = g.add_node(NodeType::Input, 8);
        let m = g.add_node(NodeType::Mux, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(m, &[s, a, a]).unwrap();
        g.set_parents(o, &[m]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.netlist.count_of_type(NodeType::Mux), 0);
    }

    #[test]
    fn and_with_zero_folds() {
        let mut g = CircuitGraph::new("and0");
        let a = g.add_node(NodeType::Input, 8);
        let z = g.add_const(8, 0);
        let and = g.add_node(NodeType::And, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(and, &[a, z]).unwrap();
        g.set_parents(o, &[and]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.netlist.count_of_type(NodeType::And), 0);
    }

    #[test]
    fn width_mismatched_identity_not_applied() {
        // add(16-bit x, 0) where the add is 8-bit: replacing by x would
        // expose x's high bits; the pass must keep the add or mask
        // correctly. We verify semantics rather than structure.
        let mut g = CircuitGraph::new("wm");
        let x = g.add_node(NodeType::Input, 16);
        let z = g.add_const(8, 0);
        let add = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(add, &[x, z]).unwrap();
        g.set_parents(o, &[add]).unwrap();
        let res = optimize(&g);
        // The add must survive (width barrier).
        assert_eq!(res.netlist.count_of_type(NodeType::Add), 1);
    }

    #[test]
    fn feedback_counter_fully_survives() {
        let mut g = CircuitGraph::new("ctr");
        let one = g.add_const(8, 1);
        let r = g.add_node(NodeType::Reg, 8);
        let s = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s, &[r, one]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 8);
        assert_eq!(res.stats.nodes_after, 4);
        assert!((crate::scpr(&res) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pcs_with_is_bit_identical_to_full_pipeline() {
        use rand::{rngs::StdRng, SeedableRng};
        use syncircuit_graph::testing::random_circuit_with_size;
        let lib = CellLibrary::default();
        let mut rng = StdRng::seed_from_u64(11);
        for n in [5usize, 12, 25, 40, 60] {
            let g = random_circuit_with_size(&mut rng, n);
            let full = crate::pcs(&optimize_with(&g, &lib));
            let fast = pcs_with(&g, &lib);
            assert_eq!(
                full.to_bits(),
                fast.to_bits(),
                "pcs_with must match the materializing pipeline on {n} nodes"
            );
        }
        assert_eq!(pcs_with(&CircuitGraph::new("empty"), &lib), 0.0);
    }

    #[test]
    fn cone_scratch_mirrors_cone_circuit_layout() {
        use syncircuit_graph::cone::{cone_circuit_parts, fanin_cone_into, ConeScratch};
        // in → not → reg → out: the register apex gains an output port,
        // the sink apex is its own port.
        let mut g = CircuitGraph::new("layout");
        let i = g.add_node(NodeType::Input, 8);
        let n = g.add_node(NodeType::Not, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(n, &[i]).unwrap();
        g.set_parents(r, &[n]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        let lib = CellLibrary::default();
        let mut cone = ConeScratch::new();
        let mut s = AreaScratch::new();
        for apex in [r, o] {
            let (members, boundary) = fanin_cone_into(&g, apex, &mut cone);
            let order: Vec<NodeId> = boundary
                .iter()
                .chain(members)
                .chain(std::iter::once(&apex))
                .copied()
                .collect();
            let local = |v: NodeId| order.iter().position(|&u| u == v).unwrap();
            let area = cone_optimized_area(&g, apex, members, boundary, local, &lib, &mut s);
            let oracle = cone_circuit_parts(&g, apex, members, boundary).circuit;
            assert_eq!(s.nodes.len(), oracle.node_count(), "cone of {apex}");
            let ports = s
                .nodes
                .iter()
                .filter(|n| n.ty() == NodeType::Output)
                .count();
            assert_eq!(ports, 1, "cone of {apex} has exactly one port");
            assert_eq!(area.to_bits(), optimized_area(&oracle, &lib).to_bits());
        }
    }

    /// A stream of `n` keys drawn from a pool of `distinct` keys; pool
    /// keys often differ from each other in a single word.
    fn key_stream(rng: &mut impl rand::Rng, n: usize, distinct: usize) -> Vec<CseKey> {
        let base: CseKey = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
        let pool: Vec<CseKey> = (0..distinct.max(1))
            .map(|_| {
                let mut k = base;
                k[rng.gen_range(0..4usize)] = rng.gen_range(0..4u64);
                if rng.gen_bool(0.5) {
                    k = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
                }
                k
            })
            .collect();
        (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
    }

    /// Runs `keys` through `table` as one round, checking every answer
    /// against a `HashMap` in which the first index per key wins.
    fn check_round(table: &mut CseTable, keys: &[CseKey]) {
        table.begin_round(keys.len());
        let mut reference: HashMap<CseKey, u32> = HashMap::new();
        for (u, &key) in keys.iter().enumerate() {
            let want = *reference.entry(key).or_insert(u as u32);
            assert_eq!(table.first_or_insert(key, u as u32), want, "key {u} of {}", keys.len());
        }
    }

    #[test]
    fn cse_table_matches_hashmap_across_sizes() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC5E);
        let mut table = CseTable::default();
        let mut n = 4;
        while n <= 4096 {
            for distinct in [1, n / 8, n / 2, n] {
                check_round(&mut table, &key_stream(&mut rng, n, distinct));
            }
            n *= 2;
        }
        // Shrinking back reuses a prefix of the grown buffer.
        for n in [4, 37, 300] {
            check_round(&mut table, &key_stream(&mut rng, n, n / 3));
        }
    }

    #[test]
    fn cse_table_survives_stamp_wraparound() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x3A9);
        let first = key_stream(&mut rng, 64, 16);
        let other = key_stream(&mut rng, 64, 16);
        let mut table = CseTable::default();
        // The round stamped 1 leaves slots that the wrapped stamp would
        // revive if the wraparound did not clear them: the same keys in
        // another order must get their new first indices.
        check_round(&mut table, &first);
        table.force_stamp(u32::MAX - 2);
        check_round(&mut table, &other);
        check_round(&mut table, &other);
        let mut rotated = first.clone();
        rotated.rotate_left(5);
        check_round(&mut table, &rotated);
        assert_eq!(table.stamp, 1, "the stamp wrapped");
        check_round(&mut table, &rotated);
    }

    #[test]
    fn stats_monotonicity() {
        let mut g = CircuitGraph::new("mono");
        let i = g.add_node(NodeType::Input, 8);
        let n1 = g.add_node(NodeType::Not, 8);
        let n2 = g.add_node(NodeType::Not, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(n1, &[i]).unwrap();
        g.set_parents(n2, &[n1]).unwrap();
        g.set_parents(o, &[n2]).unwrap();
        let res = optimize(&g);
        assert!(res.stats.nodes_after <= res.stats.nodes_before);
        assert!(res.stats.area_after <= res.stats.area_before);
        // ~~x → x: both NOTs vanish
        assert_eq!(res.netlist.count_of_type(NodeType::Not), 0);
    }
}
