//! Node identity and attributes of the circuit DCG.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node inside a [`CircuitGraph`](crate::CircuitGraph).
///
/// `NodeId`s are dense indices assigned in insertion order; they are only
/// meaningful relative to the graph that created them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Operator type of a circuit node.
///
/// The type uniquely determines the required number of parents
/// (constraint 1 of the paper's `C`, see [`NodeType::arity`]). The
/// categories follow the paper's §II: IO ports, arithmetic / logic
/// operators, registers, bit selection and concatenation, plus constants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum NodeType {
    /// Primary input port (no parents).
    Input,
    /// Constant literal (no parents); the value lives in [`Node::aux`].
    Const,
    /// Primary output port (one parent, no children).
    Output,
    /// D flip-flop register (one parent: the D input). Clock is implicit.
    Reg,
    /// Bitwise NOT.
    Not,
    /// Bit selection `x[w-1+off : off]`; the offset lives in [`Node::aux`].
    BitSelect,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction (`p0 - p1`).
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Equality comparison (1-bit result, zero-extended to the node width).
    Eq,
    /// Unsigned less-than (`p0 < p1`, 1-bit result zero-extended).
    Lt,
    /// Logical shift left (`p0 << p1`).
    Shl,
    /// Logical shift right (`p0 >> p1`).
    Shr,
    /// Concatenation `{p0, p1}` (p0 in the high bits).
    Concat,
    /// 2:1 multiplexer: `p0 ? p1 : p2` (p0 is the select).
    Mux,
}

/// All node types, in a fixed order usable as a categorical encoding.
pub const ALL_NODE_TYPES: [NodeType; 18] = [
    NodeType::Input,
    NodeType::Const,
    NodeType::Output,
    NodeType::Reg,
    NodeType::Not,
    NodeType::BitSelect,
    NodeType::And,
    NodeType::Or,
    NodeType::Xor,
    NodeType::Add,
    NodeType::Sub,
    NodeType::Mul,
    NodeType::Eq,
    NodeType::Lt,
    NodeType::Shl,
    NodeType::Shr,
    NodeType::Concat,
    NodeType::Mux,
];

impl NodeType {
    /// Required number of parents for this node type.
    ///
    /// This is constraint 1 of the paper's circuit constraints `C`: "the
    /// node type uniquely determines the number of parent nodes".
    #[inline]
    pub fn arity(self) -> usize {
        use NodeType::*;
        match self {
            Input | Const => 0,
            Output | Reg | Not | BitSelect => 1,
            And | Or | Xor | Add | Sub | Mul | Eq | Lt | Shl | Shr | Concat => 2,
            Mux => 3,
        }
    }

    /// Whether this node is a sequential element (register).
    ///
    /// Cycles are legal exactly when they pass through at least one node
    /// for which this returns `true`.
    #[inline]
    pub fn is_register(self) -> bool {
        matches!(self, NodeType::Reg)
    }

    /// Whether this node computes a combinational function of its parents.
    ///
    /// Inputs, constants, outputs and registers are not combinational.
    #[inline]
    pub fn is_combinational(self) -> bool {
        !matches!(
            self,
            NodeType::Input | NodeType::Const | NodeType::Output | NodeType::Reg
        )
    }

    /// Whether the node is a source (may not have parents).
    #[inline]
    pub fn is_source(self) -> bool {
        self.arity() == 0
    }

    /// Whether the node is a sink (must not have children).
    #[inline]
    pub fn is_sink(self) -> bool {
        matches!(self, NodeType::Output)
    }

    /// Dense categorical index of this type inside [`ALL_NODE_TYPES`].
    #[inline]
    pub fn category(self) -> usize {
        // ALL_NODE_TYPES lists the variants in declaration order
        // (checked by `category_roundtrip`), so the discriminant is the
        // index.
        self as usize
    }

    /// Inverse of [`NodeType::category`]. Returns `None` if out of range.
    #[inline]
    pub fn from_category(index: usize) -> Option<Self> {
        ALL_NODE_TYPES.get(index).copied()
    }

    /// Short lowercase mnemonic used by the HDL printer and in diagnostics.
    pub fn mnemonic(self) -> &'static str {
        use NodeType::*;
        match self {
            Input => "in",
            Const => "const",
            Output => "out",
            Reg => "reg",
            Not => "not",
            BitSelect => "bitsel",
            And => "and",
            Or => "or",
            Xor => "xor",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Eq => "eq",
            Lt => "lt",
            Shl => "shl",
            Shr => "shr",
            Concat => "concat",
            Mux => "mux",
        }
    }
}

impl fmt::Display for NodeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Maximum supported signal width in bits.
pub const MAX_WIDTH: u32 = 64;

/// A circuit node: operator type, output bit width, and an auxiliary
/// attribute (constant value for [`NodeType::Const`], bit offset for
/// [`NodeType::BitSelect`], zero otherwise).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Node {
    ty: NodeType,
    width: u32,
    aux: u64,
}

impl Node {
    /// Creates a node with `aux = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn new(ty: NodeType, width: u32) -> Self {
        Self::with_aux(ty, width, 0)
    }

    /// Creates a node with an explicit auxiliary attribute.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn with_aux(ty: NodeType, width: u32, aux: u64) -> Self {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "node width {width} out of range 1..={MAX_WIDTH}"
        );
        Node { ty, width, aux }
    }

    /// Operator type.
    #[inline]
    pub fn ty(&self) -> NodeType {
        self.ty
    }

    /// Output signal width in bits (1..=64).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Auxiliary attribute (const value / bit-select offset).
    #[inline]
    pub fn aux(&self) -> u64 {
        self.aux
    }

    /// Bit mask covering this node's width.
    #[inline]
    pub fn mask(&self) -> u64 {
        mask(self.width)
    }
}

/// Bit mask with the lowest `width` bits set.
#[inline]
pub fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_paper_examples() {
        // "a node of the type mux requires three parent nodes, while the
        // type add requires two" (§II).
        assert_eq!(NodeType::Mux.arity(), 3);
        assert_eq!(NodeType::Add.arity(), 2);
        assert_eq!(NodeType::Input.arity(), 0);
        assert_eq!(NodeType::Reg.arity(), 1);
    }

    #[test]
    fn category_roundtrip() {
        for (i, &ty) in ALL_NODE_TYPES.iter().enumerate() {
            assert_eq!(ty.category(), i);
            assert_eq!(NodeType::from_category(i), Some(ty));
        }
        assert_eq!(NodeType::from_category(ALL_NODE_TYPES.len()), None);
    }

    #[test]
    fn combinational_classification() {
        assert!(!NodeType::Reg.is_combinational());
        assert!(!NodeType::Input.is_combinational());
        assert!(!NodeType::Output.is_combinational());
        assert!(!NodeType::Const.is_combinational());
        assert!(NodeType::Add.is_combinational());
        assert!(NodeType::Mux.is_combinational());
        assert!(NodeType::Reg.is_register());
        assert!(!NodeType::Add.is_register());
    }

    #[test]
    fn mask_widths() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xff);
        assert_eq!(mask(64), u64::MAX);
        assert_eq!(Node::new(NodeType::Add, 4).mask(), 0xf);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        let _ = Node::new(NodeType::Add, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversize_width_rejected() {
        let _ = Node::new(NodeType::Add, 65);
    }

    #[test]
    fn node_id_display() {
        let id = NodeId::new(42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for ty in ALL_NODE_TYPES {
            assert!(seen.insert(ty.mnemonic()), "duplicate mnemonic for {ty:?}");
        }
    }
}
