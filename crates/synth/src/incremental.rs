//! Dirty-cone incremental PCS evaluation (Phase 3 reward acceleration)
//! with a lock-striped, thread-shareable synthesis cache.
//!
//! The exact Phase-3 reward re-synthesizes the *whole design* for every
//! candidate swap ([`crate::passes::optimize_with`]), although one
//! atomic parent swap perturbs at most a handful of register cones. This
//! module decomposes the design-level PCS into per-cone synthesis
//! results, and only re-scores the cones a change touched.
//!
//! # Per-apex memo
//!
//! Each [`ConeSynthCache`] view remembers the graph it scored last: a
//! snapshot of its node attributes and parent lists, and, for every
//! apex (observed register or primary output) it scored, the area plus
//! the recorded cone (members and apex) that area came from. A query
//! diffs the new graph against that snapshot in O(V + E):
//!
//! - if the node count or any node's attributes differ, every memoized
//!   area is dropped;
//! - otherwise an area is dropped only when its recorded cone contains
//!   a node whose parent list changed, and the changed lists are
//!   rewritten in place in the snapshot.
//!
//! This is sound because the fan-in walk
//! ([`fanin_cone_into`]) reads only the parent lists of the apex and
//! its members, and the cone key and synthesis read only their
//! attributes (and the boundary's): a cone with no changed parent list
//! walks, keys and synthesizes exactly as before. Only the dropped
//! apexes are walked, keyed and looked up; the sum is still taken in
//! node order, so the reward bits equal a cold evaluation's. After a
//! swap that is typically a handful of cones out of dozens.
//!
//! # Shared synthesis table
//!
//! A re-scored cone is keyed by a structural fingerprint computed in
//! the host graph — a splitmix64 chain over packed words (the sizes;
//! each boundary leaf's width and constant value; each member's
//! category, arity, width, aux and 32-bit cone-local parent ids, two to
//! a word) that determines the standalone cone circuit — and looked up
//! in a [`SharedConeSynthCache`]: `SHARD_COUNT`-way lock-striped
//! (shard chosen by the key's upper half, one `Mutex`-guarded map per
//! shard), so concurrent workers — e.g. the
//! threads of a `generate_batch` fan-out — deduplicate cone synthesis
//! *between requests* instead of each re-synthesizing the same cones.
//! Each worker owns a [`ConeSynthCache`] view: the shared table behind
//! an `Arc`, plus the private memo and tag-stamped scratch
//! (observability mask, cone visited sets, member/boundary lists,
//! cone-local id maps, synthesis working state), so warm queries stay
//! **allocation-free** and never contend on anything but the per-shard
//! locks. Two workers racing on the same cold key may both synthesize,
//! but they insert the same bits (synthesis is a pure function of the
//! key), so results are byte-identical to a sequential run regardless
//! of scheduling; only the hit/miss counters are schedule-dependent.
//! [`ConeCacheStats::hits`] counts shared-table lookups only: a cone the
//! memo answers never reaches the table.
//!
//! On a table miss the cone is synthesized without building a
//! standalone circuit: [`cone_optimized_area`] fills reusable working
//! state straight from the host graph, reusing the cone-local ids the
//! key computation assigned, and runs outside the shard lock.
//!
//! Long-lived serving processes bound the table with a per-shard entry
//! capacity (CLOCK / second-chance eviction, see
//! [`SharedConeSynthCache::with_shards_and_capacity`]); because the
//! table memoizes a pure function of the structural key, bounding never
//! changes returned areas — an evicted cone is simply re-synthesized on
//! its next miss.
//!
//! The decomposed metric is deliberately *not* bit-identical to
//! whole-design PCS — global CSE can merge logic across cones, which no
//! cone-local scheme can observe — but it is deterministic,
//! self-consistent (warm view ≡ fresh view ≡ shared table,
//! property-tested), and preserves the two reward gradients Phase 3
//! needs (paper §VI):
//!
//! - **cone collapse** — a register cone that folds to a constant
//!   synthesizes to (near-)zero local area;
//! - **fan-out deadness** — a register whose value never reaches a
//!   primary output contributes nothing (global output-reachability
//!   mask, recomputed in O(V + E) per query — cheap next to synthesis).
//!
//! Score: `(Σ observed register-cone areas + Σ output-cone areas) /
//! node_count`, matching the whole-design PCS normalization.

use crate::area::CellLibrary;
use crate::passes::{cone_optimized_area, AreaScratch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use syncircuit_graph::cone::{fanin_cone_into, ConeScratch};
use syncircuit_graph::fingerprint::splitmix64;
use syncircuit_graph::hash::FpBuildHasher;
use syncircuit_graph::{mask, CircuitGraph, Node, NodeId, NodeType};

/// Aggregate cache hit/miss/eviction counters of a cone-synthesis cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConeCacheStats {
    /// Cone synthesis results served from the shared table. Cones a
    /// view's per-apex memo answers never reach the table and are not
    /// counted.
    pub hits: u64,
    /// Cone synthesis runs actually executed.
    pub misses: u64,
    /// Memoized entries displaced by the CLOCK policy (always 0 for an
    /// unbounded table).
    pub evictions: u64,
}

/// Per-shard counters of a [`SharedConeSynthCache`]
/// ([`SharedConeSynthCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConeShardStats {
    /// Cone synthesis results served from this shard.
    pub hits: u64,
    /// Cone synthesis runs this shard recorded as misses.
    pub misses: u64,
    /// Entries this shard displaced under capacity pressure.
    pub evictions: u64,
    /// Memoized cone entries currently stored in this shard.
    pub entries: usize,
}

/// Tag-stamped scratch for the cone-key computation: host-id →
/// cone-local-id maps that are invalidated by bumping an epoch tag
/// instead of clearing.
#[derive(Debug, Default)]
struct KeyScratch {
    local_tag: Vec<u32>,
    local_id: Vec<u32>,
    tag: u32,
}

impl KeyScratch {
    /// Structural key of a cone, computed in the host graph. Assigns
    /// cone-local ids in the order the standalone constructors do
    /// (boundary, members, apex), then feeds a splitmix64 chain
    /// (`h = splitmix64(h ^ word)`) these words:
    ///
    /// - the boundary size and the cone size, packed in one word;
    /// - per boundary node, `width << 8 | is_const`, then a constant's
    ///   value masked to its width;
    /// - per member and the apex, `category | arity << 8 | width << 32`,
    ///   then its aux, then its parents' 32-bit local ids, two to a word.
    ///
    /// The sizes and arities say where each record ends, so the word
    /// stream and the standalone cone circuit determine each other:
    /// equal cone circuits key equally regardless of host-graph ids, and
    /// distinct ones share a key only through a 64-bit hash collision.
    /// There is no cone-size cap beyond 32-bit local ids.
    fn cone_key(
        &mut self,
        g: &CircuitGraph,
        boundary: &[NodeId],
        members: &[NodeId],
        apex: NodeId,
    ) -> u64 {
        let n = g.node_count();
        if self.local_tag.len() < n {
            self.local_tag.resize(n, 0);
            self.local_id.resize(n, 0);
        }
        self.tag = self.tag.wrapping_add(1);
        if self.tag == 0 {
            self.local_tag.fill(0);
            self.tag = 1;
        }
        let tag = self.tag;
        let mut next = 0u32;
        for &b in boundary.iter().chain(members).chain(std::iter::once(&apex)) {
            self.local_tag[b.index()] = tag;
            self.local_id[b.index()] = next;
            next += 1;
        }

        let local = |p: NodeId| self.local(p) as u64;
        let mix = |h: u64, w: u64| splitmix64(h ^ w);
        let sizes = boundary.len() as u64 | (next as u64) << 32;
        let mut h = splitmix64(sizes ^ 0xC0DE_C0DE_C0DE_C0DE);
        for &b in boundary {
            let node = g.node(b);
            let w = node.width() as u64;
            if node.ty() == NodeType::Const {
                h = mix(h, w << 8 | 1);
                h = mix(h, node.aux() & mask(node.width()));
            } else {
                h = mix(h, w << 8);
            }
        }
        for &m in members.iter().chain(std::iter::once(&apex)) {
            let node = g.node(m);
            let ps = g.parents(m);
            debug_assert!(ps.len() < 1 << 24, "arity fits its field");
            let attrs = node.ty().category() as u64 | (ps.len() as u64) << 8;
            h = mix(h, attrs | (node.width() as u64) << 32);
            h = mix(h, node.aux());
            for pair in ps.chunks(2) {
                let hi = pair.get(1).map_or(0, |&p| local(p));
                h = mix(h, local(pair[0]) | hi << 32);
            }
        }
        h
    }

    /// Cone-local id [`KeyScratch::cone_key`] assigned to `id` (valid
    /// for the boundary, members and apex of the last keyed cone).
    fn local(&self, id: NodeId) -> usize {
        debug_assert_eq!(
            self.local_tag[id.index()],
            self.tag,
            "{id} is in the keyed cone"
        );
        self.local_id[id.index()] as usize
    }
}

/// Structural key a [`ConeSynthCache`] files the cone of `apex` under;
/// `members` and `boundary` are what [`fanin_cone_into`] returns for
/// `apex`. Equal keys mean equal standalone cone circuits (up to a
/// 64-bit hash collision); exposed so that claim can be audited.
pub fn cone_key(g: &CircuitGraph, apex: NodeId, members: &[NodeId], boundary: &[NodeId]) -> u64 {
    KeyScratch::default().cone_key(g, boundary, members, apex)
}

/// Per-apex memo of the graph a view scored last: a snapshot of its
/// node attributes and parent lists (CSR), and for every apex scored on
/// it the area plus the cone (members, then the apex) that area was
/// computed from.
#[derive(Debug, Default)]
struct ApexMemo {
    nodes: Vec<Node>,
    offsets: Vec<usize>,
    parents: Vec<NodeId>,
    dirty: Vec<bool>,
    area: Vec<Option<f64>>,
    cone: Vec<Vec<NodeId>>,
}

impl ApexMemo {
    /// Diffs `g` against the snapshot, drops every area that `g` may
    /// score differently, and makes `g` the snapshot. Different node
    /// attributes (or count) drop every area; otherwise an area goes
    /// only when its recorded cone holds a node whose parent list
    /// changed.
    ///
    /// Equal attributes imply equal arities, so a changed parent list
    /// is normally rewritten in place in the CSR snapshot; only a
    /// length change (or changed attributes) rebuilds it.
    fn sync(&mut self, g: &CircuitGraph) {
        let n = g.node_count();
        let same_nodes =
            self.nodes.len() == n && g.iter().all(|(id, node)| self.nodes[id.index()] == *node);
        if same_nodes {
            let mut any = false;
            let mut same_shape = true;
            for (v, dirty) in self.dirty.iter_mut().enumerate() {
                let old = &mut self.parents[self.offsets[v]..self.offsets[v + 1]];
                let new = g.parents(NodeId::new(v));
                *dirty = old != new;
                if *dirty {
                    any = true;
                    if old.len() == new.len() {
                        old.copy_from_slice(new);
                    } else {
                        same_shape = false;
                    }
                }
            }
            if !any {
                return;
            }
            let dirty = &self.dirty;
            for (area, cone) in self.area.iter_mut().zip(&self.cone) {
                if area.is_some() && cone.iter().any(|m| dirty[m.index()]) {
                    *area = None;
                }
            }
            if same_shape {
                return;
            }
        } else {
            self.nodes.clear();
            self.nodes.extend(g.iter().map(|(_, node)| *node));
            self.dirty.resize(n, false);
            self.area.clear();
            self.area.resize(n, None);
            self.cone.resize_with(n, Vec::new);
        }
        self.offsets.clear();
        self.parents.clear();
        self.offsets.push(0);
        for v in g.node_ids() {
            self.parents.extend_from_slice(g.parents(v));
            self.offsets.push(self.parents.len());
        }
    }
}

/// Tag-stamped output-reachability mask (reverse BFS from all primary
/// outputs over parent edges, crossing registers); the stack buffer is
/// reused across queries.
#[derive(Debug, Default)]
struct ObservedScratch {
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<NodeId>,
}

impl ObservedScratch {
    /// Re-stamps the mask for `g`; afterwards `self.observed(id)` answers
    /// whether a primary output is reachable from `id`.
    fn mark(&mut self, g: &CircuitGraph) {
        let n = g.node_count();
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.stack.clear();
        for (id, node) in g.iter() {
            if node.ty() == NodeType::Output {
                self.seen[id.index()] = stamp;
                self.stack.push(id);
            }
        }
        while let Some(u) = self.stack.pop() {
            for &p in g.parents(u) {
                if self.seen[p.index()] != stamp {
                    self.seen[p.index()] = stamp;
                    self.stack.push(p);
                }
            }
        }
    }

    fn observed(&self, id: NodeId) -> bool {
        self.seen[id.index()] == self.stamp
    }
}

/// Default stripe count of a [`SharedConeSynthCache`].
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// One memoized cone entry plus its CLOCK reference bit.
#[derive(Debug)]
struct Slot {
    key: u64,
    area: f64,
    referenced: bool,
}

/// What publishing a synthesized area into a shard did.
enum Published {
    /// The key was already present (a racer won); its stored area.
    Already(f64),
    /// Stored in a fresh slot (shard grew by one entry).
    Grew,
    /// Stored by displacing the CLOCK victim (entry count unchanged).
    Evicted,
}

/// The mutex-guarded part of one lock stripe: a key → slot index
/// (hashed pass-through: keys are already splitmix64-mixed) plus the
/// slot arena the CLOCK hand sweeps. With `capacity == 0` the arena
/// grows monotonically (the pre-bounding behavior); otherwise it holds
/// at most `capacity` slots and inserts displace the second-chance
/// victim.
#[derive(Debug, Default)]
struct ShardMap {
    index: HashMap<u64, usize, FpBuildHasher>,
    slots: Vec<Slot>,
    hand: usize,
}

impl ShardMap {
    /// Looks `key` up, setting its reference bit on a hit.
    fn get(&mut self, key: u64) -> Option<f64> {
        let &i = self.index.get(&key)?;
        self.slots[i].referenced = true;
        Some(self.slots[i].area)
    }

    /// Publishes `key → area`, evicting the CLOCK victim when the shard
    /// is at `capacity`. New entries start referenced, so they survive
    /// one full hand sweep before becoming eviction candidates.
    fn publish(&mut self, key: u64, area: f64, capacity: usize) -> Published {
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].referenced = true;
            return Published::Already(self.slots[i].area);
        }
        if capacity == 0 || self.slots.len() < capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(Slot {
                key,
                area,
                referenced: true,
            });
            return Published::Grew;
        }
        // Second chance: clear reference bits until an unreferenced slot
        // comes under the hand (terminates within two sweeps).
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand += 1;
            } else {
                let victim = &mut self.slots[self.hand];
                self.index.remove(&victim.key);
                *victim = Slot {
                    key,
                    area,
                    referenced: true,
                };
                self.index.insert(key, self.hand);
                self.hand += 1;
                return Published::Evicted;
            }
        }
    }
}

/// One lock stripe: the CLOCK-managed memo arena plus lock-free
/// counters. `entries` mirrors `map.slots.len()` so telemetry reads
/// ([`SharedConeSynthCache::stats`]) never take the map lock.
#[derive(Debug, Default)]
struct Shard {
    map: Mutex<ShardMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicUsize,
}

impl Shard {
    /// Locks this shard's memo map, recovering a poisoned lock. The map
    /// memoizes a pure function of the key, so a shard whose invariants
    /// may have been broken by a panic mid-update is simply cleared:
    /// entries are recomputable work, never state, and an empty shard
    /// returns byte-identical areas (misses re-synthesize).
    fn lock_map(&self) -> MutexGuard<'_, ShardMap> {
        self.map.lock().unwrap_or_else(|poisoned| {
            self.map.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.index.clear();
            guard.slots.clear();
            guard.hand = 0;
            self.entries.store(0, Ordering::Relaxed);
            guard
        })
    }
}

/// Lock-striped, thread-shareable memo table of per-cone synthesis
/// results.
///
/// Keys are structural cone fingerprints (a splitmix64 chain over
/// boundary kinds, member attributes and cone-local wiring — already
/// uniformly mixed), striped over power-of-two shards by bits 32 and
/// up, so the low bits the in-shard map indexes by stay uniform within
/// a shard. Values are a pure function of
/// the key, so concurrent insertion races are benign: every racer
/// computes identical bits, and publishing keeps the first.
///
/// Workers never hold a shard lock while synthesizing — a miss releases
/// the lock, synthesizes the cone standalone, and re-locks to publish.
///
/// # Bounding
///
/// A per-shard capacity ([`SharedConeSynthCache::with_shards_and_capacity`])
/// caps residency: past it, inserts displace a CLOCK / second-chance
/// victim (hits set a reference bit; the sweeping hand evicts the first
/// unreferenced slot). Because the table memoizes a **pure function** of
/// the structural key, eviction can only cause re-synthesis — never a
/// different area — so a bounded table returns byte-identical results to
/// an unbounded one (property-tested in
/// `syncircuit-core/tests/bounded_cache_equivalence.rs`). Capacity `0`
/// means unbounded (the long-lived-process default before serving
/// budgets existed).
///
/// The hit/miss/eviction counters can be disabled
/// ([`SharedConeSynthCache::set_stats_enabled`]); they are pure
/// telemetry and never influence the returned areas (tested in
/// `stats_toggle_does_not_drift`). Per-shard entry counts are mirrored
/// in lock-free atomics, so reading [`SharedConeSynthCache::stats`]
/// never contends with serving workers on the shard locks.
#[derive(Debug)]
pub struct SharedConeSynthCache {
    lib: CellLibrary,
    shards: Box<[Shard]>,
    mask: u64,
    /// Per-shard slot capacity (`0` = unbounded).
    capacity: usize,
    stats_enabled: AtomicBool,
}

impl Default for SharedConeSynthCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedConeSynthCache {
    /// Shared cache with the default cell library and
    /// [`DEFAULT_SHARD_COUNT`] stripes.
    pub fn new() -> Self {
        Self::with_library(CellLibrary::default())
    }

    /// Shared cache with an explicit cell library.
    pub fn with_library(lib: CellLibrary) -> Self {
        Self::with_shards(lib, DEFAULT_SHARD_COUNT)
    }

    /// Shared cache with an explicit stripe count (rounded up to the
    /// next power of two; `0` means [`DEFAULT_SHARD_COUNT`]), unbounded.
    pub fn with_shards(lib: CellLibrary, shards: usize) -> Self {
        Self::with_shards_and_capacity(lib, shards, 0)
    }

    /// Shared cache with an explicit stripe count and a per-shard entry
    /// capacity. `capacity == 0` means unbounded; otherwise each shard
    /// holds at most `capacity` memoized cones and further inserts evict
    /// a CLOCK / second-chance victim. Bounding never changes returned
    /// areas (the table memoizes a pure function of the key) — it only
    /// trades recall for a residency ceiling of
    /// `shards × capacity` entries.
    pub fn with_shards_and_capacity(lib: CellLibrary, shards: usize, capacity: usize) -> Self {
        let count = match shards {
            0 => DEFAULT_SHARD_COUNT,
            n => n.next_power_of_two(),
        };
        SharedConeSynthCache {
            lib,
            shards: (0..count).map(|_| Shard::default()).collect(),
            mask: count as u64 - 1,
            capacity,
            stats_enabled: AtomicBool::new(true),
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard entry capacity (`0` = unbounded).
    pub fn per_shard_capacity(&self) -> usize {
        self.capacity
    }

    /// The cell library cone misses are synthesized against.
    pub fn library(&self) -> &CellLibrary {
        &self.lib
    }

    /// Enables or disables hit/miss counting (enabled by default).
    /// Purely observational: the memoized areas are unaffected.
    pub fn set_stats_enabled(&self, enabled: bool) {
        self.stats_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Per-shard hit/miss/eviction/entry counters, in shard order.
    ///
    /// Lock-free: every field is read from per-shard atomics (entry
    /// counts are mirrored on insert/evict), so telemetry polling never
    /// contends with serving workers — even with counting disabled via
    /// [`SharedConeSynthCache::set_stats_enabled`].
    ///
    /// Under concurrency the hit/miss counters are schedule-dependent
    /// (two workers racing on one cold key may record two misses); the
    /// memoized areas never are.
    pub fn stats(&self) -> Vec<ConeShardStats> {
        self.shards
            .iter()
            .map(|s| ConeShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                entries: s.entries.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Hit/miss/eviction counters summed over all shards.
    pub fn total_stats(&self) -> ConeCacheStats {
        let mut total = ConeCacheStats::default();
        for s in self.shards.iter() {
            total.hits += s.hits.load(Ordering::Relaxed);
            total.misses += s.misses.load(Ordering::Relaxed);
            total.evictions += s.evictions.load(Ordering::Relaxed);
        }
        total
    }

    /// Total memoized cone entries over all shards (lock-free; the
    /// counts are mirrored in per-shard atomics on insert/evict).
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.entries.load(Ordering::Relaxed))
            .sum()
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.shards[((key >> 32) & self.mask) as usize]
    }

    /// Memoized area for `key`, synthesizing with `synth` on a miss.
    /// `synth` runs outside the shard lock.
    fn area_or_insert(&self, key: u64, synth: impl FnOnce(&CellLibrary) -> f64) -> f64 {
        let shard = self.shard(key);
        if let Some(a) = shard.lock_map().get(key) {
            if self.stats_enabled.load(Ordering::Relaxed) {
                shard.hits.fetch_add(1, Ordering::Relaxed);
            }
            return a;
        }
        if self.stats_enabled.load(Ordering::Relaxed) {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        }
        let a = synth(&self.lib);
        match shard.lock_map().publish(key, a, self.capacity) {
            Published::Already(first) => first,
            Published::Grew => {
                shard.entries.fetch_add(1, Ordering::Relaxed);
                a
            }
            Published::Evicted => {
                if self.stats_enabled.load(Ordering::Relaxed) {
                    shard.evictions.fetch_add(1, Ordering::Relaxed);
                }
                a
            }
        }
    }
}

/// Per-worker view of a [`SharedConeSynthCache`]: the shared memo table
/// behind an `Arc` plus a private per-apex memo and tag-stamped scratch,
/// so warm queries are allocation-free and scratch never crosses
/// threads.
///
/// A query re-scores only the apexes whose recorded cone holds a node
/// whose parent list changed since the view's previous query (see the
/// module docs). A re-scored cone is keyed by a structural fingerprint
/// hashed *in the host graph* (boundary kinds, member attributes,
/// cone-local wiring), so no cone circuit is ever materialized; a table
/// miss synthesizes the cone straight from the host graph. Identical
/// cones — across queries, registers, requests, workers, or even
/// designs — share one synthesis result.
///
/// A private evaluator ([`ConeSynthCache::new`]) owns a fresh shared
/// table; fan-out callers clone one `Arc` into
/// [`ConeSynthCache::with_shared`] per worker.
#[derive(Debug)]
pub struct ConeSynthCache {
    shared: Arc<SharedConeSynthCache>,
    memo: ApexMemo,
    key: KeyScratch,
    cone: ConeScratch,
    observed: ObservedScratch,
    synth: AreaScratch,
}

impl Default for ConeSynthCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ConeSynthCache {
    /// Evaluator with the default cell library and a private table.
    pub fn new() -> Self {
        Self::with_shared(Arc::new(SharedConeSynthCache::new()))
    }

    /// Evaluator with an explicit cell library and a private table.
    pub fn with_library(lib: CellLibrary) -> Self {
        Self::with_shared(Arc::new(SharedConeSynthCache::with_library(lib)))
    }

    /// Worker view over an existing shared table.
    pub fn with_shared(shared: Arc<SharedConeSynthCache>) -> Self {
        ConeSynthCache {
            shared,
            memo: ApexMemo::default(),
            key: KeyScratch::default(),
            cone: ConeScratch::new(),
            observed: ObservedScratch::default(),
            synth: AreaScratch::new(),
        }
    }

    /// The shared memo table this view feeds.
    pub fn shared(&self) -> &Arc<SharedConeSynthCache> {
        &self.shared
    }

    /// Aggregate cache statistics of the underlying shared table.
    pub fn stats(&self) -> ConeCacheStats {
        self.shared.total_stats()
    }

    /// Incremental cone-decomposed PCS of `g` (larger ⇒ less redundancy).
    ///
    /// Deterministic in `g` alone: the per-apex memo and the table only
    /// remember pure functions of cone structure, so a warm evaluator
    /// returns exactly what a cold one would — and a shared evaluator
    /// exactly what a private one would, regardless of what other
    /// workers inserted.
    pub fn pcs(&mut self, g: &CircuitGraph) -> f64 {
        let n = g.node_count();
        if n == 0 {
            return 0.0;
        }
        self.memo.sync(g);
        self.observed.mark(g);
        let mut area = 0.0;
        for (id, node) in g.iter() {
            if node.ty() != NodeType::Reg {
                continue;
            }
            if !self.observed.observed(id) {
                continue; // fan-out dead: synthesis would sweep it
            }
            area += self.cone_area(g, id);
        }
        for (id, node) in g.iter() {
            if node.ty() == NodeType::Output {
                area += self.cone_area(g, id);
            }
        }
        area / n as f64
    }

    /// Post-synthesis area of the fan-in cone of `apex`: from the memo
    /// when the cone is unchanged, else from the shared table, else
    /// synthesized straight from the host graph.
    fn cone_area(&mut self, g: &CircuitGraph, apex: NodeId) -> f64 {
        if let Some(a) = self.memo.area[apex.index()] {
            return a;
        }
        let (members, boundary) = fanin_cone_into(g, apex, &mut self.cone);
        let key = self.key.cone_key(g, boundary, members, apex);
        let (ids, synth) = (&self.key, &mut self.synth);
        let a = self.shared.area_or_insert(key, |lib| {
            cone_optimized_area(g, apex, members, boundary, |v| ids.local(v), lib, synth)
        });
        let recorded = &mut self.memo.cone[apex.index()];
        recorded.clear();
        recorded.extend_from_slice(members);
        recorded.push(apex);
        self.memo.area[apex.index()] = Some(a);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive_and_dead() -> (CircuitGraph, CircuitGraph) {
        // alive: xor(i1, i2) → reg → out. dead: xor(i, i) → reg → out.
        let mut alive = CircuitGraph::new("alive");
        let i1 = alive.add_node(NodeType::Input, 8);
        let i2 = alive.add_node(NodeType::Input, 8);
        let x = alive.add_node(NodeType::Xor, 8);
        let r = alive.add_node(NodeType::Reg, 8);
        let o = alive.add_node(NodeType::Output, 8);
        alive.set_parents(x, &[i1, i2]).unwrap();
        alive.set_parents(r, &[x]).unwrap();
        alive.set_parents(o, &[r]).unwrap();

        let mut dead = CircuitGraph::new("dead");
        let i = dead.add_node(NodeType::Input, 8);
        let i2 = dead.add_node(NodeType::Input, 8);
        let x = dead.add_node(NodeType::Xor, 8);
        let r = dead.add_node(NodeType::Reg, 8);
        let o = dead.add_node(NodeType::Output, 8);
        let _ = i2;
        dead.set_parents(x, &[i, i]).unwrap();
        dead.set_parents(r, &[x]).unwrap();
        dead.set_parents(o, &[r]).unwrap();
        (alive, dead)
    }

    #[test]
    fn orders_cone_collapse() {
        let (alive, dead) = alive_and_dead();
        let mut ev = ConeSynthCache::new();
        assert!(ev.pcs(&alive) > ev.pcs(&dead));
    }

    #[test]
    fn fanout_dead_register_scores_lower() {
        // observed: in → reg → out. unobserved: in → reg, out ← in.
        let mut obs = CircuitGraph::new("obs");
        let i = obs.add_node(NodeType::Input, 8);
        let r = obs.add_node(NodeType::Reg, 8);
        let o = obs.add_node(NodeType::Output, 8);
        obs.set_parents(r, &[i]).unwrap();
        obs.set_parents(o, &[r]).unwrap();

        let mut dead = CircuitGraph::new("deadfan");
        let i = dead.add_node(NodeType::Input, 8);
        let r = dead.add_node(NodeType::Reg, 8);
        let o = dead.add_node(NodeType::Output, 8);
        dead.set_parents(r, &[i]).unwrap();
        dead.set_parents(o, &[i]).unwrap();

        let mut ev = ConeSynthCache::new();
        assert!(ev.pcs(&obs) > ev.pcs(&dead));
    }

    #[test]
    fn warm_cache_matches_cold_cache() {
        let (alive, dead) = alive_and_dead();
        let mut warm = ConeSynthCache::new();
        let w1 = warm.pcs(&alive);
        let w2 = warm.pcs(&dead);
        let w3 = warm.pcs(&alive);
        let mut cold = ConeSynthCache::new();
        assert_eq!(cold.pcs(&alive), w1);
        let mut cold = ConeSynthCache::new();
        assert_eq!(cold.pcs(&dead), w2);
        assert_eq!(w1, w3, "re-evaluation must be exact");
    }

    #[test]
    fn repeated_queries_hit_cache() {
        // A repeat query on an unchanged graph is answered by the view's
        // per-apex memo: identical bits, no table lookup, no synthesis.
        let (alive, _) = alive_and_dead();
        let mut ev = ConeSynthCache::new();
        let first = ev.pcs(&alive);
        let cold = ev.stats();
        assert!(cold.misses > 0);
        assert_eq!(ev.pcs(&alive).to_bits(), first.to_bits());
        assert_eq!(
            ev.stats(),
            cold,
            "repeat query does no lookups and no synthesis"
        );
        // A fresh view over the same table still hits every cone.
        let mut fresh = ConeSynthCache::with_shared(ev.shared().clone());
        assert_eq!(fresh.pcs(&alive).to_bits(), first.to_bits());
        let warm = fresh.stats();
        assert_eq!(warm.misses, cold.misses, "fresh view synthesizes nothing");
        assert!(warm.hits > cold.hits, "fresh view hits the table: {warm:?}");
    }

    #[test]
    fn shared_cone_structure_shares_entries() {
        // Two registers with identical cones: one synthesis, one hit.
        let mut g = CircuitGraph::new("twin");
        let i = g.add_node(NodeType::Input, 8);
        let n1 = g.add_node(NodeType::Not, 8);
        let n2 = g.add_node(NodeType::Not, 8);
        let r1 = g.add_node(NodeType::Reg, 8);
        let r2 = g.add_node(NodeType::Reg, 8);
        let o1 = g.add_node(NodeType::Output, 8);
        let o2 = g.add_node(NodeType::Output, 8);
        g.set_parents(n1, &[i]).unwrap();
        g.set_parents(n2, &[i]).unwrap();
        g.set_parents(r1, &[n1]).unwrap();
        g.set_parents(r2, &[n2]).unwrap();
        g.set_parents(o1, &[r1]).unwrap();
        g.set_parents(o2, &[r2]).unwrap();
        let mut ev = ConeSynthCache::new();
        ev.pcs(&g);
        assert!(
            ev.stats().hits >= 1,
            "structurally identical cones must share a cache entry: {:?}",
            ev.stats()
        );
    }

    /// Whether the memo's CSR snapshot lists exactly `g`'s parents.
    fn snapshot_matches(memo: &ApexMemo, g: &CircuitGraph) -> bool {
        memo.offsets.len() == g.node_count() + 1
            && g.node_ids().all(|v| {
                memo.parents[memo.offsets[v.index()]..memo.offsets[v.index() + 1]] == *g.parents(v)
            })
    }

    #[test]
    fn memo_snapshot_is_patched_in_place_or_rebuilt() {
        let (alive, _) = alive_and_dead();
        let (i1, x, r, o) = (NodeId::new(0), NodeId::new(2), NodeId::new(3), NodeId::new(4));
        let mut memo = ApexMemo::default();
        memo.sync(&alive);
        assert!(snapshot_matches(&memo, &alive));
        // Same attributes, one edge moved: the list is patched in place.
        let mut moved = alive.clone();
        moved.set_parent_slot(x, 1, i1);
        memo.sync(&moved);
        assert!(snapshot_matches(&memo, &moved));
        // Same attributes, a list of another length: the CSR is rebuilt.
        let mut longer = moved.clone();
        longer.set_parents_unchecked(o, &[r, x]);
        memo.sync(&longer);
        assert!(snapshot_matches(&memo, &longer));
        memo.sync(&alive);
        assert!(snapshot_matches(&memo, &alive));
    }

    #[test]
    fn empty_graph_scores_zero() {
        let mut ev = ConeSynthCache::new();
        assert_eq!(ev.pcs(&CircuitGraph::new("empty")), 0.0);
    }

    #[test]
    fn scratch_reuse_is_stable_over_many_queries() {
        // Warm queries ride entirely on tag-stamped scratch; a thousand
        // alternating evaluations must stay bit-identical to the first.
        let (alive, dead) = alive_and_dead();
        let mut ev = ConeSynthCache::new();
        let a0 = ev.pcs(&alive);
        let d0 = ev.pcs(&dead);
        let cold_misses = ev.stats().misses;
        for _ in 0..1000 {
            assert_eq!(ev.pcs(&alive).to_bits(), a0.to_bits());
            assert_eq!(ev.pcs(&dead).to_bits(), d0.to_bits());
        }
        let s = ev.stats();
        assert_eq!(s.misses, cold_misses, "only the cold queries synthesize");
    }

    #[test]
    fn shared_views_match_private_evaluators() {
        // Worker views over one shared table return exactly what private
        // evaluators do, even when another view already warmed the key.
        let (alive, dead) = alive_and_dead();
        let mut private = ConeSynthCache::new();
        let a0 = private.pcs(&alive);
        let d0 = private.pcs(&dead);

        let shared = Arc::new(SharedConeSynthCache::new());
        let mut w1 = ConeSynthCache::with_shared(shared.clone());
        let mut w2 = ConeSynthCache::with_shared(shared.clone());
        assert_eq!(w1.pcs(&alive).to_bits(), a0.to_bits());
        // w2 rides entirely on w1's entries …
        let misses_before = shared.total_stats().misses;
        assert_eq!(w2.pcs(&alive).to_bits(), a0.to_bits());
        assert_eq!(shared.total_stats().misses, misses_before, "w2 is all hits");
        // … and fresh keys still synthesize identically.
        assert_eq!(w2.pcs(&dead).to_bits(), d0.to_bits());
    }

    #[test]
    fn shard_striping_covers_multiple_shards() {
        let shared = Arc::new(SharedConeSynthCache::with_shards(
            CellLibrary::default(),
            4,
        ));
        assert_eq!(shared.shard_count(), 4);
        let mut ev = ConeSynthCache::with_shared(shared.clone());
        // A handful of distinct cones lands entries across shards.
        let mut rng_widths = [2u32, 4, 8, 16, 24, 32, 48, 64];
        rng_widths.reverse();
        for w in rng_widths {
            let mut g = CircuitGraph::new("probe");
            let i = g.add_node(NodeType::Input, w);
            let r = g.add_node(NodeType::Reg, w);
            let o = g.add_node(NodeType::Output, w);
            g.set_parents(r, &[i]).unwrap();
            g.set_parents(o, &[r]).unwrap();
            ev.pcs(&g);
        }
        let stats = shared.stats();
        assert_eq!(stats.len(), 4);
        let populated = stats.iter().filter(|s| s.entries > 0).count();
        assert!(
            populated >= 2,
            "striping should spread 16 keys over shards: {stats:?}"
        );
        let entries: usize = stats.iter().map(|s| s.entries).sum();
        assert_eq!(entries, shared.entries());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(
            SharedConeSynthCache::with_shards(CellLibrary::default(), 0).shard_count(),
            DEFAULT_SHARD_COUNT
        );
        assert_eq!(
            SharedConeSynthCache::with_shards(CellLibrary::default(), 3).shard_count(),
            4
        );
        assert_eq!(
            SharedConeSynthCache::with_shards(CellLibrary::default(), 8).shard_count(),
            8
        );
    }

    /// A chain of `len` NOT gates feeding a register: every length is a
    /// structurally distinct cone, so `probe(0..n)` yields `n` distinct
    /// cache keys.
    fn probe(len: usize) -> CircuitGraph {
        let mut g = CircuitGraph::new("probe");
        let mut prev = g.add_node(NodeType::Input, 8);
        for _ in 0..len {
            let n = g.add_node(NodeType::Not, 8);
            g.set_parents(n, &[prev]).unwrap();
            prev = n;
        }
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[prev]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        g
    }

    #[test]
    fn bounded_cache_matches_unbounded_bit_for_bit() {
        // A 1-shard, 2-entry table under heavy churn must return exactly
        // what the unbounded table does — eviction only costs work.
        let unbounded = Arc::new(SharedConeSynthCache::new());
        let bounded = Arc::new(SharedConeSynthCache::with_shards_and_capacity(
            CellLibrary::default(),
            1,
            2,
        ));
        assert_eq!(bounded.per_shard_capacity(), 2);
        let mut u = ConeSynthCache::with_shared(unbounded.clone());
        let mut b = ConeSynthCache::with_shared(bounded.clone());
        let graphs: Vec<CircuitGraph> = (0..8).map(probe).collect();
        for _round in 0..3 {
            for g in &graphs {
                assert_eq!(u.pcs(g).to_bits(), b.pcs(g).to_bits());
            }
        }
        assert!(bounded.entries() <= 2, "capacity holds: {}", bounded.entries());
        let s = bounded.total_stats();
        assert!(s.evictions > 0, "churn must evict: {s:?}");
        assert_eq!(
            unbounded.total_stats().evictions,
            0,
            "unbounded table never evicts"
        );
    }

    #[test]
    fn clock_eviction_prefers_unreferenced_slots() {
        // With capacity 3 and hits keeping two keys referenced, churn
        // through fresh keys must leave the hot keys resident more often
        // than not: re-query them and require zero new misses when they
        // were just re-referenced back-to-back.
        let shared = Arc::new(SharedConeSynthCache::with_shards_and_capacity(
            CellLibrary::default(),
            1,
            3,
        ));
        let mut ev = ConeSynthCache::with_shared(shared.clone());
        let hot = probe(0);
        ev.pcs(&hot); // resident, referenced
        let misses_warm = shared.total_stats().misses;
        ev.pcs(&hot);
        assert_eq!(
            shared.total_stats().misses,
            misses_warm,
            "immediate re-query hits"
        );
        // Churn far past capacity, then confirm the table still answers
        // every key correctly (exactness under displacement).
        let mut cold = ConeSynthCache::new();
        for len in 0..6 {
            let g = probe(len);
            assert_eq!(ev.pcs(&g).to_bits(), cold.pcs(&g).to_bits());
        }
        assert!(shared.entries() <= 3);
    }

    #[test]
    fn entry_counters_are_lock_free_mirrors() {
        // stats()/entries() must agree with the locked maps even with
        // counting disabled (entry mirrors are structural, not
        // telemetry).
        let shared = Arc::new(SharedConeSynthCache::with_shards_and_capacity(
            CellLibrary::default(),
            2,
            2,
        ));
        shared.set_stats_enabled(false);
        let mut ev = ConeSynthCache::with_shared(shared.clone());
        for len in 0..7 {
            ev.pcs(&probe(len));
        }
        let stats = shared.stats();
        let mirrored: usize = stats.iter().map(|s| s.entries).sum();
        assert_eq!(mirrored, shared.entries());
        assert!((1..=4).contains(&mirrored), "within 2 shards x 2 slots");
        for s in &stats {
            assert_eq!(s.hits, 0, "telemetry counters stay silent when disabled");
            assert_eq!(s.misses, 0);
            assert_eq!(s.evictions, 0);
        }
    }

    #[test]
    fn poisoned_shard_recovers_by_clearing() {
        let shared = Arc::new(SharedConeSynthCache::with_shards(CellLibrary::default(), 1));
        let mut ev = ConeSynthCache::with_shared(shared.clone());
        let g = probe(2);
        let before = ev.pcs(&g);
        assert!(shared.entries() > 0);
        // Poison the shard: panic while holding its map lock.
        let poisoner = shared.clone();
        assert!(std::panic::catch_unwind(move || {
            let _guard = poisoner.shards[0].map.lock().unwrap();
            panic!("poison the cone shard");
        })
        .is_err());
        // The next query recovers by clearing the shard — memo entries
        // are recomputable work — and re-synthesizes byte-identically.
        let after = ev.pcs(&g);
        assert_eq!(before.to_bits(), after.to_bits());
        assert!(shared.entries() > 0, "entry mirror re-tracks after the clear");
        assert_eq!(
            shared.entries(),
            shared.stats().iter().map(|s| s.entries).sum::<usize>()
        );
    }

    #[test]
    fn stats_toggle_does_not_drift() {
        let (alive, dead) = alive_and_dead();
        let counted = Arc::new(SharedConeSynthCache::new());
        let silent = Arc::new(SharedConeSynthCache::new());
        silent.set_stats_enabled(false);
        let mut a = ConeSynthCache::with_shared(counted.clone());
        let mut b = ConeSynthCache::with_shared(silent.clone());
        for g in [&alive, &dead, &alive] {
            assert_eq!(a.pcs(g).to_bits(), b.pcs(g).to_bits());
        }
        assert!(counted.total_stats().hits + counted.total_stats().misses > 0);
        assert_eq!(silent.total_stats(), ConeCacheStats::default());
        assert_eq!(counted.entries(), silent.entries());
    }

    #[test]
    fn concurrent_workers_agree_with_sequential() {
        // Interleaved alive/dead queries over one shared table must
        // reproduce the private evaluator bit-for-bit. 4 threads by
        // default; the CI threaded-stress step raises the count via
        // SYNCIRCUIT_STRESS_WORKERS.
        let threads: usize = std::env::var("SYNCIRCUIT_STRESS_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4);
        let (alive, dead) = alive_and_dead();
        let mut private = ConeSynthCache::new();
        let a0 = private.pcs(&alive).to_bits();
        let d0 = private.pcs(&dead).to_bits();
        let shared = Arc::new(SharedConeSynthCache::with_shards(
            CellLibrary::default(),
            2, // few stripes: force contention
        ));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut view = ConeSynthCache::with_shared(shared.clone());
                    for _ in 0..50 {
                        assert_eq!(view.pcs(&alive).to_bits(), a0);
                        assert_eq!(view.pcs(&dead).to_bits(), d0);
                    }
                });
            }
        });
        // All four distinct cone keys are memoized exactly once each in
        // the table (raced duplicates collapse via or_insert).
        assert!(shared.entries() >= 2);
    }
}
