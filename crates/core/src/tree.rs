//! The Verifiable B-tree.
//!
//! A B+-tree over tuples keyed by primary key, where every attribute,
//! tuple and node carries a digest signed by the central DBMS
//! (Section 3.2, Figure 3). Digest exponents compose multiplicatively in
//! `Z_q`, so:
//!
//! * a node's exponent equals the product of **all** tuple exponents in
//!   its subtree (the flattening that makes Lemma 1/2's equations work);
//! * inserting a tuple multiplies its exponent into every node on the
//!   root-to-leaf path and nothing else (Section 3.4);
//! * splits never change an ancestor's exponent (the product is
//!   preserved), so only the two halves are re-signed.
//!
//! Mutations are parameterised by a [`DigestSource`]: the central server
//! signs fresh digests, edge replicas replay pre-signed digests from
//! update deltas (they have no private key — Section 3.4).

use crate::meter::CostMeter;
use crate::node::{InternalNode, LeafNode, Node, NodeId, TupleEntry};
use crate::source::{DeferredSource, DigestSource, SigningSource};
use crate::CoreError;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vbx_crypto::accum::{Accumulator, DigestRole, SignedDigest};
use vbx_crypto::{SigScreen, SigVerifier, Signer};
use vbx_mathx::Uint;
use vbx_storage::{Geometry, Schema, Table, Tuple};

/// Construction parameters.
#[derive(Clone, Debug, Default)]
pub struct VbTreeConfig {
    /// Byte-level node geometry (Table 1 defaults).
    pub geometry: Geometry,
    /// Override the geometric fan-out (tests use small fan-outs to get
    /// deep trees from few tuples).
    pub fanout_override: Option<usize>,
}

impl VbTreeConfig {
    /// Effective fan-out (maximum entries per node).
    pub fn fanout(&self) -> usize {
        let f = self
            .fanout_override
            .unwrap_or_else(|| self.geometry.vbtree_fanout());
        assert!(f >= 2, "fan-out must be at least 2");
        f
    }

    /// Config with an explicit small fan-out (testing helper).
    pub fn with_fanout(fanout: usize) -> Self {
        Self {
            geometry: Geometry::default(),
            fanout_override: Some(fanout),
        }
    }
}

/// Aggregate shape statistics (used by the Figure 8/9 measurements and
/// the storage report).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VbTreeStats {
    /// Height in levels (1 = single leaf).
    pub height: u32,
    /// Total node count.
    pub nodes: usize,
    /// Leaf count.
    pub leaves: usize,
    /// Tuple count.
    pub tuples: u64,
    /// Effective fan-out used.
    pub fanout: usize,
    /// Logical index size: `nodes × block_size` (the paper's storage
    /// accounting).
    pub logical_bytes: usize,
    /// Actual bytes of signed digests held in nodes and tuples.
    pub digest_bytes: usize,
}

/// Row count below which a parallel bulk build is not worth the thread
/// spawn/join overhead and the loaders stay sequential.
pub const PARALLEL_BUILD_THRESHOLD: u64 = 2_048;

/// Worker-thread count the scheme layer uses for bulk builds: 1 below
/// [`PARALLEL_BUILD_THRESHOLD`] rows, otherwise the machine's available
/// parallelism.
pub fn default_build_threads(rows: usize) -> usize {
    if (rows as u64) < PARALLEL_BUILD_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

/// What one more scoped worker must save before the signing sweep spawns
/// it: spawning and joining a thread measured 45–125 µs on the 2-vCPU
/// reference box. The sweep prices its signer by timing the first
/// signature, so an RSA-1024 sweep (≈ 290 µs a signature) goes parallel
/// from its second site, while a mock-signed one (< 1 µs a signature)
/// stays on the calling thread until it has hundreds of sites — a site
/// count alone cannot tell the two apart.
const WORKER_SPAWN_COST: Duration = Duration::from_micros(100);

/// Where a digest signed (or replayed) by a batch sweep lives.
#[derive(Clone, Copy, Debug)]
enum SiteSlot {
    /// The node's own digest.
    Node,
    /// Attribute digest `col` of leaf entry `entry`.
    Attr { entry: usize, col: usize },
    /// Tuple digest of leaf entry `entry`.
    Tuple { entry: usize },
}

impl SiteSlot {
    fn role(self) -> DigestRole {
        match self {
            SiteSlot::Node => DigestRole::Node,
            SiteSlot::Attr { .. } => DigestRole::Attribute,
            SiteSlot::Tuple { .. } => DigestRole::Tuple,
        }
    }
}

/// One unsigned digest of a batch sweep: its place in the tree and the
/// exponent to sign.
#[derive(Clone, Copy, Debug)]
struct SigningSite<const L: usize> {
    node: NodeId,
    slot: SiteSlot,
    exp: Uint<L>,
}

/// Primitive-operation counts produced while materialising tuple
/// entries, accumulated into the tree's [`CostMeter`]. Kept separate so
/// the parallel bulk loader's workers can count without sharing the
/// meter.
#[derive(Clone, Copy, Debug, Default)]
struct EntryOps {
    hashes: u64,
    combines: u64,
    signs: u64,
}

impl EntryOps {
    fn absorb(&mut self, other: &EntryOps) {
        self.hashes += other.hashes;
        self.combines += other.combines;
        self.signs += other.signs;
    }

    fn add_to(&self, meter: &mut CostMeter) {
        meter.hash_ops += self.hashes;
        meter.combine_ops += self.combines;
        meter.sign_ops += self.signs;
    }
}

/// The per-tuple digest materialisation (formulas (1) and (2)),
/// independent of any tree instance so the bulk loaders can fan it out
/// across threads: per-attribute digests, the combined tuple exponent,
/// and the signed tuple digest.
fn compute_entry<const L: usize>(
    schema: &Schema,
    acc: &Accumulator<L>,
    tuple: Tuple,
    src: &mut dyn DigestSource<L>,
) -> Result<(TupleEntry<L>, EntryOps), CoreError> {
    let mut ops = EntryOps::default();
    let mut attr_digests = Vec::with_capacity(tuple.values.len());
    let mut tuple_exp = acc.identity();
    for (col, value) in tuple.values.iter().enumerate() {
        let input = schema.attribute_digest_input(col, tuple.key, value);
        let e = acc.exp_from_bytes(&input);
        ops.hashes += 1;
        tuple_exp = acc.combine(&tuple_exp, &e);
        ops.combines += 1;
        attr_digests.push(src.issue(acc, DigestRole::Attribute, &e)?);
        if src.counts_as_sign() {
            ops.signs += 1;
        }
    }
    let tuple_digest = src.issue(acc, DigestRole::Tuple, &tuple_exp)?;
    if src.counts_as_sign() {
        ops.signs += 1;
    }
    Ok((
        TupleEntry {
            tuple,
            attr_digests,
            tuple_digest,
        },
        ops,
    ))
}

/// The Verifiable B-tree.
///
/// Nodes are held behind [`Arc`]s, so `clone()` is a **cheap snapshot
/// handle**: it copies one pointer per arena slot and shares every node.
/// Mutations go through copy-on-write ([`Arc::make_mut`]), detaching
/// only the nodes an update actually touches — a clone taken before an
/// update keeps observing the pre-update tree (the serving replicas in
/// `vbx-edge` swap such snapshots under concurrent readers).
#[derive(Clone)]
pub struct VbTree<const L: usize> {
    pub(crate) schema: Schema,
    pub(crate) config: VbTreeConfig,
    pub(crate) acc: Accumulator<L>,
    pub(crate) nodes: Vec<Option<Arc<Node<L>>>>,
    pub(crate) free: Vec<NodeId>,
    pub(crate) root: NodeId,
    pub(crate) height: u32,
    pub(crate) len: u64,
    /// Monotone version, bumped on every successful update.
    pub(crate) version: u64,
    /// Version of the signing key the digests are currently under.
    pub(crate) key_version: u32,
    pub(crate) meter: CostMeter,
    /// Node ids whose digests were re-issued while dirty tracking was
    /// on (the deferred-signing batch paths). `None` = tracking off.
    pub(crate) dirty: Option<std::collections::BTreeSet<NodeId>>,
}

impl<const L: usize> VbTree<L> {
    /// Empty tree.
    pub fn new(
        schema: Schema,
        config: VbTreeConfig,
        acc: Accumulator<L>,
        signer: &dyn Signer,
    ) -> Self {
        assert!(
            schema.num_columns() >= 1,
            "VB-tree requires at least one payload attribute"
        );
        let mut tree = Self {
            schema,
            config,
            acc,
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            height: 1,
            len: 0,
            version: 0,
            key_version: signer.key_version(),
            meter: CostMeter::new(),
            dirty: None,
        };
        let mut src = SigningSource::new(signer);
        let identity = tree.acc.identity();
        let digest = tree
            .issue_node(identity, &mut src)
            .expect("signing cannot fail");
        tree.root = tree.alloc(Node::Leaf(LeafNode {
            entries: Vec::new(),
            digest,
        }));
        tree
    }

    /// Bulk-load from a [`Table`] (fully packed, as the paper's analysis
    /// assumes).
    pub fn bulk_load(
        table: &Table,
        config: VbTreeConfig,
        acc: Accumulator<L>,
        signer: &dyn Signer,
    ) -> Self {
        let mut tree = Self::new(table.schema().clone(), config, acc, signer);
        let mut src = SigningSource::new(signer);
        let entries: Vec<TupleEntry<L>> = table
            .iter()
            .map(|t| {
                tree.make_entry_with(t.clone(), &mut src)
                    .expect("signing cannot fail")
            })
            .collect();
        tree.pack_entries(entries, &mut src);
        tree
    }

    /// Bulk-load with the per-tuple digest work (attribute hashes,
    /// exponent combines, signatures) fanned out over `threads` OS
    /// threads. The tree produced is **identical** to
    /// [`bulk_load`](Self::bulk_load) — per-tuple digests are
    /// independent, so only the cheap node-packing pass stays
    /// sequential. With `threads <= 1`, or when the machine has only a
    /// single hardware thread (spawning workers would just add
    /// spawn/join overhead on top of the same serial work), this *is*
    /// the sequential path.
    pub fn bulk_load_parallel(
        table: &Table,
        config: VbTreeConfig,
        acc: Accumulator<L>,
        signer: &dyn Signer,
        threads: usize,
    ) -> Self {
        let hw = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = if hw == 1 { 1 } else { threads }
            .max(1)
            .min(table.len().max(1));
        if threads == 1 {
            return Self::bulk_load(table, config, acc, signer);
        }
        let tuples: Vec<&Tuple> = table.iter().collect();
        let chunk = tuples.len().div_ceil(threads);
        let schema = table.schema();
        let per_chunk: Vec<(Vec<TupleEntry<L>>, EntryOps)> = std::thread::scope(|scope| {
            let handles: Vec<_> = tuples
                .chunks(chunk)
                .map(|part| {
                    let acc = &acc;
                    scope.spawn(move || {
                        let mut src = SigningSource::new(signer);
                        let mut ops = EntryOps::default();
                        let entries = part
                            .iter()
                            .map(|t| {
                                let (entry, o) = compute_entry(schema, acc, (*t).clone(), &mut src)
                                    .expect("signing cannot fail");
                                ops.absorb(&o);
                                entry
                            })
                            .collect::<Vec<_>>();
                        (entries, ops)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bulk-load worker panicked"))
                .collect()
        });

        let mut tree = Self::new(schema.clone(), config, acc, signer);
        let mut entries = Vec::with_capacity(tuples.len());
        for (part, ops) in per_chunk {
            entries.extend(part);
            ops.add_to(&mut tree.meter);
        }
        let mut src = SigningSource::new(signer);
        tree.pack_entries(entries, &mut src);
        tree
    }

    /// Shared tail of the bulk loaders: pack prepared tuple entries into
    /// fully-packed leaves and build the upper levels bottom-up.
    fn pack_entries(&mut self, entries: Vec<TupleEntry<L>>, src: &mut SigningSource<'_>) {
        let tree = self;
        let fanout = tree.config.fanout();
        if entries.is_empty() {
            return;
        }
        tree.len = entries.len() as u64;

        // Free the placeholder empty leaf.
        tree.dealloc(tree.root);

        // Level 0: pack leaves.
        let mut level: Vec<(u64, NodeId, Uint<L>)> = Vec::new(); // (min_key, id, exp)
        let mut chunk: Vec<TupleEntry<L>> = Vec::with_capacity(fanout);
        let flush = |tree: &mut Self,
                     src: &mut SigningSource<'_>,
                     chunk: &mut Vec<TupleEntry<L>>,
                     level: &mut Vec<(u64, NodeId, Uint<L>)>| {
            if chunk.is_empty() {
                return;
            }
            let entries = std::mem::take(chunk);
            let min_key = entries[0].key();
            let exp = tree.product_of_tuples(&entries);
            let digest = tree.issue_node(exp, src).expect("signing cannot fail");
            let id = tree.alloc(Node::Leaf(LeafNode { entries, digest }));
            level.push((min_key, id, exp));
        };
        for e in entries {
            chunk.push(e);
            if chunk.len() == fanout {
                flush(tree, src, &mut chunk, &mut level);
            }
        }
        flush(tree, src, &mut chunk, &mut level);

        // Upper levels.
        let mut height = 1u32;
        while level.len() > 1 {
            let mut next: Vec<(u64, NodeId, Uint<L>)> = Vec::new();
            for group in level.chunks(fanout) {
                let min_key = group[0].0;
                let keys: Vec<u64> = group[1..].iter().map(|(k, _, _)| *k).collect();
                let children: Vec<NodeId> = group.iter().map(|(_, id, _)| *id).collect();
                let mut exp = tree.acc.identity();
                for (_, _, e) in group {
                    exp = tree.acc.combine(&exp, e);
                    tree.meter.combine_ops += 1;
                }
                let digest = tree.issue_node(exp, src).expect("signing cannot fail");
                let id = tree.alloc(Node::Internal(InternalNode {
                    keys,
                    children,
                    digest,
                }));
                next.push((min_key, id, exp));
            }
            level = next;
            height += 1;
        }
        tree.root = level[0].1;
        tree.height = height;
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The schema this tree indexes.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The digest algebra.
    pub fn accumulator(&self) -> &Accumulator<L> {
        &self.acc
    }

    /// Tree configuration.
    pub fn config(&self) -> &VbTreeConfig {
        &self.config
    }

    /// Number of tuples.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root node id (used by the VO builder and lock manager).
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// Update version (bumped by every insert/delete).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Version of the signing key the tree's digests are under.
    pub fn key_version(&self) -> u32 {
        self.key_version
    }

    /// The root's signed digest.
    pub fn root_digest(&self) -> &SignedDigest<L> {
        self.node(self.root).digest()
    }

    /// Cumulative maintenance costs (build + updates so far).
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// Reset the maintenance meter and return its previous value.
    pub fn take_meter(&mut self) -> CostMeter {
        std::mem::take(&mut self.meter)
    }

    /// Node ids on the root-to-leaf path for `key` — the digests an
    /// update transaction X-locks (Section 3.4).
    pub fn path_node_ids(&self, key: u64) -> Vec<NodeId> {
        let (leaf, path) = self.descend(key);
        path.iter().map(|&(id, _)| id).chain([leaf]).collect()
    }

    /// Node ids of the enveloping subtree a query S-locks: the top node
    /// covering `[lo, hi]` plus everything under it that overlaps.
    pub fn envelope_node_ids(&self, lo: u64, hi: u64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_envelope(self.root, lo, hi, &mut out);
        out
    }

    fn collect_envelope(&self, id: NodeId, lo: u64, hi: u64, out: &mut Vec<NodeId>) {
        out.push(id);
        if let Node::Internal(n) = self.node(id) {
            for i in 0..n.children.len() {
                if n.child_overlaps(i, lo, hi) {
                    self.collect_envelope(n.children[i], lo, hi, out);
                }
            }
        }
    }

    /// Borrow a node by id.
    pub(crate) fn node(&self, id: NodeId) -> &Node<L> {
        self.nodes[id].as_deref().expect("live node")
    }

    /// Mutable borrow of a node, detaching it from any shared snapshot
    /// first (copy-on-write).
    fn node_mut(&mut self, id: NodeId) -> &mut Node<L> {
        Arc::make_mut(self.nodes[id].as_mut().expect("live node"))
    }

    // ------------------------------------------------------------------
    // Digest helpers
    // ------------------------------------------------------------------

    fn issue_node(
        &mut self,
        exp: Uint<L>,
        src: &mut dyn DigestSource<L>,
    ) -> Result<SignedDigest<L>, CoreError> {
        if src.counts_as_sign() {
            self.meter.sign_ops += 1;
        }
        self.key_version = src.key_version();
        src.issue(&self.acc, DigestRole::Node, &exp)
    }

    /// Install a node digest, recording the node as dirty when batch
    /// tracking is on.
    fn set_node_digest(&mut self, id: NodeId, digest: SignedDigest<L>) {
        self.mark_dirty(id);
        self.node_mut(id).set_digest(digest);
    }

    fn mark_dirty(&mut self, id: NodeId) {
        if let Some(dirty) = &mut self.dirty {
            dirty.insert(id);
        }
    }

    fn product_of_tuples(&mut self, entries: &[TupleEntry<L>]) -> Uint<L> {
        let mut acc = self.acc.identity();
        for e in entries {
            acc = self.acc.combine(&acc, &e.tuple_digest.exp);
            self.meter.combine_ops += 1;
        }
        acc
    }

    fn product_of_children(&mut self, children: &[NodeId]) -> Uint<L> {
        let mut acc = self.acc.identity();
        for &c in children {
            let e = self.node(c).digest().exp;
            acc = self.acc.combine(&acc, &e);
            self.meter.combine_ops += 1;
        }
        acc
    }

    /// Product of the exponents directly under a live node — the tuple
    /// exponents of a leaf, the child exponents of an internal node —
    /// read through borrows, so recomputing a digest after a delete
    /// never copies the node's entries.
    fn product_under(&mut self, id: NodeId) -> Uint<L> {
        let mut exp = self.acc.identity();
        let count = match self.node(id) {
            Node::Leaf(n) => {
                for e in &n.entries {
                    exp = self.acc.combine(&exp, &e.tuple_digest.exp);
                }
                n.entries.len()
            }
            Node::Internal(n) => {
                for &c in &n.children {
                    exp = self.acc.combine(&exp, &self.node(c).digest().exp);
                }
                n.children.len()
            }
        };
        self.meter.combine_ops += count as u64;
        exp
    }

    /// Build the full digest materialisation for a tuple with a signer
    /// (central-server path).
    pub fn make_entry(&mut self, tuple: Tuple, signer: &dyn Signer) -> TupleEntry<L> {
        self.make_entry_with(tuple, &mut SigningSource::new(signer))
            .expect("signing cannot fail")
    }

    /// Build the digest materialisation through an arbitrary source:
    /// per-attribute signed digests (formula (1)) and the signed tuple
    /// digest (formula (2)).
    pub fn make_entry_with(
        &mut self,
        tuple: Tuple,
        src: &mut dyn DigestSource<L>,
    ) -> Result<TupleEntry<L>, CoreError> {
        let (entry, ops) = compute_entry(&self.schema, &self.acc, tuple, src)?;
        ops.add_to(&mut self.meter);
        Ok(entry)
    }

    // ------------------------------------------------------------------
    // Arena
    // ------------------------------------------------------------------

    fn alloc(&mut self, node: Node<L>) -> NodeId {
        let id = if let Some(id) = self.free.pop() {
            self.nodes[id] = Some(Arc::new(node));
            id
        } else {
            self.nodes.push(Some(Arc::new(node)));
            self.nodes.len() - 1
        };
        self.mark_dirty(id);
        id
    }

    fn dealloc(&mut self, id: NodeId) {
        self.nodes[id] = None;
        self.free.push(id);
        if let Some(dirty) = &mut self.dirty {
            dirty.remove(&id);
        }
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Leaf id containing (or that would contain) `key`, plus the
    /// root-to-leaf path as `(node, child_index)` pairs.
    pub(crate) fn descend(&self, key: u64) -> (NodeId, Vec<(NodeId, usize)>) {
        let mut path = Vec::with_capacity(self.height as usize);
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Internal(n) => {
                    let ci = n.child_index(key);
                    path.push((id, ci));
                    id = n.children[ci];
                }
                Node::Leaf(_) => return (id, path),
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<&Tuple> {
        let (leaf_id, _) = self.descend(key);
        let leaf = self.node(leaf_id).as_leaf();
        leaf.entries
            .binary_search_by_key(&key, |e| e.key())
            .ok()
            .map(|i| &leaf.entries[i].tuple)
    }

    /// All tuples with keys in `[lo, hi]`, in key order.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<&Tuple> {
        let mut out = Vec::new();
        self.collect_range(self.root, lo, hi, &mut out);
        out
    }

    fn collect_range<'a>(&'a self, id: NodeId, lo: u64, hi: u64, out: &mut Vec<&'a Tuple>) {
        match self.node(id) {
            Node::Leaf(n) => {
                for e in &n.entries {
                    if e.key() >= lo && e.key() <= hi {
                        out.push(&e.tuple);
                    }
                }
            }
            Node::Internal(n) => {
                for i in 0..n.children.len() {
                    if n.child_overlaps(i, lo, hi) {
                        self.collect_range(n.children[i], lo, hi, out);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Insert (Section 3.4)
    // ------------------------------------------------------------------

    /// Insert a tuple, signing fresh digests (central-server path).
    pub fn insert(&mut self, tuple: Tuple, signer: &dyn Signer) -> Result<(), CoreError> {
        self.insert_with_source(tuple, &mut SigningSource::new(signer))
    }

    /// Insert through an arbitrary digest source. Digest maintenance is
    /// the paper's incremental update: each node digest on the
    /// root-to-leaf path absorbs the new tuple exponent
    /// (`D'_N = h(h^{-1}(D_N) | d_T)` in exponent space), and splits
    /// re-sign only the two halves.
    pub fn insert_with_source(
        &mut self,
        tuple: Tuple,
        src: &mut dyn DigestSource<L>,
    ) -> Result<(), CoreError> {
        self.schema
            .check_row(&tuple.values)
            .map_err(CoreError::Storage)?;
        if self.get(tuple.key).is_some() {
            return Err(CoreError::DuplicateKey(tuple.key));
        }
        let key = tuple.key;
        let entry = self.make_entry_with(tuple, src)?;
        let e_t = entry.tuple_digest.exp;

        let (leaf_id, path) = self.descend(key);

        // 1. Insert into the leaf and absorb e_t into its digest.
        {
            let leaf = self.node_mut(leaf_id).as_leaf_mut();
            let pos = leaf.entries.partition_point(|e| e.key() < key);
            leaf.entries.insert(pos, entry);
        }
        self.absorb_exponent(leaf_id, &e_t, src)?;

        // 2. Absorb e_t into every ancestor (any order — commutative).
        for &(anc, _) in &path {
            self.absorb_exponent(anc, &e_t, src)?;
        }

        // 3. Resolve overflows bottom-up.
        let fanout = self.config.fanout();
        let mut stack = path;
        let mut current = leaf_id;
        while self.node(current).entry_count() > fanout {
            let (sep, right) = self.split(current, src)?;
            match stack.pop() {
                Some((pid, ci)) => {
                    let parent = self.node_mut(pid).as_internal_mut();
                    parent.keys.insert(ci, sep);
                    parent.children.insert(ci + 1, right);
                    current = pid;
                }
                None => {
                    // Root split: new root over the two halves. Its
                    // exponent is the product of the halves' exponents
                    // (== all tuples), freshly signed.
                    let exp = self.product_of_children(&[current, right]);
                    let digest = self.issue_node(exp, src)?;
                    let new_root = self.alloc(Node::Internal(InternalNode {
                        keys: vec![sep],
                        children: vec![current, right],
                        digest,
                    }));
                    self.root = new_root;
                    self.height += 1;
                    break;
                }
            }
        }

        self.len += 1;
        self.version += 1;
        Ok(())
    }

    /// Batch insert with **signature amortisation** (extension over the
    /// paper's per-tuple insert): all tuples are inserted structurally
    /// with deferred (empty) signatures, then every dirty digest is
    /// signed exactly once in a final sweep. `k` inserts sharing
    /// root-to-leaf paths thus cost `O(dirty nodes)` signatures instead
    /// of `O(k · height)` — signing is the dominant update cost
    /// (equation (11) weights it ≈ 10⁴ × a hash).
    ///
    /// The batch is atomic with respect to validation: duplicate keys
    /// (among the batch or with existing tuples) and schema mismatches
    /// are rejected before any mutation.
    pub fn insert_batch(
        &mut self,
        tuples: Vec<Tuple>,
        signer: &dyn Signer,
    ) -> Result<usize, CoreError> {
        // Validate everything up front so the batch never half-applies.
        let mut seen = std::collections::BTreeSet::new();
        for t in &tuples {
            self.schema
                .check_row(&t.values)
                .map_err(CoreError::Storage)?;
            if !seen.insert(t.key) || self.get(t.key).is_some() {
                return Err(CoreError::DuplicateKey(t.key));
            }
        }
        let n = tuples.len();
        // Atomic past validation too: an unexpected mid-batch failure
        // must not leave unsigned (deferred) digests or an abandoned
        // dirty set behind — restore the pre-batch tree (cheap: the
        // node arena is copy-on-write).
        let backup = self.clone();
        let mut deferred = DeferredSource::new(signer.key_version());
        self.begin_dirty_tracking();
        for t in tuples {
            if let Err(e) = self.insert_with_source(t, &mut deferred) {
                *self = backup;
                return Err(e);
            }
        }
        // Signing sweep over the nodes the batch actually touched (the
        // pre-PR-5 sweep scanned the whole arena — O(nodes) per batch).
        let dirty = self.take_dirty();
        self.sign_dirty_nodes(&dirty, signer);
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Deferred-signing batch machinery (shared by `insert_batch` and the
    // scheme layer's `update_batch` / `apply_delta_batch`)
    // ------------------------------------------------------------------

    /// Start recording which nodes get their digests re-issued. The
    /// subsequent mutations are expected to run through a
    /// [`DeferredSource`], leaving every touched digest unsigned until a
    /// single sweep over [`take_dirty`](Self::take_dirty).
    pub(crate) fn begin_dirty_tracking(&mut self) {
        self.dirty = Some(std::collections::BTreeSet::new());
    }

    /// Stop tracking and return the dirty node ids.
    pub(crate) fn take_dirty(&mut self) -> Vec<NodeId> {
        self.dirty
            .take()
            .map(|d| d.into_iter().collect())
            .unwrap_or_default()
    }

    /// Reorder dirty node ids into **structural preorder** (root first,
    /// depth-first, children left to right) — the deterministic sweep
    /// order both the signing central server and the replaying replicas
    /// iterate in. Arena `NodeId`s are *not* canonical (`decode_tree`
    /// renumbers nodes in postorder, bulk loads level by level, and the
    /// free list reuses slots), but the logical tree shape is identical
    /// on both sides of a batch replay, so the walk is.
    fn structural_order(&self, ids: &[NodeId]) -> Vec<NodeId> {
        let dirty: std::collections::BTreeSet<NodeId> = ids.iter().copied().collect();
        let mut out = Vec::with_capacity(ids.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            // The dirty set is ancestor-closed — any descendant change
            // re-issues (and so marks) every ancestor digest up to the
            // root — so a clean subtree cannot hold dirty nodes and the
            // walk is O(dirty × fanout), not O(tree).
            if !dirty.contains(&id) {
                continue;
            }
            out.push(id);
            if let Node::Internal(n) = self.node(id) {
                // Reversed push so the leftmost child pops first.
                stack.extend(n.children.iter().rev());
            }
        }
        debug_assert_eq!(
            out.len(),
            ids.len(),
            "every dirty node must be reachable from the root through dirty ancestors"
        );
        out
    }

    /// Every unsigned digest under the dirty nodes — node digests, plus
    /// the attribute/tuple digests of entries inserted by the batch — in
    /// the sweep's deterministic order: nodes in [structural
    /// preorder](Self::structural_order); within a node its own digest
    /// first, then each unsigned entry's attributes followed by its
    /// tuple digest. The signing sweep and the replay sweep both walk
    /// exactly this list, which is what keeps their payloads aligned.
    fn unsigned_sites(&self, ids: &[NodeId]) -> Vec<SigningSite<L>> {
        let mut sites = Vec::new();
        for node in self.structural_order(ids) {
            let n = self.node(node);
            if n.digest().sig.is_empty() {
                sites.push(SigningSite {
                    node,
                    slot: SiteSlot::Node,
                    exp: n.digest().exp,
                });
            }
            let Node::Leaf(leaf) = n else { continue };
            for (entry, e) in leaf.entries.iter().enumerate() {
                if !e.tuple_digest.sig.is_empty() {
                    continue;
                }
                sites.extend(
                    e.attr_digests
                        .iter()
                        .enumerate()
                        .map(|(col, d)| SigningSite {
                            node,
                            slot: SiteSlot::Attr { entry, col },
                            exp: d.exp,
                        }),
                );
                sites.push(SigningSite {
                    node,
                    slot: SiteSlot::Tuple { entry },
                    exp: e.tuple_digest.exp,
                });
            }
        }
        sites
    }

    /// Install one signed digest per site, in site order.
    fn install_sites(&mut self, sites: &[SigningSite<L>], digests: &[SignedDigest<L>]) {
        debug_assert_eq!(sites.len(), digests.len());
        for (site, d) in sites.iter().zip(digests) {
            let node = self.node_mut(site.node);
            match site.slot {
                SiteSlot::Node => node.set_digest(d.clone()),
                SiteSlot::Attr { entry, col } => {
                    node.as_leaf_mut().entries[entry].attr_digests[col] = d.clone();
                }
                SiteSlot::Tuple { entry } => {
                    node.as_leaf_mut().entries[entry].tuple_digest = d.clone();
                }
            }
        }
    }

    /// The signing sweep: give every unsigned digest under the dirty
    /// nodes exactly one fresh signature, in three phases — collect the
    /// [signing sites](Self::unsigned_sites), sign them (spread over the
    /// machine's cores when the signatures cost more than the workers,
    /// see [`WORKER_SPAWN_COST`]), install the digests. Returns the
    /// signed digests in site order — the packed payload replicas replay
    /// through [`replay_dirty_nodes`](Self::replay_dirty_nodes),
    /// identical for every worker count because a signature depends
    /// only on its own site.
    pub(crate) fn sign_dirty_nodes(
        &mut self,
        ids: &[NodeId],
        signer: &dyn Signer,
    ) -> Vec<SignedDigest<L>> {
        self.sign_dirty_nodes_on(ids, signer, None)
    }

    /// [`sign_dirty_nodes`](Self::sign_dirty_nodes) on exactly `workers`
    /// threads, the calling thread included (as far as there are sites
    /// to hand out); `None` lets the sweep choose.
    pub(crate) fn sign_dirty_nodes_on(
        &mut self,
        ids: &[NodeId],
        signer: &dyn Signer,
        workers: Option<usize>,
    ) -> Vec<SignedDigest<L>> {
        let sites = self.unsigned_sites(ids);
        self.key_version = signer.key_version();
        self.meter.sign_ops += sites.len() as u64;
        let acc = &self.acc;
        let sign = |site: &SigningSite<L>| acc.sign_digest(signer, site.slot.role(), &site.exp);
        let Some((first, rest)) = sites.split_first() else {
            return Vec::new();
        };
        let mut signed = Vec::with_capacity(sites.len());
        let started = Instant::now();
        signed.push(sign(first));
        let workers = workers.unwrap_or_else(|| {
            // One worker per two spawn costs' worth of signing left:
            // each then saves at least what it cost to start.
            let left = started.elapsed().as_nanos() * rest.len() as u128;
            let affordable = left / (2 * WORKER_SPAWN_COST.as_nanos());
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            cores.min(1 + usize::try_from(affordable).unwrap_or(usize::MAX - 1))
        });
        if workers <= 1 || rest.len() <= 1 {
            signed.extend(rest.iter().map(sign));
        } else {
            let mut parts = rest.chunks(rest.len().div_ceil(workers));
            let mine = parts.next().expect("rest is not empty");
            std::thread::scope(|scope| {
                let sign = &sign;
                let handles: Vec<_> = parts
                    .map(|part| scope.spawn(move || part.iter().map(sign).collect::<Vec<_>>()))
                    .collect();
                signed.extend(mine.iter().map(sign));
                for h in handles {
                    signed.extend(h.join().expect("signing worker panicked"));
                }
            });
        }
        self.install_sites(&sites, &signed);
        signed
    }

    /// The replay sweep: walk the same [signing
    /// sites](Self::unsigned_sites) as
    /// [`sign_dirty_nodes`](Self::sign_dirty_nodes), consuming one
    /// pre-signed digest per site and checking that role and locally
    /// recomputed exponent match. Any mismatch (or a digest count that
    /// does not line up) means a forged batch or a diverged replica.
    pub(crate) fn replay_dirty_nodes(
        &mut self,
        ids: &[NodeId],
        digests: &[SignedDigest<L>],
        key_version: u32,
    ) -> Result<(), CoreError> {
        let sites = self.unsigned_sites(ids);
        self.key_version = key_version;
        for (i, site) in sites.iter().enumerate() {
            let d = digests.get(i).ok_or_else(|| {
                CoreError::ReplicaDivergence(
                    "batch payload exhausted: replica has more dirty digests".into(),
                )
            })?;
            let role = site.slot.role();
            if d.role != role {
                return Err(CoreError::ReplicaDivergence(format!(
                    "batch digest role {:?} != local {:?}",
                    d.role, role
                )));
            }
            if d.exp != site.exp {
                return Err(CoreError::ReplicaDivergence(
                    "batch digest exponent differs from locally recomputed digest".into(),
                ));
            }
        }
        if sites.len() != digests.len() {
            return Err(CoreError::ReplicaDivergence(format!(
                "{} unused digests after batch replay",
                digests.len() - sites.len()
            )));
        }
        self.install_sites(&sites, digests);
        Ok(())
    }

    fn absorb_exponent(
        &mut self,
        id: NodeId,
        e: &Uint<L>,
        src: &mut dyn DigestSource<L>,
    ) -> Result<(), CoreError> {
        let old = self.node(id).digest().exp;
        let new = self.acc.combine(&old, e);
        self.meter.combine_ops += 1;
        let digest = self.issue_node(new, src)?;
        self.set_node_digest(id, digest);
        Ok(())
    }

    /// Split an over-full node; returns `(separator_key, right_id)`.
    fn split(
        &mut self,
        id: NodeId,
        src: &mut dyn DigestSource<L>,
    ) -> Result<(u64, NodeId), CoreError> {
        let node = self.nodes[id].take().expect("live node");
        // Detach from any shared snapshot before restructuring. Both
        // halves get re-issued digests (the right half through `alloc`).
        self.mark_dirty(id);
        let node = Arc::try_unwrap(node).unwrap_or_else(|shared| (*shared).clone());
        match node {
            Node::Leaf(mut leaf) => {
                let mid = leaf.entries.len() / 2;
                let right_entries = leaf.entries.split_off(mid);
                let sep = right_entries[0].key();
                let left_exp = self.product_of_tuples(&leaf.entries);
                let right_exp = self.product_of_tuples(&right_entries);
                leaf.digest = self.issue_node(left_exp, src)?;
                let right_digest = self.issue_node(right_exp, src)?;
                self.nodes[id] = Some(Arc::new(Node::Leaf(leaf)));
                let right = self.alloc(Node::Leaf(LeafNode {
                    entries: right_entries,
                    digest: right_digest,
                }));
                Ok((sep, right))
            }
            Node::Internal(mut int) => {
                let mid = int.children.len() / 2;
                let right_children = int.children.split_off(mid);
                let right_keys = int.keys.split_off(mid);
                let sep = int.keys.pop().expect("separator for promoted key");
                let left_exp = self.product_of_children(&int.children);
                let right_exp = self.product_of_children(&right_children);
                int.digest = self.issue_node(left_exp, src)?;
                let right_digest = self.issue_node(right_exp, src)?;
                self.nodes[id] = Some(Arc::new(Node::Internal(int)));
                let right = self.alloc(Node::Internal(InternalNode {
                    keys: right_keys,
                    children: right_children,
                    digest: right_digest,
                }));
                Ok((sep, right))
            }
        }
    }

    // ------------------------------------------------------------------
    // Delete (Section 3.4)
    // ------------------------------------------------------------------

    /// Delete one tuple, signing fresh digests (central-server path).
    pub fn delete(&mut self, key: u64, signer: &dyn Signer) -> Result<Tuple, CoreError> {
        self.delete_with_source(key, &mut SigningSource::new(signer))
    }

    /// Delete one tuple through an arbitrary digest source, recomputing
    /// digests bottom-up along the path — the paper's delete transaction
    /// ("the tuples' contribution … cannot be reversed out immediately;
    /// … re-calculate the digests back up to the root"). Nodes are
    /// removed only when empty, following the paper's citation of \[9\].
    pub fn delete_with_source(
        &mut self,
        key: u64,
        src: &mut dyn DigestSource<L>,
    ) -> Result<Tuple, CoreError> {
        let (leaf_id, path) = self.descend(key);
        let removed = {
            let leaf = self.node_mut(leaf_id).as_leaf_mut();
            match leaf.entries.binary_search_by_key(&key, |e| e.key()) {
                Ok(i) => leaf.entries.remove(i),
                Err(_) => return Err(CoreError::KeyNotFound(key)),
            }
        };

        // Recompute the leaf digest from surviving entries.
        let exp = self.product_under(leaf_id);
        let digest = self.issue_node(exp, src)?;
        self.set_node_digest(leaf_id, digest);

        // Walk back up: drop emptied children, recompute ancestor digests.
        let mut child_id = leaf_id;
        for &(pid, ci) in path.iter().rev() {
            let child_empty = self.node(child_id).entry_count() == 0;
            if child_empty {
                let parent = self.node_mut(pid).as_internal_mut();
                parent.children.remove(ci);
                if parent.keys.is_empty() {
                    // Parent had a single child; root-shrink handles it.
                } else if ci == 0 {
                    parent.keys.remove(0);
                } else {
                    parent.keys.remove(ci - 1);
                }
                self.dealloc(child_id);
            }
            let exp = self.product_under(pid);
            let digest = self.issue_node(exp, src)?;
            self.set_node_digest(pid, digest);
            child_id = pid;
        }

        self.shrink_root();
        self.len -= 1;
        self.version += 1;
        Ok(removed.tuple)
    }

    /// Fast-path delete using the field structure of `Z_q`: the tuple's
    /// exponent is *divided out* of every path digest instead of
    /// recomputing products (an extension over the paper; see DESIGN.md).
    pub fn delete_uncombine(&mut self, key: u64, signer: &dyn Signer) -> Result<Tuple, CoreError> {
        let mut src = SigningSource::new(signer);
        let (leaf_id, path) = self.descend(key);
        let removed = {
            let leaf = self.node_mut(leaf_id).as_leaf_mut();
            match leaf.entries.binary_search_by_key(&key, |e| e.key()) {
                Ok(i) => leaf.entries.remove(i),
                Err(_) => return Err(CoreError::KeyNotFound(key)),
            }
        };
        let e_t = removed.tuple_digest.exp;
        for id in path
            .iter()
            .map(|&(pid, _)| pid)
            .chain(std::iter::once(leaf_id))
        {
            let old = self.node(id).digest().exp;
            let new = self.acc.uncombine(&old, &e_t);
            self.meter.combine_ops += 1;
            let digest = self.issue_node(new, &mut src)?;
            self.set_node_digest(id, digest);
        }
        // Structural cleanup of emptied nodes.
        let mut child_id = leaf_id;
        for &(pid, ci) in path.iter().rev() {
            if self.node(child_id).entry_count() == 0 {
                let parent = self.node_mut(pid).as_internal_mut();
                parent.children.remove(ci);
                if !parent.keys.is_empty() {
                    if ci == 0 {
                        parent.keys.remove(0);
                    } else {
                        parent.keys.remove(ci - 1);
                    }
                }
                self.dealloc(child_id);
            }
            child_id = pid;
        }
        self.shrink_root();
        self.len -= 1;
        self.version += 1;
        Ok(removed.tuple)
    }

    /// Batch range delete with fresh signing (central-server path).
    pub fn delete_range(
        &mut self,
        lo: u64,
        hi: u64,
        signer: &dyn Signer,
    ) -> Result<Vec<Tuple>, CoreError> {
        self.delete_range_with_source(lo, hi, &mut SigningSource::new(signer))
    }

    /// Batch range delete — the transaction priced by equation (12):
    /// empties out interior nodes of the enveloping subtree and
    /// recomputes digests along the boundary paths up to the root.
    pub fn delete_range_with_source(
        &mut self,
        lo: u64,
        hi: u64,
        src: &mut dyn DigestSource<L>,
    ) -> Result<Vec<Tuple>, CoreError> {
        let mut removed = Vec::new();
        let root = self.root;
        let emptied = self.prune(root, lo, hi, &mut removed, src)?;
        if emptied {
            // The whole tree was emptied: reset to a single empty leaf.
            self.dealloc(root);
            let identity = self.acc.identity();
            let digest = self.issue_node(identity, src)?;
            self.root = self.alloc(Node::Leaf(LeafNode {
                entries: Vec::new(),
                digest,
            }));
            self.height = 1;
        } else {
            self.shrink_root();
        }
        self.len -= removed.len() as u64;
        if !removed.is_empty() {
            self.version += 1;
        }
        Ok(removed)
    }

    /// Recursively remove `[lo, hi]` under `id`; returns true when the
    /// node ended up empty (caller deallocates).
    fn prune(
        &mut self,
        id: NodeId,
        lo: u64,
        hi: u64,
        removed: &mut Vec<Tuple>,
        src: &mut dyn DigestSource<L>,
    ) -> Result<bool, CoreError> {
        match self.node(id) {
            Node::Leaf(_) => {
                let leaf = self.node_mut(id).as_leaf_mut();
                let before = leaf.entries.len();
                let mut kept = Vec::with_capacity(before);
                for e in leaf.entries.drain(..) {
                    if e.key() >= lo && e.key() <= hi {
                        removed.push(e.tuple);
                    } else {
                        kept.push(e);
                    }
                }
                let changed = kept.len() != before;
                leaf.entries = kept;
                if leaf.entries.is_empty() {
                    return Ok(true);
                }
                if changed {
                    let exp = self.product_under(id);
                    let digest = self.issue_node(exp, src)?;
                    self.set_node_digest(id, digest);
                }
                Ok(false)
            }
            Node::Internal(n) => {
                let child_ids = n.children.clone();
                let overlaps: Vec<bool> = (0..child_ids.len())
                    .map(|i| n.child_overlaps(i, lo, hi))
                    .collect();
                let mut emptied = vec![false; child_ids.len()];
                let mut any_overlap = false;
                for (i, &cid) in child_ids.iter().enumerate() {
                    if overlaps[i] {
                        any_overlap = true;
                        emptied[i] = self.prune(cid, lo, hi, removed, src)?;
                    }
                }
                // Remove emptied children (right to left to keep indices
                // stable) and their separators.
                for i in (0..child_ids.len()).rev() {
                    if emptied[i] {
                        let parent = self.node_mut(id).as_internal_mut();
                        parent.children.remove(i);
                        if !parent.keys.is_empty() {
                            if i == 0 {
                                parent.keys.remove(0);
                            } else {
                                parent.keys.remove(i - 1);
                            }
                        }
                        self.dealloc(child_ids[i]);
                    }
                }
                if self.node(id).entry_count() == 0 {
                    return Ok(true);
                }
                if any_overlap {
                    let exp = self.product_under(id);
                    let digest = self.issue_node(exp, src)?;
                    self.set_node_digest(id, digest);
                }
                Ok(false)
            }
        }
    }

    fn shrink_root(&mut self) {
        while let Node::Internal(n) = self.node(self.root) {
            if n.children.len() == 1 {
                let child = n.children[0];
                let old = self.root;
                self.root = child;
                self.dealloc(old);
                self.height -= 1;
            } else {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection & invariants
    // ------------------------------------------------------------------

    /// Shape statistics.
    pub fn stats(&self) -> VbTreeStats {
        let mut nodes = 0usize;
        let mut leaves = 0usize;
        let mut digest_bytes = 0usize;
        for n in self.nodes.iter().flatten() {
            let n = n.as_ref();
            nodes += 1;
            digest_bytes += n.digest().wire_len();
            match n {
                Node::Leaf(l) => {
                    leaves += 1;
                    for e in &l.entries {
                        digest_bytes += e.tuple_digest.wire_len();
                        digest_bytes += e.attr_digests.iter().map(|d| d.wire_len()).sum::<usize>();
                    }
                }
                Node::Internal(_) => {}
            }
        }
        VbTreeStats {
            height: self.height,
            nodes,
            leaves,
            tuples: self.len,
            fanout: self.config.fanout(),
            logical_bytes: nodes * self.config.geometry.block_size,
            digest_bytes,
        }
    }

    /// Exhaustive invariant check (tests and property tests):
    /// key order, separator correctness, uniform depth, digest
    /// consistency, and (optionally) that every digest is owner-signed
    /// — one signature screen over the whole tree, closed after the
    /// structural walk.
    pub fn check_integrity(&self, verifier: Option<&dyn SigVerifier>) -> Result<(), CoreError> {
        let mut count = 0u64;
        let mut screen = verifier.map(SigScreen::new);
        let depth = self.check_node(self.root, None, None, &mut screen, &mut count)?;
        if depth != self.height {
            return Err(CoreError::InvariantViolation(format!(
                "height mismatch: computed {depth}, stored {}",
                self.height
            )));
        }
        if count != self.len {
            return Err(CoreError::InvariantViolation(format!(
                "tuple count mismatch: computed {count}, stored {}",
                self.len
            )));
        }
        if let Some(screen) = screen {
            screen.finish()?;
        }
        Ok(())
    }

    fn check_node(
        &self,
        id: NodeId,
        lo: Option<u64>,
        hi: Option<u64>,
        screen: &mut Option<SigScreen<'_, AuditSite>>,
        count: &mut u64,
    ) -> Result<u32, CoreError> {
        let viol = |m: String| Err(CoreError::InvariantViolation(m));
        let node = self.node(id);
        if let Some(screen) = screen {
            self.acc
                .screen_digest(screen, AuditSite::Node(id), node.digest())?;
        }
        match node {
            Node::Leaf(n) => {
                let mut expected = self.acc.identity();
                let mut prev: Option<u64> = None;
                for e in &n.entries {
                    let k = e.key();
                    if let Some(p) = prev {
                        if k <= p {
                            return viol(format!("leaf {id}: keys out of order ({p} !< {k})"));
                        }
                    }
                    if lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k >= h) {
                        return viol(format!("leaf {id}: key {k} outside separator bounds"));
                    }
                    prev = Some(k);
                    // Recompute the tuple digest from raw values.
                    let mut te = self.acc.identity();
                    for (col, val) in e.tuple.values.iter().enumerate() {
                        let input = self.schema.attribute_digest_input(col, k, val);
                        let ea = self.acc.exp_from_bytes(&input);
                        if ea != e.attr_digests[col].exp {
                            return viol(format!(
                                "leaf {id}: attr digest mismatch key {k} col {col}"
                            ));
                        }
                        te = self.acc.combine(&te, &ea);
                    }
                    if te != e.tuple_digest.exp {
                        return viol(format!("leaf {id}: tuple digest mismatch key {k}"));
                    }
                    if let Some(screen) = screen {
                        self.acc
                            .screen_digest(screen, AuditSite::Tuple(id, k), &e.tuple_digest)?;
                        for d in &e.attr_digests {
                            self.acc.screen_digest(screen, AuditSite::Attr(id, k), d)?;
                        }
                    }
                    expected = self.acc.combine(&expected, &e.tuple_digest.exp);
                    *count += 1;
                }
                if expected != n.digest.exp {
                    return viol(format!("leaf {id}: node digest mismatch"));
                }
                Ok(1)
            }
            Node::Internal(n) => {
                if n.children.len() != n.keys.len() + 1 {
                    return viol(format!("internal {id}: arity mismatch"));
                }
                if n.children.is_empty() {
                    return viol(format!("internal {id}: no children"));
                }
                let mut expected = self.acc.identity();
                let mut depth: Option<u32> = None;
                for (i, &c) in n.children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(n.keys[i - 1]) };
                    let chi = if i == n.keys.len() {
                        hi
                    } else {
                        Some(n.keys[i])
                    };
                    if let (Some(a), Some(b)) = (clo, chi) {
                        if a >= b {
                            return viol(format!("internal {id}: separators not increasing"));
                        }
                    }
                    let d = self.check_node(c, clo, chi, screen, count)?;
                    if let Some(prev) = depth {
                        if prev != d {
                            return viol(format!("internal {id}: ragged depth"));
                        }
                    }
                    depth = Some(d);
                    expected = self.acc.combine(&expected, &self.node(c).digest().exp);
                }
                if expected != n.digest.exp {
                    return viol(format!("internal {id}: node digest mismatch"));
                }
                Ok(depth.unwrap() + 1)
            }
        }
    }
}

/// Which signed digest of an audited tree a screen entry is — rendered
/// only when that entry turns out to be the bad one.
enum AuditSite {
    Node(NodeId),
    Tuple(NodeId, u64),
    Attr(NodeId, u64),
}

impl From<AuditSite> for CoreError {
    fn from(site: AuditSite) -> Self {
        CoreError::InvariantViolation(match site {
            AuditSite::Node(id) => format!("node {id}: bad digest signature"),
            AuditSite::Tuple(id, k) => format!("leaf {id}: bad tuple signature key {k}"),
            AuditSite::Attr(id, k) => format!("leaf {id}: bad attr signature key {k}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{AuthScheme, UpdateOp, VbScheme};
    use crate::tree_codec::encode_tree;
    use vbx_crypto::rsa::fixture_keypair_crt_512;
    use vbx_crypto::signer::MockSigner;
    use vbx_crypto::Acc256;
    use vbx_storage::workload::WorkloadSpec;
    use vbx_storage::Value;

    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// A valid seeded mix of `k` inserts, deletes, modifies (delete +
    /// re-insert) and small range deletes against the keys `0..rows`.
    fn gen_ops(schema: &Schema, rng: &mut Lcg, rows: u64, k: usize) -> Vec<UpdateOp> {
        let fresh = |key: u64, salt: u64| {
            let values = vec![
                Value::from(format!("v{key}.{salt}")),
                Value::from("w"),
                Value::from((salt % 97) as i64),
            ];
            Tuple::new(schema, key, values).expect("schema-conformant tuple")
        };
        let mut live: std::collections::BTreeSet<u64> = (0..rows).collect();
        let mut next_key = 10_000;
        let mut ops = Vec::with_capacity(k);
        while ops.len() < k {
            let victim = *live
                .iter()
                .nth(rng.next() as usize % live.len())
                .expect("the mix never empties the table");
            match rng.next() % 4 {
                0 => {
                    live.remove(&victim);
                    ops.push(UpdateOp::Delete(victim));
                }
                1 if ops.len() + 2 <= k => {
                    ops.push(UpdateOp::Delete(victim));
                    ops.push(UpdateOp::Insert(fresh(victim, rng.next())));
                }
                2 => {
                    let hi = victim + rng.next() % 5;
                    live.retain(|&key| key < victim || key > hi);
                    ops.push(UpdateOp::DeleteRange(victim, hi));
                }
                _ => {
                    next_key += 1;
                    live.insert(next_key);
                    ops.push(UpdateOp::Insert(fresh(next_key, rng.next())));
                }
            }
        }
        ops
    }

    /// [`VbScheme::update_batch`] with the sweep forced onto `workers`
    /// threads.
    fn update_batch_on(
        tree: &mut VbTree<4>,
        ops: &[UpdateOp],
        signer: &dyn Signer,
        workers: usize,
    ) -> Vec<SignedDigest<4>> {
        let mut src = DeferredSource::new(signer.key_version());
        tree.begin_dirty_tracking();
        for op in ops {
            match op {
                UpdateOp::Insert(tuple) => tree.insert_with_source(tuple.clone(), &mut src),
                UpdateOp::Delete(key) => tree.delete_with_source(*key, &mut src).map(|_| ()),
                UpdateOp::DeleteRange(lo, hi) => tree
                    .delete_range_with_source(*lo, *hi, &mut src)
                    .map(|_| ()),
            }
            .expect("generated ops are valid");
        }
        let dirty = tree.take_dirty();
        tree.sign_dirty_nodes_on(&dirty, signer, Some(workers))
    }

    fn sweep_is_identical_for_every_worker_count(signer: &dyn Signer, rounds: usize) {
        const ROWS: u64 = 120;
        let table = WorkloadSpec::new(ROWS, 3, 8).build();
        let scheme: VbScheme<4> =
            VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(5));
        let base = scheme.build(&table, signer);
        let mut rng = Lcg(0x5EED_2026);
        for round in 0..rounds {
            let ops = gen_ops(table.schema(), &mut rng, ROWS, 4 + round % 13);
            let mut sequential = base.clone();
            let payload = update_batch_on(&mut sequential, &ops, signer, 1);
            let signs = sequential.meter().sign_ops - base.meter().sign_ops;
            assert_eq!(signs, payload.len() as u64, "one signature per site");
            assert!(
                payload.len() > 8,
                "a sweep this small would hardly be split"
            );
            let canonical = encode_tree(&sequential);
            for workers in [2, 3, 8] {
                let mut tree = base.clone();
                let got = update_batch_on(&mut tree, &ops, signer, workers);
                assert_eq!(got, payload, "round {round}: payload on {workers} workers");
                assert_eq!(
                    encode_tree(&tree),
                    canonical,
                    "round {round}: tree bytes on {workers} workers"
                );
                assert_eq!(
                    tree.meter().sign_ops,
                    sequential.meter().sign_ops,
                    "round {round}: sign_ops on {workers} workers"
                );
            }
            // A replica replays the payload the 8-worker sweep produced
            // (equal to `payload`, by the assertion above).
            let mut replica = base.clone();
            scheme
                .apply_delta_batch(&mut replica, &ops, &[payload], signer.key_version())
                .unwrap_or_else(|e| panic!("round {round}: replay diverged: {e}"));
            assert_eq!(encode_tree(&replica), canonical, "round {round}: replica");
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential_mock() {
        sweep_is_identical_for_every_worker_count(&MockSigner::new(0xBA7C), 40);
    }

    #[test]
    fn parallel_sweep_matches_sequential_rsa() {
        sweep_is_identical_for_every_worker_count(&fixture_keypair_crt_512(), 3);
    }
}
