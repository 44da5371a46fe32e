//! Verified restore — the consuming half of chunked state sync.
//!
//! [`Restorer`] rebuilds a [`VbTree`] from a `VBC1` chunk stream (see
//! [`crate::chunks`]) and authenticates **every chunk as it ingests**:
//!
//! * chunk 0 pins the tree shape — every internal and leaf digest
//!   signature is verified under the owner's key, internal exponents
//!   must equal the product of their children's, separators must be
//!   strictly increasing, and depth must be uniform. The walk records,
//!   for every leaf in left-to-right order, its signed digest and the
//!   key bounds its separator path implies.
//! * each leaf chunk is checked against those pinned slots: chunk
//!   indexes must be contiguous (no gaps, no replays), keys must be
//!   strictly increasing and inside the pinned bounds, attribute
//!   exponents are **recomputed from the raw tuple values** and must
//!   match the signed attribute digests, the tuple exponent must be
//!   their product, the leaf exponent must be the product of its tuple
//!   exponents and equal the skeleton's pinned digest, and every
//!   attribute/tuple digest must be owner-signed.
//!
//! Signatures are authenticated by one [`SigScreen`] per chunk, closed
//! before any of the chunk is installed.
//!
//! A flipped bit, a reordered chunk, a truncated stream, or a source
//! that committed mid-transfer all surface as a typed [`SyncError`]
//! *before* anything is installed — the same invariants
//! [`VbTree::check_integrity`] audits, enforced incrementally.

use crate::chunks::{StoreRestorer, SyncError, MAGIC};
use crate::node::{InternalNode, LeafNode, Node, NodeId, TupleEntry};
use crate::tree::{VbTree, VbTreeConfig};
use crate::tree_codec::get_digest;
use crate::{CoreError, CostMeter};
use bytes::Buf;
use std::sync::Arc;
use vbx_crypto::accum::{Accumulator, DigestRole, SignedDigest};
use vbx_crypto::{SigScreen, SigVerifier};
use vbx_storage::{Geometry, Schema, Tuple};

/// One pinned leaf: where it goes in the arena, the signed digest it
/// must hash to, and the key bounds its separator path implies.
struct LeafSlot<const L: usize> {
    id: NodeId,
    digest: SignedDigest<L>,
    lo: Option<u64>,
    hi: Option<u64>,
}

/// Which signed digest of a chunk a screen entry is — rendered only
/// when that entry turns out to be the bad one.
enum SigSite {
    Leaf(usize),
    Internal,
    Attribute { key: u64, col: usize },
    Tuple { key: u64 },
}

impl From<SigSite> for SyncError {
    fn from(site: SigSite) -> Self {
        SyncError::BadSignature(match site {
            SigSite::Leaf(i) => format!("leaf {i} digest"),
            SigSite::Internal => "internal node digest".into(),
            SigSite::Attribute { key, col } => format!("attribute digest of key {key} col {col}"),
            SigSite::Tuple { key } => format!("tuple digest of key {key}"),
        })
    }
}

/// Everything chunk 0 pinned; leaf chunks fill the arena in.
struct Plan<const L: usize> {
    schema: Schema,
    config: VbTreeConfig,
    nodes: Vec<Option<Arc<Node<L>>>>,
    root: NodeId,
    height: u32,
    len: u64,
    version: u64,
    key_version: u32,
    total_chunks: u32,
    per_chunk: usize,
    leaves: Vec<LeafSlot<L>>,
    next_leaf: usize,
    tuples: u64,
}

/// Streaming verifier/rebuilder for a `VBC1` chunk stream.
pub struct Restorer<const L: usize> {
    acc: Accumulator<L>,
    verifier: Arc<dyn SigVerifier>,
    plan: Option<Plan<L>>,
    next_chunk: u32,
}

impl<const L: usize> Restorer<L> {
    /// A restorer that authenticates the stream under `verifier` (the
    /// owner's public key).
    pub fn new(acc: Accumulator<L>, verifier: Arc<dyn SigVerifier>) -> Self {
        Self {
            acc,
            verifier,
            plan: None,
            next_chunk: 0,
        }
    }

    /// Chunks ingested (and verified) so far.
    pub fn chunks_ingested(&self) -> u32 {
        self.next_chunk
    }

    /// True once every declared chunk has been ingested.
    pub fn is_complete(&self) -> bool {
        self.plan
            .as_ref()
            .is_some_and(|p| self.next_chunk == p.total_chunks)
    }

    /// Feed the next chunk (chunks must arrive in index order); every
    /// check described in the module docs runs before this returns.
    pub fn ingest(&mut self, chunk: &[u8]) -> Result<(), SyncError> {
        let mut buf = chunk;
        if buf.remaining() < 4 || &buf[..4] != MAGIC {
            return Err(SyncError::Malformed("bad chunk magic".into()));
        }
        buf.advance(4);
        if buf.remaining() < 4 + 4 + 8 {
            return Err(SyncError::Malformed("chunk header truncated".into()));
        }
        let index = buf.get_u32();
        let total = buf.get_u32();
        let version = buf.get_u64();
        if index != self.next_chunk {
            return Err(SyncError::ChunkOutOfOrder {
                expected: self.next_chunk,
                got: index,
            });
        }
        if index == 0 {
            self.ingest_skeleton(&mut buf, total, version)?;
        } else {
            self.ingest_leaf_run(&mut buf, total, version)?;
        }
        if buf.has_remaining() {
            return Err(SyncError::Malformed("trailing bytes in chunk".into()));
        }
        self.next_chunk += 1;
        Ok(())
    }

    /// Every chunk verified: assemble the tree. The per-chunk checks
    /// already enforce everything [`VbTree::check_integrity`] would.
    pub fn finish(self) -> Result<VbTree<L>, SyncError> {
        let Some(plan) = self.plan else {
            return Err(SyncError::Incomplete {
                ingested: 0,
                expected: 1,
            });
        };
        if self.next_chunk != plan.total_chunks {
            return Err(SyncError::Incomplete {
                ingested: self.next_chunk,
                expected: plan.total_chunks,
            });
        }
        if plan.tuples != plan.len {
            return Err(SyncError::DigestMismatch(format!(
                "tuple count mismatch: streamed {}, header pinned {}",
                plan.tuples, plan.len
            )));
        }
        debug_assert!(plan.nodes.iter().all(Option::is_some));
        Ok(VbTree {
            schema: plan.schema,
            config: plan.config,
            acc: self.acc,
            nodes: plan.nodes,
            free: Vec::new(),
            root: plan.root,
            height: plan.height,
            len: plan.len,
            version: plan.version,
            key_version: plan.key_version,
            meter: CostMeter::new(),
            dirty: None,
        })
    }

    fn ingest_skeleton(
        &mut self,
        buf: &mut &[u8],
        total: u32,
        version: u64,
    ) -> Result<(), SyncError> {
        if self.plan.is_some() {
            return Err(SyncError::Malformed("duplicate skeleton chunk".into()));
        }
        if buf.remaining() < 8 + 4 + 4 + 16 + 1 {
            return Err(SyncError::Malformed("skeleton header truncated".into()));
        }
        let len = buf.get_u64();
        let height = buf.get_u32();
        let key_version = buf.get_u32();
        let geometry = Geometry {
            block_size: buf.get_u32() as usize,
            key_len: buf.get_u32() as usize,
            ptr_len: buf.get_u32() as usize,
            digest_len: buf.get_u32() as usize,
        };
        let fanout_override = match buf.get_u8() {
            0 => None,
            1 => {
                if buf.remaining() < 4 {
                    return Err(SyncError::Malformed("fanout truncated".into()));
                }
                Some(buf.get_u32() as usize)
            }
            _ => return Err(SyncError::Malformed("bad fanout tag".into())),
        };
        let schema = Schema::decode(buf).map_err(|e| SyncError::Wire(CoreError::Storage(e)))?;
        if buf.remaining() < 4 {
            return Err(SyncError::Malformed("leaf-run size truncated".into()));
        }
        let per_chunk = buf.get_u32() as usize;
        if per_chunk == 0 {
            return Err(SyncError::Malformed("zero leaf-run size".into()));
        }

        let mut nodes = Vec::new();
        let mut leaves = Vec::new();
        let mut screen = SigScreen::new(self.verifier.as_ref());
        let (root, _root_digest, depth) =
            self.decode_skeleton_node(buf, None, None, &mut nodes, &mut leaves, &mut screen)?;
        screen.finish()?;
        if depth != height {
            return Err(SyncError::DigestMismatch(format!(
                "height mismatch: skeleton depth {depth}, header pinned {height}"
            )));
        }
        let expected_total = 1 + leaves.len().div_ceil(per_chunk);
        if total as usize != expected_total {
            return Err(SyncError::Malformed(format!(
                "chunk count lie: declared {total}, skeleton implies {expected_total}"
            )));
        }
        self.plan = Some(Plan {
            schema,
            config: VbTreeConfig {
                geometry,
                fanout_override,
            },
            nodes,
            root,
            height,
            len,
            version,
            key_version,
            total_chunks: total,
            per_chunk,
            leaves,
            next_leaf: 0,
            tuples: 0,
        });
        Ok(())
    }

    /// Decode one skeleton node (preorder), queueing its signature on
    /// `screen` and verifying exponent products, separator order, and
    /// depth uniformity as it goes. Leaves become pinned [`LeafSlot`]s
    /// with an empty arena slot. Returns `(arena id, digest, depth)`.
    fn decode_skeleton_node(
        &self,
        buf: &mut &[u8],
        lo: Option<u64>,
        hi: Option<u64>,
        nodes: &mut Vec<Option<Arc<Node<L>>>>,
        leaves: &mut Vec<LeafSlot<L>>,
        screen: &mut SigScreen<'_, SigSite>,
    ) -> Result<(NodeId, SignedDigest<L>, u32), SyncError> {
        if !buf.has_remaining() {
            return Err(SyncError::Malformed("skeleton node truncated".into()));
        }
        match buf.get_u8() {
            0 => {
                let digest = get_digest(buf, &self.acc, Some(DigestRole::Node))?;
                self.acc
                    .screen_digest(screen, SigSite::Leaf(leaves.len()), &digest)?;
                nodes.push(None);
                let id = nodes.len() - 1;
                leaves.push(LeafSlot {
                    id,
                    digest: digest.clone(),
                    lo,
                    hi,
                });
                Ok((id, digest, 1))
            }
            1 => {
                let digest = get_digest(buf, &self.acc, Some(DigestRole::Node))?;
                self.acc.screen_digest(screen, SigSite::Internal, &digest)?;
                if buf.remaining() < 4 {
                    return Err(SyncError::Malformed("child count truncated".into()));
                }
                let n_children = buf.get_u32() as usize;
                if n_children == 0 || n_children > 1 << 20 {
                    return Err(SyncError::Malformed("implausible child count".into()));
                }
                let mut keys = Vec::with_capacity(n_children - 1);
                for _ in 0..n_children - 1 {
                    if buf.remaining() < 8 {
                        return Err(SyncError::Malformed("separator truncated".into()));
                    }
                    keys.push(buf.get_u64());
                }
                let mut children = Vec::with_capacity(n_children);
                let mut expected = self.acc.identity();
                let mut depth: Option<u32> = None;
                for i in 0..n_children {
                    let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                    if let (Some(a), Some(b)) = (clo, chi) {
                        if a >= b {
                            return Err(SyncError::Malformed(
                                "separators not strictly increasing".into(),
                            ));
                        }
                    }
                    let (child, child_digest, d) =
                        self.decode_skeleton_node(buf, clo, chi, nodes, leaves, screen)?;
                    if let Some(prev) = depth {
                        if prev != d {
                            return Err(SyncError::Malformed("ragged skeleton depth".into()));
                        }
                    }
                    depth = Some(d);
                    children.push(child);
                    expected = self.acc.combine(&expected, &child_digest.exp);
                }
                if expected != digest.exp {
                    return Err(SyncError::DigestMismatch(
                        "internal exponent is not the product of its children".into(),
                    ));
                }
                nodes.push(Some(Arc::new(Node::Internal(InternalNode {
                    keys,
                    children,
                    digest: digest.clone(),
                }))));
                Ok((nodes.len() - 1, digest, depth.unwrap() + 1))
            }
            _ => Err(SyncError::Malformed("bad skeleton node tag".into())),
        }
    }

    fn ingest_leaf_run(
        &mut self,
        buf: &mut &[u8],
        total: u32,
        version: u64,
    ) -> Result<(), SyncError> {
        let plan = self
            .plan
            .as_mut()
            .expect("index ordering guarantees the skeleton came first");
        if version != plan.version {
            return Err(SyncError::SourceChanged {
                expected: plan.version,
                got: version,
            });
        }
        if total != plan.total_chunks {
            return Err(SyncError::Malformed(format!(
                "chunk count changed mid-stream: {total} vs {}",
                plan.total_chunks
            )));
        }
        if buf.remaining() < 8 {
            return Err(SyncError::Malformed("leaf run header truncated".into()));
        }
        let start = buf.get_u32() as usize;
        let count = buf.get_u32() as usize;
        if start != plan.next_leaf {
            return Err(SyncError::Malformed(format!(
                "leaf run starts at {start}, expected {}",
                plan.next_leaf
            )));
        }
        let expected_count = plan.per_chunk.min(plan.leaves.len() - plan.next_leaf);
        if count != expected_count {
            return Err(SyncError::Malformed(format!(
                "leaf run carries {count} leaves, expected {expected_count}"
            )));
        }
        let n_cols = plan.schema.num_columns();
        // Built aside: nothing is installed until the screen has passed.
        let mut screen = SigScreen::new(self.verifier.as_ref());
        let mut built = Vec::with_capacity(count);
        for slot in &plan.leaves[start..start + count] {
            if buf.remaining() < 4 {
                return Err(SyncError::Malformed("leaf entry count truncated".into()));
            }
            let n = buf.get_u32() as usize;
            if n > 1 << 20 {
                return Err(SyncError::Malformed("implausible leaf entry count".into()));
            }
            let mut entries = Vec::with_capacity(n);
            let mut leaf_exp = self.acc.identity();
            let mut prev: Option<u64> = None;
            for _ in 0..n {
                let tuple =
                    Tuple::decode(buf).map_err(|e| SyncError::Wire(CoreError::Storage(e)))?;
                let k = tuple.key;
                if tuple.values.len() != n_cols {
                    return Err(SyncError::Malformed(format!(
                        "tuple {k} arity does not match schema"
                    )));
                }
                if prev.is_some_and(|p| k <= p) {
                    return Err(SyncError::Malformed(format!("keys out of order at {k}")));
                }
                if slot.lo.is_some_and(|l| k < l) || slot.hi.is_some_and(|h| k >= h) {
                    return Err(SyncError::DigestMismatch(format!(
                        "key {k} outside the leaf's pinned separator bounds"
                    )));
                }
                prev = Some(k);
                let mut attr_digests = Vec::with_capacity(n_cols);
                let mut tuple_exp = self.acc.identity();
                for (col, val) in tuple.values.iter().enumerate() {
                    let d = get_digest(buf, &self.acc, Some(DigestRole::Attribute))?;
                    let input = plan.schema.attribute_digest_input(col, k, val);
                    if self.acc.exp_from_bytes(&input) != d.exp {
                        return Err(SyncError::DigestMismatch(format!(
                            "attribute digest of key {k} col {col} does not match its value"
                        )));
                    }
                    self.acc
                        .screen_digest(&mut screen, SigSite::Attribute { key: k, col }, &d)?;
                    tuple_exp = self.acc.combine(&tuple_exp, &d.exp);
                    attr_digests.push(d);
                }
                let tuple_digest = get_digest(buf, &self.acc, Some(DigestRole::Tuple))?;
                if tuple_exp != tuple_digest.exp {
                    return Err(SyncError::DigestMismatch(format!(
                        "tuple digest of key {k} is not the product of its attributes"
                    )));
                }
                self.acc
                    .screen_digest(&mut screen, SigSite::Tuple { key: k }, &tuple_digest)?;
                leaf_exp = self.acc.combine(&leaf_exp, &tuple_digest.exp);
                entries.push(TupleEntry {
                    tuple,
                    attr_digests,
                    tuple_digest,
                });
            }
            if leaf_exp != slot.digest.exp {
                return Err(SyncError::DigestMismatch(
                    "leaf exponent does not match the skeleton's pinned digest".into(),
                ));
            }
            built.push((
                slot.id,
                LeafNode {
                    entries,
                    digest: slot.digest.clone(),
                },
            ));
        }
        screen.finish()?;
        for (id, leaf) in built {
            plan.tuples += leaf.entries.len() as u64;
            plan.nodes[id] = Some(Arc::new(Node::Leaf(leaf)));
        }
        plan.next_leaf += count;
        Ok(())
    }
}

impl<const L: usize> StoreRestorer<VbTree<L>> for Restorer<L> {
    fn ingest(&mut self, chunk: &[u8]) -> Result<(), SyncError> {
        Restorer::ingest(self, chunk)
    }

    fn finish(self: Box<Self>) -> Result<VbTree<L>, SyncError> {
        Restorer::finish(*self)
    }
}
