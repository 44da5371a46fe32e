//! Full-tree serialization — the bytes the central server actually ships
//! when distributing "the database and VB-trees … to servers situated at
//! the edge of the network" (Section 3.1, Figure 2).
//!
//! The encoding walks the tree in preorder, so arena ids are rebuilt on
//! decode; after decoding, [`crate::VbTree::check_integrity`] can (and
//! in [`decode_tree`] *does*, structurally) validate the replica before
//! it serves queries.

use crate::node::{InternalNode, LeafNode, Node, NodeId, TupleEntry};
use crate::tree::{VbTree, VbTreeConfig};
use crate::CoreError;
use bytes::{Buf, BufMut};
use vbx_crypto::accum::{Accumulator, DigestRole, SignedDigest};
use vbx_crypto::Signature;
use vbx_storage::{Geometry, Schema, Tuple};

const MAGIC: &[u8; 4] = b"VBT1";

pub(crate) fn put_digest<const L: usize>(out: &mut Vec<u8>, d: &SignedDigest<L>) {
    out.push(d.role.to_tag());
    out.extend_from_slice(&d.exp.to_be_bytes());
    out.put_u16(d.sig.len() as u16);
    out.extend_from_slice(d.sig.as_bytes());
}

pub(crate) fn get_digest<const L: usize>(
    buf: &mut &[u8],
    acc: &Accumulator<L>,
    expect_role: Option<DigestRole>,
) -> Result<SignedDigest<L>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if buf.remaining() < 1 + L * 8 + 2 {
        return Err(corrupt("digest truncated"));
    }
    let role = DigestRole::from_tag(buf.get_u8()).ok_or_else(|| corrupt("bad digest role"))?;
    if let Some(expected) = expect_role {
        if role != expected {
            return Err(corrupt("unexpected digest role"));
        }
    }
    let exp = acc
        .exp_from_canonical(&buf[..L * 8])
        .ok_or_else(|| corrupt("digest exponent out of range"))?;
    buf.advance(L * 8);
    let sig_len = buf.get_u16() as usize;
    if buf.remaining() < sig_len {
        return Err(corrupt("digest signature truncated"));
    }
    let sig = Signature(buf[..sig_len].to_vec());
    buf.advance(sig_len);
    Ok(SignedDigest { exp, role, sig })
}

/// Serialize a tree to bytes.
pub fn encode_tree<const L: usize>(tree: &VbTree<L>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    encode_tree_into(tree, &mut out);
    out
}

/// [`encode_tree`], appended to `out`.
pub fn encode_tree_into<const L: usize>(tree: &VbTree<L>, out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.put_u64(tree.len());
    out.put_u32(tree.height());
    out.put_u64(tree.version());
    out.put_u32(tree.key_version());

    let g = tree.config().geometry;
    out.put_u32(g.block_size as u32);
    out.put_u32(g.key_len as u32);
    out.put_u32(g.ptr_len as u32);
    out.put_u32(g.digest_len as u32);
    match tree.config().fanout_override {
        Some(f) => {
            out.push(1);
            out.put_u32(f as u32);
        }
        None => out.push(0),
    }

    tree.schema().encode_into(out);
    encode_node(tree, tree.root_id(), out);
}

/// Bytes [`encode_tree_into`] appends for `tree`, counted without
/// encoding anything — so a caller can size its buffer once.
pub fn encoded_tree_len<const L: usize>(tree: &VbTree<L>) -> usize {
    let fanout = if tree.config().fanout_override.is_some() {
        5
    } else {
        1
    };
    MAGIC.len()
        + 8
        + 4
        + 8
        + 4
        + 16
        + fanout
        + tree.schema().encoded_len()
        + node_len(tree, tree.root_id())
}

fn digest_len<const L: usize>(d: &SignedDigest<L>) -> usize {
    1 + L * 8 + 2 + d.sig.len()
}

fn node_len<const L: usize>(tree: &VbTree<L>, id: NodeId) -> usize {
    match tree.node(id) {
        Node::Leaf(n) => {
            let entries: usize = n
                .entries
                .iter()
                .map(|e| {
                    e.tuple.wire_len()
                        + e.attr_digests.iter().map(digest_len).sum::<usize>()
                        + digest_len(&e.tuple_digest)
                })
                .sum();
            1 + digest_len(&n.digest) + 4 + entries
        }
        Node::Internal(n) => {
            let children: usize = n.children.iter().map(|&c| node_len(tree, c)).sum();
            1 + digest_len(&n.digest) + 4 + 8 * n.keys.len() + children
        }
    }
}

fn encode_node<const L: usize>(tree: &VbTree<L>, id: NodeId, out: &mut Vec<u8>) {
    match tree.node(id) {
        Node::Leaf(n) => {
            out.push(0); // leaf tag
            put_digest(out, &n.digest);
            out.put_u32(n.entries.len() as u32);
            for e in &n.entries {
                e.tuple.encode_into(out);
                for d in &e.attr_digests {
                    put_digest(out, d);
                }
                put_digest(out, &e.tuple_digest);
            }
        }
        Node::Internal(n) => {
            out.push(1); // internal tag
            put_digest(out, &n.digest);
            out.put_u32(n.children.len() as u32);
            for &k in &n.keys {
                out.put_u64(k);
            }
            for &c in &n.children {
                encode_node(tree, c, out);
            }
        }
    }
}

/// Decode a tree. Performs structural validation (key order, digest
/// consistency) via [`VbTree::check_integrity`] before returning;
/// signature validation is the caller's choice (pass a verifier to
/// `check_integrity` for a full audit).
pub fn decode_tree<const L: usize>(
    bytes: &[u8],
    acc: Accumulator<L>,
) -> Result<VbTree<L>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    let mut buf = bytes;
    if buf.remaining() < 4 || &buf[..4] != MAGIC {
        return Err(corrupt("bad tree magic"));
    }
    buf.advance(4);
    if buf.remaining() < 8 + 4 + 8 + 4 + 16 + 1 {
        return Err(corrupt("tree header truncated"));
    }
    let len = buf.get_u64();
    let height = buf.get_u32();
    let version = buf.get_u64();
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
                return Err(corrupt("fanout truncated"));
            }
            Some(buf.get_u32() as usize)
        }
        _ => return Err(corrupt("bad fanout tag")),
    };
    let schema = Schema::decode(&mut buf).map_err(CoreError::Storage)?;
    let n_cols = schema.num_columns();

    let mut nodes: Vec<Option<std::sync::Arc<Node<L>>>> = Vec::new();
    let root = decode_node(&mut buf, &acc, n_cols, &mut nodes)?;
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes after tree"));
    }

    let tree = VbTree {
        schema,
        config: VbTreeConfig {
            geometry,
            fanout_override,
        },
        acc,
        nodes,
        free: Vec::new(),
        root,
        height,
        len,
        version,
        key_version,
        meter: crate::CostMeter::new(),
        dirty: None,
    };
    // Structural audit: digests, ordering, separators, counts. (A bad
    // replica must never be served from.)
    tree.check_integrity(None)?;
    Ok(tree)
}

fn decode_node<const L: usize>(
    buf: &mut &[u8],
    acc: &Accumulator<L>,
    n_cols: usize,
    nodes: &mut Vec<Option<std::sync::Arc<Node<L>>>>,
) -> Result<NodeId, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if !buf.has_remaining() {
        return Err(corrupt("node truncated"));
    }
    let tag = buf.get_u8();
    match tag {
        0 => {
            let digest = get_digest(buf, acc, Some(DigestRole::Node))?;
            if buf.remaining() < 4 {
                return Err(corrupt("leaf entry count truncated"));
            }
            let n = buf.get_u32() as usize;
            let mut entries = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let tuple = Tuple::decode(buf).map_err(CoreError::Storage)?;
                if tuple.values.len() != n_cols {
                    return Err(corrupt("tuple arity does not match schema"));
                }
                let mut attr_digests = Vec::with_capacity(n_cols);
                for _ in 0..n_cols {
                    attr_digests.push(get_digest(buf, acc, Some(DigestRole::Attribute))?);
                }
                let tuple_digest = get_digest(buf, acc, Some(DigestRole::Tuple))?;
                entries.push(TupleEntry {
                    tuple,
                    attr_digests,
                    tuple_digest,
                });
            }
            nodes.push(Some(std::sync::Arc::new(Node::Leaf(LeafNode {
                entries,
                digest,
            }))));
            Ok(nodes.len() - 1)
        }
        1 => {
            let digest = get_digest(buf, acc, Some(DigestRole::Node))?;
            if buf.remaining() < 4 {
                return Err(corrupt("internal child count truncated"));
            }
            let n_children = buf.get_u32() as usize;
            if n_children == 0 || n_children > 1 << 20 {
                return Err(corrupt("implausible child count"));
            }
            let mut keys = Vec::with_capacity(n_children - 1);
            for _ in 0..n_children - 1 {
                if buf.remaining() < 8 {
                    return Err(corrupt("separator truncated"));
                }
                keys.push(buf.get_u64());
            }
            let mut children = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                children.push(decode_node(buf, acc, n_cols, nodes)?);
            }
            nodes.push(Some(std::sync::Arc::new(Node::Internal(InternalNode {
                keys,
                children,
                digest,
            }))));
            Ok(nodes.len() - 1)
        }
        _ => Err(corrupt("bad node tag")),
    }
}
