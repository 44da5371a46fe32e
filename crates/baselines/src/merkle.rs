//! A Devanbu-style Merkle hash tree baseline (paper Section 2, Figure 1).
//!
//! A binary SHA-256 hash tree over the table in key order with a single
//! signed root. Range queries return the matching tuples, the *boundary*
//! tuples immediately outside the range, and the hashes of every maximal
//! subtree not touched by the range — enough for the client to recompute
//! the signed root.
//!
//! Properties the paper contrasts with the VB-tree:
//!
//! * the VO reaches the root, so it carries `O(log N_R)` hashes — it
//!   grows with the database;
//! * projection cannot be done at the server (a leaf hash covers the
//!   whole tuple), so full tuples must be shipped;
//! * completeness *is* provable (an advantage!) but requires exposing
//!   boundary tuples, in tension with access control.

use vbx_crypto::hash::sha256;
use vbx_crypto::{SigVerifier, Signature, Signer};
use vbx_storage::{Schema, StorageError, Table, Tuple};

/// Verification failures for the Merkle baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MerkleError {
    /// The reconstructed root is not authenticated by the signature —
    /// either the contents were tampered with or the key is wrong.
    RootMismatch,
    /// Rows unsorted / outside the range.
    BadRowSet,
    /// The proof structure is inconsistent with the tree size.
    MalformedProof,
    /// Boundary tuples fail to demonstrate completeness.
    BadBoundary,
    /// Insert with a key that already exists.
    DuplicateKey(u64),
    /// Delete of a missing key.
    KeyNotFound(u64),
    /// An inserted row does not match the table's schema.
    Schema(StorageError),
}

impl core::fmt::Display for MerkleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MerkleError::RootMismatch => {
                write!(
                    f,
                    "reconstructed root not authenticated (tamper or wrong key)"
                )
            }
            MerkleError::BadRowSet => write!(f, "rows unsorted or out of range"),
            MerkleError::MalformedProof => write!(f, "malformed proof"),
            MerkleError::BadBoundary => write!(f, "boundary tuples do not prove completeness"),
            MerkleError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            MerkleError::KeyNotFound(k) => write!(f, "key {k} not found"),
            MerkleError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MerkleError {}

fn leaf_hash(schema: &Schema, tuple: &Tuple) -> [u8; 32] {
    // Domain-separated leaf encoding: schema fingerprint ‖ tuple bytes.
    let mut data = Vec::with_capacity(tuple.wire_len() + 34);
    data.push(0x00); // leaf tag
    data.extend_from_slice(&sha256(&schema.fingerprint_bytes()));
    tuple.encode_into(&mut data);
    sha256(&data)
}

fn inner_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut data = [0u8; 65];
    data[0] = 0x01; // inner tag
    data[1..33].copy_from_slice(left);
    data[33..].copy_from_slice(right);
    sha256(&data)
}

/// The authenticated store: tuples in key order plus the full hash tree.
/// `Clone` supports the serving replicas' build-aside-and-swap update
/// path.
#[derive(Clone)]
pub struct MerkleAuthStore {
    schema: Schema,
    tuples: Vec<Tuple>,
    /// `levels[0]` = leaf hashes; `levels.last()` = `[root]`.
    levels: Vec<Vec<[u8; 32]>>,
    root_sig: Signature,
    key_version: u32,
}

/// A range answer with its Merkle proof.
#[derive(Clone, Debug)]
pub struct MerkleResponse {
    /// Matching tuples (full tuples — the scheme cannot project).
    pub rows: Vec<Tuple>,
    /// Tuple immediately left of the range, if any (completeness).
    pub left_boundary: Option<Tuple>,
    /// Tuple immediately right of the range, if any.
    pub right_boundary: Option<Tuple>,
    /// Index of the first returned leaf (including boundaries).
    pub first_leaf: usize,
    /// Hashes of maximal subtrees outside the returned leaf range, in
    /// deterministic traversal order.
    pub proof: Vec<[u8; 32]>,
    /// Total leaves in the tree (needed to re-derive the tree shape).
    pub n_leaves: usize,
    /// Signed root.
    pub root_sig: Signature,
    /// Key version for registry lookup.
    pub key_version: u32,
    /// The serving edge's replication position + newest owner stamp
    /// (default/empty on a standalone store — stamped by the edge
    /// service in cluster deployments, like the VB-tree's responses).
    pub freshness: vbx_core::ResponseFreshness,
}

impl MerkleResponse {
    /// Wire size: tuples + boundaries + 32-byte hashes + signature.
    pub fn wire_bytes(&self) -> usize {
        self.rows.iter().map(Tuple::wire_len).sum::<usize>()
            + self
                .left_boundary
                .iter()
                .chain(self.right_boundary.iter())
                .map(Tuple::wire_len)
                .sum::<usize>()
            + self.proof.len() * 32
            + self.root_sig.len()
            + 24
            + crate::freshness_wire_bytes(&self.freshness)
    }

    /// Number of hash digests in the proof (the `O(log N)` term).
    pub fn proof_hashes(&self) -> usize {
        self.proof.len()
    }
}

impl MerkleAuthStore {
    /// Build from a table and sign the root.
    pub fn build(table: &Table, signer: &dyn Signer) -> Self {
        let schema = table.schema().clone();
        let tuples: Vec<Tuple> = table.iter().cloned().collect();
        let levels = build_levels(&schema, &tuples);
        let root = *levels.last().unwrap().first().unwrap();
        let root_sig = signer.sign(&root_msg(&schema, &root));
        Self {
            schema,
            tuples,
            levels,
            root_sig,
            key_version: signer.key_version(),
        }
    }

    /// Insert a tuple and rebuild the hash levels; a row that does not
    /// match the schema is refused before anything changes. The root
    /// signature is *not* refreshed — call [`sign_root`](Self::sign_root)
    /// (trusted) or [`install_root_sig`](Self::install_root_sig)
    /// (replica) afterwards.
    pub fn insert_tuple(&mut self, tuple: Tuple) -> Result<(), MerkleError> {
        self.schema
            .check_row(&tuple.values)
            .map_err(MerkleError::Schema)?;
        let pos = self.tuples.partition_point(|t| t.key < tuple.key);
        if self.tuples.get(pos).is_some_and(|t| t.key == tuple.key) {
            return Err(MerkleError::DuplicateKey(tuple.key));
        }
        self.tuples.insert(pos, tuple);
        self.levels = build_levels(&self.schema, &self.tuples);
        Ok(())
    }

    /// Remove a tuple by key and rebuild the hash levels.
    pub fn remove(&mut self, key: u64) -> Result<(), MerkleError> {
        let pos = self.tuples.partition_point(|t| t.key < key);
        if self.tuples.get(pos).is_none_or(|t| t.key != key) {
            return Err(MerkleError::KeyNotFound(key));
        }
        self.tuples.remove(pos);
        self.levels = build_levels(&self.schema, &self.tuples);
        Ok(())
    }

    /// Remove every tuple in `[lo, hi]`, returning how many were removed.
    pub fn remove_range(&mut self, lo: u64, hi: u64) -> usize {
        let before = self.tuples.len();
        self.tuples.retain(|t| t.key < lo || t.key > hi);
        let removed = before - self.tuples.len();
        if removed > 0 {
            self.levels = build_levels(&self.schema, &self.tuples);
        }
        removed
    }

    /// Trusted: re-sign the current root, install the signature, and
    /// return it (for distribution in a signed delta).
    pub fn sign_root(&mut self, signer: &dyn Signer) -> Signature {
        let sig = signer.sign(&root_msg(&self.schema, &self.root()));
        self.root_sig = sig.clone();
        self.key_version = signer.key_version();
        sig
    }

    /// Replica: install a root signature received in a signed delta
    /// (replicas cannot sign; clients will verify it).
    pub fn install_root_sig(&mut self, sig: Signature, key_version: u32) {
        self.root_sig = sig;
        self.key_version = key_version;
    }

    /// Key version the root was signed under.
    pub fn key_version(&self) -> u32 {
        self.key_version
    }

    /// Restore-time audit for a store received over an untrusted
    /// channel: recompute the root from the tuples and check the stored
    /// signature authenticates it under `verifier`.
    pub fn verify_root_sig(&self, verifier: &dyn SigVerifier) -> bool {
        verifier.verify(&root_msg(&self.schema, &self.root()), &self.root_sig)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The stored tuples in key order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The root hash.
    pub fn root(&self) -> [u8; 32] {
        *self.levels.last().unwrap().first().unwrap()
    }

    /// Serialise the store for a durability checkpoint: schema, key
    /// version, root signature, and the tuples. The hash levels are
    /// derived data and rebuilt deterministically on decode. Appends to
    /// `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.schema.encode_into(out);
        out.extend_from_slice(&self.key_version.to_be_bytes());
        out.extend_from_slice(&(self.root_sig.len() as u16).to_be_bytes());
        out.extend_from_slice(self.root_sig.as_bytes());
        out.extend_from_slice(&(self.tuples.len() as u32).to_be_bytes());
        for t in &self.tuples {
            t.encode_into(out);
        }
    }

    /// Bytes [`encode_into`](Self::encode_into) appends.
    pub fn encoded_len(&self) -> usize {
        let tuples: usize = self.tuples.iter().map(Tuple::wire_len).sum();
        self.schema.encoded_len() + 4 + 2 + self.root_sig.len() + 4 + tuples
    }

    /// Decode a checkpointed store, rebuilding the hash levels from the
    /// tuples (the same deterministic construction as `build`, so the
    /// recovered store is byte-identical). Never panics on hostile
    /// bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, vbx_core::CoreError> {
        let corrupt = |m: &str| vbx_core::CoreError::Wire(m.to_string());
        let mut buf = bytes;
        let schema = Schema::decode(&mut buf).map_err(vbx_core::CoreError::Storage)?;
        if buf.len() < 6 {
            return Err(corrupt("merkle store header truncated"));
        }
        let key_version = u32::from_be_bytes(buf[..4].try_into().unwrap());
        let sig_len = u16::from_be_bytes(buf[4..6].try_into().unwrap()) as usize;
        buf = &buf[6..];
        if buf.len() < sig_len {
            return Err(corrupt("merkle root signature truncated"));
        }
        let root_sig = Signature(buf[..sig_len].to_vec());
        buf = &buf[sig_len..];
        if buf.len() < 4 {
            return Err(corrupt("merkle tuple count truncated"));
        }
        let n = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
        buf = &buf[4..];
        let mut tuples = Vec::with_capacity(n.min(1 << 20));
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let t = Tuple::decode(&mut buf).map_err(vbx_core::CoreError::Storage)?;
            if prev.is_some_and(|p| t.key <= p) {
                return Err(corrupt("merkle tuples out of key order"));
            }
            prev = Some(t.key);
            tuples.push(t);
        }
        if !buf.is_empty() {
            return Err(corrupt("trailing bytes in merkle store"));
        }
        let levels = build_levels(&schema, &tuples);
        Ok(Self {
            schema,
            tuples,
            levels,
            root_sig,
            key_version,
        })
    }

    /// Answer a key-range query with a completeness-proving VO.
    pub fn query(&self, lo: u64, hi: u64) -> MerkleResponse {
        // Returned window: matching tuples plus one boundary tuple on
        // each side (where they exist).
        let start = self.tuples.partition_point(|t| t.key < lo);
        let end = self.tuples.partition_point(|t| t.key <= hi);
        let first_leaf = start.saturating_sub(1);
        let last_leaf_excl = (end + 1).min(self.tuples.len());

        let rows = self.tuples[start..end].to_vec();
        let left_boundary = (start > 0).then(|| self.tuples[start - 1].clone());
        let right_boundary = (end < self.tuples.len()).then(|| self.tuples[end].clone());

        let mut proof = Vec::new();
        if !self.tuples.is_empty() && first_leaf < last_leaf_excl {
            self.collect_proof(0, first_leaf, last_leaf_excl, &mut proof);
        } else if !self.tuples.is_empty() {
            // Degenerate: nothing returned at all (empty table handled
            // by n_leaves == 0). Prove the whole tree via the root only.
            proof.push(self.root());
        }
        MerkleResponse {
            rows,
            left_boundary,
            right_boundary,
            first_leaf,
            proof,
            n_leaves: self.tuples.len(),
            root_sig: self.root_sig.clone(),
            key_version: self.key_version,
            freshness: vbx_core::ResponseFreshness::default(),
        }
    }

    /// Emit hashes of maximal subtrees whose leaf span does not
    /// intersect `[lo, hi)`, in op-stream order: the server replays the
    /// same [`proof_ops`] program the client will verify with, filling
    /// in a hash wherever the program demands proof material.
    fn collect_proof(&self, _level_unused: usize, lo: usize, hi: usize, out: &mut Vec<[u8; 32]>) {
        for op in proof_ops(self.tuples.len(), lo, hi) {
            if let MerkleOp::PushProof { level, index } = op {
                out.push(self.levels[level as usize][index as usize]);
            }
        }
    }

    /// Client-side verification: recompute the window's leaf hashes,
    /// merge with the proof hashes, rebuild the root, check the
    /// signature, and check range completeness via the boundaries.
    pub fn verify(
        schema: &Schema,
        verifier: &dyn SigVerifier,
        lo: u64,
        hi: u64,
        resp: &MerkleResponse,
    ) -> Result<(), MerkleError> {
        // 1. Row sanity.
        let mut prev = None;
        for t in &resp.rows {
            if t.key < lo || t.key > hi || prev.is_some_and(|p| t.key <= p) {
                return Err(MerkleError::BadRowSet);
            }
            prev = Some(t.key);
        }
        // 2. Boundary sanity: boundaries must be strictly outside.
        if let Some(b) = &resp.left_boundary {
            if b.key >= lo {
                return Err(MerkleError::BadBoundary);
            }
        }
        if let Some(b) = &resp.right_boundary {
            if b.key <= hi {
                return Err(MerkleError::BadBoundary);
            }
        }

        // 3. Rebuild the window of leaf hashes.
        let window: Vec<&Tuple> = resp
            .left_boundary
            .iter()
            .chain(resp.rows.iter())
            .chain(resp.right_boundary.iter())
            .collect();
        // Window keys must themselves be sorted (boundary adjacency).
        for w in window.windows(2) {
            if w[0].key >= w[1].key {
                return Err(MerkleError::BadBoundary);
            }
        }
        if resp.n_leaves == 0 {
            if !window.is_empty() {
                return Err(MerkleError::MalformedProof);
            }
            let root = sha256(b"empty-merkle-tree");
            return check_root(schema, verifier, &root, &resp.root_sig);
        }
        let window_hashes: Vec<[u8; 32]> = window.iter().map(|t| leaf_hash(schema, t)).collect();

        // 4. Recompute the root by mirroring the server's traversal.
        let mut proof_iter = resp.proof.iter();
        let mut leaf_iter = window_hashes.iter();
        let wlo = resp.first_leaf;
        let whi = resp.first_leaf + window_hashes.len();
        if whi > resp.n_leaves {
            return Err(MerkleError::MalformedProof);
        }
        let height = levels_for(resp.n_leaves);
        let root = rebuild(
            height - 1,
            0,
            resp.n_leaves,
            wlo,
            whi,
            &mut proof_iter,
            &mut leaf_iter,
        )
        .ok_or(MerkleError::MalformedProof)?;
        if proof_iter.next().is_some() || leaf_iter.next().is_some() {
            return Err(MerkleError::MalformedProof);
        }
        check_root(schema, verifier, &root, &resp.root_sig)?;

        // 5. Completeness: the window must cover [lo, hi] contiguously —
        // guaranteed because the proof pinned `first_leaf .. whi` as
        // consecutive leaves and boundaries are strictly outside. The
        // only remaining hole: missing boundary when the range does not
        // touch the table edge. Detect via first_leaf/window shape.
        if resp.left_boundary.is_none() && resp.first_leaf != 0 {
            return Err(MerkleError::BadBoundary);
        }
        if resp.right_boundary.is_none() && whi != resp.n_leaves {
            return Err(MerkleError::BadBoundary);
        }
        Ok(())
    }
}

/// Rebuild all hash levels bottom-up from the sorted tuples.
fn build_levels(schema: &Schema, tuples: &[Tuple]) -> Vec<Vec<[u8; 32]>> {
    let mut levels = Vec::new();
    let leaves: Vec<[u8; 32]> = tuples.iter().map(|t| leaf_hash(schema, t)).collect();
    let mut current = if leaves.is_empty() {
        vec![sha256(b"empty-merkle-tree")]
    } else {
        leaves
    };
    levels.push(current.clone());
    while current.len() > 1 {
        let mut next = Vec::with_capacity(current.len().div_ceil(2));
        for pair in current.chunks(2) {
            if pair.len() == 2 {
                next.push(inner_hash(&pair[0], &pair[1]));
            } else {
                // Odd node promoted unchanged (Bitcoin-style trees
                // duplicate instead; promotion avoids the duplication
                // ambiguity).
                next.push(pair[0]);
            }
        }
        levels.push(next.clone());
        current = next;
    }
    levels
}

fn root_msg(schema: &Schema, root: &[u8; 32]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(64);
    msg.extend_from_slice(b"vbx-merkle-root");
    msg.extend_from_slice(&sha256(&schema.fingerprint_bytes()));
    msg.extend_from_slice(root);
    msg
}

fn check_root(
    schema: &Schema,
    verifier: &dyn SigVerifier,
    root: &[u8; 32],
    sig: &Signature,
) -> Result<(), MerkleError> {
    if verifier.verify(&root_msg(schema, root), sig) {
        Ok(())
    } else {
        Err(MerkleError::RootMismatch)
    }
}

/// Number of levels in a tree over `n` leaves (≥ 1).
fn levels_for(n: usize) -> usize {
    let mut levels = 1;
    let mut width = n.max(1);
    while width > 1 {
        width = width.div_ceil(2);
        levels += 1;
    }
    levels
}

/// Mirror of the server's `walk`, consuming proof hashes for untouched
/// subtrees and window leaf hashes for covered leaves.
fn rebuild<'a>(
    level: usize,
    index: usize,
    n_leaves: usize,
    lo: usize,
    hi: usize,
    proof: &mut core::slice::Iter<'a, [u8; 32]>,
    leaves: &mut core::slice::Iter<'a, [u8; 32]>,
) -> Option<[u8; 32]> {
    let span = 1usize << level;
    let first = index * span;
    let last = (first + span).min(n_leaves);
    if first >= last {
        return None; // phantom
    }
    if last <= lo || first >= hi {
        return proof.next().copied();
    }
    if level == 0 {
        return leaves.next().copied();
    }
    if lo <= first && last <= hi && level == 0 {
        return leaves.next().copied();
    }
    let left = rebuild(level - 1, 2 * index, n_leaves, lo, hi, proof, leaves)?;
    match rebuild(level - 1, 2 * index + 1, n_leaves, lo, hi, proof, leaves) {
        Some(right) => Some(inner_hash(&left, &right)),
        None => Some(left), // odd promotion
    }
}

/// One instruction of the Merkle proof stack machine.
///
/// The program is **derived, not shipped**: both parties compute it
/// from public shape data (`n_leaves` + the returned window), so a
/// compromised edge cannot steer the traversal — it only supplies the
/// hashes the program demands, exactly as many as the shape dictates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MerkleOp {
    /// Push the next untouched-subtree hash from the proof. The node
    /// coordinates let the server fill in the hash; the client consumes
    /// the proof sequentially and ignores them.
    PushProof {
        /// Tree level (0 = leaves).
        level: u8,
        /// Node index within the level.
        index: u32,
    },
    /// Recompute and push the next window leaf's hash.
    PushLeaf,
    /// Pop the right then the left hash, push their inner hash.
    Join,
}

/// The proof program for a tree of `n_leaves` with returned window
/// `[window_lo, window_hi)`: a post-order flattening of the proof
/// traversal, generated iteratively (explicit work stack, no
/// recursion). Executing it with [`verify_merkle_ops`] rebuilds the
/// root holding at most `O(depth)` hashes at once.
pub fn proof_ops(n_leaves: usize, window_lo: usize, window_hi: usize) -> Vec<MerkleOp> {
    enum Item {
        Node { level: usize, index: usize },
        Join,
    }
    let mut ops = Vec::new();
    if n_leaves == 0 || window_lo >= window_hi {
        return ops;
    }
    let mut stack = vec![Item::Node {
        level: levels_for(n_leaves) - 1,
        index: 0,
    }];
    while let Some(item) = stack.pop() {
        match item {
            Item::Join => ops.push(MerkleOp::Join),
            Item::Node { level, index } => {
                let span = 1usize << level;
                let first = index * span;
                let last = (first + span).min(n_leaves);
                if first >= last {
                    continue; // phantom node beyond the last leaf
                }
                if last <= window_lo || first >= window_hi {
                    ops.push(MerkleOp::PushProof {
                        level: level as u8,
                        index: index as u32,
                    });
                    continue;
                }
                if level == 0 {
                    ops.push(MerkleOp::PushLeaf);
                    continue;
                }
                // Post-order via LIFO: left pops first, then right,
                // then the Join. A phantom right child (odd promotion)
                // gets no Join — the left hash stands for the parent.
                let child_span = span / 2;
                if (2 * index + 1) * child_span < n_leaves {
                    stack.push(Item::Join);
                    stack.push(Item::Node {
                        level: level - 1,
                        index: 2 * index + 1,
                    });
                }
                stack.push(Item::Node {
                    level: level - 1,
                    index: 2 * index,
                });
            }
        }
    }
    ops
}

/// Statistics from the op-stream verifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MerkleOpsReport {
    /// Instructions executed.
    pub ops: usize,
    /// Deepest the hash stack ever got (≤ tree depth + 1).
    pub peak_stack_depth: usize,
}

/// Op-stream verification: the same checks as
/// [`MerkleAuthStore::verify`], but the root is rebuilt by an iterative
/// stack machine executing [`proof_ops`] instead of a recursive mirror
/// of the server traversal — constant code paths, `O(depth)` live
/// hashes, and an execution trace ([`MerkleOpsReport`]) for the bench
/// harness.
pub fn verify_merkle_ops(
    schema: &Schema,
    verifier: &dyn SigVerifier,
    lo: u64,
    hi: u64,
    resp: &MerkleResponse,
) -> Result<MerkleOpsReport, MerkleError> {
    // Row and boundary sanity — identical to the recursive path.
    let mut prev = None;
    for t in &resp.rows {
        if t.key < lo || t.key > hi || prev.is_some_and(|p| t.key <= p) {
            return Err(MerkleError::BadRowSet);
        }
        prev = Some(t.key);
    }
    if let Some(b) = &resp.left_boundary {
        if b.key >= lo {
            return Err(MerkleError::BadBoundary);
        }
    }
    if let Some(b) = &resp.right_boundary {
        if b.key <= hi {
            return Err(MerkleError::BadBoundary);
        }
    }
    let window: Vec<&Tuple> = resp
        .left_boundary
        .iter()
        .chain(resp.rows.iter())
        .chain(resp.right_boundary.iter())
        .collect();
    for w in window.windows(2) {
        if w[0].key >= w[1].key {
            return Err(MerkleError::BadBoundary);
        }
    }
    if resp.n_leaves == 0 {
        if !window.is_empty() {
            return Err(MerkleError::MalformedProof);
        }
        let root = sha256(b"empty-merkle-tree");
        check_root(schema, verifier, &root, &resp.root_sig)?;
        return Ok(MerkleOpsReport::default());
    }
    let wlo = resp.first_leaf;
    let whi = resp.first_leaf + window.len();
    if whi > resp.n_leaves {
        return Err(MerkleError::MalformedProof);
    }

    // Degenerate nothing-returned answer: the proof is the bare root.
    if window.is_empty() {
        let [root] = resp.proof.as_slice() else {
            return Err(MerkleError::MalformedProof);
        };
        check_root(schema, verifier, root, &resp.root_sig)?;
        if resp.left_boundary.is_none() && resp.first_leaf != 0 {
            return Err(MerkleError::BadBoundary);
        }
        if resp.right_boundary.is_none() && whi != resp.n_leaves {
            return Err(MerkleError::BadBoundary);
        }
        return Ok(MerkleOpsReport {
            ops: 1,
            peak_stack_depth: 1,
        });
    }

    // The stack machine: leaf hashes are recomputed on demand, so only
    // the in-flight spine of the tree is ever resident.
    let mut stack: Vec<[u8; 32]> = Vec::new();
    let mut report = MerkleOpsReport::default();
    let mut proof_iter = resp.proof.iter();
    let mut leaf_iter = window.iter();
    for op in proof_ops(resp.n_leaves, wlo, whi) {
        report.ops += 1;
        match op {
            MerkleOp::PushProof { .. } => {
                stack.push(*proof_iter.next().ok_or(MerkleError::MalformedProof)?);
            }
            MerkleOp::PushLeaf => {
                let t = leaf_iter.next().ok_or(MerkleError::MalformedProof)?;
                stack.push(leaf_hash(schema, t));
            }
            MerkleOp::Join => {
                let right = stack.pop().ok_or(MerkleError::MalformedProof)?;
                let left = stack.pop().ok_or(MerkleError::MalformedProof)?;
                stack.push(inner_hash(&left, &right));
            }
        }
        report.peak_stack_depth = report.peak_stack_depth.max(stack.len());
    }
    if proof_iter.next().is_some() || leaf_iter.next().is_some() || stack.len() != 1 {
        return Err(MerkleError::MalformedProof);
    }
    check_root(schema, verifier, &stack[0], &resp.root_sig)?;
    if resp.left_boundary.is_none() && resp.first_leaf != 0 {
        return Err(MerkleError::BadBoundary);
    }
    if resp.right_boundary.is_none() && whi != resp.n_leaves {
        return Err(MerkleError::BadBoundary);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbx_crypto::signer::MockSigner;
    use vbx_storage::workload::WorkloadSpec;

    fn store(rows: u64) -> (MerkleAuthStore, MockSigner) {
        let table = WorkloadSpec::new(rows, 3, 8).build();
        let signer = MockSigner::new(8);
        (MerkleAuthStore::build(&table, &signer), signer)
    }

    #[test]
    fn roundtrip_various_ranges() {
        let (s, signer) = store(50);
        let v = signer.verifier();
        for (lo, hi) in [
            (0u64, 49u64),
            (10, 20),
            (0, 0),
            (49, 49),
            (25, 100),
            (60, 70),
        ] {
            let resp = s.query(lo, hi);
            MerkleAuthStore::verify(s.schema(), v.as_ref(), lo, hi, &resp)
                .unwrap_or_else(|e| panic!("range [{lo},{hi}]: {e}"));
        }
    }

    #[test]
    fn empty_table() {
        let (s, signer) = store(0);
        let resp = s.query(0, 10);
        assert!(resp.rows.is_empty());
        MerkleAuthStore::verify(s.schema(), signer.verifier().as_ref(), 0, 10, &resp).unwrap();
    }

    #[test]
    fn single_tuple_table() {
        let (s, signer) = store(1);
        let resp = s.query(0, 0);
        assert_eq!(resp.rows.len(), 1);
        MerkleAuthStore::verify(s.schema(), signer.verifier().as_ref(), 0, 0, &resp).unwrap();
    }

    #[test]
    fn odd_sized_trees() {
        for n in [1u64, 2, 3, 5, 7, 11, 17, 31, 33] {
            let (s, signer) = store(n);
            let hi = n.saturating_sub(1);
            let resp = s.query(0, hi);
            MerkleAuthStore::verify(s.schema(), signer.verifier().as_ref(), 0, hi, &resp)
                .unwrap_or_else(|e| panic!("n = {n}: {e}"));
        }
    }

    #[test]
    fn tampered_tuple_detected() {
        let (s, signer) = store(30);
        let mut resp = s.query(5, 15);
        resp.rows[2].values[0] = vbx_storage::Value::from("evil");
        let err = MerkleAuthStore::verify(s.schema(), signer.verifier().as_ref(), 5, 15, &resp)
            .unwrap_err();
        assert_eq!(err, MerkleError::RootMismatch);
    }

    #[test]
    fn dropped_tuple_detected() {
        // Unlike Naive and the VB-tree, the Merkle range proof *does*
        // catch dropped tuples.
        let (s, signer) = store(30);
        let mut resp = s.query(5, 15);
        resp.rows.remove(3);
        let err = MerkleAuthStore::verify(s.schema(), signer.verifier().as_ref(), 5, 15, &resp)
            .unwrap_err();
        assert!(matches!(
            err,
            MerkleError::RootMismatch | MerkleError::MalformedProof
        ));
    }

    #[test]
    fn missing_boundary_detected() {
        let (s, signer) = store(30);
        let mut resp = s.query(5, 15);
        resp.left_boundary = None;
        let err = MerkleAuthStore::verify(s.schema(), signer.verifier().as_ref(), 5, 15, &resp)
            .unwrap_err();
        assert!(matches!(
            err,
            MerkleError::BadBoundary | MerkleError::RootMismatch | MerkleError::MalformedProof
        ));
    }

    #[test]
    fn proof_grows_with_log_n() {
        // The paper's critique: MHT VOs grow with the table size.
        let q = (100u64, 119u64);
        let mut hashes = Vec::new();
        for rows in [200u64, 1600, 12800] {
            let (s, _) = store(rows);
            let resp = s.query(q.0, q.1);
            assert_eq!(resp.rows.len(), 20);
            hashes.push(resp.proof_hashes());
        }
        assert!(
            hashes[0] < hashes[1] && hashes[1] < hashes[2],
            "proof sizes {hashes:?} must grow with N"
        );
    }

    #[test]
    fn ops_verifier_agrees_with_recursive_everywhere() {
        for rows in [1u64, 2, 3, 7, 16, 31, 50, 63] {
            let (s, signer) = store(rows);
            let v = signer.verifier();
            for (lo, hi) in [
                (0u64, rows.saturating_sub(1)),
                (0, 0),
                (rows / 3, 2 * rows / 3 + 1),
                (rows, rows + 10),
                (rows.saturating_sub(1), rows.saturating_sub(1)),
            ] {
                let resp = s.query(lo, hi);
                let recursive = MerkleAuthStore::verify(s.schema(), v.as_ref(), lo, hi, &resp);
                let ops = verify_merkle_ops(s.schema(), v.as_ref(), lo, hi, &resp);
                assert_eq!(
                    recursive.is_ok(),
                    ops.is_ok(),
                    "rows={rows} [{lo},{hi}]: recursive {recursive:?} vs ops {ops:?}"
                );
                let report = ops.unwrap();
                let depth = levels_for(rows as usize);
                assert!(
                    report.peak_stack_depth <= depth + 1,
                    "rows={rows} [{lo},{hi}]: peak {} > depth {depth} + 1",
                    report.peak_stack_depth
                );
            }
        }
    }

    #[test]
    fn ops_verifier_detects_every_tamper_the_recursive_one_does() {
        let (s, signer) = store(40);
        let v = signer.verifier();
        let honest = s.query(8, 24);
        verify_merkle_ops(s.schema(), v.as_ref(), 8, 24, &honest).unwrap();

        type TamperFn = fn(&mut MerkleResponse);
        let tampers: [(&str, TamperFn); 5] = [
            ("mutate", |r| {
                r.rows[1].values[0] = vbx_storage::Value::from("evil")
            }),
            ("drop", |r| {
                r.rows.remove(2);
            }),
            ("inject", |r| {
                let mut t = r.rows[0].clone();
                t.key += 1;
                r.rows.insert(1, t);
            }),
            ("strip boundary", |r| r.left_boundary = None),
            ("truncate proof", |r| {
                r.proof.pop();
            }),
        ];
        for (name, tamper) in tampers {
            let mut resp = honest.clone();
            tamper(&mut resp);
            let recursive = MerkleAuthStore::verify(s.schema(), v.as_ref(), 8, 24, &resp);
            let ops = verify_merkle_ops(s.schema(), v.as_ref(), 8, 24, &resp);
            assert!(recursive.is_err(), "{name}: recursive must detect");
            assert!(ops.is_err(), "{name}: ops must detect");
        }
    }

    #[test]
    fn server_proof_comes_from_the_same_op_program() {
        // collect_proof replays proof_ops, so the number of PushProof
        // ops must equal the proof length the client consumes.
        let (s, _) = store(50);
        for (lo, hi) in [(0u64, 49u64), (10, 20), (0, 0), (49, 49), (25, 100)] {
            let resp = s.query(lo, hi);
            let window = resp.first_leaf
                ..resp.first_leaf
                    + resp.rows.len()
                    + usize::from(resp.left_boundary.is_some())
                    + usize::from(resp.right_boundary.is_some());
            let pushes = proof_ops(resp.n_leaves, window.start, window.end)
                .iter()
                .filter(|op| matches!(op, MerkleOp::PushProof { .. }))
                .count();
            assert_eq!(pushes, resp.proof.len(), "[{lo},{hi}]");
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let (s, _) = store(20);
        let wrong = MockSigner::new(1234);
        let resp = s.query(0, 5);
        let err = MerkleAuthStore::verify(s.schema(), wrong.verifier().as_ref(), 0, 5, &resp)
            .unwrap_err();
        assert_eq!(err, MerkleError::RootMismatch);
    }
}
