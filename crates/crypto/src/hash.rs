//! One-way hash functions implemented from their specifications.
//!
//! The paper (Section 3.2) names MD5 [RFC 1321] and SHA [FIPS 180] as the
//! conventional one-way hash functions used to derive attribute digests
//! (formula (1)). We implement MD5, SHA-1 and SHA-256; SHA-256 is the
//! workspace default.
//!
//! All three follow the same streaming structure: 512-bit blocks,
//! Merkle–Damgård padding with a 64-bit length suffix, and a per-block
//! compression function.
//!
//! # The SHA-256 kernel
//!
//! Every SHA-256 in the workspace — formula (1)'s attribute exponents
//! (`Accumulator::exp_from_bytes`, whose 58-byte input plus 4-byte
//! counter pads to two blocks), RSA's EMSA encoding, the Merkle
//! baseline — goes through one compression function,
//! [`Sha256::compress`]. On x86-64 it runs `compress_ni`, the x86 SHA
//! extensions (`sha256rnds2` for two rounds, `sha256msg1`/`sha256msg2`
//! for the message schedule), when `is_x86_feature_detected!` reports
//! `sha`, `sse2`, `ssse3` and `sse4.1`; std caches that answer, so the
//! check is a few loads per block. That call is the workspace's one
//! audited block of code the compiler cannot prove sound on its own:
//! `compress_ni` is a safe `#[target_feature]` function whose body uses
//! only value intrinsics (no pointers, no unaligned loads), and calling
//! it is sound exactly when the run-time check passed.
//!
//! Everywhere else — other targets, x86 CPUs without the extensions —
//! [`Sha256::compress_soft`] runs: the portable FIPS 180-2 compression.
//! It stays for those machines and as the oracle: the tests compare
//! both kernels on random states and blocks, on every message length
//! up to 300 bytes (one-shot and streamed) and on the FIPS vectors. The
//! two kernels compute the same function, so every digest, signature
//! and stored byte is the same whichever one ran.

/// Supported hash algorithms, selectable at table-definition time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum HashAlgo {
    /// MD5 (16-byte digest). Fast but broken for collision resistance;
    /// provided for fidelity with the paper's era.
    Md5,
    /// SHA-1 (20-byte digest).
    Sha1,
    /// SHA-256 (32-byte digest) — default.
    #[default]
    Sha256,
}

impl HashAlgo {
    /// Digest length in bytes.
    pub fn digest_len(self) -> usize {
        match self {
            HashAlgo::Md5 => 16,
            HashAlgo::Sha1 => 20,
            HashAlgo::Sha256 => 32,
        }
    }

    /// Hash `data` with the selected algorithm.
    pub fn digest(self, data: &[u8]) -> Vec<u8> {
        let mut out = [0u8; MAX_DIGEST_LEN];
        let n = self.digest_parts(&[data], &mut out);
        out[..n].to_vec()
    }

    /// Hash the concatenation of `parts`, streamed into the hasher one
    /// after the other, into the front of `out`; returns the digest
    /// length. Allocates nothing.
    pub fn digest_parts(self, parts: &[&[u8]], out: &mut [u8; MAX_DIGEST_LEN]) -> usize {
        macro_rules! stream {
            ($hasher:ty) => {{
                let mut h = <$hasher>::new();
                for part in parts {
                    h.update(part);
                }
                let d = h.finalize();
                out[..d.len()].copy_from_slice(&d);
                d.len()
            }};
        }
        match self {
            HashAlgo::Md5 => stream!(Md5),
            HashAlgo::Sha1 => stream!(Sha1),
            HashAlgo::Sha256 => stream!(Sha256),
        }
    }
}

/// The longest digest any [`HashAlgo`] produces (SHA-256's 32 bytes).
pub const MAX_DIGEST_LEN: usize = 32;

/// Merkle–Damgård padding, shared by the three hashes: `0x80`, zeros up
/// to 56 mod 64, then the 8 length bytes — written in place into the
/// final block, which is compressed once, or twice when fewer than 9
/// bytes of it were free.
fn pad_and_compress(
    mut block: [u8; 64],
    buf_len: usize,
    len_bytes: [u8; 8],
    mut compress: impl FnMut(&[u8; 64]),
) {
    block[buf_len] = 0x80;
    block[buf_len + 1..].fill(0);
    if buf_len >= 56 {
        compress(&block);
        block = [0; 64];
    }
    block[56..].copy_from_slice(&len_bytes);
    compress(&block);
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-2)
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                Self::compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            Self::compress(&mut self.state, block.try_into().unwrap());
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        pad_and_compress(self.buf, self.buf_len, bit_len.to_be_bytes(), |b| {
            Self::compress(&mut self.state, b)
        });
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One compression of `block` into `state` — the kernel every
    /// SHA-256 in the workspace runs: `compress_ni` on the x86 SHA
    /// extensions when this CPU reports them (std caches the answer),
    /// otherwise [`compress_soft`](Self::compress_soft). Both leave the
    /// same state.
    #[allow(unsafe_code)]
    pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if has_sha_extensions() {
            // SAFETY: `compress_ni` is only sound on a CPU with the sha,
            // sse2, ssse3 and sse4.1 features, and `has_sha_extensions`
            // has just checked all four at run time.
            unsafe { compress_ni(state, block) };
            return;
        }
        Self::compress_soft(state, block);
    }

    /// Which kernel [`compress`](Self::compress) runs on this CPU.
    pub fn kernel() -> &'static str {
        if has_sha_extensions() {
            "x86 SHA extensions"
        } else {
            "portable"
        }
    }

    /// The portable compression function (FIPS 180-2 §6.2.2): the
    /// fallback on every other CPU and target, and the oracle the SHA
    /// extension kernel is tested against.
    pub fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Whether this CPU has what [`compress_ni`] needs.
fn has_sha_extensions() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// [`Sha256::compress_soft`] on the x86 SHA extensions: sixteen groups
/// of four rounds, each two `sha256rnds2`, with the message schedule
/// extended four words at a time by `sha256msg1`/`sha256msg2`. The
/// instructions keep the working variables as `ABEF`/`CDGH` halves, so
/// the state is shuffled into that layout on entry and back on exit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::*;

    // Byte-reverse every 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let word = |i: usize| i32::from_le_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
    macro_rules! load {
        ($i:expr) => {
            _mm_shuffle_epi8(
                _mm_set_epi32(
                    word(4 * $i + 3),
                    word(4 * $i + 2),
                    word(4 * $i + 1),
                    word(4 * $i),
                ),
                bswap,
            )
        };
    }
    let lane = |i: usize| state[i] as i32;
    let dcba = _mm_set_epi32(lane(3), lane(2), lane(1), lane(0));
    let efgh = _mm_set_epi32(lane(7), lane(6), lane(5), lane(4));
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let hgfe = _mm_shuffle_epi32(efgh, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, hgfe, 8);
    let mut cdgh = _mm_blend_epi16(hgfe, cdab, 0xf0);
    let (abef_in, cdgh_in) = (abef, cdgh);

    // Four rounds on message words `w` (plus their constants): two
    // rounds from the low half, two from the high half.
    macro_rules! rounds4 {
        ($w:expr, $i:expr) => {{
            let k = _mm_set_epi32(
                SHA256_K[4 * $i + 3] as i32,
                SHA256_K[4 * $i + 2] as i32,
                SHA256_K[4 * $i + 1] as i32,
                SHA256_K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    let mut w = [load!(0), load!(1), load!(2), load!(3)];
    for (i, &wi) in w.iter().enumerate() {
        rounds4!(wi, i);
    }
    for i in 4..16 {
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four at once.
        let [w0, w1, w2, w3] = w;
        let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        let w4 = _mm_sha256msg2_epu32(sum, w3);
        rounds4!(w4, i);
        w = [w1, w2, w3, w4];
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    *state = [
        _mm_extract_epi32(dcba, 0) as u32,
        _mm_extract_epi32(dcba, 1) as u32,
        _mm_extract_epi32(dcba, 2) as u32,
        _mm_extract_epi32(dcba, 3) as u32,
        _mm_extract_epi32(hgef, 0) as u32,
        _mm_extract_epi32(hgef, 1) as u32,
        _mm_extract_epi32(hgef, 2) as u32,
        _mm_extract_epi32(hgef, 3) as u32,
    ];
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

// ---------------------------------------------------------------------------
// SHA-1 (FIPS 180-1)
// ---------------------------------------------------------------------------

/// Streaming SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Self {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().unwrap());
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.total_len.wrapping_mul(8);
        pad_and_compress(self.buf, self.buf_len, bit_len.to_be_bytes(), |b| {
            self.compress(b)
        });
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), 0x5A827999u32),
                1 => (b ^ c ^ d, 0x6ED9EBA1),
                2 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = t;
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-1.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

// ---------------------------------------------------------------------------
// MD5 (RFC 1321)
// ---------------------------------------------------------------------------

/// Per-round left-rotation amounts.
const MD5_S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9,
    14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10, 15,
    21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// RFC 1321 sine-derived constants: `K[i] = floor(|sin(i + 1)| * 2^32)`.
const MD5_K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Streaming MD5 hasher.
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Fresh hasher with the RFC 1321 initial state.
    pub fn new() -> Self {
        Self {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().unwrap());
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.total_len.wrapping_mul(8);
        // MD5's length suffix is little-endian.
        pad_and_compress(self.buf, self.buf_len, bit_len.to_le_bytes(), |b| {
            self.compress(b)
        });
        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    #[allow(clippy::needless_range_loop)]
    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for i in 0..16 {
            m[i] = u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        let [mut a, mut b, mut c, mut d] = self.state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            let sum = a.wrapping_add(f).wrapping_add(MD5_K[i]).wrapping_add(m[g]);
            b = b.wrapping_add(sum.rotate_left(MD5_S[i]));
            a = tmp;
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot MD5.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn md5_k_is_the_sine_table() {
        for (i, k) in MD5_K.iter().enumerate() {
            assert_eq!(*k, ((i as f64 + 1.0).sin().abs() * 4294967296.0) as u32);
        }
    }

    #[test]
    fn sha256_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    /// SHA-256 of `data` on the portable kernel alone: padded by hand,
    /// not by the streaming code, and compressed with `compress_soft`.
    fn sha256_soft(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = Sha256::new().state;
        for block in msg.chunks_exact(64) {
            Sha256::compress_soft(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// SplitMix64: a fixed-seed stream of test inputs.
    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The dispatched kernel (the SHA extensions, where the CPU has
    /// them) equals the portable one on 10 000 random states and blocks.
    #[test]
    fn sha256_kernels_agree_on_random_blocks() {
        println!("sha256 kernel under test: {}", Sha256::kernel());
        let mut seed = 1;
        for i in 0..10_000 {
            let state: [u32; 8] = core::array::from_fn(|_| splitmix(&mut seed) as u32);
            let block: [u8; 64] = core::array::from_fn(|_| splitmix(&mut seed) as u8);
            let (mut fast, mut soft) = (state, state);
            Sha256::compress(&mut fast, &block);
            Sha256::compress_soft(&mut soft, &block);
            assert_eq!(fast, soft, "pair {i} on the {} kernel", Sha256::kernel());
        }
    }

    /// Every message length up to 300 bytes — so every padding case of
    /// the first few blocks (55/56, 63/64, 119/120, …) — hashed in one
    /// shot and streamed in two and three pieces, against the portable
    /// kernel's hand-padded digest.
    #[test]
    fn sha256_every_length_matches_portable() {
        println!("sha256 kernel under test: {}", Sha256::kernel());
        let mut seed = 2;
        let data: Vec<u8> = (0..300).map(|_| splitmix(&mut seed) as u8).collect();
        for len in 0..=300 {
            let msg = &data[..len];
            let want = sha256_soft(msg);
            assert_eq!(sha256(msg), want, "one shot, {len} bytes");
            let a = splitmix(&mut seed) as usize % (len + 1);
            let b = a + splitmix(&mut seed) as usize % (len - a + 1);
            let mut h = Sha256::new();
            h.update(&msg[..a]);
            h.update(&msg[a..]);
            assert_eq!(h.finalize(), want, "{len} bytes split at {a}");
            let mut h = Sha256::new();
            for part in [&msg[..a], &msg[a..b], &msg[b..]] {
                h.update(part);
            }
            assert_eq!(h.finalize(), want, "{len} bytes split at {a} and {b}");
        }
    }

    /// The FIPS 180-2 examples through both kernels.
    #[test]
    fn sha256_fips_vectors_on_both_kernels() {
        println!("sha256 kernel under test: {}", Sha256::kernel());
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 3] = [
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (msg, want) in vectors {
            assert_eq!(hex(&sha256(msg)), want, "dispatched, {} bytes", msg.len());
            assert_eq!(
                hex(&sha256_soft(msg)),
                want,
                "portable, {} bytes",
                msg.len()
            );
        }
    }

    #[test]
    fn sha1_fips_vectors() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn md5_rfc1321_vectors() {
        assert_eq!(hex(&md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex(&md5(b"a")), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hex(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            hex(&md5(b"message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            hex(&md5(b"The quick brown fox jumps over the lazy dog")),
            "9e107d9d372bb6826bd81d3542a419d6"
        );
    }

    /// `n` × `a` on both sides of the padding boundaries: 55 bytes is
    /// the longest message whose padding fits its own block, 56–63 spill
    /// the length into a second block, 64 leaves an empty buffer, 119 is
    /// 55 again one block later.
    #[test]
    fn padding_boundary_vectors() {
        let vectors = [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
                "c1c8bbdc22796e28c0e15163d20899b65621d65a",
                "ef1772b6dff9a122358552954ad0df65",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
                "c2db330f6083854c99d4b5bfb6e8f29f201be699",
                "3b0c8ac703f828b04c6c197006d17218",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
                "03f09f5b158a7a8cdad920bddc29b81c18a551f5",
                "b06521f39153d618550606be297466d5",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
                "0098ba824b5c16427bd7a1122a5a442a25ec644d",
                "014842d480b571495a4a0363793f7367",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
                "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56",
                "8a7bd0732ed6a28ce75f6dabc90e1613",
            ),
        ];
        for (n, want256, want1, want5) in vectors {
            let data = vec![b'a'; n];
            assert_eq!(hex(&sha256(&data)), want256, "sha256, {n} bytes");
            assert_eq!(hex(&sha1(&data)), want1, "sha1, {n} bytes");
            assert_eq!(hex(&md5(&data)), want5, "md5, {n} bytes");
        }
    }

    #[test]
    fn digest_parts_streams_the_concatenation() {
        let data: Vec<u8> = (0..200u8).collect();
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Sha256] {
            let whole = algo.digest(&data);
            for split in [0usize, 4, 64, 199] {
                let mut out = [0u8; MAX_DIGEST_LEN];
                let n = algo.digest_parts(&[&data[..split], &data[split..]], &mut out);
                assert_eq!(&out[..n], &whole[..], "{algo:?} split {split}");
            }
        }
    }

    #[test]
    fn algo_dispatch() {
        assert_eq!(HashAlgo::Md5.digest_len(), 16);
        assert_eq!(HashAlgo::Sha1.digest_len(), 20);
        assert_eq!(HashAlgo::Sha256.digest_len(), 32);
        for algo in [HashAlgo::Md5, HashAlgo::Sha1, HashAlgo::Sha256] {
            assert_eq!(algo.digest(b"x").len(), algo.digest_len());
        }
        assert_eq!(HashAlgo::default(), HashAlgo::Sha256);
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha1(b"a"), sha1(b"b"));
        assert_ne!(md5(b"a"), md5(b"b"));
    }
}
