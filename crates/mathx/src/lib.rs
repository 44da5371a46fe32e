//! # vbx-mathx — multiprecision and modular arithmetic
//!
//! Fixed-width big-unsigned integers and the modular arithmetic needed by
//! the VB-tree's digest algebra and signature scheme:
//!
//! * [`Uint`] — const-generic little-endian limb arrays (`U256`, `U512`,
//!   `U1024`, `U2048`, ... aliases) with full arithmetic,
//! * [`MontCtx`] — Montgomery contexts for fast modular exponentiation:
//!   4-bit sliding-window repeated squaring with interleaved reductions
//!   (the optimisation Section 3.2 of the paper describes for
//!   `h(x) = g^x mod p`), every product one fused CIOS multiply-reduce
//!   on the stack,
//! * [`FixedBaseTable`] — precomputed radix-16 comb tables for fixed-base
//!   exponentiation (the accumulator's generator `g` never changes, so
//!   its lifts need no squarings at all),
//! * [`prime`] — Miller–Rabin primality testing and (safe-)prime
//!   generation for RSA keygen and accumulator group setup,
//! * [`groups`] — the RFC 3526 MODP groups plus deterministic small test
//!   groups.
//!
//! Everything is implemented from scratch; no external bigint crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fixed_base;
mod mont;
mod slice_ops;
mod uint;

pub mod groups;
pub mod modular;
pub mod prime;

pub use fixed_base::FixedBaseTable;
pub use mont::{MontCtx, MontProduct};
pub use uint::{Uint, U1024, U128, U2048, U256, U3072, U4096, U512};
