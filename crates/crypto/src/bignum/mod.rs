//! Arbitrary-precision unsigned integer arithmetic, implemented from
//! scratch on `u64` limbs.
//!
//! [`BigUint`] supports the operations needed by the RSA module: addition,
//! subtraction, multiplication (schoolbook), Knuth Algorithm-D division,
//! modular exponentiation, extended GCD / modular inverse, and Miller–Rabin
//! primality testing.
//!
//! # Examples
//!
//! ```
//! use biot_crypto::bignum::BigUint;
//!
//! let a = BigUint::from_u64(1 << 40);
//! let b = BigUint::from_u64(3);
//! let (q, r) = (&a * &b).div_rem(&a);
//! assert_eq!(q, b);
//! assert!(r.is_zero());
//! ```

mod div;
mod modular;
mod montgomery;
mod prime;

pub use montgomery::{MontElem, MontgomeryCtx};
pub use prime::{gen_prime, is_probable_prime};

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Shl, Shr, Sub};

/// An arbitrary-precision unsigned integer.
///
/// Limbs are stored little-endian (least-significant limb first) with no
/// trailing zero limbs; zero is the empty limb vector. This normalization is
/// an invariant maintained by every constructor and operation.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs, normalized (no trailing zeros).
    limbs: Vec<u64>,
}

impl BigUint {
    /// Returns zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// Returns one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Serializes to big-endian bytes without leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let bytes = self.to_bytes_be();
        assert!(
            bytes.len() <= len,
            "value needs {} bytes, buffer is {len}",
            bytes.len()
        );
        let mut out = vec![0u8; len - bytes.len()];
        out.extend_from_slice(&bytes);
        out
    }

    /// Parses a hexadecimal string (no prefix).
    ///
    /// Returns `None` on any non-hex character.
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut value = BigUint::zero();
        for ch in s.chars() {
            let digit = ch.to_digit(16)? as u64;
            value = &(&value << 4) + &BigUint::from_u64(digit);
        }
        Some(value)
    }

    /// Formats as lowercase hexadecimal (no prefix, `"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns true if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Returns true if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (counting from the least-significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        match self.limbs.get(limb) {
            None => false,
            Some(l) => (l >> (i % 64)) & 1 == 1,
        }
    }

    /// Sets bit `i` to one.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 64);
    }

    /// Borrows the little-endian limbs.
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut v = BigUint { limbs };
        v.normalize();
        v
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Checked subtraction: `self - rhs`, or `None` if `rhs > self`.
    pub fn checked_sub(&self, rhs: &BigUint) -> Option<BigUint> {
        if self < rhs {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(r);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 | b2) as u64;
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// Divides by `divisor`, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        div::div_rem(self, divisor)
    }

    /// Computes `self mod modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Computes `self^exp mod modulus`.
    ///
    /// Odd moduli take the Montgomery fast path ([`MontgomeryCtx`]); even
    /// moduli fall back to [`modpow_naive`](Self::modpow_naive). Callers
    /// doing repeated exponentiations under one odd modulus should build a
    /// [`MontgomeryCtx`] once and reuse it.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        modular::modpow(self, exp, modulus)
    }

    /// Computes `self^exp mod modulus` by plain square-and-multiply with a
    /// full division per step — the correctness oracle for the Montgomery
    /// path. Prefer [`modpow`](Self::modpow) everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow_naive(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        modular::modpow_naive(self, exp, modulus)
    }

    /// Computes the greatest common divisor.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        modular::gcd(self, other)
    }

    /// Computes the modular inverse of `self` modulo `modulus`, if coprime.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        modular::modinv(self, modulus)
    }

    /// Samples a uniform value in `[0, bound)` using `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: rand::Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bits();
        let limbs = bits.div_ceil(64);
        let top_mask = if bits.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (bits % 64)) - 1
        };
        // Rejection sampling: each iteration succeeds with probability > 1/2.
        loop {
            let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            if let Some(top) = v.last_mut() {
                *top &= top_mask;
            }
            let candidate = BigUint::from_limbs(v);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Samples a uniform value with exactly `bits` bits (top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn random_bits<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0, "bits must be positive");
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs - 1) * 64;
        let top_mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        let last = limbs - 1;
        v[last] &= top_mask;
        v[last] |= 1 << (top_bits - 1);
        BigUint::from_limbs(v)
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &BigUint {
    type Output = BigUint;

    fn add(self, rhs: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut out = Vec::with_capacity(long.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.limbs.len() {
            let s = short.limbs.get(i).copied().unwrap_or(0);
            let (v1, c1) = long.limbs[i].overflowing_add(s);
            let (v2, c2) = v1.overflowing_add(carry);
            out.push(v2);
            carry = (c1 | c2) as u64;
        }
        if carry > 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }
}

impl Sub for &BigUint {
    type Output = BigUint;

    /// # Panics
    ///
    /// Panics on underflow; use [`BigUint::checked_sub`] to handle that case.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

/// Operand size (in limbs) above which multiplication switches from the
/// schoolbook algorithm to Karatsuba. Below this the recursion overhead
/// dominates; 32 limbs = 2048 bits, the region where RSA-4096 squarings
/// start to matter.
const KARATSUBA_THRESHOLD: usize = 32;

/// Schoolbook O(n·m) multiplication.
fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + x as u128 * y as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry > 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    out
}

/// Karatsuba O(n^1.585) multiplication, recursing until operands fall
/// under [`KARATSUBA_THRESHOLD`].
fn mul_karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len() < KARATSUBA_THRESHOLD || b.len() < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    // Split at half of the shorter operand, so both halves are non-empty.
    let half = a.len().min(b.len()) / 2;
    let (a0, a1) = a.split_at(half); // a = a0 + a1·2^(64·half)
    let (b0, b1) = b.split_at(half);
    let a0 = BigUint::from_limbs(a0.to_vec());
    let a1 = BigUint::from_limbs(a1.to_vec());
    let b0 = BigUint::from_limbs(b0.to_vec());
    let b1 = BigUint::from_limbs(b1.to_vec());

    let z0 = BigUint::from_limbs(mul_karatsuba(a0.limbs(), b0.limbs()));
    let z2 = BigUint::from_limbs(mul_karatsuba(a1.limbs(), b1.limbs()));
    let sa = &a0 + &a1;
    let sb = &b0 + &b1;
    let z1_full = BigUint::from_limbs(mul_karatsuba(sa.limbs(), sb.limbs()));
    // z1 = (a0+a1)(b0+b1) − z0 − z2 ≥ 0.
    let z1 = &(&z1_full - &z0) - &z2;

    // result = z0 + z1·2^(64·half) + z2·2^(128·half)
    let shifted_z1 = &z1 << (64 * half);
    let shifted_z2 = &z2 << (128 * half);
    let sum = &(&z0 + &shifted_z1) + &shifted_z2;
    sum.limbs().to_vec()
}

impl Mul for &BigUint {
    type Output = BigUint;

    fn mul(self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let out = if self.limbs.len() >= KARATSUBA_THRESHOLD
            && rhs.limbs.len() >= KARATSUBA_THRESHOLD
        {
            mul_karatsuba(&self.limbs, &rhs.limbs)
        } else {
            mul_schoolbook(&self.limbs, &rhs.limbs)
        };
        BigUint::from_limbs(out)
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;

    fn shl(self, shift: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = shift / 64;
        let bit_shift = shift % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;

    fn shr(self, shift: usize) -> BigUint {
        let limb_shift = shift / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = shift % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        BigUint::from_limbs(out)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let v = big("0102030405060708090a0b0c0d0e0f10ff");
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        assert_eq!(v.to_bytes_be().len(), 17);
        // leading zeros stripped
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 1]).to_bytes_be(), vec![1]);
        assert!(BigUint::from_bytes_be(&[]).is_zero());
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from_u64(0x0102);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn padded_bytes_too_small_panics() {
        BigUint::from_u64(0x010203).to_bytes_be_padded(2);
    }

    #[test]
    fn hex_roundtrip() {
        for h in ["1", "ff", "deadbeef", "123456789abcdef0123456789abcdef"] {
            let v = big(h);
            assert_eq!(v.to_hex(), h, "hex {h}");
        }
        assert_eq!(BigUint::zero().to_hex(), "0");
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn addition_with_carry_chain() {
        let a = big("ffffffffffffffffffffffffffffffff");
        let one = BigUint::one();
        let sum = &a + &one;
        assert_eq!(sum, big("100000000000000000000000000000000"));
    }

    #[test]
    fn subtraction_with_borrow_chain() {
        let a = big("100000000000000000000000000000000");
        let one = BigUint::one();
        assert_eq!(&a - &one, big("ffffffffffffffffffffffffffffffff"));
        assert!(one.checked_sub(&a).is_none());
    }

    #[test]
    #[should_panic]
    fn subtraction_underflow_panics() {
        let _ = &BigUint::one() - &BigUint::from_u64(2);
    }

    #[test]
    fn multiplication_known_product() {
        let a = big("fedcba9876543210");
        let b = big("123456789abcdef");
        assert_eq!((&a * &b).to_hex(), "121fa00ad77d7422236d88fe5618cf0");
    }

    #[test]
    fn shifts() {
        let v = big("1");
        assert_eq!((&v << 64).to_hex(), "10000000000000000");
        assert_eq!((&v << 65).to_hex(), "20000000000000000");
        let w = big("deadbeef00000000");
        assert_eq!((&w >> 32).to_hex(), "deadbeef");
        assert!((&w >> 64).is_zero());
        assert!((&w >> 200).is_zero());
    }

    #[test]
    fn bit_accessors() {
        let mut v = BigUint::zero();
        v.set_bit(0);
        v.set_bit(100);
        assert!(v.bit(0));
        assert!(v.bit(100));
        assert!(!v.bit(50));
        assert_eq!(v.bits(), 101);
    }

    #[test]
    fn ordering() {
        assert!(big("ff") < big("100"));
        assert!(big("10000000000000000") > big("ffffffffffffffff"));
        assert_eq!(big("ab").cmp(&big("ab")), std::cmp::Ordering::Equal);
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let bound = big("1000");
        for _ in 0..200 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = StdRng::seed_from_u64(2);
        for bits in [1usize, 2, 63, 64, 65, 128, 512] {
            let v = BigUint::random_bits(&mut rng, bits);
            assert_eq!(v.bits(), bits, "bits {bits}");
        }
    }

    #[test]
    fn karatsuba_matches_schoolbook_on_large_operands() {
        let mut rng = StdRng::seed_from_u64(77);
        for (bits_a, bits_b) in [(2048, 2048), (4096, 2048), (3000, 5000), (2048, 64)] {
            let a = BigUint::random_bits(&mut rng, bits_a);
            let b = BigUint::random_bits(&mut rng, bits_b);
            let fast = &a * &b;
            let slow = BigUint::from_limbs(super::mul_schoolbook(a.limbs(), b.limbs()));
            assert_eq!(fast, slow, "{bits_a}x{bits_b}");
        }
    }

    proptest! {
        #[test]
        fn prop_karatsuba_equals_schoolbook(
            a_bytes in proptest::collection::vec(any::<u8>(), 200..600),
            b_bytes in proptest::collection::vec(any::<u8>(), 200..600),
        ) {
            let a = BigUint::from_bytes_be(&a_bytes);
            let b = BigUint::from_bytes_be(&b_bytes);
            let fast = &a * &b;
            let slow = BigUint::from_limbs(super::mul_schoolbook(a.limbs(), b.limbs()));
            prop_assert_eq!(fast, slow);
        }
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>()) {
            let ba = BigUint::from_bytes_be(&a.to_be_bytes());
            let bb = BigUint::from_bytes_be(&b.to_be_bytes());
            let sum = &ba + &bb;
            prop_assert_eq!(&sum - &bb, ba);
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let product = a as u128 * b as u128;
            let bp = &BigUint::from_u64(a) * &BigUint::from_u64(b);
            prop_assert_eq!(bp, BigUint::from_bytes_be(&product.to_be_bytes()));
        }

        #[test]
        fn prop_shift_roundtrip(a in any::<u128>(), s in 0usize..200) {
            let v = BigUint::from_bytes_be(&a.to_be_bytes());
            let back = &(&v << s) >> s;
            prop_assert_eq!(back, v);
        }

        #[test]
        fn prop_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let v = BigUint::from_bytes_be(&bytes);
            let out = v.to_bytes_be();
            let trimmed: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
            prop_assert_eq!(out, trimmed);
        }
    }
}
