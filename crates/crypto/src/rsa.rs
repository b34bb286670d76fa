//! RSA public-key encryption and signatures, implemented from scratch on
//! top of [`crate::bignum`].
//!
//! B-IoT uses one public-key primitive for two jobs (paper §IV-C, Fig 4):
//! signing transactions / protocol messages, and encrypting the symmetric
//! session key during key distribution. RSA provides both:
//!
//! * **Signatures** — PKCS#1 v1.5-style: SHA-256 the message, prepend a
//!   DigestInfo marker, pad, and exponentiate with the private key.
//! * **Encryption** — PKCS#1 v1.5 type-2 padding with random non-zero
//!   filler, exponentiation with the public key.
//!
//! # Examples
//!
//! ```
//! use biot_crypto::rsa::RsaPrivateKey;
//!
//! let mut rng = rand::thread_rng();
//! let sk = RsaPrivateKey::generate(512, &mut rng);
//! let sig = sk.sign(b"authorize device 7");
//! assert!(sk.public().verify(b"authorize device 7", &sig));
//! assert!(!sk.public().verify(b"authorize device 8", &sig));
//! ```

use crate::bignum::{gen_prime, BigUint, MontgomeryCtx};
use crate::sha256::sha256;
use rand::Rng;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Fixed public exponent (F4), the universal default.
pub const PUBLIC_EXPONENT: u64 = 65537;

/// Marker prefix identifying a SHA-256 DigestInfo in signature padding.
///
/// A simplified stand-in for the DER-encoded ASN.1 DigestInfo of PKCS#1:
/// it serves the same purpose (binding the hash algorithm into the signed
/// payload) without an ASN.1 encoder.
const DIGEST_INFO_SHA256: &[u8; 8] = b"SHA256::";

/// Minimum padding overhead for PKCS#1 v1.5 type-2 encryption.
const ENCRYPT_OVERHEAD: usize = 11;

/// Errors produced by RSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsaError {
    /// Plaintext too long for the key's modulus.
    MessageTooLong {
        /// Bytes supplied.
        got: usize,
        /// Maximum bytes this key can encrypt.
        max: usize,
    },
    /// Ciphertext is not a valid residue or padding failed to parse.
    Decrypt,
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::MessageTooLong { got, max } => {
                write!(f, "message of {got} bytes exceeds maximum {max} for this key")
            }
            RsaError::Decrypt => write!(f, "decryption failed"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key `(n, e)`.
///
/// Carries a lazily-built [`MontgomeryCtx`] for `n`, shared across clones,
/// so repeated verify/encrypt calls under the same key pay the context
/// precomputation once instead of re-deriving division state per multiply.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    /// Montgomery context for `n`; `None` inside the cell when `n` is even
    /// or degenerate (reachable via [`from_parts`](Self::from_parts)).
    mont: Arc<OnceLock<Option<MontgomeryCtx>>>,
}

// Identity is (n, e); the cached context is derived state and must not
// influence equality or hashing.
impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl std::hash::Hash for RsaPublicKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.n.hash(state);
        self.e.hash(state);
    }
}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("bits", &self.n.bits())
            .field("fingerprint", &self.fingerprint_hex())
            .finish()
    }
}

impl RsaPublicKey {
    /// Reassembles a public key from raw parts (e.g. deserialized bytes).
    pub fn from_parts(n: BigUint, e: BigUint) -> Self {
        Self {
            n,
            e,
            mont: Arc::new(OnceLock::new()),
        }
    }

    /// The cached Montgomery context for `n`, built on first use; `None`
    /// when `n` is even or ≤ 1 (such keys still work via the naive path).
    fn mont_ctx(&self) -> Option<&MontgomeryCtx> {
        self.mont
            .get_or_init(|| MontgomeryCtx::new(self.n.clone()))
            .as_ref()
    }

    /// Computes `m^e mod n` through the cached context when available.
    fn public_op(&self, m: &BigUint) -> BigUint {
        match self.mont_ctx() {
            Some(ctx) => ctx.modpow(m, &self.e),
            None => m.modpow_naive(&self.e, &self.n),
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in whole bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// SHA-256 fingerprint of the encoded key; used as a node's on-ledger
    /// identity in B-IoT.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut data = self.n.to_bytes_be();
        data.extend_from_slice(&self.e.to_bytes_be());
        sha256(&data)
    }

    /// First 8 bytes of [`fingerprint`](Self::fingerprint) as hex, for logs.
    pub fn fingerprint_hex(&self) -> String {
        crate::sha256::to_hex(&self.fingerprint()[..8])
    }

    /// Encrypts `plaintext` under this key with randomized type-2 padding.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::MessageTooLong`] if `plaintext` exceeds
    /// `modulus_len() - 11` bytes.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        plaintext: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, RsaError> {
        let k = self.modulus_len();
        let max = k.saturating_sub(ENCRYPT_OVERHEAD);
        if plaintext.len() > max {
            return Err(RsaError::MessageTooLong {
                got: plaintext.len(),
                max,
            });
        }
        // EM = 0x00 || 0x02 || PS (non-zero random) || 0x00 || M
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        let ps_len = k - plaintext.len() - 3;
        for _ in 0..ps_len {
            em.push(rng.gen_range(1u8..=255));
        }
        em.push(0x00);
        em.extend_from_slice(plaintext);
        let m = BigUint::from_bytes_be(&em);
        let c = self.public_op(&m);
        Ok(c.to_bytes_be_padded(k))
    }

    /// Verifies a signature produced by [`RsaPrivateKey::sign`].
    ///
    /// Returns `false` for any malformed or mismatching signature; never
    /// panics on attacker-controlled input.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        self.verify_digest(&sha256(message), signature)
    }

    /// Verifies a signature over the message whose SHA-256 is `digest`,
    /// for a caller that already holds that digest (a transaction id is
    /// the digest of the bytes its issuer signs).
    ///
    /// Returns `false` for any malformed or mismatching signature; never
    /// panics on attacker-controlled input.
    pub fn verify_digest(&self, digest: &[u8; 32], signature: &[u8]) -> bool {
        let k = self.modulus_len();
        if signature.len() != k {
            return false;
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return false;
        }
        let em = self.public_op(&s).to_bytes_be_padded(k);
        let expected = signature_payload(digest, k);
        crate::sha256::ct_eq(&em, &expected)
    }
}

/// An RSA private key with its public half.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    // Prime factors and CRT precomputation (d mod p-1, d mod q-1,
    // q^-1 mod p) for ~4x faster private-key operations.
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// Montgomery contexts for `(p, q)`, built on first private op and
    /// shared across clones.
    mont_pq: Arc<OnceLock<(MontgomeryCtx, MontgomeryCtx)>>,
}

impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey")
            .field("bits", &self.public.n.bits())
            .field("fingerprint", &self.public.fingerprint_hex())
            .finish()
    }
}

impl RsaPrivateKey {
    /// Generates a fresh key with a modulus of `bits` bits.
    ///
    /// 512 bits is comfortable for simulation; use ≥ 2048 for anything
    /// real. Generation retries until `gcd(e, φ) = 1`, which almost always
    /// succeeds on the first attempt.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 128` (too small to pad a message).
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 128, "RSA modulus must be at least 128 bits");
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bits() != bits {
                continue;
            }
            let one = BigUint::one();
            let phi = &(&p - &one) * &(&q - &one);
            let Some(d) = e.modinv(&phi) else { continue };
            let dp = d.rem(&(&p - &one));
            let dq = d.rem(&(&q - &one));
            let Some(qinv) = q.modinv(&p) else { continue };
            return Self {
                public: RsaPublicKey::from_parts(n, e),
                d,
                p,
                q,
                dp,
                dq,
                qinv,
                mont_pq: Arc::new(OnceLock::new()),
            };
        }
    }

    /// Borrows the public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent.
    pub fn private_exponent(&self) -> &BigUint {
        &self.d
    }

    /// Signs `message` (SHA-256 + deterministic padding + private
    /// exponentiation). Output length equals the modulus length.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = signature_payload(&sha256(message), k);
        let m = BigUint::from_bytes_be(&em);
        debug_assert!(m < self.public.n);
        let s = self.private_op(&m);
        s.to_bytes_be_padded(k)
    }

    /// Decrypts a ciphertext produced by [`RsaPublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::Decrypt`] when the ciphertext has the wrong
    /// length, is out of range, or unpads incorrectly (wrong key or
    /// tampering).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(RsaError::Decrypt);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(RsaError::Decrypt);
        }
        let em = self.private_op(&c).to_bytes_be_padded(k);
        // Parse 0x00 || 0x02 || PS || 0x00 || M
        if em.len() < ENCRYPT_OVERHEAD || em[0] != 0x00 || em[1] != 0x02 {
            return Err(RsaError::Decrypt);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(RsaError::Decrypt)?;
        if sep < 8 {
            return Err(RsaError::Decrypt); // PS must be ≥ 8 bytes
        }
        Ok(em[2 + sep + 1..].to_vec())
    }

    /// Maximum plaintext bytes a single [`RsaPublicKey::encrypt`] accepts.
    pub fn max_plaintext_len(&self) -> usize {
        self.public.modulus_len().saturating_sub(ENCRYPT_OVERHEAD)
    }

    /// The prime factors `(p, q)`; exposed for tests and diagnostics.
    pub fn factors(&self) -> (&BigUint, &BigUint) {
        (&self.p, &self.q)
    }

    /// The cached Montgomery contexts for `(p, q)`, built on first use.
    /// The only constructor is [`generate`](Self::generate), so both
    /// factors are guaranteed odd primes.
    fn mont_pq(&self) -> &(MontgomeryCtx, MontgomeryCtx) {
        self.mont_pq.get_or_init(|| {
            (
                MontgomeryCtx::new(self.p.clone()).expect("p is an odd prime"),
                MontgomeryCtx::new(self.q.clone()).expect("q is an odd prime"),
            )
        })
    }

    /// Computes `m^d mod n` via the Chinese Remainder Theorem (Garner's
    /// recombination), ~4x faster than a direct exponentiation because the
    /// two half-size exponentiations each cost an eighth of the full one.
    /// Each half runs through its cached Montgomery context (conversion
    /// reduces `m` mod the factor, so no explicit `rem` is needed).
    fn private_op(&self, m: &BigUint) -> BigUint {
        let (ctx_p, ctx_q) = self.mont_pq();
        let m1 = ctx_p.modpow(m, &self.dp);
        let m2 = ctx_q.modpow(m, &self.dq);
        // h = qinv * (m1 - m2) mod p  (lift m2 into the mod-p residue).
        let diff = if m1 >= m2 {
            &m1 - &m2
        } else {
            // m1 - m2 mod p, keeping everything unsigned.
            let deficit = (&m2 - &m1).rem(&self.p);
            if deficit.is_zero() {
                deficit
            } else {
                &self.p - &deficit
            }
        };
        let h = (&self.qinv * &diff).rem(&self.p);
        &m2 + &(&h * &self.q)
    }
}

/// Builds the deterministic signature block:
/// `0x00 || 0x01 || 0xFF.. || 0x00 || "SHA256::" || digest`, where
/// `digest` is the message's SHA-256.
fn signature_payload(digest: &[u8; 32], k: usize) -> Vec<u8> {
    let t_len = DIGEST_INFO_SHA256.len() + digest.len();
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    let ps_len = k.saturating_sub(t_len + 3);
    em.extend(std::iter::repeat_n(0xFF, ps_len));
    em.push(0x00);
    em.extend_from_slice(DIGEST_INFO_SHA256);
    em.extend_from_slice(digest);
    em
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_key(seed: u64) -> RsaPrivateKey {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaPrivateKey::generate(512, &mut rng)
    }

    #[test]
    fn keygen_produces_consistent_key() {
        let sk = test_key(1);
        let (p, q) = sk.factors();
        assert_eq!(sk.public().modulus(), &(p * q));
        assert_eq!(sk.public().modulus().bits(), 512);
        // e*d ≡ 1 mod φ(n)
        let one = BigUint::one();
        let phi = &(p - &one) * &(q - &one);
        assert!((sk.public().exponent() * sk.private_exponent()).rem(&phi).is_one());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let sk = test_key(2);
        let mut rng = StdRng::seed_from_u64(20);
        for msg in [&b""[..], b"x", b"a 32-byte symmetric session key!"] {
            let ct = sk.public().encrypt(msg, &mut rng).unwrap();
            assert_eq!(ct.len(), sk.public().modulus_len());
            assert_eq!(sk.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let sk = test_key(3);
        let mut rng = StdRng::seed_from_u64(30);
        let c1 = sk.public().encrypt(b"same", &mut rng).unwrap();
        let c2 = sk.public().encrypt(b"same", &mut rng).unwrap();
        assert_ne!(c1, c2);
        assert_eq!(sk.decrypt(&c1).unwrap(), b"same");
        assert_eq!(sk.decrypt(&c2).unwrap(), b"same");
    }

    #[test]
    fn message_too_long_rejected() {
        let sk = test_key(4);
        let max = sk.max_plaintext_len();
        let mut rng = StdRng::seed_from_u64(40);
        let too_long = vec![7u8; max + 1];
        assert_eq!(
            sk.public().encrypt(&too_long, &mut rng),
            Err(RsaError::MessageTooLong { got: max + 1, max })
        );
        let just_fits = vec![7u8; max];
        assert!(sk.public().encrypt(&just_fits, &mut rng).is_ok());
    }

    #[test]
    fn decrypt_with_wrong_key_fails() {
        let sk1 = test_key(5);
        let sk2 = test_key(6);
        let mut rng = StdRng::seed_from_u64(50);
        let ct = sk1.public().encrypt(b"secret", &mut rng).unwrap();
        // Wrong key: padding parse almost surely fails (or yields junk).
        match sk2.decrypt(&ct) {
            Err(RsaError::Decrypt) => {}
            Ok(pt) => assert_ne!(pt, b"secret".to_vec()),
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let sk = test_key(7);
        let mut rng = StdRng::seed_from_u64(70);
        let mut ct = sk.public().encrypt(b"secret", &mut rng).unwrap();
        ct[10] ^= 0xFF;
        match sk.decrypt(&ct) {
            Err(RsaError::Decrypt) => {}
            Ok(pt) => assert_ne!(pt, b"secret".to_vec()),
            Err(e) => panic!("unexpected {e}"),
        }
        assert_eq!(sk.decrypt(&[1, 2, 3]), Err(RsaError::Decrypt));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = test_key(8);
        let sig = sk.sign(b"manager authorizes PK_d1");
        assert_eq!(sig.len(), sk.public().modulus_len());
        assert!(sk.public().verify(b"manager authorizes PK_d1", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message_and_signature() {
        let sk = test_key(9);
        let sig = sk.sign(b"original");
        assert!(!sk.public().verify(b"forged", &sig));
        let mut bad = sig.clone();
        bad[0] ^= 1;
        assert!(!sk.public().verify(b"original", &bad));
        assert!(!sk.public().verify(b"original", &[]));
        assert!(!sk.public().verify(b"original", &vec![0xFF; sig.len()]));
    }

    #[test]
    fn verify_rejects_signature_from_other_key() {
        let sk1 = test_key(10);
        let sk2 = test_key(11);
        let sig = sk1.sign(b"msg");
        assert!(!sk2.public().verify(b"msg", &sig));
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let sk1 = test_key(12);
        let sk2 = test_key(13);
        assert_eq!(sk1.public().fingerprint(), sk1.public().fingerprint());
        assert_ne!(sk1.public().fingerprint(), sk2.public().fingerprint());
        assert_eq!(sk1.public().fingerprint_hex().len(), 16);
    }

    #[test]
    fn crt_matches_direct_exponentiation() {
        let sk = test_key(15);
        let mut rng = StdRng::seed_from_u64(150);
        for _ in 0..5 {
            let m = BigUint::random_below(&mut rng, sk.public().modulus());
            let direct = m.modpow(sk.private_exponent(), sk.public().modulus());
            let crt = sk.private_op(&m);
            assert_eq!(crt, direct);
        }
    }

    #[test]
    fn montgomery_private_op_matches_naive_oracle() {
        // The CRT path now runs entirely through cached Montgomery
        // contexts; it must agree bit-for-bit with naive square-and-multiply
        // under the full private exponent.
        let sk = test_key(16);
        let mut rng = StdRng::seed_from_u64(160);
        for _ in 0..5 {
            let m = BigUint::random_below(&mut rng, sk.public().modulus());
            let naive = m.modpow_naive(sk.private_exponent(), sk.public().modulus());
            assert_eq!(sk.private_op(&m), naive);
        }
    }

    #[test]
    fn even_modulus_key_still_verifies_via_naive_fallback() {
        // from_parts can deliver an even modulus (hostile or corrupt peer
        // data); public ops must not panic and must match the oracle.
        let sk = test_key(17);
        let sig = sk.sign(b"msg");
        let even = RsaPublicKey::from_parts(
            sk.public().modulus() + &BigUint::one(),
            sk.public().exponent().clone(),
        );
        assert!(!even.verify(b"msg", &sig));
        let s = BigUint::from_bytes_be(&sig);
        assert_eq!(
            even.public_op(&s),
            s.modpow_naive(even.exponent(), even.modulus())
        );
    }

    #[test]
    fn debug_redacts_private_material() {
        let sk = test_key(14);
        let s = format!("{sk:?}");
        assert!(s.contains("fingerprint"));
        assert!(!s.contains(&sk.private_exponent().to_hex()));
    }
}
