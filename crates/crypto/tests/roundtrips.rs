//! Property-based roundtrip tests across the crypto crate: any data that
//! goes in must come out, and any tampering must be detected.

use biot_crypto::aes::{Aes, AesKey};
use biot_crypto::bignum::BigUint;
use biot_crypto::kdf::hkdf;
use biot_crypto::rsa::RsaPrivateKey;
use biot_crypto::sha256::{hmac_sha256, sha256, Sha256};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One fixed RSA key for all property cases (keygen per case is too slow).
fn shared_key() -> &'static RsaPrivateKey {
    use std::sync::OnceLock;
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xB107);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aes_cbc_roundtrip_any_plaintext(
        key_bytes in proptest::array::uniform32(any::<u8>()),
        iv in proptest::array::uniform16(any::<u8>()),
        plaintext in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let aes = Aes::new(&AesKey::Aes256(key_bytes));
        let ct = aes.encrypt_cbc(&plaintext, &iv);
        prop_assert_eq!(aes.decrypt_cbc(&ct, &iv).unwrap(), plaintext);
    }

    #[test]
    fn aes_ctr_is_an_involution(
        key_bytes in proptest::array::uniform16(any::<u8>()),
        nonce in proptest::array::uniform16(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let aes = Aes::new(&AesKey::Aes128(key_bytes));
        let once = aes.apply_ctr(&data, &nonce);
        prop_assert_eq!(aes.apply_ctr(&once, &nonce), data);
    }

    #[test]
    fn ciphertext_never_contains_long_plaintext_run(
        plaintext in proptest::collection::vec(any::<u8>(), 32..256),
    ) {
        // CBC with a fixed key: any 16-byte plaintext window must not
        // appear verbatim in the ciphertext (sanity, not a security proof).
        let aes = Aes::new(&AesKey::Aes256([0xA5; 32]));
        let ct = aes.encrypt_cbc(&plaintext, &[0x3C; 16]);
        for win in plaintext.windows(16) {
            prop_assert!(!ct.windows(16).any(|c| c == win));
        }
    }

    #[test]
    fn rsa_encrypt_decrypt_any_short_message(
        msg in proptest::collection::vec(any::<u8>(), 0..53),
        seed in any::<u64>(),
    ) {
        let sk = shared_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let ct = sk.public().encrypt(&msg, &mut rng).unwrap();
        prop_assert_eq!(sk.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn rsa_sign_verify_any_message(msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let sk = shared_key();
        let sig = sk.sign(&msg);
        prop_assert!(sk.public().verify(&msg, &sig));
        // Any single-bit flip in the signature must invalidate it.
        let mut bad = sig.clone();
        let idx = msg.len() % sig.len();
        bad[idx] ^= 1;
        prop_assert!(!sk.public().verify(&msg, &bad));
    }

    /// `verify_digest` on a message's SHA-256 decides exactly as `verify`
    /// on the message: valid, forged and truncated signatures alike.
    #[test]
    fn rsa_verify_digest_agrees_with_verify(
        msg in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 1usize..64,
    ) {
        let sk = shared_key();
        let pk = sk.public();
        let digest = sha256(&msg);
        let valid = sk.sign(&msg);
        prop_assert!(pk.verify_digest(&digest, &valid));
        let mut flipped = valid.clone();
        flipped[msg.len() % valid.len()] ^= 0x80;
        let mut other = msg.clone();
        other.push(0x01);
        let bad = [
            flipped,
            sk.sign(&other),
            vec![0xFF; valid.len()],
            valid[..valid.len() - cut].to_vec(),
            valid[cut..].to_vec(),
            Vec::new(),
        ];
        for sig in &bad {
            prop_assert!(!pk.verify_digest(&digest, sig));
            prop_assert!(!pk.verify(&msg, sig));
        }
    }

    #[test]
    fn sha256_is_deterministic_and_sensitive(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        flip in any::<usize>(),
    ) {
        let d1 = sha256(&data);
        prop_assert_eq!(d1, sha256(&data));
        let mut tampered = data.clone();
        let idx = flip % tampered.len();
        tampered[idx] ^= 0x01;
        prop_assert_ne!(d1, sha256(&tampered));
    }

    #[test]
    fn hmac_keys_separate_domains(
        k1 in proptest::collection::vec(any::<u8>(), 1..64),
        k2 in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    #[test]
    fn hkdf_output_is_context_bound(
        master in proptest::array::uniform32(any::<u8>()),
        info1 in proptest::collection::vec(any::<u8>(), 0..32),
        info2 in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        prop_assume!(info1 != info2);
        prop_assert_ne!(hkdf(None, &master, &info1, 32), hkdf(None, &master, &info2, 32));
    }

    #[test]
    fn midstate_resume_matches_oneshot(
        prefix in proptest::collection::vec(any::<u8>(), 0..130),
        suffix in proptest::collection::vec(any::<u8>(), 0..130),
    ) {
        // Snapshot after the prefix, resume with the suffix; lengths straddle
        // the 64-byte SHA-256 block boundary on both sides of the split.
        let mut h = Sha256::new();
        h.update(&prefix);
        let mid = h.midstate();
        let mut resumed = Sha256::from_midstate(&mid);
        resumed.update(&suffix);

        let mut oneshot = Sha256::new();
        oneshot.update(&prefix);
        oneshot.update(&suffix);
        prop_assert_eq!(resumed.finalize(), oneshot.finalize());
    }

    #[test]
    fn bignum_mul_div_roundtrip(
        a in proptest::collection::vec(any::<u8>(), 1..32),
        b in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let x = BigUint::from_bytes_be(&a);
        let y = BigUint::from_bytes_be(&b);
        prop_assume!(!y.is_zero());
        let product = &x * &y;
        let (q, r) = product.div_rem(&y);
        prop_assert_eq!(q, x);
        prop_assert!(r.is_zero());
    }
}
