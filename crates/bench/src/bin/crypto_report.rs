//! Emits `results/BENCH_rsa.json`: measured naive vs Montgomery modular
//! exponentiation on 512-bit RSA private-key operations, and the cost of
//! one SHA-256 compression (for reference only: it prices the hashing a
//! node does per transaction), in a machine-readable form for tracking
//! across commits.
//!
//! Run with: `cargo run -p biot-bench --release --bin crypto_report`

use biot_crypto::bignum::{BigUint, MontgomeryCtx};
use biot_crypto::rsa::RsaPrivateKey;
use biot_crypto::sha256::{sha256, BLOCK_LEN};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Mean seconds per call over `reps` invocations of `f`.
fn time_it<F: FnMut()>(reps: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// The CRT pieces `RsaPrivateKey` precomputes, rebuilt here from the
/// public accessors so both solvers below exponentiate the same problem.
struct CrtParts {
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl CrtParts {
    fn of(sk: &RsaPrivateKey) -> Self {
        let (p, q) = sk.factors();
        let d = sk.private_exponent();
        let one = BigUint::one();
        Self {
            p: p.clone(),
            q: q.clone(),
            dp: d.rem(&(p - &one)),
            dq: d.rem(&(q - &one)),
            qinv: q.modinv(p).expect("p, q are distinct primes"),
        }
    }

    /// Garner recombination of half-width residues `m1 = m^dp mod p`,
    /// `m2 = m^dq mod q`.
    fn recombine(&self, m1: &BigUint, m2: &BigUint) -> BigUint {
        // h = qinv * (m1 - m2) mod p, with m2 reduced into [0, p).
        let diff = (&(m1 + &self.p) - &m2.rem(&self.p)).rem(&self.p);
        let h = (&diff * &self.qinv).rem(&self.p);
        m2 + &(&self.q * &h)
    }

    fn private_op_naive(&self, m: &BigUint) -> BigUint {
        let m1 = m.modpow_naive(&self.dp, &self.p);
        let m2 = m.modpow_naive(&self.dq, &self.q);
        self.recombine(&m1, &m2)
    }

    fn private_op_mont(&self, ctx_p: &MontgomeryCtx, ctx_q: &MontgomeryCtx, m: &BigUint) -> BigUint {
        let m1 = ctx_p.modpow(m, &self.dp);
        let m2 = ctx_q.modpow(m, &self.dq);
        self.recombine(&m1, &m2)
    }
}

fn main() -> std::io::Result<()> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores: {cores}");

    let mut rng = StdRng::seed_from_u64(21);
    let sk = RsaPrivateKey::generate(512, &mut rng);
    let n = sk.public().modulus().clone();
    let d = sk.private_exponent().clone();
    let m = BigUint::from_bytes_be(&[0xA5u8; 64]).rem(&n);

    // Full-width private exponentiation m^d mod n: the naive oracle vs the
    // Montgomery context every dispatched modpow now uses.
    let ctx = MontgomeryCtx::new(n.clone()).expect("RSA modulus is odd");
    assert_eq!(ctx.modpow(&m, &d), m.modpow_naive(&d, &n));
    let full_naive = time_it(20, || {
        black_box(m.modpow_naive(&d, &n));
    });
    let full_mont = time_it(200, || {
        black_box(ctx.modpow(&m, &d));
    });
    let full_speedup = full_naive / full_mont.max(1e-12);
    println!(
        "full modpow 512  naive={:.3}ms  montgomery={:.3}ms  speedup={full_speedup:.1}x",
        full_naive * 1e3,
        full_mont * 1e3
    );

    // The CRT private op `sign`/`decrypt` actually perform, with both
    // half-width exponentiations swapped between solvers.
    let parts = CrtParts::of(&sk);
    let (p, q) = sk.factors();
    let ctx_p = MontgomeryCtx::new(p.clone()).expect("p is odd");
    let ctx_q = MontgomeryCtx::new(q.clone()).expect("q is odd");
    assert_eq!(
        parts.private_op_mont(&ctx_p, &ctx_q, &m),
        parts.private_op_naive(&m)
    );
    let crt_naive = time_it(40, || {
        black_box(parts.private_op_naive(&m));
    });
    let crt_mont = time_it(400, || {
        black_box(parts.private_op_mont(&ctx_p, &ctx_q, &m));
    });
    let crt_speedup = crt_naive / crt_mont.max(1e-12);
    println!(
        "CRT private op   naive={:.3}ms  montgomery={:.3}ms  speedup={crt_speedup:.1}x",
        crt_naive * 1e3,
        crt_mont * 1e3
    );

    // End-to-end library calls (cached contexts, CRT, padding, hashing).
    let sig = sk.sign(b"reading");
    let sign_secs = time_it(400, || {
        black_box(sk.sign(b"reading"));
    });
    let verify_secs = time_it(2000, || {
        black_box(sk.public().verify(b"reading", &sig));
    });
    println!(
        "library          sign={:.3}ms  verify={:.4}ms",
        sign_secs * 1e3,
        verify_secs * 1e3
    );

    // SHA-256 over a 64 KiB buffer: the per-block cost, the padding
    // block amortized away.
    let buf = vec![0x5Au8; 1 << 16];
    let sha_secs = time_it(200, || {
        black_box(sha256(black_box(&buf)));
    });
    let sha_ns_per_block = sha_secs * 1e9 / (buf.len() / BLOCK_LEN) as f64;
    println!("sha256           {sha_ns_per_block:.0} ns per 64-byte block");

    fs::create_dir_all("results")?;
    let mut f = fs::File::create("results/BENCH_rsa.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"host_cores\": {cores},")?;
    writeln!(f, "  \"rsa_bits\": 512,")?;
    writeln!(f, "  \"full_modpow\": {{")?;
    writeln!(f, "    \"naive_secs\": {full_naive:.9},")?;
    writeln!(f, "    \"montgomery_secs\": {full_mont:.9},")?;
    writeln!(f, "    \"speedup\": {full_speedup:.1}")?;
    writeln!(f, "  }},")?;
    writeln!(f, "  \"crt_private_op\": {{")?;
    writeln!(f, "    \"naive_secs\": {crt_naive:.9},")?;
    writeln!(f, "    \"montgomery_secs\": {crt_mont:.9},")?;
    writeln!(f, "    \"speedup\": {crt_speedup:.1}")?;
    writeln!(f, "  }},")?;
    writeln!(f, "  \"library_ops\": {{")?;
    writeln!(f, "    \"sign_secs\": {sign_secs:.9},")?;
    writeln!(f, "    \"verify_secs\": {verify_secs:.9}")?;
    writeln!(f, "  }},")?;
    writeln!(f, "  \"sha256\": {{")?;
    writeln!(f, "    \"ns_per_block\": {sha_ns_per_block:.1}")?;
    writeln!(f, "  }}")?;
    writeln!(f, "}}")?;
    println!("wrote results/BENCH_rsa.json");
    Ok(())
}
