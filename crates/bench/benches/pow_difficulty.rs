//! Criterion bench backing Fig 7: real nonce searches per difficulty.
//!
//! Expect roughly 2× time per added bit — the exponential shape of the
//! paper's Fig 7 with our zero-bits difficulty unit.

use biot_core::pow::{meets, pow_hash, solve, Difficulty};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("pow_solve");
    group.sample_size(10);
    for bits in [4u32, 6, 8, 10, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let mut i = 0u64;
            b.iter(|| {
                // Vary the preimage each iteration so criterion measures the
                // average-case search, not one lucky nonce.
                i += 1;
                let preimage = i.to_be_bytes();
                solve(&preimage, Difficulty::new(bits), 0)
            });
        });
    }
    group.finish();
}

fn bench_verify(c: &mut Criterion) {
    let sol = solve(b"verify-target", Difficulty::new(12), 0);
    c.bench_function("pow_verify", |b| {
        b.iter(|| meets(&pow_hash(b"verify-target", sol.nonce), Difficulty::new(12)))
    });
}

criterion_group!(benches, bench_solve, bench_verify);
criterion_main!(benches);
