//! Microbench: indexed O(walk)-cost tip selection vs the legacy
//! per-selection rebuild (`select_tips_recount`).

use biot_tangle::graph::Tangle;
use biot_tangle::tips::{
    DepthConstrainedSelector, TipSelector, UniformRandomSelector, WeightedMcmcSelector,
};
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn build_tangle(n: usize) -> Tangle {
    let mut rng = StdRng::seed_from_u64(11);
    let mut tangle = Tangle::new();
    tangle.attach_genesis(NodeId([0; 32]), 0);
    for i in 0..n {
        let (a, b) = UniformRandomSelector
            .select_tips(&tangle, &mut rng)
            .unwrap();
        let tx = TransactionBuilder::new(NodeId([(i % 250) as u8; 32]))
            .parents(a, b)
            .payload(Payload::Data((i as u64).to_be_bytes().to_vec()))
            .timestamp_ms(i as u64 + 1)
            .build();
        tangle.attach(tx, i as u64 + 1).unwrap();
    }
    tangle
}

fn bench_tip_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("tip_selection");
    for n in [500usize, 2_000] {
        let tangle = build_tangle(n);
        let dc = DepthConstrainedSelector::new(0.3, 64);
        let weighted = WeightedMcmcSelector::new(0.3);

        let mut rng = StdRng::seed_from_u64(5);
        group.bench_with_input(BenchmarkId::new("depth_constrained_indexed", n), &n, |b, _| {
            b.iter(|| black_box(dc.select_tips(&tangle, &mut rng)))
        });
        let mut rng = StdRng::seed_from_u64(5);
        group.bench_with_input(BenchmarkId::new("depth_constrained_recount", n), &n, |b, _| {
            b.iter(|| black_box(dc.select_tips_recount(&tangle, &mut rng)))
        });
        let mut rng = StdRng::seed_from_u64(6);
        group.bench_with_input(BenchmarkId::new("weighted_indexed", n), &n, |b, _| {
            b.iter(|| black_box(weighted.select_tips(&tangle, &mut rng)))
        });
        let mut rng = StdRng::seed_from_u64(6);
        group.bench_with_input(BenchmarkId::new("weighted_recount", n), &n, |b, _| {
            b.iter(|| black_box(weighted.select_tips_recount(&tangle, &mut rng)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tip_selection);
criterion_main!(benches);
