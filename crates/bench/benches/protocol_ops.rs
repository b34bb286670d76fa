//! Protocol-level benchmarks: the Fig 4 handshake, gateway submission
//! pipeline, and credit computation.

use biot_core::difficulty::InverseProportionalPolicy;
use biot_core::identity::Account;
use biot_core::keydist::{DeviceSession, KeyDistConfig, ManagerSession};
use biot_core::node::{Gateway, GatewayConfig, LightNode, Manager};
use biot_credit::{CreditLedger, CreditParams, Misbehavior};
use biot_net::time::SimTime;
use biot_tangle::tx::NodeId;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_keydist_handshake(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let manager = Account::generate(&mut rng);
    let device = Account::generate(&mut rng);
    let cfg = KeyDistConfig::default();
    let mut group = c.benchmark_group("keydist");
    group.sample_size(20);
    group.bench_function("full_handshake_rsa512", |b| {
        let mut now = 0u64;
        b.iter(|| {
            now += 10;
            let (mut ms, m1) =
                ManagerSession::initiate(&manager, device.public_key(), now, &mut rng);
            let (mut ds, m2) =
                DeviceSession::handle_m1(&device, manager.public_key(), &m1, now, &cfg, &mut rng)
                    .unwrap();
            let m3 = ms
                .handle_m2(&manager, device.public_key(), &m2, now + 1, &cfg, &mut rng)
                .unwrap();
            ds.handle_m3(manager.public_key(), &m3, now + 2, &cfg).unwrap();
            ds
        });
    });
    group.finish();
}

fn bench_gateway_submit(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut manager = Manager::new(Account::generate(&mut rng));
    let device = LightNode::new(Account::generate(&mut rng));
    let (mut gateway, _) = Gateway::bootstrap(
        &mut manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig::default(),
        [device.public_key()],
    );

    let mut group = c.benchmark_group("gateway");
    group.sample_size(30);
    group.bench_function("prepare_and_submit_reading", |b| {
        let mut now = SimTime::from_secs(1);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            now += 500;
            let tips = gateway.random_tips(&mut rng).unwrap();
            // Honest pipeline: query the credit-based difficulty, mine at
            // it, submit. The first iterations mine at D11; as activity
            // accumulates the difficulty (and cost) drops — exactly the
            // mechanism under benchmark.
            let d = gateway.difficulty_for(device.id(), now);
            let p = device.prepare_reading(format!("{i}").as_bytes(), tips, now, d, &mut rng);
            gateway.submit(p.tx, now).expect("honest reading accepted")
        });
    });
    group.finish();
}

fn bench_credit_computation(c: &mut Criterion) {
    let mut reg = CreditLedger::new(CreditParams::default());
    let node = NodeId([1; 32]);
    for i in 0..1000u64 {
        reg.record_transaction(node, 1.0, SimTime::from_millis(i * 100));
        if i % 50 == 0 {
            reg.record_misbehavior(node, Misbehavior::LazyTips, SimTime::from_millis(i * 100));
        }
    }
    let now = SimTime::from_secs(120);
    c.bench_function("credit_of_1000_records", |b| {
        b.iter(|| reg.credit_of(node, now))
    });
    // The exact Eqn 2–5 rescan the incremental path is checked against.
    c.bench_function("credit_of_1000_records_recount", |b| {
        b.iter(|| reg.credit_of_recount(node, now))
    });
}

criterion_group!(
    benches,
    bench_keydist_handshake,
    bench_gateway_submit,
    bench_credit_computation
);
criterion_main!(benches);
