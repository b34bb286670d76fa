//! Persistence: a gateway replica surviving a restart.
//!
//! Runs a factory for a while, checkpoints the ledger to disk, appends
//! more transactions to the write-ahead log, "crashes", and recovers —
//! then exports the recovered tangle as Graphviz DOT. Exits with an error
//! unless the recovered tangle has the live one's attach order and tips.
//!
//! Run with: `cargo run --example persistence`

use biot::core::difficulty::InverseProportionalPolicy;
use biot::core::identity::Account;
use biot::core::node::{Gateway, GatewayConfig, LightNode, Manager};
use biot::net::time::SimTime;
use biot::store::LedgerStore;
use biot::tangle::viz::to_dot;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("biot-persist-demo-{}", std::process::id()));
    let mut store = LedgerStore::open(&dir)?;
    let mut rng = rand::thread_rng();

    // Boot a small factory.
    let mut manager = Manager::new(Account::generate(&mut rng));
    let device = LightNode::new(Account::generate(&mut rng));
    let (mut gateway, _) = Gateway::bootstrap(
        &mut manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig { record_broadcasts: true, ..GatewayConfig::default() },
        [device.public_key()],
    );
    // The genesis and the auth list, in attach order.
    for tx in gateway.take_broadcasts() {
        store.append(&tx, 0)?;
    }

    // Phase 1: some readings, then a checkpoint.
    let mut now = SimTime::from_secs(1);
    for i in 0..5 {
        let tips = gateway.random_tips(&mut rng).unwrap();
        let diff = gateway.difficulty_for(device.id(), now);
        let p = device.prepare_reading(format!("pre-{i}").as_bytes(), tips, now, diff, &mut rng);
        let tx = p.tx.clone();
        gateway.submit(p.tx, now)?;
        store.append(&tx, now.as_millis())?;
        now += 1_000;
    }
    gateway.refresh(now);
    store.checkpoint(gateway.tangle())?;
    println!(
        "checkpointed {} transactions; WAL reset to {} bytes",
        gateway.tangle().len(),
        store.wal_size()?
    );

    // Phase 2: more readings land in the WAL only.
    for i in 0..3 {
        let tips = gateway.random_tips(&mut rng).unwrap();
        let diff = gateway.difficulty_for(device.id(), now);
        let p = device.prepare_reading(format!("post-{i}").as_bytes(), tips, now, diff, &mut rng);
        let tx = p.tx.clone();
        gateway.submit(p.tx, now)?;
        store.append(&tx, now.as_millis())?;
        now += 1_000;
    }
    let live_order = gateway.tangle().attach_order().to_vec();
    let live_tips = gateway.tangle().tips();
    println!("live ledger: {} transactions; crashing now…", live_order.len());
    drop(gateway);
    drop(store);

    // Phase 3: recovery.
    let recovered = LedgerStore::open(&dir)?
        .recover_full().map(|s| s.tangle)?
        .expect("state was persisted");
    let identical = recovered.attach_order() == live_order && recovered.tips() == live_tips;
    println!(
        "recovered ledger: {} transactions ({} tips) — identical to pre-crash: {identical}",
        recovered.len(),
        recovered.tip_count(),
    );
    if !identical {
        std::fs::remove_dir_all(&dir).ok();
        return Err("recovered tangle differs from the live one".into());
    }

    // Export for inspection.
    let dot = to_dot(&recovered);
    let dot_path = dir.join("tangle.dot");
    std::fs::write(&dot_path, &dot)?;
    println!(
        "DOT export written to {} ({} bytes) — render with `dot -Tsvg`",
        dot_path.display(),
        dot.len()
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
