//! Quickstart: the complete Fig 6 workflow in one file.
//!
//! 1. The manager initializes a gateway (and the tangle genesis) and
//!    authorizes an IoT device via a signed on-ledger list
//!    (`Gateway::bootstrap`).
//! 2. The device fetches two tips, mines at its credit-based difficulty,
//!    and submits a sensor reading.
//! 3. Activity lowers the device's difficulty; readings get cheaper.
//!
//! Run with: `cargo run --example quickstart`

use biot::core::difficulty::InverseProportionalPolicy;
use biot::core::identity::Account;
use biot::core::node::{Gateway, GatewayConfig, LightNode, Manager};
use biot::net::time::SimTime;

fn main() {
    let mut rng = rand::thread_rng();

    // --- Steps 1–3: manager boots the gateway and authorizes a device --
    let mut manager = Manager::new(Account::generate(&mut rng));
    let device = LightNode::new(Account::generate(&mut rng));
    let dev_id = device.id();
    let (mut gateway, genesis) = Gateway::bootstrap(
        &mut manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig::default(),
        [device.public_key()],
    );
    println!("genesis attached: {genesis:?}");
    println!("device {dev_id} authorized (list v{})", gateway.authz().version());

    // --- Steps 4–5: submit readings, watch difficulty adapt -------------
    let mut now = SimTime::from_secs(1);
    for i in 0..8 {
        let tips = gateway.random_tips(&mut rng).expect("tips available");
        let difficulty = gateway.difficulty_for(dev_id, now);
        let reading = format!("temp_c={:.1}", 20.0 + i as f64 * 0.2);
        let prepared = device.prepare_reading(reading.as_bytes(), tips, now, difficulty, &mut rng);
        let id = gateway
            .submit(prepared.tx, now)
            .expect("authorized reading accepted");
        let credit = gateway.credit_of(dev_id, now).combined;
        println!(
            "t={now} reading #{i}: {difficulty} (credit {credit:+.3}), \
             {} PoW trials -> {id:?}",
            prepared.trials
        );
        now += 2_000;
    }

    // Confirmations accumulate as later transactions approve earlier ones.
    let confirmed = gateway.refresh(now);
    println!(
        "\nledger: {} transactions, {} newly confirmed, {} tips",
        gateway.tangle().len(),
        confirmed.len(),
        gateway.tangle().tip_count()
    );
    println!(
        "difficulty after sustained honest activity: {} (started at D11)",
        gateway.difficulty_for(dev_id, now)
    );
}
