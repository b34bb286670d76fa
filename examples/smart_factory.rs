//! Smart factory: the paper's case study (§IV-A) end to end.
//!
//! A fleet of mixed sensors (temperature, humidity, vibration, recipe
//! parameters, production counters) reports through a gateway. Sensitive
//! sensors first obtain an AES session key from the manager via the Fig 4
//! handshake and post ciphertext; public sensors post plaintext. A
//! second factory then reads the shared recipe data with the key — the
//! paper's "break down data siloes" story — while an outsider cannot.
//!
//! Run with: `cargo run --example smart_factory`

use biot::core::access::{DataProtector, Sensitivity};
use biot::core::difficulty::InverseProportionalPolicy;
use biot::core::identity::Account;
use biot::core::keydist::DeviceSession;
use biot::core::node::{Gateway, GatewayConfig, LightNode, Manager};
use biot::net::time::SimTime;
use biot::sim::factory::{default_fleet, SensorKind};
use biot::tangle::tx::Payload;

fn main() {
    let mut rng = rand::thread_rng();

    // Boot the factory.
    let mut manager = Manager::new(Account::generate(&mut rng));

    // Build a fleet of 5 sensors (one of each kind) as light nodes.
    let specs = default_fleet(5);
    let mut nodes: Vec<LightNode> = (0..specs.len())
        .map(|_| LightNode::new(Account::generate(&mut rng)))
        .collect();
    let (mut gateway, _) = Gateway::bootstrap(
        &mut manager,
        Box::new(InverseProportionalPolicy::default()),
        GatewayConfig::default(),
        nodes.iter().map(LightNode::public_key),
    );
    println!("factory booted: {} sensors authorized", nodes.len());

    // Sensitive sensors run the Fig 4 key-distribution handshake.
    let cfg = *manager.keydist_config();
    let mut shared_keys = Vec::new();
    for (spec, node) in specs.iter().zip(nodes.iter_mut()) {
        if spec.kind.sensitivity() != Sensitivity::Sensitive {
            continue;
        }
        let dev_id = node.id();
        let m1 = manager.start_key_distribution(dev_id, SimTime::from_millis(100), &mut rng);
        let (mut ds, m2) =
            DeviceSession::handle_m1(node.account(), manager.public_key(), &m1, 100, &cfg, &mut rng)
                .expect("M1 verifies");
        let m3 = manager
            .handle_m2(dev_id, &m2, SimTime::from_millis(110), &mut rng)
            .expect("M2 verifies");
        ds.handle_m3(manager.public_key(), &m3, 120, &cfg)
            .expect("M3 verifies");
        let key = ds.session_key().expect("handshake complete").clone();
        node.install_session_key(key.clone());
        shared_keys.push(key);
        println!("  key distributed to {:?} sensor {dev_id}", spec.kind);
    }

    // One reporting round per sensor over 60 virtual seconds.
    let mut now = SimTime::from_secs(1);
    let mut posted = Vec::new();
    for round in 0..6 {
        for (spec, node) in specs.iter().zip(nodes.iter()) {
            let reading = spec.reading_at(now.as_millis(), &mut rng);
            let tips = gateway.random_tips(&mut rng).unwrap();
            let difficulty = gateway.difficulty_for(node.id(), now);
            let prepared = node.prepare_reading(&reading, tips, now, difficulty, &mut rng);
            let encrypted = matches!(prepared.tx.payload, Payload::EncryptedData { .. });
            let id = gateway.submit(prepared.tx, now).expect("accepted");
            if round == 0 {
                println!(
                    "  {:?} posts {} ({}): {id:?}",
                    spec.kind,
                    String::from_utf8_lossy(&reading),
                    if encrypted { "ciphertext" } else { "plaintext" }
                );
            }
            posted.push((spec.kind, id));
            now += 500;
        }
        now += 5_000;
    }
    gateway.refresh(now);
    println!(
        "\nafter 6 rounds: {} transactions on the ledger, {} tips",
        gateway.tangle().len(),
        gateway.tangle().tip_count()
    );

    // Cross-factory data sharing: factory B holds the session key and
    // reads the recipe; an outsider sees only ciphertext.
    let recipe_tx = posted
        .iter()
        .find(|(kind, _)| *kind == SensorKind::RecipeParameters)
        .expect("a recipe reading was posted");
    let payload = &gateway.tangle().get(&recipe_tx.1).unwrap().payload;

    let factory_b = DataProtector::sensitive(shared_keys[0].clone());
    let recipe = factory_b.open(payload).expect("authorized factory reads");
    println!(
        "\nfactory B (has key) reads shared recipe: {}",
        String::from_utf8_lossy(&recipe)
    );
    let outsider = DataProtector::public();
    match outsider.open(payload) {
        Err(e) => println!("outsider (no key) is refused: {e}"),
        Ok(_) => unreachable!("confidentiality violated"),
    }
}
