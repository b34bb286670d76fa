//! The `biot` command-line tool: small utilities around the ledger. The
//! Fig 6 workflow is `examples/quickstart.rs`; each paper experiment is
//! its `biot-bench` binary (`cargo run -p biot-bench --release --bin
//! fig9`, ...).
//!
//! ```text
//! biot keygen [bits]        generate an RSA account, print its identity
//! biot dot [n]              build a small random tangle, print DOT
//! biot stats [n]            build a small random tangle, print analytics
//! biot help                 this text
//! ```

use biot::core::identity::Account;
use biot::tangle::viz::to_dot;
use std::process::ExitCode;

const HELP: &str = "\
biot — B-IoT reproduction toolkit (ICDCS 2019)

USAGE:
    biot <command> [args]

COMMANDS:
    keygen [bits]       Generate an RSA account (default 512 bits)
    dot [n]             Print a random n-transaction tangle as Graphviz DOT
    stats [n]           Build a random n-transaction tangle, print analytics
    help                Show this text

The Fig 6 workflow:  cargo run --example quickstart
Paper experiments:   cargo run -p biot-bench --release --bin <fig7|fig8|fig9|fig10|...>
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "keygen" => {
            let bits = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(512usize);
            keygen(bits)
        }
        "dot" => {
            let n = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(12usize);
            dot(n)
        }
        "stats" => {
            let n = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(50usize);
            stats(n)
        }
        "help" | "--help" | "-h" => {
            println!("{HELP}");
        }
        other => {
            eprintln!("unknown command {other:?}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn keygen(bits: usize) {
    let mut rng = rand::thread_rng();
    let account = Account::generate_with_bits(bits, &mut rng);
    println!("modulus bits : {bits}");
    println!("node id      : {}", account.id());
    println!(
        "public key   : n={}… e={}",
        &account.public_key().modulus().to_hex()[..32.min(bits / 4)],
        account.public_key().exponent()
    );
}

fn stats(n: usize) {
    use biot::tangle::stats::ledger_stats;
    let tangle = build_random_tangle(n);
    let s = ledger_stats(&tangle, (n as u64 + 1) * 1000);
    println!("transactions : {}", s.total);
    println!("confirmed    : {} ({:.0}%)", s.confirmed, s.confirmation_ratio() * 100.0);
    println!("tips         : {} (oldest {} ms, mean {:.0} ms)", s.tips, s.oldest_tip_age_ms, s.mean_tip_age_ms);
    println!("weights      : min {} / mean {:.1} / max {}", s.weight_min, s.weight_mean, s.weight_max);
    println!(
        "payload mix  : {} data, {} encrypted, {} spends, {} auth lists",
        s.data_txs, s.encrypted_txs, s.spend_txs, s.auth_txs
    );
}

fn build_random_tangle(n: usize) -> biot::tangle::graph::Tangle {
    use biot::tangle::graph::Tangle;
    use biot::tangle::tips::{TipSelector, UniformRandomSelector};
    use biot::tangle::tx::{NodeId, Payload, TransactionBuilder};
    let mut rng = rand::thread_rng();
    let mut tangle = Tangle::new();
    tangle.attach_genesis(NodeId([0; 32]), 0);
    for i in 0..n {
        let (a, b) = UniformRandomSelector
            .select_tips(&tangle, &mut rng)
            .unwrap();
        let tx = TransactionBuilder::new(NodeId([(i % 9) as u8 + 1; 32]))
            .parents(a, b)
            .payload(Payload::Data(vec![i as u8]))
            .timestamp_ms((i as u64 + 1) * 1000)
            .build();
        tangle.attach(tx, (i as u64 + 1) * 1000).unwrap();
    }
    tangle.confirm_with_threshold(3);
    tangle
}

fn dot(n: usize) {
    print!("{}", to_dot(&build_random_tangle(n)));
}
