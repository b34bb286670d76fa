//! Emits `results/BENCH_pow.json`: measured PoW solve timings and the
//! weight-index speedup, in a machine-readable form for tracking across
//! commits.
//!
//! Run with: `cargo run -p biot-bench --release --bin pow_report`

use biot_core::pow::{solve, Difficulty};
use biot_tangle::graph::Tangle;
use biot_tangle::tips::{TipSelector, UniformRandomSelector};
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::Write;
use std::time::Instant;

/// Mean seconds per solve over `reps` distinct preimages. The preimage set
/// depends only on `(difficulty, i)`, so every run searches the same
/// problems — trial counts are geometric, so an unshared set would drown
/// a comparison across commits in variance.
fn time_solver(difficulty: Difficulty, reps: u32) -> f64 {
    let start = Instant::now();
    for i in 0..reps {
        let preimage = [difficulty.bits() as u8, i as u8, 0xB1];
        solve(&preimage, difficulty, 0);
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn build_tangle(n: usize) -> Tangle {
    let mut rng = StdRng::seed_from_u64(9);
    let mut tangle = Tangle::new();
    tangle.attach_genesis(NodeId([0; 32]), 0);
    for i in 0..n {
        let (a, b) = UniformRandomSelector
            .select_tips(&tangle, &mut rng)
            .unwrap();
        let tx = TransactionBuilder::new(NodeId([(i % 250) as u8; 32]))
            .parents(a, b)
            .payload(Payload::Data((i as u64).to_be_bytes().to_vec()))
            .timestamp_ms(i as u64)
            .build();
        tangle.attach(tx, i as u64).unwrap();
    }
    tangle
}

fn main() -> std::io::Result<()> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores: {cores}");
    let mut rows = Vec::new();
    for bits in [10u32, 12, 14] {
        let difficulty = Difficulty::new(bits);
        let reps = if bits >= 14 { 8 } else { 32 };
        let serial = time_solver(difficulty, reps);
        println!("D={bits:>2}  serial={serial:.4}s");
        rows.push(format!(
            "    {{\"difficulty\": {bits}, \"serial_secs\": {serial:.6}}}"
        ));
    }

    // Weight index vs BFS recount at the genesis (the deepest query).
    let tangle = build_tangle(2000);
    let genesis = tangle.genesis().unwrap();
    let reps = 200u32;
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(tangle.cumulative_weight_recount(&genesis));
    }
    let bfs = start.elapsed().as_secs_f64() / reps as f64;
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(tangle.cumulative_weight(&genesis));
    }
    let indexed = start.elapsed().as_secs_f64() / reps as f64;
    println!(
        "weight(genesis, 2k txs)  bfs={:.2}us  indexed={:.3}us  speedup={:.0}x",
        bfs * 1e6,
        indexed * 1e6,
        bfs / indexed.max(1e-12)
    );

    fs::create_dir_all("results")?;
    let mut f = fs::File::create("results/BENCH_pow.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"host_cores\": {cores},")?;
    writeln!(f, "  \"pow\": [")?;
    writeln!(f, "{}", rows.join(",\n"))?;
    writeln!(f, "  ],")?;
    writeln!(f, "  \"weight_index\": {{")?;
    writeln!(f, "    \"tangle_size\": 2000,")?;
    writeln!(f, "    \"bfs_recount_secs\": {bfs:.9},")?;
    writeln!(f, "    \"indexed_secs\": {indexed:.9},")?;
    writeln!(
        f,
        "    \"speedup\": {:.1}",
        bfs / indexed.max(1e-12)
    )?;
    writeln!(f, "  }}")?;
    writeln!(f, "}}")?;
    println!("wrote results/BENCH_pow.json");
    Ok(())
}
