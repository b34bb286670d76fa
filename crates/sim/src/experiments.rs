//! One definition per paper experiment: the seeds, Pi calibration,
//! attack instants, loads, sample sizes and paper anchors of Figs 7–10
//! and the ablations A1–A2.
//!
//! Each experiment's `biot-bench` binary is its only front end: it runs
//! the definition here, prints its table and writes its `results/*.csv`.
//! The integration tests take their configurations from here too, so a
//! printed table, a committed CSV and a test can no longer disagree on
//! what was run. Experiments with a single caller (A3 `security_analysis`,
//! A4 `fleet`, `keydist`) keep their parameters in their binary.

use crate::pi::{AesTiming, PiCalibration};
use crate::runner::{run_single_node, NodeRunConfig, PolicyChoice, RunResult};
use biot_net::time::SimTime;

/// One 90 s (3·ΔT) single-node run on the Fig 9 Pi calibration, with
/// double-spends at `attacks_s` seconds.
fn single_node(policy: PolicyChoice, attacks_s: &[u64], seed: u64) -> NodeRunConfig {
    NodeRunConfig {
        duration: SimTime::from_secs(90),
        policy,
        attack_times: attacks_s.iter().map(|&s| SimTime::from_secs(s)).collect(),
        seed,
        ..NodeRunConfig::default()
    }
}

/// A policy and attack schedule averaged over seeds (Fig 9, A2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Averaged {
    /// Mean of the runs' average PoW time per transaction.
    pub avg_pow_secs: f64,
    /// Mean transaction attempts per run.
    pub attempts_per_run: f64,
    /// Mean accepted transactions per run.
    pub accepted_per_run: f64,
    /// Longest transaction gap over all runs, seconds.
    pub max_gap_secs: f64,
}

/// Runs `policy` under attacks at `attacks_s` seconds once per seed and
/// averages.
pub fn averaged(policy: PolicyChoice, attacks_s: &[u64], seeds: &[u64]) -> Averaged {
    let (mut pow, mut attempts, mut accepted, mut gap) = (0.0, 0usize, 0usize, 0.0f64);
    for &seed in seeds {
        let r = run_single_node(&single_node(policy, attacks_s, seed));
        pow += r.avg_pow_secs();
        attempts += r.outcomes.len();
        accepted += r.accepted_count();
        gap = gap.max(r.longest_gap_secs());
    }
    let n = seeds.len() as f64;
    Averaged {
        avg_pow_secs: pow / n,
        attempts_per_run: attempts as f64 / n,
        accepted_per_run: accepted as f64 / n,
        max_gap_secs: gap,
    }
}

/// Fig 7 — PoW running time against difficulty.
pub mod fig7 {
    use super::*;
    use biot_core::pow::{solve, Difficulty};
    use std::ops::RangeInclusive;
    use std::time::Instant;

    /// The paper's measured anchors on a Raspberry Pi 3B:
    /// `(difficulty, seconds)`. [`PiCalibration::fig7`] interpolates them.
    pub const PAPER_ANCHORS: [(u32, f64); 3] = [(1, 0.162), (12, 10.98), (14, 245.3)];

    /// The difficulties swept.
    pub const DIFFICULTIES: RangeInclusive<u32> = 1..=14;

    /// One row of Fig 7.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Row {
        /// Difficulty in bits.
        pub difficulty: u32,
        /// The Pi model's expected PoW time.
        pub pi_model_secs: f64,
        /// Mean wall time of a real nonce search on this host.
        pub host_secs: f64,
        /// Mean nonce trials of that search.
        pub host_avg_trials: f64,
    }

    /// Measures the row at difficulty `d`: the Pi model, and a real nonce
    /// search averaged over distinct preimages, fewer of them at the
    /// expensive end to keep the run short.
    pub fn row(d: u32) -> Row {
        let difficulty = Difficulty::new(d);
        let reps = match d {
            1..=8 => 64,
            9..=11 => 16,
            12 => 8,
            _ => 4,
        };
        let start = Instant::now();
        let trials: u64 = (0..reps)
            .map(|i| solve(&[d as u8, i as u8, 0xF7], difficulty, 0).trials)
            .sum();
        Row {
            difficulty: d,
            pi_model_secs: PiCalibration::fig7().expected_pow_secs(difficulty),
            host_secs: start.elapsed().as_secs_f64() / reps as f64,
            host_avg_trials: trials as f64 / reps as f64,
        }
    }
}

/// Fig 8 — credit value against node behaviour.
pub mod fig8 {
    use super::*;

    /// One panel: a single-node run under scheduled double-spends.
    #[derive(Clone, Copy, Debug)]
    pub struct Panel {
        /// Panel letter; the CSV is `results/fig8{label}.csv`.
        pub label: &'static str,
        /// Attack instants, seconds.
        pub attacks_s: &'static [u64],
        /// The longest transaction gap the paper shows.
        pub paper_gap: &'static str,
    }

    /// Panel (a): one attack at 24 s, a ~37 s gap, gradual recovery.
    /// Panel (b): attacks at 24 s and 50 s, a longer recovery.
    pub const PANELS: [Panel; 2] = [
        Panel { label: "a", attacks_s: &[24], paper_gap: "37s" },
        Panel { label: "b", attacks_s: &[24, 50], paper_gap: ">37s" },
    ];

    impl Panel {
        /// Runs the panel: 90 s of the credit-based policy at seed 24 on
        /// the Fig 8 Pi calibration (D14 ≈ 40 s per PoW, so the recovery
        /// gap lands in the paper's range).
        pub fn run(&self) -> RunResult {
            run_single_node(&NodeRunConfig {
                calibration: PiCalibration::fig8(),
                ..single_node(PolicyChoice::credit_based(), self.attacks_s, 24)
            })
        }
    }
}

/// Fig 9 — the four control experiments.
pub mod fig9 {
    use super::*;

    /// Seeds each control is [`averaged`] over.
    pub const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];

    /// One control experiment.
    #[derive(Clone, Copy, Debug)]
    pub struct Control {
        /// Label in the printed table.
        pub name: &'static str,
        /// Key in `results/fig9.csv`.
        pub key: &'static str,
        /// The paper's average PoW time per transaction.
        pub paper_secs: f64,
        /// Difficulty policy.
        pub policy: PolicyChoice,
        /// Attack instants, seconds.
        pub attacks_s: &'static [u64],
    }

    /// The control table: original PoW, then the credit-based policy
    /// under normal behaviour, one attack and two attacks.
    pub fn controls() -> [Control; 4] {
        [
            Control {
                name: "1 original PoW",
                key: "original_pow",
                paper_secs: 0.700,
                policy: PolicyChoice::original_pow(),
                attacks_s: &[],
            },
            Control {
                name: "2 credit-based, normal",
                key: "credit_normal",
                paper_secs: 0.118,
                policy: PolicyChoice::credit_based(),
                attacks_s: &[],
            },
            Control {
                name: "3 credit-based, 1 attack",
                key: "credit_1_attack",
                paper_secs: 1.667,
                policy: PolicyChoice::credit_based(),
                attacks_s: &[30],
            },
            Control {
                name: "4 credit-based, 2 attacks",
                key: "credit_2_attacks",
                paper_secs: 3.750,
                policy: PolicyChoice::credit_based(),
                attacks_s: &[20, 40],
            },
        ]
    }
}

/// Fig 10 — AES encryption time against message length.
pub mod fig10 {
    use super::*;
    use biot_crypto::aes::{Aes, AesKey};
    use std::ops::RangeInclusive;
    use std::time::Instant;

    /// Message lengths swept, as powers of two: 64 B to 1 MiB.
    pub const LOG2_SIZES: RangeInclusive<usize> = 6..=20;

    /// One row of Fig 10.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Row {
        /// Message length in bytes.
        pub bytes: usize,
        /// The Pi model's encryption time.
        pub pi_model_secs: f64,
        /// Mean wall time of AES-256-CBC on this host.
        pub host_secs: f64,
    }

    /// Measures the row for a `2^log2`-byte message.
    pub fn row(log2: usize) -> Row {
        let n = 1usize << log2;
        let aes = Aes::new(&AesKey::Aes256([0x42; 32]));
        let data = vec![0xABu8; n];
        let reps = if n <= 1 << 12 { 20 } else { 3 };
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(aes.encrypt_cbc(&data, &[7u8; 16]));
        }
        Row {
            bytes: n,
            pi_model_secs: AesTiming::default().expected_secs(n),
            host_secs: start.elapsed().as_secs_f64() / reps as f64,
        }
    }
}

/// A1 — tangle against chain effective throughput (§II).
pub mod a1 {
    use crate::throughput::{sweep, ComparisonRow, ThroughputConfig};
    use biot_net::time::SimTime;

    /// Offered loads swept, tx/s.
    pub const LOADS: [f64; 8] = [1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0];

    /// The workload and both systems at every load: 300 s runs.
    pub fn base() -> ThroughputConfig {
        ThroughputConfig { duration: SimTime::from_secs(300), ..ThroughputConfig::default() }
    }

    /// Runs the sweep.
    pub fn run() -> Vec<ComparisonRow> {
        sweep(&LOADS, &base())
    }
}

/// A2 — difficulty-policy ablation under its own attack schedule.
pub mod a2 {
    use super::*;
    use biot_core::difficulty::{InverseProportionalPolicy, LinearPolicy};

    /// Seeds each policy × scenario cell is [`averaged`] over.
    pub const SEEDS: [u64; 3] = [5, 6, 7];

    /// Scenarios: label and attack instants in seconds.
    pub const SCENARIOS: [(&str, &[u64]); 3] =
        [("normal", &[]), ("1 attack", &[30]), ("2 attacks", &[30, 55])];

    /// Policies: the paper's inverse map, a linear map, fixed D11.
    pub fn policies() -> [(&'static str, PolicyChoice); 3] {
        [
            ("inverse (paper)", PolicyChoice::Inverse(InverseProportionalPolicy::default())),
            ("linear", PolicyChoice::Linear(LinearPolicy::default())),
            ("fixed D11", PolicyChoice::original_pow()),
        ]
    }
}
