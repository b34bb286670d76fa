//! Integration tests asserting the *qualitative claims* of every paper
//! figure — the same checks the bench harness prints, locked in as tests
//! so regressions in the reproduction are caught by `cargo test`. Each
//! runs its experiment's one definition in `biot::sim::experiments`,
//! sometimes on fewer seeds than the figure binary.

use biot::core::pow::Difficulty;
use biot::sim::experiments::{a1, averaged, fig7, fig8, fig9};
use biot::sim::throughput::{run_chain, run_tangle, ThroughputConfig};
use biot::sim::{AesTiming, PiCalibration};

/// Fig 7: PoW time grows monotonically and super-linearly in difficulty,
/// both in the calibrated model and in real trial counts.
#[test]
fn fig7_pow_time_exponential_shape() {
    let cal = PiCalibration::fig7();
    let mut last = 0.0;
    for d in 1..=14u32 {
        let t = cal.expected_pow_secs(Difficulty::new(d));
        assert!(t > last);
        last = t;
    }
    // Paper anchors reproduced exactly.
    assert!((cal.expected_pow_secs(Difficulty::new(1)) - 0.162).abs() < 1e-9);
    assert!((cal.expected_pow_secs(Difficulty::new(14)) - 245.3).abs() < 1e-6);

    // Real hashing: average trials at D=12 dwarf D=6 (expected ratio 64×;
    // allow generous slack for small-sample noise).
    let avg = |d: u32| fig7::row(d).host_avg_trials;
    assert!(avg(12) > avg(6) * 8.0);
}

/// Fig 8(a): one attack collapses credit, pins difficulty at the clamp,
/// opens a transaction gap, and decays back.
#[test]
fn fig8a_attack_trace_shape() {
    let [panel_a, _] = fig8::PANELS;
    assert_eq!(panel_a.attacks_s, [24]);
    let r = panel_a.run();
    // Pre-attack credit is non-negative; post-attack trough is deep.
    let pre = r.samples.iter().find(|s| s.t_secs == 20.0).unwrap();
    assert!(pre.cr >= 0.0);
    let trough = r.samples.iter().cloned().fold(f64::INFINITY, |a, s| a.min(s.cr));
    assert!(trough < -3.0, "trough {trough}");
    // Difficulty hits the clamp right after the attack.
    assert!(r.samples.iter().any(|s| s.difficulty == 14));
    // A long gap opens (paper: ~37 s) and transactions resume afterwards.
    assert!(r.longest_gap_secs() > 15.0, "gap {}", r.longest_gap_secs());
    let last_tx = r.outcomes.iter().rfind(|o| o.accepted).unwrap();
    assert!(last_tx.submitted_at_secs > 50.0, "recovery happened");
}

/// Fig 8(b): two attacks dig a deeper, longer-lasting hole than one.
#[test]
fn fig8b_two_attacks_worse_than_one() {
    let [one, two] = fig8::PANELS.map(|p| p.run());
    let trough = |r: &biot::sim::RunResult| {
        r.samples.iter().fold(f64::INFINITY, |a, s| a.min(s.cr))
    };
    let late_credit = |r: &biot::sim::RunResult| r.samples.last().unwrap().cr;
    assert!(two.accepted_count() <= one.accepted_count());
    assert!(late_credit(&two) <= late_credit(&one) + 1e-9);
    assert!(trough(&two) <= trough(&one) + 1e-9);
}

/// Fig 9: the four-control ordering — normal credit-based is fastest,
/// original PoW in between, attacked nodes slowest, two attacks worst.
#[test]
fn fig9_control_ordering() {
    // One of the figure's seeds keeps the test quick.
    let [original, normal, one_attack, two_attacks] =
        fig9::controls().map(|c| averaged(c.policy, c.attacks_s, &fig9::SEEDS[..1]).avg_pow_secs);

    assert!(normal < original, "normal {normal} vs original {original}");
    assert!(one_attack > original, "one {one_attack} vs original {original}");
    assert!(two_attacks > one_attack, "two {two_attacks} vs one {one_attack}");
    // Paper's headline factor: ~5.9× speedup for honest nodes. Accept a
    // broad band — the exact ratio depends on think-time calibration.
    let speedup = original / normal;
    assert!(speedup > 3.0, "speedup {speedup}");
}

/// Fig 10: AES cost is linear in message length and matches the paper's
/// Pi anchors; a 256 KiB message stays well under a second.
#[test]
fn fig10_aes_linear_and_cheap() {
    let t = AesTiming::default();
    assert!((t.expected_ms(64) - 0.205).abs() < 1e-9);
    assert!((t.expected_ms(1 << 20) - 1491.0).abs() < 1.0);
    let quarter_mib = t.expected_secs(256 * 1024);
    assert!(quarter_mib < 0.5, "256 KiB costs {quarter_mib}s");
    // Linearity: doubling the length roughly doubles the cost at scale.
    let r = t.expected_ms(1 << 19) / t.expected_ms(1 << 18);
    assert!((r - 2.0).abs() < 0.1, "ratio {r}");
}

/// A1: the tangle sustains an offered load that saturates the chain.
#[test]
fn a1_tangle_outscales_chain() {
    let cfg = ThroughputConfig { offered_tps: 50.0, ..a1::base() };
    let t = run_tangle(&cfg);
    let c = run_chain(&cfg);
    assert!(t.effective_tps > 45.0, "tangle tps {}", t.effective_tps);
    assert!(c.effective_tps < 15.0, "chain tps {}", c.effective_tps);
    assert!(t.mean_latency_s < 0.1);
    assert!(c.mean_latency_s > 1.0);
}
