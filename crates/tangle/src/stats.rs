//! Ledger analytics: the numbers an operator dashboard or block explorer
//! shows about a tangle's health.
//!
//! Tip-pool health matters to the paper's threat model directly — a
//! swelling tip pool with stale tips is the visible symptom of the lazy
//! tips attack (§III) — so these statistics are also what a monitoring
//! rule would alert on.

use crate::graph::{Tangle, TxStatus};
use crate::tx::Payload;
use serde::{Deserialize, Serialize};

/// A summary of ledger health at one instant.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LedgerStats {
    /// Transactions attached, the genesis included.
    pub total: usize,
    /// Confirmed transactions.
    pub confirmed: usize,
    /// Current tips.
    pub tips: usize,
    /// Oldest tip age in virtual ms (0 when there are no tips).
    pub oldest_tip_age_ms: u64,
    /// Mean tip age in virtual ms.
    pub mean_tip_age_ms: f64,
    /// Distribution of cumulative weights: (min, mean, max).
    pub weight_min: u64,
    /// Mean cumulative weight.
    pub weight_mean: f64,
    /// Maximum cumulative weight (the genesis's).
    pub weight_max: u64,
    /// Payload mix: plain data transactions.
    pub data_txs: usize,
    /// Payload mix: encrypted data transactions.
    pub encrypted_txs: usize,
    /// Payload mix: token spends.
    pub spend_txs: usize,
    /// Payload mix: authorization lists.
    pub auth_txs: usize,
}

impl LedgerStats {
    /// Fraction of stored transactions that are confirmed.
    pub fn confirmation_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.confirmed as f64 / self.total as f64
        }
    }

    /// Fraction of sensor data that is encrypted — the deployment's
    /// sensitivity mix (§IV-C).
    pub fn encrypted_ratio(&self) -> f64 {
        let data = self.data_txs + self.encrypted_txs;
        if data == 0 {
            0.0
        } else {
            self.encrypted_txs as f64 / data as f64
        }
    }
}

/// Computes [`LedgerStats`] for `tangle` as of virtual time `now_ms`.
///
/// # Examples
///
/// ```
/// use biot_tangle::graph::Tangle;
/// use biot_tangle::stats::ledger_stats;
/// use biot_tangle::tx::NodeId;
///
/// let mut tangle = Tangle::new();
/// tangle.attach_genesis(NodeId([0; 32]), 0);
/// let stats = ledger_stats(&tangle, 1_000);
/// assert_eq!(stats.total, 1);
/// assert_eq!(stats.tips, 1);
/// assert_eq!(stats.oldest_tip_age_ms, 1_000);
/// ```
pub fn ledger_stats(tangle: &Tangle, now_ms: u64) -> LedgerStats {
    let mut stats = LedgerStats {
        total: tangle.len(),
        ..LedgerStats::default()
    };
    if tangle.is_empty() {
        return stats;
    }
    let tips = tangle.tips_set();
    stats.tips = tips.len();
    let mut tip_age_total = 0u64;
    for tip in tips {
        let age = now_ms.saturating_sub(tangle.attach_time_ms(tip).unwrap_or(now_ms));
        tip_age_total += age;
        stats.oldest_tip_age_ms = stats.oldest_tip_age_ms.max(age);
    }
    stats.mean_tip_age_ms = tip_age_total as f64 / tips.len().max(1) as f64;

    let mut weight_total = 0u64;
    stats.weight_min = u64::MAX;
    for tx in tangle.iter() {
        let id = tx.id();
        if tangle.status(&id) == Some(TxStatus::Confirmed) {
            stats.confirmed += 1;
        }
        let w = tangle.cumulative_weight(&id);
        weight_total += w;
        stats.weight_min = stats.weight_min.min(w);
        stats.weight_max = stats.weight_max.max(w);
        match &tx.payload {
            Payload::Data(_) => stats.data_txs += 1,
            Payload::EncryptedData { .. } => stats.encrypted_txs += 1,
            Payload::Spend { .. } => stats.spend_txs += 1,
            Payload::AuthList { .. } => stats.auth_txs += 1,
        }
    }
    stats.weight_mean = weight_total as f64 / tangle.len() as f64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tips::{TipSelector, UniformRandomSelector};
    use crate::tx::{NodeId, TransactionBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grow(n: usize, seed: u64) -> Tangle {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        for i in 0..n {
            let (a, b) = UniformRandomSelector.select_tips(&tangle, &mut rng).unwrap();
            let payload = match i % 3 {
                0 => Payload::Data(vec![i as u8]),
                1 => Payload::EncryptedData {
                    iv: [0; 16],
                    ciphertext: vec![i as u8],
                },
                _ => Payload::Spend {
                    token: {
                        let mut t = [0u8; 32];
                        t[0] = i as u8;
                        t
                    },
                    to: NodeId([1; 32]),
                },
            };
            let tx = TransactionBuilder::new(NodeId([1; 32]))
                .parents(a, b)
                .payload(payload)
                .timestamp_ms((i as u64 + 1) * 100)
                .build();
            tangle.attach(tx, (i as u64 + 1) * 100).unwrap();
        }
        tangle
    }

    #[test]
    fn empty_tangle_stats() {
        let s = ledger_stats(&Tangle::new(), 5_000);
        assert_eq!(s.total, 0);
        assert_eq!(s.confirmation_ratio(), 0.0);
        assert_eq!(s.encrypted_ratio(), 0.0);
    }

    #[test]
    fn counts_and_mix() {
        let mut tangle = grow(9, 1);
        tangle.confirm_with_threshold(3);
        let s = ledger_stats(&tangle, 2_000);
        assert_eq!(s.total, 10);
        // 3 of each payload kind plus the genesis data tx.
        assert_eq!(s.data_txs, 4);
        assert_eq!(s.encrypted_txs, 3);
        assert_eq!(s.spend_txs, 3);
        assert_eq!(s.auth_txs, 0);
        assert!(s.confirmed >= 1);
        assert!(s.confirmation_ratio() > 0.0);
        assert!((0.0..=1.0).contains(&s.encrypted_ratio()));
    }

    #[test]
    fn weight_bounds_are_consistent() {
        let tangle = grow(20, 2);
        let s = ledger_stats(&tangle, 10_000);
        assert_eq!(s.weight_max, tangle.len() as u64, "genesis weight");
        assert_eq!(s.weight_min, 1, "fresh tips weigh 1");
        assert!(s.weight_mean >= 1.0 && s.weight_mean <= s.weight_max as f64);
    }

    #[test]
    fn tip_ages_track_the_clock() {
        let tangle = grow(5, 3);
        let early = ledger_stats(&tangle, 600);
        let late = ledger_stats(&tangle, 60_000);
        assert!(late.oldest_tip_age_ms > early.oldest_tip_age_ms);
        assert!(late.mean_tip_age_ms > early.mean_tip_age_ms);
        assert_eq!(early.tips, late.tips);
    }

    #[test]
    fn lazy_attack_is_visible_in_tip_stats() {
        // An attacker spamming transactions that approve one fixed old
        // pair inflates the tip pool (§III): every spam tx is a new tip
        // that nothing honest will approve.
        let mut rng = StdRng::seed_from_u64(4);
        let mut tangle = grow(10, 4);
        let victims = (tangle.tips()[0], tangle.tips()[0]);
        let before = ledger_stats(&tangle, 2_000).tips;
        for i in 0..8 {
            let tx = TransactionBuilder::new(NodeId([9; 32]))
                .parents(victims.0, victims.1)
                .payload(Payload::Data(vec![0xEE, i as u8]))
                .timestamp_ms(2_000 + i as u64)
                .build();
            tangle.attach(tx, 2_000 + i as u64).unwrap();
        }
        let _ = &mut rng;
        let after = ledger_stats(&tangle, 3_000).tips;
        assert!(after > before + 5, "tip pool inflated: {before} -> {after}");
    }
}
