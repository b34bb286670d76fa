//! Parameters and value types of the credit model (Eqns 2 and 5), one
//! definition for every layer.

use serde::{Deserialize, Serialize};

/// Which misbehaviour was detected (Eqn 5's `B`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Misbehavior {
    /// Approving stale tips instead of fresh ones (§III "lazy tips").
    LazyTips,
    /// Attempting to spend the same token twice (§III).
    DoubleSpend,
}

/// Tunable parameters of the credit model.
///
/// Defaults are the paper's (§VI-A): λ1 = 1, λ2 = 0.5, ΔT = 30 s,
/// α_l = 0.5, α_d = 1.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CreditParams {
    /// Weight of the positive component (λ1).
    pub lambda1: f64,
    /// Weight of the negative component (λ2).
    pub lambda2: f64,
    /// The unit of time ΔT, in virtual milliseconds.
    pub delta_t_ms: u64,
    /// Punishment coefficient for lazy tips (α_l).
    pub alpha_lazy: f64,
    /// Punishment coefficient for double-spending (α_d).
    pub alpha_double_spend: f64,
    /// Floor for `t − t_k` in Eqn 4 (ms), preventing division by zero the
    /// instant a misbehaviour is recorded.
    pub min_elapsed_ms: u64,
}

impl Default for CreditParams {
    fn default() -> Self {
        Self {
            lambda1: 1.0,
            lambda2: 0.5,
            delta_t_ms: 30_000,
            alpha_lazy: 0.5,
            alpha_double_spend: 1.0,
            min_elapsed_ms: 100,
        }
    }
}

impl CreditParams {
    /// The punishment coefficient α(B) for a misbehaviour (Eqn 5).
    pub fn alpha(&self, b: Misbehavior) -> f64 {
        match b {
            Misbehavior::LazyTips => self.alpha_lazy,
            Misbehavior::DoubleSpend => self.alpha_double_spend,
        }
    }
}

/// A credit snapshot: the two components and the combined value (Eqn 2).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CreditBreakdown {
    /// CrP (Eqn 3).
    pub positive: f64,
    /// CrN (Eqn 4), ≤ 0.
    pub negative: f64,
    /// Cr = λ1·CrP + λ2·CrN.
    pub combined: f64,
}
