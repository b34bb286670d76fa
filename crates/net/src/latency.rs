//! Link latency models.

use rand::RngCore;
use std::fmt;

/// Samples a one-way message latency in milliseconds.
///
/// Models are objects so a transport can be configured with one at
/// runtime.
pub trait LatencyModel: fmt::Debug {
    /// Draws a latency for one message.
    fn sample_ms(&self, rng: &mut dyn RngCore) -> u64;
}

/// Constant latency.
#[derive(Debug, Clone, Copy)]
pub struct FixedLatency(
    /// Latency in milliseconds.
    pub u64,
);

impl LatencyModel for FixedLatency {
    fn sample_ms(&self, _rng: &mut dyn RngCore) -> u64 {
        self.0
    }
}

/// Uniform latency in `[min_ms, max_ms]`.
#[derive(Debug, Clone, Copy)]
pub struct UniformLatency {
    /// Inclusive lower bound.
    pub min_ms: u64,
    /// Inclusive upper bound.
    pub max_ms: u64,
}

impl UniformLatency {
    /// Creates a uniform model.
    ///
    /// # Panics
    ///
    /// Panics if `min_ms > max_ms`.
    pub fn new(min_ms: u64, max_ms: u64) -> Self {
        assert!(min_ms <= max_ms, "min must not exceed max");
        Self { min_ms, max_ms }
    }
}

impl LatencyModel for UniformLatency {
    fn sample_ms(&self, rng: &mut dyn RngCore) -> u64 {
        let span = self.max_ms - self.min_ms + 1;
        self.min_ms + rng.next_u64() % span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = FixedLatency(25);
        for _ in 0..10 {
            assert_eq!(m.sample_ms(&mut rng), 25);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = UniformLatency::new(10, 20);
        for _ in 0..1000 {
            let v = m.sample_ms(&mut rng);
            assert!((10..=20).contains(&v));
        }
    }

    #[test]
    fn uniform_degenerate_range() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(UniformLatency::new(5, 5).sample_ms(&mut rng), 5);
    }

    #[test]
    #[should_panic]
    fn uniform_inverted_range_panics() {
        UniformLatency::new(20, 10);
    }

    #[test]
    fn models_are_object_safe() {
        let models: Vec<Box<dyn LatencyModel>> = vec![
            Box::new(FixedLatency(1)),
            Box::new(UniformLatency::new(1, 2)),
        ];
        let mut rng = StdRng::seed_from_u64(4);
        for m in &models {
            let _ = m.sample_ms(&mut rng);
        }
    }
}
