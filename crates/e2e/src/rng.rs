//! The benchmark's own seeded generator and arrival schedules: every input
//! a workload sees is a function of `--seed` alone.

/// xorshift64* seeded through one splitmix64 step (so small seeds such as
/// 0, 1, 2 start far apart and the state is never zero).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Self(if z == 0 { 0x2545_f491_4f6c_dd1d } else { z })
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times, in nanoseconds from the phase start, of a Poisson arrival
/// process at `rate_per_s` over `seconds`, conditioned on its expected
/// count: `round(rate · seconds)` instants drawn uniformly and sorted.
/// Fixing the count keeps the offered load identical across seeds, so a
/// throughput metric does not inherit the count's own √N noise.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let n = (rate_per_s * seconds).round() as usize;
    let span_ns = seconds * 1e9;
    let mut due: Vec<u64> = (0..n).map(|_| (rng.next_f64() * span_ns) as u64).collect();
    due.sort_unstable();
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_are_bit_identical_and_seeds_differ() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(draw(0), draw(1));
        let mut r = Rng::new(0);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.next_f64())));
    }

    #[test]
    fn schedules_repeat_per_seed_and_hold_the_rate() {
        let sched = |seed| poisson_schedule(&mut Rng::new(seed), 500.0, 2.0);
        let a = sched(3);
        assert_eq!(a, sched(3));
        assert_ne!(a, sched(4));
        assert_eq!(a.len(), 1000);
        assert_eq!(sched(4).len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
        // Exponential-looking gaps: the mean gap is 1/rate and roughly a
        // third of the gaps exceed it (e^-1 ≈ 0.37), unlike a fixed-pace
        // schedule where none would.
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let long = gaps.iter().filter(|&&g| g > 2_000_000).count() as f64 / gaps.len() as f64;
        assert!((0.25..0.5).contains(&long), "share of long gaps {long}");
    }
}
