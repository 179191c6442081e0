//! Seeded randomness and the open-loop arrival schedule.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny, seedable generator — every input of a run derives
/// from the `--seed` through one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the named `stream`, so independent inputs
    /// of one run never share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Send offsets of a Poisson arrival process at `rate` per second over
/// `[0, span)`: independent users arriving on their own schedule.
pub fn poisson_offsets(rate: f64, span: Duration, rng: &mut Rng) -> Vec<Duration> {
    assert!(rate > 0.0, "offered rate must be positive");
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// How late a send went out against its due instant (zero when early).
pub fn lag(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// The end of the burst that starts at request `from` when the generator
/// wakes `elapsed` into the schedule: every request due by then goes out
/// together, and always at least request `from`. A generator the host kept
/// off the CPU thus catches up in one write instead of one per request.
pub fn due_through(offsets: &[Duration], from: usize, elapsed: Duration) -> usize {
    let rest = &offsets[(from + 1).min(offsets.len())..];
    (from + 1 + rest.partition_point(|&off| off <= elapsed)).min(offsets.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut one = Rng::new(7, 1);
        let mut two = Rng::new(7, 2);
        assert_ne!(one.next_u64(), two.next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate() {
        let mut rng = Rng::new(3, 9);
        let offsets = poisson_offsets(5000.0, Duration::from_secs(4), &mut rng);
        let n = offsets.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(offsets.last().unwrap() < &Duration::from_secs(4));
        let again = poisson_offsets(5000.0, Duration::from_secs(4), &mut Rng::new(3, 9));
        assert_eq!(offsets, again);
    }

    #[test]
    fn lag_counts_only_lateness() {
        let due = Instant::now();
        let late = due + Duration::from_micros(250);
        assert_eq!(lag(due, late), Duration::from_micros(250));
        assert_eq!(lag(late, due), Duration::ZERO);
    }

    #[test]
    fn bursts_take_every_request_already_due() {
        let ms = Duration::from_millis;
        let offsets = [ms(1), ms(2), ms(2), ms(5), ms(9)];
        // On time: only the request the generator woke for.
        assert_eq!(due_through(&offsets, 0, ms(1)), 1);
        // Woken late: everything due by then, ties included.
        assert_eq!(due_through(&offsets, 0, ms(4)), 3);
        assert_eq!(due_through(&offsets, 1, ms(2)), 3);
        // Always at least one, and never past the end.
        assert_eq!(due_through(&offsets, 3, ms(0)), 4);
        assert_eq!(due_through(&offsets, 3, ms(60)), 5);
        assert_eq!(due_through(&offsets, 4, ms(60)), 5);
    }
}
