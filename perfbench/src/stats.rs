//! Percentiles, stratified draws and the open-loop arrival schedule.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending sample: the smallest sample
/// with at least a share `p` of the sample at or below it, i.e. the
/// sample of 1-based rank `⌈n·p⌉`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples of `n` lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((n as f64 * p).ceil() as usize).clamp(1, n.max(1))
}

/// Sorts a copy of `xs` ascending (NaN-free input: latencies, rates).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 0.5)
}

/// Uniform draws in `[0, 1)`, stratified in blocks: each block of `k`
/// consecutive draws takes one value from each of `k` equal strata, in
/// an order the seed shuffles. Every block then has nearly the same mix
/// of request sizes, which takes most of the between-seed variance out
/// of block rates and tail percentiles without fixing the inputs.
pub struct Stratified {
    rng: StdRng,
    order: Vec<usize>,
    pos: usize,
}

impl Stratified {
    pub fn new(seed: u64, k: usize) -> Self {
        assert!(k > 0, "at least one stratum");
        Stratified {
            rng: StdRng::seed_from_u64(seed),
            order: (0..k).collect(),
            pos: k,
        }
    }

    pub fn draw(&mut self) -> f64 {
        if self.pos == self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.pos = 0;
        }
        let stratum = self.order[self.pos];
        self.pos += 1;
        (stratum as f64 + self.rng.gen::<f64>()) / self.order.len() as f64
    }
}

/// Due times of `n` Poisson arrivals at `rate` per second, as offsets
/// from the start of the phase. A pure function of its arguments: the
/// same seed always yields the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Open-loop pacing: calls `send(k)` at `start + due[k]`, never
/// earlier, whatever earlier sends cost. Returns each send's lag, how
/// late it began against its due time; a stall in one send shows up as
/// lag on every send due during the stall.
pub fn paced(start: Instant, due: &[Duration], mut send: impl FnMut(usize)) -> Vec<Duration> {
    due.iter()
        .enumerate()
        .map(|(k, &offset)| {
            let at = start + offset;
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let lag = Instant::now().saturating_duration_since(at);
            send(k);
            lag
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let p50 = |xs: &[f64]| percentile(xs, 0.5);
        assert_eq!(p50(&[10.0]), 10.0);
        assert_eq!(p50(&[10.0, 20.0]), 10.0);
        assert_eq!(p50(&[10.0, 20.0, 30.0]), 20.0);
        assert_eq!(p50(&[10.0, 20.0, 30.0, 40.0]), 20.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), 990.0);
        assert_eq!(percentile(&[3.0, 4.0], 0.0), 3.0);
        assert_eq!(percentile(&[3.0, 4.0], 1.0), 4.0);
    }

    #[test]
    fn samples_beyond_p99() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1, 0.99), 0);
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(42, 150.0, 500);
        let b = poisson_schedule(42, 150.0, 500);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(43, 150.0, 500));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        let mean_gap = a[a.len() - 1].as_secs_f64() / a.len() as f64;
        assert!((mean_gap * 150.0 - 1.0).abs() < 0.15, "mean gap {mean_gap}");
    }

    #[test]
    fn every_block_covers_every_stratum() {
        let draw = |seed| {
            let mut s = Stratified::new(seed, 8);
            (0..32).map(|_| s.draw()).collect::<Vec<f64>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        for block in a.chunks(8) {
            let mut strata: Vec<usize> = block.iter().map(|u| (u * 8.0) as usize).collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lag_is_measured_against_due_times() {
        // Three sends due 1 ms apart; the first stalls 30 ms. The later
        // sends are due during the stall, so each is late by about the
        // stall minus its own offset: lag counts from the due time, not
        // from the previous send.
        let due = [
            Duration::ZERO,
            Duration::from_millis(1),
            Duration::from_millis(2),
        ];
        let start = Instant::now();
        let mut sent = Vec::new();
        let lags = paced(start, &due, |k| {
            sent.push((k, Instant::now()));
            if k == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        assert_eq!(sent.iter().map(|s| s.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(lags[1] >= Duration::from_millis(29), "{lags:?}");
        assert!(lags[2] >= Duration::from_millis(28), "{lags:?}");
        for (k, at) in sent {
            let due_at = start + due[k];
            assert!(at >= due_at, "send {k} went out before it was due");
            assert!(at.duration_since(due_at) >= lags[k]);
        }
    }

    #[test]
    fn sends_wait_for_their_due_time() {
        let due = [Duration::from_millis(5), Duration::from_millis(15)];
        let start = Instant::now();
        let mut at = Vec::new();
        paced(start, &due, |_| at.push(Instant::now()));
        assert!(at[0] >= start + due[0]);
        assert!(at[1] >= start + due[1]);
    }
}
