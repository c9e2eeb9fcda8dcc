//! Request-arrival processes for serving-level simulation.
//!
//! The figure harnesses in `tensordimm_bench::traffic` generate *memory*
//! traffic for single tensor operations; this module generates *request*
//! traffic — the arrival instants of individual inference queries hitting
//! a serving node. Two processes are provided, matching how
//! recommendation-serving studies (RecNMP, and the paper's own "many GPUs,
//! one node" argument) stress their systems:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless open-loop traffic at a mean
//!   offered load, the standard datacenter baseline;
//! * [`ArrivalProcess::Bursty`] — compound-Poisson bursts: geometrically
//!   sized clumps of back-to-back requests separated by exponential gaps,
//!   with the same long-run mean rate, modeling flash-crowd traffic.
//!
//! Per-request *table popularity* is Zipf-skewed, reusing the
//! rejection-inversion sampler of [`tensordimm_embedding::IndexStream`]
//! (rank 0 = hottest row), so a serving trace carries both *when* requests
//! arrive and *which* rows they hit.
//!
//! All draws are deterministic per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The Zipf row sampler lives in `tensordimm_embedding` (rejection
// inversion, O(1) memory for any table size) so the cycle-calibrated batch
// pricer in `tensordimm_system` can draw the identical streams without a
// dependency cycle; re-exported here for backwards compatibility and for
// callers that draw many requests' rows from one reseeded stream.
pub use tensordimm_embedding::{hot_row_share, zipf_lookup_rows, Distribution, IndexStream};

/// An open-loop request arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival times with mean
    /// `1 / rate_qps`.
    Poisson {
        /// Mean offered load, queries per second.
        rate_qps: f64,
    },
    /// Bursty arrivals: clumps whose size is geometric with mean
    /// `mean_burst`, arriving back-to-back, separated by exponential gaps
    /// sized so the long-run mean rate is still `rate_qps`.
    Bursty {
        /// Long-run mean offered load, queries per second.
        rate_qps: f64,
        /// Mean requests per burst (values `<= 1` degenerate to Poisson).
        mean_burst: f64,
    },
}

impl ArrivalProcess {
    /// The long-run mean offered load, queries per second.
    pub fn rate_qps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_qps } | ArrivalProcess::Bursty { rate_qps, .. } => {
                rate_qps
            }
        }
    }

    /// Draw `n` arrival instants in µs, sorted ascending starting near 0.
    ///
    /// `n == 0` yields an empty trace for either process. An empty trace
    /// is a valid simulator input: `simulate`
    /// reports zero arrivals, vacuous `1.0` availability and an all-zero
    /// latency summary (see the zero-request boundary tests here and in
    /// `sim.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the configured rate is not strictly positive — the rate
    /// is validated before the count, so `n == 0` does not mask a bad
    /// configuration.
    pub fn sample_arrivals_us(&self, n: usize, seed: u64) -> Vec<f64> {
        let rate = self.rate_qps();
        assert!(rate > 0.0, "arrival rate must be positive, got {rate}");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64;
        match *self {
            ArrivalProcess::Poisson { rate_qps } => {
                let mean_gap_us = 1e6 / rate_qps;
                for _ in 0..n {
                    t += exponential(&mut rng, mean_gap_us);
                    out.push(t);
                }
            }
            ArrivalProcess::Bursty {
                rate_qps,
                mean_burst,
            } => {
                let mean_burst = mean_burst.max(1.0);
                // Bursts arrive as a Poisson process of rate `rate / burst`,
                // so requests still average `rate_qps` long-run.
                let mean_gap_us = mean_burst * 1e6 / rate_qps;
                while out.len() < n {
                    t += exponential(&mut rng, mean_gap_us);
                    let size = geometric(&mut rng, mean_burst).min((n - out.len()) as u64);
                    for _ in 0..size {
                        out.push(t);
                    }
                }
            }
        }
        out
    }
}

/// Exponential draw with the given mean (inverse-CDF method).
fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    // gen::<f64>() is in [0, 1); flip so the log argument is in (0, 1].
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

/// Geometric draw on {1, 2, ...} with the given mean.
fn geometric(rng: &mut StdRng, mean: f64) -> u64 {
    if mean <= 1.0 {
        return 1;
    }
    let p = 1.0 / mean;
    let u = 1.0 - rng.gen::<f64>();
    1 + (u.ln() / (1.0 - p).ln()).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_close() {
        let p = ArrivalProcess::Poisson {
            rate_qps: 100_000.0,
        };
        let a = p.sample_arrivals_us(20_000, 42);
        assert_eq!(a.len(), 20_000);
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted"
        );
        let span_s = (a.last().unwrap() - a[0]) * 1e-6;
        let measured = a.len() as f64 / span_s;
        assert!(
            (80_000.0..120_000.0).contains(&measured),
            "measured rate {measured:.0} qps"
        );
    }

    #[test]
    fn bursty_same_mean_rate_higher_clumping() {
        let rate = 50_000.0;
        let n = 20_000;
        let poisson = ArrivalProcess::Poisson { rate_qps: rate }.sample_arrivals_us(n, 7);
        let bursty = ArrivalProcess::Bursty {
            rate_qps: rate,
            mean_burst: 16.0,
        }
        .sample_arrivals_us(n, 7);
        let span = |a: &[f64]| (a[a.len() - 1] - a[0]) * 1e-6;
        let bursty_rate = n as f64 / span(&bursty);
        assert!(
            (0.7 * rate..1.4 * rate).contains(&bursty_rate),
            "bursty long-run rate {bursty_rate:.0}"
        );
        // Clumping: the bursty trace has far more zero-gap neighbours.
        let zero_gaps = |a: &[f64]| a.windows(2).filter(|w| w[1] - w[0] < 1e-9).count();
        assert!(
            zero_gaps(&bursty) > 10 * zero_gaps(&poisson).max(1),
            "bursty {} vs poisson {}",
            zero_gaps(&bursty),
            zero_gaps(&poisson)
        );
    }

    /// Pins the documented `n == 0` boundary: an empty trace from either
    /// process.
    #[test]
    fn zero_requests_yield_an_empty_trace() {
        let processes = [
            ArrivalProcess::Poisson { rate_qps: 10_000.0 },
            ArrivalProcess::Bursty {
                rate_qps: 10_000.0,
                mean_burst: 4.0,
            },
        ];
        for p in processes {
            assert!(p.sample_arrivals_us(0, 9).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_rejected_even_with_zero_requests() {
        ArrivalProcess::Poisson { rate_qps: 0.0 }.sample_arrivals_us(0, 1);
    }

    #[test]
    fn arrivals_deterministic_per_seed() {
        let p = ArrivalProcess::Bursty {
            rate_qps: 10_000.0,
            mean_burst: 4.0,
        };
        assert_eq!(p.sample_arrivals_us(1000, 3), p.sample_arrivals_us(1000, 3));
        assert_ne!(p.sample_arrivals_us(1000, 3), p.sample_arrivals_us(1000, 4));
    }

    #[test]
    fn zipf_rows_are_head_heavy() {
        let rows = 1_000_000u64;
        let hits = zipf_lookup_rows(20_000, rows, 0.9, 11);
        assert!(hits.iter().all(|&r| r < rows));
        let hot = hot_row_share(&hits, rows, 0.01);
        let uniform_hits = zipf_lookup_rows(20_000, rows, 0.0, 11);
        let uniform_hot = hot_row_share(&uniform_hits, rows, 0.01);
        assert!(
            hot > 5.0 * uniform_hot.max(0.005),
            "zipf hot share {hot:.3} vs uniform {uniform_hot:.3}"
        );
    }
}
