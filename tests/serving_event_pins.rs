//! Exact pins of the serving engine's results on tie-heavy traces.
//!
//! Each case hashes every per-request record of a [`SimReport`] and pins
//! the hash together with the outcome counts, the hedge count and the bit
//! pattern of `end_us`. The traces are built so that events of different
//! kinds keep landing on the same instant — duplicate arrival timestamps,
//! arrivals exactly on batch-window and deadline expiries, integer-priced
//! batches finishing on arrival instants, unjittered backoffs — so any
//! change to the event queue that reorders same-instant events shows up
//! here as a different hash. The pinned values were produced by the
//! single-heap engine that preceded the arrival-cursor and timer-FIFO
//! queue.

use tensordimm::faults::RankOutage;
use tensordimm::interconnect::InterconnectError;
use tensordimm::models::Workload;
use tensordimm::serving::{
    simulate, simulate_with_pricer, AdmissionPolicy, ArrivalProcess, BatchPolicy, FaultPlan,
    GrayRank, NodeOutage, OutcomeCounts, RequestOutcome, RetryPolicy, RowFaults, SimConfig,
    SimReport,
};
use tensordimm::system::{BatchCost, BatchPricer, DesignPoint, PricingBackend, SystemModel};

/// Integer-valued service times (`base + per_request · batch`, scaled by
/// the number of active GPUs), so completions land exactly on the
/// arrival and timer grids.
struct GridPricer {
    base_us: f64,
    per_request_us: f64,
}

impl BatchPricer for GridPricer {
    fn price(
        &self,
        _workload: &Workload,
        batch: usize,
        _design: DesignPoint,
        active_gpus: usize,
    ) -> Result<BatchCost, InterconnectError> {
        if active_gpus == 0 {
            return Err(InterconnectError::InvalidLink {
                parameter: "active_gpus",
            });
        }
        Ok(BatchCost {
            service_us: (self.base_us + self.per_request_us * batch as f64) * active_gpus as f64,
            port_bound: false,
        })
    }

    fn backend(&self) -> PricingBackend {
        PricingBackend::Analytic
    }
}

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn records_hash(report: &SimReport) -> u64 {
    let mut h = Fnv::new();
    for rec in &report.records {
        h.word(rec.arrival_us.to_bits());
        match rec.completion {
            None => h.word(0),
            Some(c) => {
                h.word(1);
                h.word(c.dispatch_us.to_bits());
                h.word(c.finish_us.to_bits());
                h.word(c.batch_size as u64);
                h.word(c.gpu as u64);
            }
        }
        h.word(match rec.outcome {
            None => 0,
            Some(RequestOutcome::Completed) => 1,
            Some(RequestOutcome::Shed) => 2,
            Some(RequestOutcome::TimedOut) => 3,
            Some(RequestOutcome::InFlightAtHorizon) => 4,
        });
        h.word(u64::from(rec.retries));
    }
    h.0
}

/// What a case pins: `(records hash, outcome counts, hedges, end_us bits)`.
type Pin = (u64, OutcomeCounts, usize, u64);

fn pin(report: &SimReport) -> Pin {
    assert!(report.is_conserved());
    (
        records_hash(report),
        report.outcomes,
        report.hedge_dispatches,
        report.end_us.to_bits(),
    )
}

fn counts(completed: usize, shed: usize, timed_out: usize, in_flight: usize) -> OutcomeCounts {
    OutcomeCounts {
        completed,
        shed,
        timed_out,
        in_flight_at_horizon: in_flight,
    }
}

/// `n` arrivals on a `step_us` grid with `dup` requests per instant.
fn duplicated_grid(n: usize, dup: usize, step_us: f64) -> Vec<f64> {
    (0..n).map(|i| (i / dup) as f64 * step_us).collect()
}

/// Poisson arrivals rounded down onto a `grid_us` grid: collisions
/// between arrivals and with every integer-valued timer.
fn quantized_poisson(rate_qps: f64, n: usize, seed: u64, grid_us: f64) -> Vec<f64> {
    ArrivalProcess::Poisson { rate_qps }
        .sample_arrivals_us(n, seed)
        .into_iter()
        .map(|t| (t / grid_us).floor() * grid_us)
        .collect()
}

fn grid_pricer() -> GridPricer {
    GridPricer {
        base_us: 50.0,
        per_request_us: 25.0,
    }
}

fn faulty_plan() -> FaultPlan {
    FaultPlan::dimm_faults(11, 0.3)
        .with_gray(GrayRank {
            start_us: 2_000.0,
            duration_us: 3_000.0,
            latency_multiplier: 2.0,
        })
        .with_row_faults(RowFaults {
            every_us: 400.0,
            rows: 64,
        })
        .with_node_outage(NodeOutage {
            start_us: 6_000.0,
            duration_us: 500.0,
        })
        .with_rank_outage(RankOutage {
            rank: 3,
            start_us: 1_000.0,
            duration_us: 1_500.0,
        })
}

#[test]
fn duplicate_arrival_timestamps_are_pinned() {
    let w = Workload::facebook();
    let arrivals = duplicated_grid(600, 5, 40.0);
    let cfg = SimConfig::new(DesignPoint::Tdimm, 3, BatchPolicy::new(4, 100.0));
    let r = simulate_with_pricer(&w, &cfg, &arrivals, &grid_pricer()).expect("valid");
    assert_eq!(
        pin(&r),
        (
            12_820_581_548_062_707_093,
            counts(600, 0, 0, 0),
            0,
            4_671_935_957_094_629_376
        )
    );

    // The same trace on the real model: analytic prices are not on the
    // grid, but every arrival instant still carries five requests.
    let m = SystemModel::paper_defaults();
    let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(8, 120.0));
    let r = simulate(&m, &w, &cfg, &arrivals).expect("valid");
    assert_eq!(
        pin(&r),
        (
            10_319_759_012_554_952_653,
            counts(600, 0, 0, 0),
            0,
            4_662_173_457_304_698_676
        )
    );
}

#[test]
fn arrivals_on_flush_and_deadline_instants_are_pinned() {
    let w = Workload::facebook();
    // Arrivals on a 50 µs grid with repeats; the batch window (100 µs)
    // and the deadline (200 µs) are grid multiples, so later arrivals
    // land exactly on earlier requests' flush and deadline instants.
    let arrivals: Vec<f64> = (0..500).map(|i| ((i * 7) / 10) as f64 * 50.0).collect();
    let cfg = SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(4, 100.0))
        .with_retry(RetryPolicy::none().with_deadline(200.0))
        .with_admission(AdmissionPolicy {
            max_queue_depth: 3,
            shed_expired: true,
        });
    let r = simulate_with_pricer(&w, &cfg, &arrivals, &grid_pricer()).expect("valid");
    assert_eq!(
        pin(&r),
        (
            5_097_436_677_287_700_391,
            counts(408, 92, 0, 0),
            0,
            4_670_594_552_908_742_656
        )
    );

    // Same instants on one GPU without admission control: every deadline
    // resolves against the queue rather than at admission.
    let cfg = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(4, 100.0))
        .with_retry(RetryPolicy::none().with_deadline(200.0));
    let r = simulate_with_pricer(&w, &cfg, &arrivals, &grid_pricer()).expect("valid");
    assert_eq!(
        pin(&r),
        (
            10_484_647_205_427_075_024,
            counts(469, 0, 31, 0),
            0,
            4_670_601_424_856_416_256
        )
    );
}

#[test]
fn retries_hedges_admission_and_faults_are_pinned() {
    let w = Workload::facebook();
    // Unjittered backoffs and hedge delays on the 25 µs grid: re-admissions
    // and hedge timers collide with arrivals, flushes and completions.
    let arrivals = quantized_poisson(30_000.0, 1_500, 5, 25.0);
    let retry = RetryPolicy {
        jitter_frac: 0.0,
        ..RetryPolicy::none()
            .with_deadline(1_000.0)
            .with_retries(3, 50.0, 400.0)
            .with_hedging(250.0)
    };
    let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(8, 100.0))
        .with_retry(retry)
        .with_admission(AdmissionPolicy::bounded(16))
        .with_faults(faulty_plan());
    let r = simulate_with_pricer(&w, &cfg, &arrivals, &grid_pricer()).expect("valid");
    assert!(r.records.iter().any(|rec| rec.retries > 0));
    assert_eq!(
        pin(&r),
        (
            14_081_384_491_514_849_022,
            counts(1_440, 30, 30, 0),
            14,
            4_677_479_282_405_015_552
        )
    );

    // The real model with jittered backoff, degraded pricing and a
    // horizon that cuts the run while work is queued and retrying.
    let m = SystemModel::paper_defaults();
    let arrivals = quantized_poisson(200_000.0, 2_000, 9, 10.0);
    let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(16, 200.0))
        .with_retry(
            RetryPolicy::none()
                .with_deadline(2_000.0)
                .with_retries(3, 100.0, 1_000.0)
                .with_hedging(100.0),
        )
        .with_admission(AdmissionPolicy::bounded(32))
        .with_faults(faulty_plan())
        .with_horizon(8_000.0);
    let r = simulate(&m, &w, &cfg, &arrivals).expect("valid");
    assert!(r.records.iter().any(|rec| rec.retries > 0));
    assert_eq!(
        pin(&r),
        (
            12_430_043_593_173_447_381,
            counts(1_392, 168, 0, 97),
            12,
            4_665_518_107_723_300_864
        )
    );
}
