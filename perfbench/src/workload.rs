//! The two benchmark workloads: how each is set up from a seed, the one
//! public call that is timed end to end, and the simulated metrics read
//! from its report.

use tensordimm::cache::HotRowCacheConfig;
use tensordimm::cluster::{
    simulate_cluster, ClusterConfig, ClusterReport, FailoverPolicy, NodeSpec, ShardPlan,
};
use tensordimm::faults::{FaultPlan, GrayRank, RowFaults};
use tensordimm::models::Workload;
use tensordimm::serving::{
    simulate, AdmissionPolicy, ArrivalProcess, BatchPolicy, RetryPolicy, SimConfig, SimReport,
};
use tensordimm::system::{DesignPoint, PricingBackend, SystemModel, TopologyKind, TransferBackend};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Healthy 4-node analytic cluster: routing, per-shard loops, rejoin.
    ClusterRouted,
    /// One faulted node behind a hot-row cache and a Ring fabric.
    NodeDegraded,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::ClusterRouted, Kind::NodeDegraded];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ClusterRouted => "cluster_routed",
            Kind::NodeDegraded => "node_degraded",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests in one arrival trace.
    fn requests(self) -> usize {
        match self {
            Kind::ClusterRouted => 50_000,
            Kind::NodeDegraded => 400_000,
        }
    }
}

/// Spread a benchmark seed into an independent stream id.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How a workload is served: a sharded cluster or one node.
#[derive(Debug, Clone)]
pub enum Serving {
    Cluster(ClusterConfig),
    Node(SimConfig),
}

/// Everything one run needs before the timed calls.
#[derive(Debug)]
pub struct Setup {
    pub model: SystemModel,
    pub workload: Workload,
    pub serving: Serving,
    pub arrivals: Vec<f64>,
}

/// Seed of `node_degraded`'s fault plan. The failure history is part of
/// the modelled system, like its configuration: the benchmark seed only
/// draws the request traffic (arrival instants and the rows requests
/// route by).
const FAULT_SEED: u64 = 0xfa;

/// Build the model, configs and arrival trace of `kind` from `seed`.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let process = match kind {
        Kind::NodeDegraded => ArrivalProcess::Bursty {
            rate_qps: 150_000.0,
            mean_burst: 8.0,
        },
        Kind::ClusterRouted => ArrivalProcess::Poisson {
            rate_qps: 250_000.0,
        },
    };
    let arrivals = process.sample_arrivals_us(kind.requests(), mix(seed, 0));
    let serving = match kind {
        Kind::ClusterRouted => Serving::Cluster(cluster(seed)),
        Kind::NodeDegraded => Serving::Node(degraded_node()),
    };
    Setup {
        model: SystemModel::paper_defaults(),
        workload: Workload::facebook(),
        serving,
        arrivals,
    }
}

/// A healthy cluster of four 8-GPU paper nodes, every row on two of
/// them, routing 8 Zipf-0.9 rows per request, with a 3 ms deadline and
/// bounded queues.
fn cluster(seed: u64) -> ClusterConfig {
    let plan = ShardPlan::hash(4, 2).expect("valid shard plan");
    ClusterConfig::new(
        plan,
        vec![NodeSpec::paper(8); 4],
        DesignPoint::Tdimm,
        BatchPolicy::new(32, 300.0),
    )
    .with_retry(RetryPolicy::none().with_deadline(3_000.0))
    .with_admission(AdmissionPolicy::bounded(256))
    .with_failover(FailoverPolicy::Reroute)
    .with_lookups(8, 0.9, mix(seed, 1))
}

/// One 8-GPU node with faulted DIMMs, a gray window and row faults,
/// serving through a hot-row cache and a Ring fabric with retries,
/// hedging and bounded admission.
fn degraded_node() -> SimConfig {
    let faults = FaultPlan {
        dimms: 4,
        dimm_candidate_gap_us: 250.0,
        dimm_repair_us: 2_500.0,
        ..FaultPlan::dimm_faults(FAULT_SEED, 0.25)
    }
    .with_gray(GrayRank {
        start_us: 200_000.0,
        duration_us: 400_000.0,
        latency_multiplier: 1.5,
    })
    .with_row_faults(RowFaults {
        every_us: 500.0,
        rows: 64,
    });
    let retry = RetryPolicy::none()
        .with_deadline(2_000.0)
        .with_retries(3, 100.0, 1_000.0)
        .with_hedging(800.0);
    SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0))
        .with_pricing(PricingBackend::CycleCalibrated)
        .with_hot_rows(HotRowCacheConfig::set_associative(1024, 8))
        .with_transfer(TransferBackend::Fabric(TopologyKind::Ring))
        .with_faults(faults)
        .with_retry(retry)
        .with_admission(AdmissionPolicy::bounded(256))
}

/// The report of one timed call.
#[derive(Debug)]
pub enum Report {
    Cluster(ClusterReport),
    Node(SimReport),
}

/// The timed end-to-end call: one public simulator entry point over the
/// whole arrival trace. Each call builds its own pricers and transfer
/// memo, exactly as a sweep user's call does.
pub fn run(s: &Setup) -> Result<Report, String> {
    match &s.serving {
        Serving::Cluster(cfg) => simulate_cluster(&s.model, &s.workload, cfg, &s.arrivals)
            .map(Report::Cluster)
            .map_err(|e| e.to_string()),
        Serving::Node(cfg) => simulate(&s.model, &s.workload, cfg, &s.arrivals)
            .map(Report::Node)
            .map_err(|e| e.to_string()),
    }
}

/// The simulated end-to-end result of one call. Every field repeats
/// bit for bit for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
    pub goodput_qps: f64,
    pub arrived: usize,
    pub completed: usize,
    pub within_sla: usize,
    pub shed: usize,
    pub timed_out: usize,
    pub in_flight: usize,
    /// Hash over every per-request record: any changed simulated outcome
    /// moves it.
    pub records_hash: u64,
}

impl SimSummary {
    /// Digest of the `sim_*` metrics and outcome counts.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for x in [self.p50_us, self.p99_us, self.goodput_qps] {
            h.word(x.to_bits());
        }
        for n in [
            self.samples,
            self.arrived,
            self.completed,
            self.within_sla,
            self.shed,
            self.timed_out,
            self.in_flight,
        ] {
            h.word(n as u64);
        }
        h.word(self.records_hash);
        h.finish()
    }
}

impl Report {
    pub fn is_conserved(&self) -> bool {
        match self {
            Report::Cluster(r) => r.is_conserved(),
            Report::Node(r) => r.is_conserved(),
        }
    }

    pub fn summary(&self) -> SimSummary {
        let mut h = Fnv::new();
        let (latency, goodput_qps, arrived, completed, sla_us, outcomes, within_sla) = match self {
            Report::Cluster(r) => {
                for rec in &r.records {
                    h.word(rec.arrival_us.to_bits());
                    h.word(rec.finish_us.map_or(u64::MAX, f64::to_bits));
                    h.word(outcome_code(rec.outcome));
                    h.word(rec.fanout as u64);
                }
                let within = r
                    .records
                    .iter()
                    .filter(|rec| rec.completed_within(r.sla_us))
                    .count();
                (
                    r.latency,
                    r.goodput_qps,
                    r.arrived,
                    r.completed,
                    r.sla_us,
                    r.outcomes,
                    within,
                )
            }
            Report::Node(r) => {
                for rec in &r.records {
                    h.word(rec.arrival_us.to_bits());
                    h.word(rec.completion.map_or(u64::MAX, |c| c.finish_us.to_bits()));
                    h.word(outcome_code(rec.outcome));
                    h.word(u64::from(rec.retries));
                }
                let within = r
                    .records
                    .iter()
                    .filter(|rec| rec.completed_within(r.sla_us))
                    .count();
                (
                    r.latency,
                    r.goodput_qps,
                    r.arrived,
                    r.completed,
                    r.sla_us,
                    r.outcomes,
                    within,
                )
            }
        };
        h.word(sla_us.to_bits());
        SimSummary {
            p50_us: latency.p50_us,
            p99_us: latency.p99_us,
            samples: latency.count,
            goodput_qps,
            arrived,
            completed,
            within_sla,
            shed: outcomes.shed,
            timed_out: outcomes.timed_out,
            in_flight: outcomes.in_flight_at_horizon,
            records_hash: h.finish(),
        }
    }
}

fn outcome_code(o: Option<tensordimm::serving::RequestOutcome>) -> u64 {
    use tensordimm::serving::RequestOutcome as O;
    match o {
        None => 0,
        Some(O::Completed) => 1,
        Some(O::Shed) => 2,
        Some(O::TimedOut) => 3,
        Some(O::InFlightAtHorizon) => 4,
    }
}

/// 64-bit FNV-1a over whole words.
#[derive(Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
