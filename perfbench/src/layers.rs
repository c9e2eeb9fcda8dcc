//! The traced run: the timed call taken apart into the public calls of
//! each layer, with a span around every call and exact counters read from
//! the reports and run statistics those calls return.
//!
//! A traced pass re-executes the untraced call layer by layer:
//!
//! * `cluster.route` — [`shard_traces`], the router alone;
//! * per shard (or for the single node), `system.warm` — building the
//!   shard's pricer and, for cycle pricing, [`CyclePricer::warm`] over the
//!   batch sizes the untraced call dispatched;
//! * per shard, `serving.loop` — [`simulate_with_pricer`] on that warmed
//!   pricer, which must reproduce the untraced shard report bit for bit.
//!
//! Everything else is a zoom that re-executes one layer on its own and is
//! not part of the pass: each cold replay is lowered
//! ([`CyclePricerConfig::lowered_gather`]), planned
//! ([`AccessPlan::for_dimm`]) and replayed ([`NmpCore::run_plan`]), and the
//! fault schedules and fabric transfers are expanded on fresh objects.

use std::borrow::Cow;
use std::time::Instant;

use tensordimm::cluster::{shard_sim_config, shard_traces};
use tensordimm::isa::AccessPlan;
use tensordimm::nmp::NmpCore;
use tensordimm::serving::{simulate_with_pricer, SimConfig, SimReport};
use tensordimm::system::{
    AnalyticPricer, BatchPricer, CyclePricer, CyclePricerConfig, PricingBackend, SystemModel,
};

use crate::workload::{Report, Serving, Setup};

/// One timed region of a traced pass.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
}

/// Spans of one traced pass, kept in memory and summed per layer when
/// the pass ends.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str) -> usize {
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = Some(Instant::now());
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Total seconds of every closed span called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end.map(|e| (e - s.start).as_secs_f64()))
            .sum()
    }
}

/// Exact work counters of one traced pass: identical on every pass of a
/// run, and for a fixed seed on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub shards: usize,
    pub subrequests: usize,
    pub mean_fanout: f64,
    pub rerouted_requests: usize,
    pub router_shed: usize,
    pub routed_rows: usize,
    pub loop_requests: usize,
    pub batches: usize,
    pub mean_occupancy: f64,
    pub retries: u64,
    pub hedge_dispatches: usize,
    pub shed: usize,
    pub timed_out: usize,
    pub queue_max_depth: usize,
    pub cold_replays: u64,
    pub nmp_cycles: u64,
    pub input_stall_cycles: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_activates: u64,
    pub dram_row_hits: u64,
    pub dram_row_conflicts: u64,
    pub dram_refreshes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub fault_transitions: usize,
    pub transfer_keys: usize,
}

/// The outcome of one traced pass.
#[derive(Debug)]
pub struct Pass {
    /// The spans. `pass` covers routing, pricer set-up, warm-up and the
    /// serving loops, not the zooms or the checks.
    pub tracer: Tracer,
    pub counts: Counts,
}

/// One shard's input to the pass: its model, serving config, arrivals and
/// the untraced report it must reproduce.
struct Shard<'r> {
    model: SystemModel,
    cfg: SimConfig,
    arrivals: Cow<'r, [f64]>,
    reference: &'r SimReport,
}

/// A shard's pricer, kept after its loop so the zoom can read its memo.
enum ShardPricer<'a> {
    Analytic(AnalyticPricer<'a>),
    Cycle(Box<CyclePricer<'a>>),
}

impl ShardPricer<'_> {
    fn as_dyn(&self) -> &dyn BatchPricer {
        match self {
            ShardPricer::Analytic(p) => p,
            ShardPricer::Cycle(p) => p.as_ref(),
        }
    }

    fn replays(&self) -> u64 {
        match self {
            ShardPricer::Analytic(_) => 0,
            ShardPricer::Cycle(p) => p.replay_count(),
        }
    }
}

/// Batch sizes a report dispatched (hedged copies reuse these sizes).
fn batch_sizes(r: &SimReport) -> Vec<usize> {
    let hist = &r.batches.occupancy_histogram;
    (1..hist.len()).filter(|&b| hist[b] > 0).collect()
}

/// Run one traced pass of `s`, checking it against the untraced
/// `reference` report of the same inputs.
///
/// # Errors
///
/// A message naming the first check that failed or call that errored.
pub fn traced_pass(s: &Setup, reference: &Report) -> Result<Pass, String> {
    let mut t = Tracer::default();
    let mut counts = Counts::default();
    let pass = t.open("pass");

    // Routing, then each shard's model and serving config, as the
    // cluster call derives them.
    let shards: Vec<Shard> = match (&s.serving, reference) {
        (Serving::Cluster(cfg), Report::Cluster(r)) => {
            let traces = t
                .time("cluster.route", || {
                    shard_traces(cfg, &s.workload, &s.arrivals)
                })
                .map_err(|e| format!("shard_traces: {e}"))?;
            counts.subrequests = r.routing.subrequests;
            counts.mean_fanout = r.routing.mean_fanout;
            counts.rerouted_requests = r.routing.rerouted_requests;
            counts.router_shed = r.routing.router_shed;
            counts.routed_rows = s.arrivals.len() * cfg.routing_lookups;
            traces
                .into_iter()
                .zip(&r.shards)
                .enumerate()
                .map(|(node, (arrivals, outcome))| Shard {
                    model: s.model.clone().with_node_dimms(cfg.nodes[node].dimms),
                    cfg: shard_sim_config(cfg, node),
                    arrivals: Cow::Owned(arrivals),
                    reference: &outcome.report,
                })
                .collect()
        }
        // One node: the fan-out is the identity, so the route span only
        // covers handing the whole trace to the single shard.
        (Serving::Node(cfg), Report::Node(r)) => t.time("cluster.route", || {
            let model = match cfg.transfer {
                Some(tr) => s.model.clone().with_transfer(tr),
                None => s.model.clone(),
            };
            vec![Shard {
                model,
                cfg: *cfg,
                arrivals: Cow::Borrowed(&s.arrivals),
                reference: r,
            }]
        }),
        _ => return Err("report does not match the workload".into()),
    };
    counts.shards = shards.len();

    // Per shard: pricer set-up and warm-up, then the serving loop on the
    // warmed pricer.
    let mut reports = Vec::with_capacity(shards.len());
    let mut pricers = Vec::with_capacity(shards.len());
    for (i, shard) in shards.iter().enumerate() {
        let warm = t.open("system.warm");
        let pricer = match shard.cfg.pricing {
            PricingBackend::Analytic => ShardPricer::Analytic(AnalyticPricer::new(&shard.model)),
            PricingBackend::CycleCalibrated => {
                let mut config = CyclePricerConfig::paper_defaults();
                config.nmp.hot_rows = shard.cfg.hot_rows;
                let pricer = CyclePricer::with_config(&shard.model, config);
                let shapes: Vec<_> = batch_sizes(shard.reference)
                    .into_iter()
                    .map(|b| (s.workload.clone(), b))
                    .collect();
                pricer.warm(&shapes, 1);
                ShardPricer::Cycle(Box::new(pricer))
            }
        };
        t.close(warm);
        let warmed = pricer.replays();
        let report = t
            .time("serving.loop", || {
                simulate_with_pricer(&s.workload, &shard.cfg, &shard.arrivals, pricer.as_dyn())
            })
            .map_err(|e| format!("shard {i}: simulate_with_pricer: {e}"))?;
        if pricer.replays() != warmed {
            return Err(format!(
                "shard {i}: the loop replayed a shape the warm-up missed"
            ));
        }
        counts.cold_replays += warmed;
        reports.push(report);
        pricers.push(pricer);
    }
    t.close(pass);

    // The decomposition must reproduce the untraced call exactly.
    for (i, (shard, report)) in shards.iter().zip(&reports).enumerate() {
        if report != shard.reference {
            return Err(format!(
                "shard {i}: simulate_with_pricer differs from the untraced report"
            ));
        }
        if !report.is_conserved() {
            return Err(format!("shard {i}: report is not conserved"));
        }
        counts.loop_requests += shard.arrivals.len();
        counts.batches += report.batches.batches;
        counts.mean_occupancy += report.batches.mean_occupancy * report.batches.batches as f64;
        counts.retries += report
            .records
            .iter()
            .map(|r| u64::from(r.retries))
            .sum::<u64>();
        counts.hedge_dispatches += report.hedge_dispatches;
        counts.shed += report.outcomes.shed;
        counts.timed_out += report.outcomes.timed_out;
        counts.queue_max_depth = counts.queue_max_depth.max(report.queue.max_depth);
    }
    counts.mean_occupancy /= counts.batches.max(1) as f64;

    zoom_replays(&mut t, &mut counts, s, &shards, &pricers)?;
    zoom_faults(&mut t, &mut counts, &shards)?;
    zoom_transfers(&mut t, &mut counts, s, &shards)?;

    Ok(Pass { tracer: t, counts })
}

/// Re-execute every cold replay of the pass, one layer at a time: lower
/// the gather, plan it for one DIMM, replay it on the NMP core. Each
/// replay's delivered bandwidth must equal what its pricer measured.
fn zoom_replays(
    t: &mut Tracer,
    counts: &mut Counts,
    s: &Setup,
    shards: &[Shard],
    pricers: &[ShardPricer<'_>],
) -> Result<(), String> {
    let lowered = t.time("system.lower", || {
        let mut out = Vec::new();
        for (i, pricer) in pricers.iter().enumerate() {
            let ShardPricer::Cycle(pricer) = pricer else {
                continue;
            };
            let config = pricer.config();
            let zipf_s = shards[i].model.config().zipf_s;
            for (key, _) in pricer.cached_table() {
                let batch = key.3;
                let (instr, indices, ctx) = config.lowered_gather(zipf_s, &s.workload, batch);
                out.push((i, batch, instr, indices, ctx));
            }
        }
        out
    });
    if lowered.len() as u64 != counts.cold_replays {
        return Err(format!(
            "{} memoized shapes but {} cold replays",
            lowered.len(),
            counts.cold_replays
        ));
    }
    let plans = t
        .time("isa.plan", || {
            lowered
                .iter()
                .map(|(_, _, instr, indices, ctx)| AccessPlan::for_dimm(instr, *ctx, Some(indices)))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("AccessPlan::for_dimm: {e}"))?;
    let configs: Vec<CyclePricerConfig> = lowered
        .iter()
        .map(|(i, ..)| match &pricers[*i] {
            ShardPricer::Cycle(p) => p.config(),
            ShardPricer::Analytic(_) => unreachable!("only cycle pricers replay"),
        })
        .collect();
    let runs = t
        .time("nmp.run_plan", || {
            lowered
                .iter()
                .zip(&plans)
                .zip(&configs)
                .map(|(((_, _, instr, _, ctx), plan), config)| {
                    NmpCore::new(config.nmp.clone())?.run_plan(instr, plan, *ctx)
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("NmpCore::run_plan: {e}"))?;

    for (((i, batch, ..), stats), config) in lowered.iter().zip(&runs).zip(&configs) {
        let ShardPricer::Cycle(pricer) = &pricers[*i] else {
            unreachable!("only cycle pricers replay");
        };
        let measured = pricer.measured_node_gbps(&s.workload, *batch);
        let delivered = stats.delivered_gbps() * config.dimms.max(1) as f64;
        if delivered.to_bits() != measured.to_bits() {
            return Err(format!(
                "shard {i} batch {batch}: run_plan delivers {delivered} GB/s, \
                 measured_node_gbps says {measured}"
            ));
        }
        let dram = &stats.memory.totals;
        counts.nmp_cycles += stats.cycles;
        counts.input_stall_cycles += stats.input_stall_cycles;
        counts.dram_reads += dram.reads;
        counts.dram_writes += dram.writes;
        counts.dram_activates += dram.activates;
        counts.dram_row_hits += dram.row_hits;
        counts.dram_row_conflicts += dram.row_conflicts;
        counts.dram_refreshes += dram.refreshes;
        counts.cache_hits += stats.hot_rows.hits;
        counts.cache_misses += stats.hot_rows.misses;
    }
    let replays: u64 = pricers.iter().map(ShardPricer::replays).sum();
    if replays != counts.cold_replays {
        return Err("reading measured_node_gbps replayed a memoized shape".into());
    }
    Ok(())
}

/// Expand every shard's fault plan over the window its loop expands it
/// over (the last arrival; no workload sets a horizon).
fn zoom_faults(t: &mut Tracer, counts: &mut Counts, shards: &[Shard]) -> Result<(), String> {
    let transitions = t
        .time("faults.schedule", || {
            shards
                .iter()
                .map(|sh| {
                    let horizon = sh
                        .cfg
                        .horizon_us
                        .unwrap_or_else(|| sh.arrivals.last().copied().unwrap_or(0.0));
                    sh.cfg
                        .faults
                        .schedule(horizon)
                        .map(|f| f.transitions().len())
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("FaultPlan::schedule: {e}"))?;
    counts.fault_transitions = transitions.iter().sum();
    Ok(())
}

/// Price on a fresh model every contended transfer the loops could ask
/// for: each dispatched batch size at each GPU concurrency.
fn zoom_transfers(
    t: &mut Tracer,
    counts: &mut Counts,
    s: &Setup,
    shards: &[Shard],
) -> Result<(), String> {
    let mut keys: Vec<(u64, usize)> = Vec::new();
    for sh in shards {
        for b in batch_sizes(sh.reference) {
            for gpus in 1..=sh.cfg.gpus {
                keys.push((s.workload.pooled_bytes(b), gpus));
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();
    counts.transfer_keys = keys.len();
    // `with_transfer` empties the clone's transfer memo, which the loop
    // has filled.
    let fresh = shards[0]
        .model
        .clone()
        .with_transfer(shards[0].model.config().transfer);
    t.time("interconnect.transfer", || {
        keys.iter()
            .map(|&(bytes, gpus)| fresh.contended_node_transfer_us(bytes, gpus))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("contended_node_transfer_us: {e}"))?;
    Ok(())
}
