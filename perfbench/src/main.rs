//! Benchmark of the TensorDIMM simulator stack.
//!
//! ```text
//! perfbench --workload <cluster_routed|node_degraded>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one workload's inputs from the seed, then repeats its timed
//! public call for `--seconds` seconds on one thread. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it alternates the
//! untraced call with a traced pass (see `layers.rs`) and reports the
//! per-layer metrics. Every run checks the simulator's outputs, and the
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod layers;
mod workload;

use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use layers::{traced_pass, Counts, Pass};
use workload::{run, setup, Kind, Report, SimSummary};

/// Times the inputs are built before the first call; `setup_s` is the
/// fastest of these and of a burst of `SETUP_BURST` more after every call.
const SETUP_REPS: usize = 51;
/// Set-ups timed after every call. A burst, not one: the first set-up after
/// a call finds the caches full of the call's data, the next ones do not.
const SETUP_BURST: usize = 5;
/// Fewest timed calls (and traced passes) a run makes, however short.
const MIN_CALLS: usize = 3;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`).
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of repeated host timings. Other tenants of a shared host
/// only ever add time, so across runs the fastest repetition varies far
/// less than the median does.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Entries of the reference kernel's table: 4 MiB of `u64`, more than a
/// core's L2, so its reads go to the shared last-level cache. Larger
/// tables were up to 10% slower in some processes than in others on a
/// quiet host; at 4 MiB the fastest time repeats within a few percent.
const REFERENCE_ENTRIES: usize = 1 << 19;
/// Random reads one reference measurement makes.
const REFERENCE_READS: u32 = 2_000_000;
/// The nominal host speed: the reference kernel's time on it. About the
/// kernel's fastest time on a quiet 2-vCPU Intel Xeon VM (rustc 1.95.0);
/// `host_requests_per_s` reads as on such a host.
const REFERENCE_S: f64 = 0.005;

/// The reference table, built once and outside every timed region.
fn reference_table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..REFERENCE_ENTRIES as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect()
    })
}

/// Samples of the reference kernel taken after every call.
const REFERENCE_SAMPLES: usize = 3;

/// Time a fixed kernel that never changes with the program: random reads
/// over a 4 MiB table. On a shared host, other tenants contending for the
/// last-level cache slow it much as they slow the simulator (by up to
/// 1.45x against the simulator's 1.6x), while a pure arithmetic loop
/// barely slows. Sampled right after every call, its fastest time tells
/// how fast the host was at its quietest in this run. A sequential pass
/// first brings the table back into cache after the call, so a sample
/// does not depend on how much of it the call evicted.
fn reference_samples(out: &mut Vec<f64>) {
    let table = reference_table();
    let mask = table.len() - 1;
    std::hint::black_box(table.iter().fold(0u64, |a, &b| a ^ b));
    for _ in 0..REFERENCE_SAMPLES {
        let t = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut acc = 0u64;
        for _ in 0..REFERENCE_READS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(table[x as usize & mask] ^ acc.rotate_left(7));
        }
        std::hint::black_box(acc);
        out.push(t.elapsed().as_secs_f64());
    }
}

/// Effective cores: the same CPU burn on one thread, then on two at
/// once; 1.0 means the second thread bought nothing.
fn effective_cores() -> f64 {
    fn burn() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..40_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    }
    let t = Instant::now();
    burn();
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(burn);
        let b = s.spawn(burn);
        a.join().expect("burn thread");
        b.join().expect("burn thread");
    });
    2.0 * one / t.elapsed().as_secs_f64()
}

/// The outcome of the timed calls.
#[derive(Debug, Default)]
struct Calls {
    seconds: Vec<f64>,
    /// The reference kernel's times right after each successful call.
    reference: Vec<f64>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    summary: Option<SimSummary>,
    passes: Vec<Pass>,
    first_call_hwm_kb: Option<u64>,
    last: Option<Report>,
}

impl Calls {
    /// Make one timed call and check its report.
    fn call(&mut self, s: &workload::Setup) {
        self.last = None;
        let t = Instant::now();
        let result = run(s);
        let dt = t.elapsed().as_secs_f64();
        self.attempted += s.arrivals.len();
        if self.first_call_hwm_kb.is_none() {
            self.first_call_hwm_kb = status_kb("VmHWM");
        }
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.failed += s.arrivals.len();
                self.errors.push(format!("call failed: {e}"));
                return;
            }
        };
        self.seconds.push(dt);
        reference_samples(&mut self.reference);
        if !report.is_conserved() {
            self.errors.push("report is not conserved".into());
        }
        let summary = report.summary();
        match self.summary {
            None => self.summary = Some(summary),
            Some(first) if first != summary => {
                self.errors
                    .push("a repeated call gave a different simulated result".into());
            }
            Some(_) => {}
        }
        self.last = Some(report);
    }

    fn pass(&mut self, s: &workload::Setup) {
        let Some(reference) = &self.last else {
            return;
        };
        match traced_pass(s, reference) {
            Ok(p) => {
                if let Some(first) = self.passes.first() {
                    if first.counts != p.counts {
                        self.errors
                            .push("a repeated traced pass gave different counters".into());
                    }
                }
                self.passes.push(p);
            }
            Err(e) => self.errors.push(format!("traced pass: {e}")),
        }
    }
}

/// Counters each workload exists to move must be non-zero, so a resized
/// workload cannot quietly stop measuring its layer.
fn mechanism_errors(kind: Kind, c: &Counts) -> Vec<String> {
    let need: Vec<(&str, bool)> = match kind {
        Kind::ClusterRouted => vec![
            ("more than one shard", c.shards > 1),
            ("fan-out above one shard", c.mean_fanout > 1.0),
            ("serving batches", c.batches > 0),
        ],
        Kind::NodeDegraded => vec![
            ("cold replays", c.cold_replays > 0),
            ("cache hits", c.cache_hits > 0),
            ("retries", c.retries > 0),
            ("hedge dispatches", c.hedge_dispatches > 0),
            ("shed", c.shed > 0),
            ("timed out", c.timed_out > 0),
            ("fault transitions", c.fault_transitions > 0),
            ("fabric transfer keys", c.transfer_keys > 0),
        ],
    };
    let mut errors: Vec<String> = need
        .into_iter()
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| format!("{}: mechanism did not fire: {what}", kind.name()))
        .collect();
    if kind != Kind::NodeDegraded && c.loop_requests != c.subrequests {
        errors.push("shard traces do not sum to the routed sub-requests".into());
    }
    errors
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// How much slower than the nominal host of `REFERENCE_S` the host was at
/// its quietest in this run: the fastest reference time over `REFERENCE_S`.
/// Host rates are multiplied by it, so they read as on the nominal host
/// whatever other tenants did during the run, and still move with every
/// change in the program's own cost.
fn host_slowdown(calls: &Calls) -> f64 {
    fastest(&calls.reference) / REFERENCE_S
}

fn end_to_end(calls: &Calls, setup_s: f64, sum: &SimSummary, requests: usize) -> Vec<Metric> {
    // Read after the first call: later calls add only allocator
    // fragmentation, which grows with the number of calls a run fits in.
    let hwm_kb = calls.first_call_hwm_kb.unwrap_or(0);
    vec![
        m(
            "host_requests_per_s",
            host_slowdown(calls) * requests as f64 / fastest(&calls.seconds),
            "1/s",
        ),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", hwm_kb as f64 / 1024.0, "MB"),
        m("sim_p50_us", sum.p50_us, "us"),
        m("sim_p99_us", sum.p99_us, "us"),
        m("sim_goodput_qps", sum.goodput_qps, "1/s"),
        m(
            "sim_within_sla_share",
            sum.within_sla as f64 / sum.arrived as f64,
            "ratio",
        ),
    ]
}

fn per_layer(calls: &Calls, base_rss_kb: u64, requests: usize) -> Vec<Metric> {
    let passes = &calls.passes;
    let c = passes[0].counts;
    let layer = |name: &str| {
        median(
            &passes
                .iter()
                .map(|p| p.tracer.seconds(name))
                .collect::<Vec<_>>(),
        )
    };
    let route = layer("cluster.route");
    let warm = layer("system.warm");
    let serve = layer("serving.loop");
    let lower = layer("system.lower");
    let plan = layer("isa.plan");
    let nmp = layer("nmp.run_plan");
    let untraced = median(&calls.seconds);
    // Pass time no layer span covers: the tracing's own cost.
    let unattributed = median(
        &passes
            .iter()
            .map(|p| {
                p.tracer.seconds("pass")
                    - p.tracer.seconds("cluster.route")
                    - p.tracer.seconds("system.warm")
                    - p.tracer.seconds("serving.loop")
            })
            .collect::<Vec<_>>(),
    );
    let rss_kb = calls
        .first_call_hwm_kb
        .unwrap_or(0)
        .saturating_sub(base_rss_kb);
    let hit_lookups = c.cache_hits + c.cache_misses;
    vec![
        m("cluster.route_s", route, "s"),
        m(
            "cluster.route_ns_per_row",
            route * 1e9 / c.routed_rows.max(1) as f64,
            "ns",
        ),
        m("cluster.rejoin_s", untraced - route - warm - serve, "s"),
        m(
            "cluster.rss_bytes_per_request",
            rss_kb as f64 * 1024.0 / requests as f64,
            "B",
        ),
        m("cluster.subrequests", c.subrequests as f64, "count"),
        m("cluster.mean_fanout", c.mean_fanout, "count"),
        m(
            "cluster.rerouted_requests",
            c.rerouted_requests as f64,
            "count",
        ),
        m("cluster.router_shed", c.router_shed as f64, "count"),
        m("serving.loop_s", serve, "s"),
        m(
            "serving.ns_per_request",
            serve * 1e9 / c.loop_requests.max(1) as f64,
            "ns",
        ),
        m("serving.batches", c.batches as f64, "count"),
        m("serving.mean_occupancy", c.mean_occupancy, "count"),
        m("serving.retries", c.retries as f64, "count"),
        m(
            "serving.hedge_dispatches",
            c.hedge_dispatches as f64,
            "count",
        ),
        m("serving.shed", c.shed as f64, "count"),
        m("serving.timed_out", c.timed_out as f64, "count"),
        m("serving.queue_max_depth", c.queue_max_depth as f64, "count"),
        m("system.cold_replays", c.cold_replays as f64, "count"),
        m("system.warm_s", warm, "s"),
        m(
            "system.ms_per_cold_replay",
            warm * 1e3 / c.cold_replays.max(1) as f64,
            "ms",
        ),
        m("system.lower_s", lower, "s"),
        m("isa.plan_s", plan, "s"),
        m("nmp.run_plan_s", nmp, "s"),
        m("nmp.cycles", c.nmp_cycles as f64, "cycles"),
        m(
            "nmp.host_ns_per_cycle",
            nmp * 1e9 / c.nmp_cycles.max(1) as f64,
            "ns",
        ),
        m(
            "nmp.input_stall_cycles",
            c.input_stall_cycles as f64,
            "cycles",
        ),
        m("dram.reads", c.dram_reads as f64, "count"),
        m("dram.writes", c.dram_writes as f64, "count"),
        m("dram.activates", c.dram_activates as f64, "count"),
        m("dram.row_hits", c.dram_row_hits as f64, "count"),
        m("dram.row_conflicts", c.dram_row_conflicts as f64, "count"),
        m("dram.refreshes", c.dram_refreshes as f64, "count"),
        m("cache.hits", c.cache_hits as f64, "count"),
        m("cache.misses", c.cache_misses as f64, "count"),
        m(
            "cache.hit_rate",
            c.cache_hits as f64 / hit_lookups.max(1) as f64,
            "ratio",
        ),
        m("faults.transitions", c.fault_transitions as f64, "count"),
        m("faults.schedule_s", layer("faults.schedule"), "s"),
        m(
            "interconnect.transfer_keys",
            c.transfer_keys as f64,
            "count",
        ),
        m(
            "interconnect.transfer_s",
            layer("interconnect.transfer"),
            "s",
        ),
        m("trace.untraced_s", untraced, "s"),
        m("trace.traced_s", untraced + unattributed, "s"),
        m(
            "trace.overhead",
            (untraced + unattributed) / untraced,
            "ratio",
        ),
    ]
}

fn json_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let base_rss_kb = status_kb("VmRSS").unwrap_or(0);

    // Set-up is timed in a burst before the calls and in a short burst
    // after each call, so its fastest time samples the whole run.
    let mut setup_times = Vec::new();
    let timed_setup = |times: &mut Vec<f64>| {
        let t = Instant::now();
        let s = std::hint::black_box(setup(args.kind, args.seed));
        times.push(t.elapsed().as_secs_f64());
        s
    };
    for _ in 1..SETUP_REPS {
        drop(timed_setup(&mut setup_times));
    }
    let s = timed_setup(&mut setup_times);
    let requests = s.arrivals.len();

    let mut calls = Calls::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while calls.errors.is_empty() && (calls.seconds.len() < MIN_CALLS || Instant::now() < deadline)
    {
        calls.call(&s);
        if args.trace {
            calls.pass(&s);
        }
        for _ in 0..SETUP_BURST {
            drop(timed_setup(&mut setup_times));
        }
    }
    let metrics = if args.trace || !calls.errors.is_empty() {
        Vec::new()
    } else {
        let summary = calls.summary.expect("a call succeeded");
        end_to_end(&calls, fastest(&setup_times), &summary, requests)
    };
    // Untraced runs still take the call apart once, after timing, so
    // every run checks the decomposition and the mechanisms.
    if !args.trace && calls.errors.is_empty() {
        calls.pass(&s);
    }
    if let Some(counts) = calls.passes.first().map(|p| p.counts) {
        calls.errors.extend(mechanism_errors(args.kind, &counts));
    }
    let metrics = if args.trace && calls.errors.is_empty() {
        per_layer(&calls, base_rss_kb, requests)
    } else {
        metrics
    };

    let cores = effective_cores();
    println!(
        "env nproc={} effective_cores={cores:.3}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "host workload={} seed={} requests={requests} calls={} traced_passes={}",
        args.kind.name(),
        args.seed,
        calls.seconds.len(),
        calls.passes.len()
    );
    let all: Vec<String> = calls.seconds.iter().map(|x| format!("{x:.4}")).collect();
    println!("calls_s {}", all.join(" "));
    let all: Vec<String> = calls.reference.iter().map(|x| format!("{x:.5}")).collect();
    println!("reference_s {}", all.join(" "));
    if !calls.seconds.is_empty() {
        println!(
            "host fastest_call_s={} raw_requests_per_s={} fastest_reference_s={} host_slowdown={}",
            fastest(&calls.seconds),
            requests as f64 / fastest(&calls.seconds),
            fastest(&calls.reference),
            host_slowdown(&calls)
        );
    }
    if let Some(sum) = calls.summary {
        println!(
            "sim p50_us={} p99_us={} samples={} goodput_qps={} failed_share={} arrived={} \
             completed={} within_sla={} shed={} timed_out={} digest={:016x}",
            sum.p50_us,
            sum.p99_us,
            sum.samples,
            sum.goodput_qps,
            (sum.arrived - sum.within_sla) as f64 / sum.arrived as f64,
            sum.arrived,
            sum.completed,
            sum.within_sla,
            sum.shed,
            sum.timed_out,
            sum.digest()
        );
    }
    if let Some(p) = calls.passes.first() {
        println!("counts {:?}", p.counts);
    }
    for e in &calls.errors {
        println!("check failed: {e}");
    }
    let finite = metrics.iter().all(|x| x.value.is_finite());
    let correct = calls.errors.is_empty() && finite && !metrics.is_empty();
    println!(
        "{}",
        json_result(correct, calls.attempted.max(1), calls.failed, &metrics)
    );
    ExitCode::SUCCESS
}
