//! Exact pins of the cycle-level engines' results.
//!
//! Each case hashes what an engine produced — the DRAM completion stream
//! and `MemoryStats`, a gather replay's `NmpRunStats`, a fabric's
//! delivery times and per-link counters — and compares the hash with a
//! value recorded before the engines' schedulers were reworked for speed.
//! The reworks must not change a single simulated bit, so any drift in
//! command order, timing or accounting shows up here as a different hash.

use tensordimm::cache::HotRowCacheConfig;
use tensordimm::dram::{
    DramConfig, MappingScheme, MemoryStats, MemorySystem, Request, RowPolicy, SchedulerKind, Trace,
    TraceEntry, TraceRunner,
};
use tensordimm::interconnect::fabric::{Fabric, TopologyKind};
use tensordimm::interconnect::Link;
use tensordimm::isa::AccessPlan;
use tensordimm::models::Workload;
use tensordimm::nmp::{NmpCore, NmpRunStats};
use tensordimm::system::CyclePricerConfig;

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

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A mixed trace with both locality and contention: sequential bursts
/// (row hits), a handful of hot rows in a few banks (conflicts), uniform
/// random blocks, write bursts long enough to cross the deep queues' high
/// watermark, and occasional idle gaps that span refresh deadlines.
fn mixed_trace(cfg: &DramConfig, seed: u64, len: usize) -> Trace {
    let blocks = cfg.capacity_bytes() / 64;
    let mut rng = seed;
    let mut trace = Trace::new();
    let mut not_before = 0u64;
    let mut seq_block = splitmix(&mut rng) % blocks;
    let mut write_burst = 0usize;
    for i in 0..len {
        let r = splitmix(&mut rng);
        not_before += match r % 64 {
            0 => 3_000 + (r >> 8) % 20_000,
            1..=8 => (r >> 8) % 40,
            _ => 0,
        };
        if write_burst == 0 && (r >> 20).is_multiple_of(97) {
            write_burst = 200 + ((r >> 28) % 120) as usize;
        }
        let is_write = if write_burst > 0 {
            write_burst -= 1;
            true
        } else {
            (r >> 12) % 5 < 2
        };
        let block = match (r >> 16) % 4 {
            0 | 1 => {
                seq_block = (seq_block + 1) % blocks;
                seq_block
            }
            2 => ((r >> 24) % 8) * (blocks / 8) + (r >> 40) % 4,
            _ => (r >> 24) % blocks,
        };
        let request = if is_write {
            Request::write(block * 64)
        } else {
            Request::read(block * 64)
        };
        trace.push(TraceEntry {
            not_before,
            request: request.with_id(i as u64),
        });
    }
    trace
}

fn stats_hash(h: &mut Fnv, stats: &MemoryStats) {
    let t = &stats.totals;
    for w in [
        t.cycles,
        t.reads,
        t.writes,
        t.bus_busy_cycles,
        t.row_hits,
        t.row_misses,
        t.row_conflicts,
        t.activates,
        t.precharges,
        t.refreshes,
        t.read_latency_sum,
        t.busy_cycles,
        stats.channels as u64,
    ] {
        h.word(w);
    }
}

/// `(completion-stream hash, MemoryStats hash)` of one event-driven replay.
fn dram_pin(cfg: &DramConfig, seed: u64, len: usize) -> (u64, u64) {
    let trace = mixed_trace(cfg, seed, len);
    let mut runner = TraceRunner::new(MemorySystem::new(cfg.clone()).expect("valid config"));
    let mut done = Vec::new();
    let stats = runner
        .run_with_completions(&trace, &mut done)
        .expect("in range");
    assert_eq!(done.len(), len, "every request completes");
    let mut completions = Fnv::new();
    for c in &done {
        completions.word(c.request.id);
        completions.word(c.enqueued_at);
        completions.word(c.finished_at);
    }
    let mut memory = Fnv::new();
    stats_hash(&mut memory, &stats);
    (completions.0, memory.0)
}

fn channel(scheduler: SchedulerKind, row_policy: RowPolicy, refresh: bool) -> DramConfig {
    let mut cfg = DramConfig::ddr4_3200_channel();
    cfg.scheduler = scheduler;
    cfg.row_policy = row_policy;
    cfg.refresh_enabled = refresh;
    cfg
}

/// The cycle pricer's deep replay queues.
fn deep_queues(mut cfg: DramConfig) -> DramConfig {
    let pricer = CyclePricerConfig::paper_defaults().nmp.dram;
    cfg.read_queue_depth = pricer.read_queue_depth;
    cfg.write_queue_depth = pricer.write_queue_depth;
    cfg.write_high_watermark = pricer.write_high_watermark;
    cfg.write_low_watermark = pricer.write_low_watermark;
    cfg
}

/// Two channels of two ranks each behind a channel-interleaved mapping.
fn two_rank_pair() -> DramConfig {
    let mut cfg = DramConfig::cpu_memory(2);
    cfg.geometry.ranks_per_channel = 2;
    cfg.mapping = MappingScheme::channel_interleaved(&cfg.geometry);
    cfg
}

const DRAM_LEN: usize = 2_500;

#[test]
fn dram_fr_fcfs_pins() {
    use RowPolicy::{ClosedPage, OpenPage};
    use SchedulerKind::FrFcfs;
    let cases: [(DramConfig, (u64, u64)); 4] = [
        (
            channel(FrFcfs, OpenPage, true),
            (13313663582264830261, 11326287681731123428),
        ),
        (
            channel(FrFcfs, OpenPage, false),
            (8107080986021313873, 14657263582824641399),
        ),
        (
            channel(FrFcfs, ClosedPage, true),
            (9876506908878981177, 12899628367653927124),
        ),
        (
            channel(FrFcfs, ClosedPage, false),
            (12946123607154578217, 15474532982642480086),
        ),
    ];
    for (i, (cfg, expect)) in cases.iter().enumerate() {
        assert_eq!(dram_pin(cfg, 11 + i as u64, DRAM_LEN), *expect, "case {i}");
    }
}

#[test]
fn dram_fcfs_pins() {
    use RowPolicy::{ClosedPage, OpenPage};
    use SchedulerKind::Fcfs;
    let cases: [(DramConfig, (u64, u64)); 3] = [
        (
            channel(Fcfs, OpenPage, true),
            (3636085538261531911, 17512814605503828101),
        ),
        (
            channel(Fcfs, OpenPage, false),
            (12429363533635945356, 13759048244590135115),
        ),
        (
            channel(Fcfs, ClosedPage, true),
            (896751887329593432, 3549769753032777724),
        ),
    ];
    for (i, (cfg, expect)) in cases.iter().enumerate() {
        assert_eq!(dram_pin(cfg, 21 + i as u64, DRAM_LEN), *expect, "case {i}");
    }
}

#[test]
fn dram_deep_queue_pins() {
    use RowPolicy::{ClosedPage, OpenPage};
    use SchedulerKind::{Fcfs, FrFcfs};
    let cases: [(DramConfig, (u64, u64)); 4] = [
        (
            deep_queues(channel(FrFcfs, OpenPage, true)),
            (9593439832872133801, 3012404575372976414),
        ),
        (
            deep_queues(channel(FrFcfs, ClosedPage, false)),
            (8855879587955535404, 2225272729917702976),
        ),
        (
            deep_queues(channel(Fcfs, OpenPage, true)),
            (13156674989825785921, 10904969648002686867),
        ),
        (
            deep_queues(two_rank_pair()),
            (14538408901633624174, 3519986258397127526),
        ),
    ];
    for (i, (cfg, expect)) in cases.iter().enumerate() {
        assert_eq!(dram_pin(cfg, 31 + i as u64, DRAM_LEN), *expect, "case {i}");
    }
}

fn nmp_hash(stats: &NmpRunStats) -> u64 {
    let mut h = Fnv::new();
    for w in [
        stats.cycles,
        stats.reads,
        stats.writes,
        stats.alu_ops,
        stats.input_stall_cycles,
        stats.output_wait_cycles,
        stats.hot_rows.hits,
        stats.hot_rows.misses,
        stats.hot_rows.evictions,
        stats.hot_rows.hit_blocks,
    ] {
        h.word(w);
    }
    stats_hash(&mut h, &stats.memory);
    h.0
}

/// One cold gather replay exactly as the cycle pricer lowers and runs it.
fn gather_replay(workload: &Workload, batch: usize, hot_rows: HotRowCacheConfig) -> NmpRunStats {
    let mut config = CyclePricerConfig::paper_defaults();
    config.nmp.hot_rows = hot_rows;
    let (instr, indices, ctx) = config.lowered_gather(0.9, workload, batch);
    let plan = AccessPlan::for_dimm(&instr, ctx, Some(&indices)).expect("valid gather plan");
    NmpCore::new(config.nmp)
        .expect("valid NMP config")
        .run_plan(&instr, &plan, ctx)
        .expect("replay runs")
}

#[test]
fn nmp_gather_replay_pins() {
    let cached = HotRowCacheConfig::fully_associative(64);
    let cases: [(Workload, usize, HotRowCacheConfig, (u64, u64)); 4] = [
        (
            Workload::facebook(),
            8,
            HotRowCacheConfig::disabled(),
            (16491, 720280437777626457),
        ),
        (
            Workload::ncf(),
            4,
            HotRowCacheConfig::disabled(),
            (346, 17329676952329287510),
        ),
        (Workload::youtube(), 2, cached, (1973, 340001872798464830)),
        (
            Workload::facebook(),
            8,
            cached,
            (15384, 2213656292437640587),
        ),
    ];
    for (i, (workload, batch, hot_rows, expect)) in cases.iter().enumerate() {
        let stats = gather_replay(workload, *batch, *hot_rows);
        assert_eq!((stats.cycles, nmp_hash(&stats)), *expect, "case {i}");
    }
}

/// The benchmark's cold replays: the pricer's defaults behind the
/// 1024-row 8-way hot-row cache, on the Facebook workload. Batches of 10
/// and more reach the 2,000-lookup replay cap and push the write queue
/// past its 192-entry watermark, so they exercise write-drain decisions.
#[test]
fn nmp_benchmark_shape_pins() {
    let cached = HotRowCacheConfig::set_associative(1024, 8);
    let cases: [(usize, (u64, u64)); 4] = [
        (1, (1939, 8613397704053946149)),
        (4, (7644, 15910898335577941741)),
        (10, (18682, 2708206625758175262)),
        (32, (19042, 9786686207851091989)),
    ];
    for (batch, expect) in cases {
        let stats = gather_replay(&Workload::facebook(), batch, cached);
        assert_eq!((stats.cycles, nmp_hash(&stats)), expect, "batch {batch}");
    }
}

/// `(delivery hash, per-link stats hash)` of a fabric run with
/// injections staggered across ticks, so messages join and leave the
/// streaming set while others are mid-hop.
fn fabric_pin(kind: TopologyKind, nodes: usize) -> (u64, u64) {
    let mut fabric = Fabric::new(kind.build(nodes, Link::nvlink2_x6()).expect("valid"));
    let tick = 0.37;
    let mut rng = 0x5eed ^ nodes as u64;
    let mut deliveries = Vec::new();
    for round in 0..12 {
        for _ in 0..1 + round % 3 {
            let r = splitmix(&mut rng);
            let from = (r % nodes as u64) as usize;
            let to = ((r >> 8) % nodes as u64) as usize;
            let bytes = (1 + (r >> 16) % 64) << 16;
            fabric.inject(from, to, bytes).expect("in range");
        }
        for _ in 0..(splitmix(&mut rng) % 9) {
            deliveries.extend(fabric.advance(tick).expect("positive tick"));
        }
    }
    deliveries.extend(fabric.run_until_idle(tick).expect("positive tick"));
    let mut h = Fnv::new();
    for d in &deliveries {
        h.word(d.id);
        h.word(d.injected_us.to_bits());
        h.word(d.delivered_us.to_bits());
    }
    let mut links = Fnv::new();
    let stats = fabric.stats();
    for w in [stats.injected, stats.delivered, stats.peak_in_flight as u64] {
        links.word(w);
    }
    for (link, s) in &stats.per_link {
        for w in [
            link.from as u64,
            link.to as u64,
            s.forwarded_messages,
            s.forwarded_bytes,
            s.peak_in_flight as u64,
        ] {
            links.word(w);
        }
    }
    (h.0, links.0)
}

#[test]
fn fabric_pins() {
    let cases = [
        (
            TopologyKind::Line,
            5,
            (12392683491647769846, 4572502723298483240),
        ),
        (
            TopologyKind::Ring,
            6,
            (13370810154117801066, 5242103362598549598),
        ),
        (
            TopologyKind::FullyConnected,
            4,
            (15800961896122219445, 17314396607463332625),
        ),
    ];
    for (kind, nodes, expect) in cases {
        assert_eq!(fabric_pin(kind, nodes), expect, "{kind:?}");
    }
}
