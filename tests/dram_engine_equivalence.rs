//! Equivalence of the event-driven DRAM engine against the tick oracle.
//!
//! The event-driven path (`TraceRunner::run`, `MemorySystem::advance_to`,
//! `push_blocking`, `run_to_completion`) must be *bit-identical* to
//! stepping one cycle at a time (`TraceRunner::run_ticked`,
//! `run_to_completion_ticked`): same completions in the same order, same
//! final cycle, same `ChannelStats` down to `busy_cycles`. These tests
//! drive both paths over randomized traces spanning every scheduler /
//! row-policy / refresh combination, the cycle pricer's deep queues and
//! watermarks, and a two-rank geometry. The event path decides FR-FCFS
//! per bank while the tick path keeps the per-request scan, so these
//! suites check one decision against the other.

use proptest::prelude::*;

use tensordimm::dram::{
    Completion, DramConfig, MappingScheme, MemoryStats, MemorySystem, Request, RowPolicy,
    SchedulerKind, Trace, TraceEntry, TraceRunner,
};
use tensordimm::system::CyclePricerConfig;

/// Run one trace through both engine paths and return
/// `(stats, completions, final_cycle, skipped)` per path.
fn both_paths(cfg: &DramConfig, trace: &Trace) -> [(MemoryStats, Vec<Completion>, u64, u64); 2] {
    let mut out = Vec::new();
    for event_driven in [false, true] {
        let mem = MemorySystem::new(cfg.clone()).expect("valid config");
        let mut runner = TraceRunner::new(mem);
        let stats = if event_driven {
            runner.run(trace).expect("in range")
        } else {
            runner.run_ticked(trace).expect("in range")
        };
        let memory = runner.memory_mut();
        let completions = memory.drain_completions();
        out.push((
            stats,
            completions,
            memory.cycle(),
            memory.idle_cycles_skipped(),
        ));
    }
    out.try_into().expect("two paths")
}

/// The memory geometries of the grid.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// One four-rank DDR4-3200 channel (a TensorDIMM's local memory).
    OneChannel,
    /// Two four-rank channels behind a channel-interleaved mapping.
    TwoChannels,
    /// Two channels of two ranks each.
    TwoRanks,
}

fn config(
    scheduler: SchedulerKind,
    row_policy: RowPolicy,
    refresh: bool,
    layout: Layout,
) -> DramConfig {
    let mut cfg = match layout {
        Layout::OneChannel => DramConfig::ddr4_3200_channel(),
        Layout::TwoChannels => DramConfig::cpu_memory(2),
        Layout::TwoRanks => {
            let mut cfg = DramConfig::cpu_memory(2);
            cfg.geometry.ranks_per_channel = 2;
            cfg.mapping = MappingScheme::channel_interleaved(&cfg.geometry);
            cfg
        }
    };
    cfg.scheduler = scheduler;
    cfg.row_policy = row_policy;
    cfg.refresh_enabled = refresh;
    cfg
}

/// `cfg` with the cycle pricer's replay queue depths and write
/// watermarks.
fn pricer_queues(mut cfg: DramConfig) -> DramConfig {
    let pricer = CyclePricerConfig::paper_defaults().nmp.dram;
    cfg.read_queue_depth = pricer.read_queue_depth;
    cfg.write_queue_depth = pricer.write_queue_depth;
    cfg.write_high_watermark = pricer.write_high_watermark;
    cfg.write_low_watermark = pricer.write_low_watermark;
    cfg
}

fn pick_layout(pick: u8) -> Layout {
    match pick {
        0 => Layout::OneChannel,
        1 => Layout::TwoChannels,
        _ => Layout::TwoRanks,
    }
}

fn build_trace(ops: &[(u8, u64, u64)], capacity: u64) -> Trace {
    let mut not_before = 0u64;
    ops.iter()
        .map(|&(kind, addr_frac, gap)| {
            not_before += gap;
            let addr = (addr_frac % (capacity / 64)) * 64;
            TraceEntry {
                not_before,
                request: if kind % 2 == 0 {
                    Request::read(addr).with_id(addr_frac)
                } else {
                    Request::write(addr).with_id(addr_frac)
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed read/write traces, with and without arrival gaps,
    /// across every scheduler x row-policy x refresh combination: the two
    /// paths must agree bit-for-bit, and the event path must actually
    /// skip cycles whenever the trace leaves idle time.
    #[test]
    fn event_path_matches_tick_oracle(
        ops in prop::collection::vec((0u8..2, 0u64..u64::MAX, 0u64..400), 1..120),
        scheduler_pick in 0u8..2,
        policy_pick in 0u8..2,
        refresh in 0u8..2,
        layout_pick in 0u8..3,
        deep_queues in 0u8..2,
    ) {
        let scheduler = if scheduler_pick == 0 { SchedulerKind::FrFcfs } else { SchedulerKind::Fcfs };
        let policy = if policy_pick == 0 { RowPolicy::OpenPage } else { RowPolicy::ClosedPage };
        let mut cfg = config(scheduler, policy, refresh == 1, pick_layout(layout_pick));
        if deep_queues == 1 {
            cfg = pricer_queues(cfg);
        }
        let trace = build_trace(&ops, cfg.capacity_bytes());

        let [(o_stats, o_done, o_cycle, o_skip), (f_stats, f_done, f_cycle, f_skip)] =
            both_paths(&cfg, &trace);

        prop_assert_eq!(o_skip, 0, "oracle path must not skip");
        prop_assert_eq!(&o_stats, &f_stats, "stats diverged");
        prop_assert_eq!(o_done, f_done, "completion streams diverged");
        prop_assert_eq!(o_cycle, f_cycle, "final cycles diverged");
        prop_assert_eq!(o_stats.totals.reads + o_stats.totals.writes, trace.len() as u64);
        // Any arrival gap implies idle spans the fast path should jump.
        let gaps: u64 = ops.iter().map(|&(_, _, g)| g).sum();
        if gaps > 2_000 {
            prop_assert!(f_skip > 0, "no cycles skipped despite {gaps} gap cycles");
        }
    }

    /// Narrow address windows force row conflicts and bank contention —
    /// the regime where the keep-row-open heuristic, precharge timing,
    /// and write-drain watermarks all interact.
    #[test]
    fn event_path_matches_oracle_under_conflicts(
        ops in prop::collection::vec((0u8..2, 0u64..64, 0u64..8), 16..200),
        scheduler_pick in 0u8..2,
        refresh in 0u8..2,
    ) {
        let scheduler = if scheduler_pick == 0 { SchedulerKind::FrFcfs } else { SchedulerKind::Fcfs };
        let cfg = config(scheduler, RowPolicy::OpenPage, refresh == 1, Layout::OneChannel);
        // Map the tiny address space over two rows of a few banks so open
        // rows are constantly contested.
        let window = 1u64 << 20;
        let conflict_ops: Vec<(u8, u64, u64)> = ops
            .iter()
            .map(|&(k, a, g)| (k, (a * 8191) % (window / 64), g))
            .collect();
        let trace = build_trace(&conflict_ops, window);

        let [(o_stats, o_done, o_cycle, _), (f_stats, f_done, f_cycle, _)] =
            both_paths(&cfg, &trace);
        prop_assert_eq!(&o_stats, &f_stats);
        prop_assert_eq!(o_done, f_done);
        prop_assert_eq!(o_cycle, f_cycle);
    }

    /// Write bursts past the pricer's 192-entry high watermark with reads
    /// queued behind them, on narrow address windows: write-drain mode
    /// switches back and forth while every bank holds a mix of hits and
    /// conflicts — the regime where the per-bank decision and the queue
    /// order interact most.
    #[test]
    fn event_path_matches_oracle_with_pricer_queues(
        bursts in prop::collection::vec((200usize..280, 0usize..80, 0u64..4096), 1..3),
        policy_pick in 0u8..2,
        refresh in 0u8..2,
        two_ranks in 0u8..2,
    ) {
        let policy = if policy_pick == 0 { RowPolicy::OpenPage } else { RowPolicy::ClosedPage };
        let layout = if two_ranks == 1 { Layout::TwoRanks } else { Layout::OneChannel };
        let cfg = pricer_queues(config(SchedulerKind::FrFcfs, policy, refresh == 1, layout));
        let window = 1u64 << 22;
        let mut ops = Vec::new();
        for &(writes, reads, salt) in &bursts {
            for i in 0..(writes + reads) as u64 {
                let kind = u8::from(i < writes as u64);
                ops.push((kind, (salt + i * 4099) % (window / 64), 0));
            }
        }
        let trace = build_trace(&ops, window);

        let [(o_stats, o_done, o_cycle, _), (f_stats, f_done, f_cycle, _)] =
            both_paths(&cfg, &trace);
        prop_assert_eq!(&o_stats, &f_stats);
        prop_assert_eq!(o_done, f_done);
        prop_assert_eq!(o_cycle, f_cycle);
    }

    /// `next_event_cycle` shares the step's horizon cache and fills it when
    /// it is empty (and remembers a command it finds issuable right away).
    /// Asking for the next event before every push and every advance must
    /// change nothing: the same completions and the same statistics as a
    /// run that never asks.
    #[test]
    fn probing_next_event_cycle_changes_nothing(
        ops in prop::collection::vec((0u8..2, 0u64..4096, 0u64..6), 16..200),
        policy_pick in 0u8..2,
        refresh in 0u8..2,
        layout_pick in 0u8..3,
        deep_queues in 0u8..2,
    ) {
        let policy = if policy_pick == 0 { RowPolicy::OpenPage } else { RowPolicy::ClosedPage };
        let mut cfg = config(SchedulerKind::FrFcfs, policy, refresh == 1, pick_layout(layout_pick));
        if deep_queues == 1 {
            cfg = pricer_queues(cfg);
        }
        // A few hundred KiB keep the queues busy with row hits and
        // conflicts, so commands are often issuable the moment they are
        // probed.
        let trace = build_trace(&ops, 1 << 22);
        let run = |probe: bool| {
            let mut mem = MemorySystem::new(cfg.clone()).expect("valid config");
            let mut wakes = Vec::new();
            let mut probe_now = |mem: &MemorySystem| {
                if probe {
                    let wake = mem.next_event_cycle();
                    if let Some(at) = wake {
                        assert!(at >= mem.cycle(), "next event lies in the past");
                    }
                    wakes.push(wake);
                }
            };
            for entry in trace.entries() {
                if mem.cycle() < entry.not_before {
                    probe_now(&mem);
                    mem.advance_to(entry.not_before);
                }
                // Offer the request and step one cycle, until accepted — as
                // the NMP replay loop does — so a probe, an enqueue and a
                // step can all fall on one cycle.
                loop {
                    probe_now(&mem);
                    let accepted = mem.push(entry.request).expect("in range");
                    let next = mem.cycle() + 1;
                    mem.advance_to(next);
                    if accepted {
                        break;
                    }
                }
            }
            while mem.is_busy() {
                probe_now(&mem);
                let next = mem.cycle() + 1;
                mem.advance_to(next);
            }
            (mem.stats(), mem.drain_completions(), mem.cycle())
        };
        let (plain_stats, plain_done, plain_cycle) = run(false);
        let (probed_stats, probed_done, probed_cycle) = run(true);
        prop_assert_eq!(&plain_stats, &probed_stats, "stats diverged");
        prop_assert_eq!(plain_done, probed_done, "completion streams diverged");
        prop_assert_eq!(plain_cycle, probed_cycle);
        prop_assert_eq!(plain_stats.totals.reads + plain_stats.totals.writes, trace.len() as u64);
    }

    /// One controller driven by a random mix of `tick()`,
    /// `advance_to(now + k)`, jumps to `next_event_cycle()` and probes
    /// followed by a tick must match a tick-only run: the same completions, the same
    /// statistics. Both runs enqueue at the same cycles; only the way the
    /// clock moves between enqueues differs. State that only one of the
    /// two paths keeps up to date shows up here and nowhere else.
    #[test]
    fn mixed_tick_and_event_steps_match_ticking(
        ops in prop::collection::vec((0u8..2, 0u64..4096, 0u64..24), 16..200),
        steps in prop::collection::vec((0u8..4, 1u64..12), 1..24),
        scheduler_pick in 0u8..2,
        policy_pick in 0u8..2,
        refresh in 0u8..2,
        layout_pick in 0u8..3,
        deep_queues in 0u8..2,
    ) {
        let scheduler = if scheduler_pick == 0 { SchedulerKind::FrFcfs } else { SchedulerKind::Fcfs };
        let policy = if policy_pick == 0 { RowPolicy::OpenPage } else { RowPolicy::ClosedPage };
        let mut cfg = config(scheduler, policy, refresh == 1, pick_layout(layout_pick));
        if deep_queues == 1 {
            cfg = pricer_queues(cfg);
        }
        let trace = build_trace(&ops, 1 << 22);
        // Move `mem` to `target` (`None`: until it drains idle), ticking
        // only, or taking the next steps of the cyclic `steps` schedule.
        let mut next_step = 0usize;
        let mut move_to = |mem: &mut MemorySystem, target: Option<u64>, mixed: bool| loop {
            let done = match target {
                Some(target) => mem.cycle() >= target,
                None => !mem.is_busy(),
            };
            if done {
                break;
            }
            let limit = target.unwrap_or(u64::MAX);
            if !mixed {
                mem.tick();
                continue;
            }
            let (kind, k) = steps[next_step % steps.len()];
            next_step += 1;
            match kind {
                0 => mem.tick(),
                1 => mem.advance_to((mem.cycle() + k).min(limit)),
                2 => {
                    if let Some(at) = mem.next_event_cycle() {
                        assert!(at >= mem.cycle(), "next event lies in the past");
                    }
                    mem.tick();
                }
                _ => {
                    let now = mem.cycle();
                    let wake = mem.next_event_cycle().unwrap_or(now + 1);
                    mem.advance_to(wake.max(now + 1).min(limit));
                }
            }
        };
        let mut run = |mixed: bool| {
            let mut mem = MemorySystem::new(cfg.clone()).expect("valid config");
            for entry in trace.entries() {
                move_to(&mut mem, Some(entry.not_before), mixed);
                loop {
                    let accepted = mem.push(entry.request).expect("in range");
                    let next = mem.cycle() + 1;
                    move_to(&mut mem, Some(next), mixed);
                    if accepted {
                        break;
                    }
                }
            }
            move_to(&mut mem, None, mixed);
            mem
        };
        let mut mixed = run(true);
        let mut ticked = run(false);
        // A mixed drain may overshoot the idle point by a jump; tick the
        // reference up to the same cycle.
        prop_assert!(ticked.cycle() <= mixed.cycle());
        let end = mixed.cycle();
        while ticked.cycle() < end {
            ticked.tick();
        }
        prop_assert_eq!(&ticked.stats(), &mixed.stats(), "stats diverged");
        prop_assert_eq!(ticked.drain_completions(), mixed.drain_completions());
        prop_assert_eq!(ticked.stats().totals.reads + ticked.stats().totals.writes, trace.len() as u64);
    }
}

/// A full-queue back-pressure replay: `push_blocking` (event path) and the
/// per-cycle retry loop must enqueue at identical cycles, which the
/// per-completion `enqueued_at` stamps make observable.
#[test]
fn back_pressure_enqueue_cycles_match() {
    let mut cfg = DramConfig::ddr4_3200_channel();
    cfg.read_queue_depth = 4;
    cfg.write_queue_depth = 4;
    cfg.write_high_watermark = 3;
    cfg.write_low_watermark = 1;
    let mut trace = Trace::new();
    for i in 0..256u64 {
        if i % 3 == 0 {
            trace.write((i * 131) % (1 << 22) * 64);
        } else {
            trace.read((i * 131) % (1 << 22) * 64);
        }
    }
    let [(o_stats, o_done, _, _), (f_stats, f_done, _, f_skip)] = both_paths(&cfg, &trace);
    assert_eq!(o_stats, f_stats);
    assert!(!o_done.is_empty());
    for (o, f) in o_done.iter().zip(&f_done) {
        assert_eq!(o.enqueued_at, f.enqueued_at, "enqueue cycle drift");
        assert_eq!(o.finished_at, f.finished_at, "finish cycle drift");
    }
    assert!(
        f_skip > 0,
        "tiny queues stall the producer; spans must skip"
    );
}

/// An empty trace is a no-op on both paths.
#[test]
fn empty_trace_is_noop() {
    let cfg = DramConfig::ddr4_3200_channel();
    let [(o_stats, o_done, o_cycle, _), (f_stats, f_done, f_cycle, _)] =
        both_paths(&cfg, &Trace::new());
    assert_eq!(o_stats, f_stats);
    assert_eq!(o_done, f_done);
    assert_eq!((o_cycle, f_cycle), (0, 0));
}

/// `advance_to` across several refresh windows on an idle system must
/// replay every refresh the oracle performs.
#[test]
fn idle_refresh_cadence_matches() {
    let cfg = DramConfig::ddr4_3200_channel();
    let horizon = 5 * cfg.timing.trefi;
    let mut oracle = MemorySystem::new(cfg.clone()).unwrap();
    for _ in 0..horizon {
        oracle.tick();
    }
    let mut fast = MemorySystem::new(cfg).unwrap();
    fast.advance_to(horizon);
    assert_eq!(oracle.stats(), fast.stats());
    assert!(oracle.stats().totals.refreshes > 0);
    assert!(fast.idle_cycles_skipped() > 0);
}
