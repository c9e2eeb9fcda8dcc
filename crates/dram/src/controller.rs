//! Per-channel memory controller.
//!
//! Implements FR-FCFS (first-ready, first-come-first-served) or strict FCFS
//! scheduling over separate read and write queues, with watermark-based
//! write draining, open- or closed-page row management, and all-bank
//! refresh. One DRAM command may issue per controller cycle.
//!
//! # Per-bank scheduling decisions
//!
//! Under FR-FCFS every queued row hit of one bank shares one column-issue
//! time, and every other queued entry of that bank shares one ACTIVATE (bank
//! closed) or PRECHARGE (other row open) time. The event-driven path
//! therefore evaluates one time per bank rather than one per request. It
//! issues the oldest row hit, by arrival sequence number, among the banks
//! whose hit time has come; failing that, the oldest front entry among the
//! banks that have no queued hit and whose preparatory command is ready. A
//! bank with a queued hit gets no preparatory command: closing its row would
//! throw the hit away, and the hit is served first.
//!
//! [`MemoryController::tick`] keeps the original per-request scan in
//! arrival order as the reference decision (O(queue) per cycle), and that
//! scan reads none of the state described next. The tick-vs-event
//! equivalence suites thus check the per-bank decision against an
//! independent implementation, not against itself.
//!
//! # State kept between decisions
//!
//! Between two state changes only the clock moves, so the per-bank decision
//! reads state that persists across decisions and is updated only where a
//! command or an enqueue changes it. Both paths keep it up to date, so
//! callers may mix [`MemoryController::tick`] and
//! [`MemoryController::advance_to`] on one controller.
//!
//! * **Per-bank candidates**, per queue, in flat arrays: the bank's next
//!   command, the bank-local part of its issue time, and an ordering key —
//!   the arrival number of its oldest row hit or, when no entry hits the
//!   open row, that of its front entry ranked after every hit. An enqueue
//!   updates the candidate of its bank in its queue. A command updates the
//!   candidates of the bank it touched in both queues; a refresh, those of
//!   every bank in its rank.
//! * **Issue floors**, per bank group and command kind: the rank-, group-
//!   and bus-wide parts of the issue times. An ACTIVATE recomputes its
//!   rank's floors (tRRD, tFAW) and a column command its rank's and every
//!   rank's bus terms, all groups of a rank in one pass; a refresh raises
//!   its rank's floors to the new refresh-busy time; a PRECHARGE changes
//!   none.
//! * **A decision taken ahead.** When nothing can issue, the decision also
//!   names the command that wins at its horizon, and the step at that cycle
//!   issues it without deciding again; likewise a command
//!   [`MemoryController::next_event_cycle`] finds issuable at the current
//!   cycle. Any command, any enqueue, a different write-drain mode or a
//!   refresh falling due in the command's rank drops it.
//!
//! A decision is then the smallest key among the occupied banks whose
//! issue time `max(local part, floor)` has come, and a wait lasts until the
//! smallest issue time.
//!
//! # Event-driven time skipping
//!
//! [`MemoryController::tick`] advances exactly one cycle and is the
//! bit-exact oracle. [`MemoryController::advance_to`] and
//! [`MemoryController::run_until_idle`] reach the same state by jumping
//! over spans in which provably nothing can happen: every internal step
//! also computes a *horizon* — a lower bound on the next cycle at which a
//! queued command could become issuable, a refresh falls due or becomes
//! serviceable, or an in-flight burst completes. Between command issues
//! all timing state is frozen, so jumping to the horizon (while crediting
//! the skipped span to [`ChannelStats::busy_cycles`]) is exactly
//! equivalent to ticking through it.
//!
//! The horizon stays cached until a command issues or a request is
//! enqueued. [`MemoryController::next_event_cycle`] shares that cache: it
//! returns the cached horizon when one is valid and stores what it
//! computes otherwise, so a co-simulation loop that asks for the next
//! event and then advances to it scans the queues once, not twice. A skip
//! refreshes the write-drain mode once, as the first skipped step would
//! have: a horizon computed right after an issue may skip the step that
//! sees the shortened queue, and the mode's hysteresis must not fall
//! behind.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::address::DramAddr;
use crate::bank::Bank;
use crate::channel::ChannelState;
use crate::command::DramCommand;
use crate::config::{DramConfig, Geometry, RowPolicy, SchedulerKind};
use crate::request::{Completion, Request, RequestKind};
use crate::stats::ChannelStats;
use crate::timing::DramTiming;

/// Command kinds of a per-bank candidate, each also the offset of the
/// floor it combines with in [`IssueFloors::at`].
const READ: usize = 0;
const WRITE: usize = 1;
const ACTIVATE: usize = 2;
const PRECHARGE: usize = 3;
const KINDS: usize = 4;

/// Added to a preparatory candidate's key, ranking it after every row hit.
const PREP: u64 = 1 << 63;

#[derive(Debug, Clone)]
struct QueuedRequest {
    request: Request,
    dram: DramAddr,
    enqueued_at: u64,
    /// Arrival sequence number within its queue (increasing front to back).
    seq: u64,
    /// The request had to activate a row (row miss).
    needed_activate: bool,
    /// The request had to close another row first (row conflict).
    needed_precharge: bool,
}

/// One bank's candidate for the next command from one queue.
#[derive(Debug, Clone, Copy, Default)]
struct Candidate {
    /// Arrival number of the bank's oldest row hit or, when no entry hits
    /// the open row, [`PREP`] plus that of its front entry: among the
    /// banks whose time has come, the smallest key issues.
    key: u64,
    /// The bank-local part of the command's issue time.
    local: u64,
    /// Index of the command's floor in [`IssueFloors::at`]; its kind is
    /// `floor % KINDS`.
    floor: usize,
}

/// One request queue: the arrival-ordered store, plus each bank's queued
/// `(seq, row)` pairs in arrival order and its [`Candidate`] beside it.
#[derive(Debug, Clone)]
struct RequestQueue {
    entries: VecDeque<QueuedRequest>,
    /// Indexed by channel-wide bank number
    /// (`rank * banks_per_rank + bank_group * banks_per_group + bank`).
    banks: Vec<Vec<(u64, usize)>>,
    /// Valid for the banks with queued entries.
    candidates: Vec<Candidate>,
    /// Bit `b % 64` of word `b / 64` is set while bank `b` has queued
    /// entries, so a decision visits only occupied banks.
    occupied: Vec<u64>,
    /// [`READ`] or [`WRITE`]: the column command this queue's hits take.
    column: usize,
    banks_per_rank: usize,
    banks_per_group: usize,
    next_seq: u64,
}

impl RequestQueue {
    fn new(capacity: usize, geometry: &Geometry, column: usize) -> Self {
        let banks_per_rank = geometry.banks_per_rank();
        let banks = geometry.ranks_per_channel * banks_per_rank;
        RequestQueue {
            entries: VecDeque::with_capacity(capacity),
            banks: vec![Vec::new(); banks],
            candidates: vec![Candidate::default(); banks],
            occupied: vec![0; banks.div_ceil(64)],
            column,
            banks_per_rank,
            banks_per_group: geometry.banks_per_group,
            next_seq: 0,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn bank_of(&self, dram: &DramAddr) -> usize {
        dram.rank * self.banks_per_rank + dram.flat_bank(self.banks_per_group)
    }

    /// Channel-wide numbers of the banks with queued entries, ascending.
    fn occupied_banks(&self) -> impl Iterator<Item = usize> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(|(word_index, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(word_index * 64 + bit)
                })
            })
    }

    /// Queue `request` for `dram`, whose bank's timing state is `bank`.
    fn push(&mut self, request: Request, dram: DramAddr, bank: &Bank, enqueued_at: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bank_id = self.bank_of(&dram);
        self.banks[bank_id].push((seq, dram.row));
        self.occupied[bank_id / 64] |= 1 << (bank_id % 64);
        self.entries.push_back(QueuedRequest {
            request,
            dram,
            enqueued_at,
            seq,
            needed_activate: false,
            needed_precharge: false,
        });
        self.update_candidate(bank_id, bank);
    }

    /// Store index of the queued entry with arrival number `seq`.
    fn position(&self, seq: u64) -> usize {
        self.entries
            .binary_search_by_key(&seq, |q| q.seq)
            .expect("indexed entries are queued")
    }

    /// Remove the entry at store index `index`. The caller updates its
    /// bank's candidate once the command has changed the bank's state.
    fn remove(&mut self, index: usize) -> QueuedRequest {
        let q = self
            .entries
            .remove(index)
            .expect("scheduler chose an in-range queue index");
        let bank = self.bank_of(&q.dram);
        let list = &mut self.banks[bank];
        let at = list
            .iter()
            .position(|&(seq, _)| seq == q.seq)
            .expect("queued entries are indexed");
        list.remove(at);
        if list.is_empty() {
            self.occupied[bank / 64] &= !(1 << (bank % 64));
        }
        q
    }

    /// The candidate of bank `bank_id`, whose timing state is `bank`, as
    /// its queued entries make it (`None` when it has none).
    fn candidate(&self, bank_id: usize, bank: &Bank) -> Option<Candidate> {
        let list = &self.banks[bank_id];
        let &(front, _) = list.first()?;
        let hit = bank
            .open_row
            .and_then(|open| list.iter().find(|&&(_, row)| row == open));
        let (key, kind, local) = match (hit, bank.open_row) {
            (Some(&(seq, _)), _) if self.column == READ => (seq, READ, bank.next_rd),
            (Some(&(seq, _)), _) => (seq, WRITE, bank.next_wr),
            (None, None) => (PREP | front, ACTIVATE, bank.next_act),
            (None, Some(_)) => (PREP | front, PRECHARGE, bank.next_pre),
        };
        Some(Candidate {
            key,
            local,
            floor: bank_id / self.banks_per_group * KINDS + kind,
        })
    }

    fn update_candidate(&mut self, bank_id: usize, bank: &Bank) {
        if let Some(candidate) = self.candidate(bank_id, bank) {
            self.candidates[bank_id] = candidate;
        }
    }
}

/// The rank-, bank-group- and bus-wide parts of every bank group's issue
/// times, recomputed only when a command changes them.
#[derive(Debug, Clone)]
struct IssueFloors {
    /// Indexed `group * KINDS + kind`, where `group` is the channel-wide
    /// bank-group number (`rank * bank_groups + bank_group`).
    at: Vec<u64>,
    /// Each group's READ and WRITE floors without the bus terms.
    in_rank: Vec<[u64; 2]>,
    bank_groups: usize,
}

impl IssueFloors {
    fn new(state: &ChannelState, t: &DramTiming, geometry: &Geometry) -> Self {
        let groups = geometry.ranks_per_channel * geometry.bank_groups;
        let mut floors = IssueFloors {
            at: vec![0; groups * KINDS],
            in_rank: vec![[0; 2]; groups],
            bank_groups: geometry.bank_groups,
        };
        for rank in 0..geometry.ranks_per_channel {
            floors.activated(state, t, rank);
            floors.column_issued(state, t, rank);
            floors.refreshed(state, rank);
        }
        floors
    }

    /// After an ACTIVATE in `rank`: its groups' tRRD and tFAW floors.
    fn activated(&mut self, state: &ChannelState, t: &DramTiming, rank: usize) {
        let r = &state.ranks[rank];
        let first = rank * self.bank_groups;
        r.activate_floors(t, |bank_group, floor| {
            self.at[(first + bank_group) * KINDS + ACTIVATE] = floor;
        });
    }

    /// After a column command in `rank`: its groups' CAS spacing and
    /// turnarounds, and every group's bus terms.
    fn column_issued(&mut self, state: &ChannelState, t: &DramTiming, rank: usize) {
        let first = rank * self.bank_groups;
        state.ranks[rank].column_floors(t, |bank_group, floors| {
            self.in_rank[first + bank_group] = floors;
        });
        for (rank, groups) in self.in_rank.chunks(self.bank_groups).enumerate() {
            let bus = [
                state.bus_floor(t, true, rank),
                state.bus_floor(t, false, rank),
            ];
            let first = rank * self.bank_groups;
            for (bank_group, &[read, write]) in groups.iter().enumerate() {
                let at = (first + bank_group) * KINDS;
                self.at[at + READ] = read.max(bus[0]);
                self.at[at + WRITE] = write.max(bus[1]);
            }
        }
    }

    /// After a refresh of `rank` (or to start): its refresh-busy time is
    /// a term of every floor of its groups and the only one a refresh
    /// moves, and it only grows, so each floor rises to it.
    fn refreshed(&mut self, state: &ChannelState, rank: usize) {
        let busy = state.ranks[rank].refresh_busy_until;
        let first = rank * self.bank_groups;
        for group in first..first + self.bank_groups {
            self.in_rank[group] = self.in_rank[group].map(|floor| floor.max(busy));
            for floor in &mut self.at[group * KINDS..(group + 1) * KINDS] {
                *floor = (*floor).max(busy);
            }
        }
    }
}

/// A decision taken before the step that carries it out (module docs).
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// The cycle whose step issues it.
    at: u64,
    /// The write-drain mode it was taken under.
    serve_writes: bool,
    /// Arrival number of the queued entry it serves.
    seq: u64,
    /// That entry's rank: a refresh falling due there blocks the command.
    rank: usize,
    cmd: DramCommand,
}

/// What one scheduling pass decided.
enum Decision {
    /// Issue `cmd` for the queued entry at store index `index`.
    Issue { index: usize, cmd: DramCommand },
    /// Nothing can issue before cycle `at` (`u64::MAX`: not without a
    /// state change); `then`, when known, is what issues at `at` if
    /// nothing changes until then.
    Wait { at: u64, then: Option<Pending> },
}

/// The column command a request maps to under the given row policy.
fn col_cmd(kind: RequestKind, policy: RowPolicy) -> DramCommand {
    match (kind, policy) {
        (RequestKind::Read, RowPolicy::OpenPage) => DramCommand::Read,
        (RequestKind::Read, RowPolicy::ClosedPage) => DramCommand::ReadAp,
        (RequestKind::Write, RowPolicy::OpenPage) => DramCommand::Write,
        (RequestKind::Write, RowPolicy::ClosedPage) => DramCommand::WriteAp,
    }
}

/// A single-channel DDR4 memory controller.
///
/// Normally driven through [`crate::MemorySystem`]; exposed publicly so the
/// NMP-local controller of a TensorDIMM can embed one directly.
#[derive(Debug, Clone)]
pub struct MemoryController {
    config: DramConfig,
    state: ChannelState,
    read_queue: RequestQueue,
    write_queue: RequestQueue,
    /// The floors of every bank group's issue times (module docs).
    floors: IssueFloors,
    write_mode: bool,
    cycle: u64,
    /// Latest in-flight data-burst completion time.
    last_burst_done: u64,
    completions: Vec<Completion>,
    stats: ChannelStats,
    /// Cached `min` over ranks of `next_refresh_due`: the refresh machinery
    /// is provably inert before this cycle, so ticks skip the per-rank scan.
    next_refresh_due_min: u64,
    /// Horizon left by the last non-acting step or computed by
    /// [`MemoryController::next_event_cycle`]: no command can issue
    /// strictly before this cycle. Valid until the queues or timing state
    /// change (a command issues or a request is enqueued); lets repeated
    /// `advance_to` calls jump a known-idle span without rescanning.
    cached_horizon: Cell<Option<u64>>,
    /// A decision taken ahead of its step (module docs). Dropped by any
    /// command and any enqueue, and consumed (or outdated) by the next
    /// step.
    pending: Cell<Option<Pending>>,
    /// Idle cycles the event-driven path jumped over (diagnostic; not part
    /// of [`ChannelStats`], which stays identical between both paths).
    idle_cycles_skipped: u64,
    /// Scheduling decisions taken over a non-empty queue (diagnostic, like
    /// `idle_cycles_skipped`).
    decisions: Cell<u64>,
}

impl MemoryController {
    /// Build a controller for one channel of `config`.
    ///
    /// The configuration is assumed validated (see [`DramConfig::validate`]).
    pub fn new(config: DramConfig) -> Self {
        let state = ChannelState::new(&config.geometry, &config.timing);
        let next_refresh_due_min = state
            .ranks
            .iter()
            .map(|r| r.next_refresh_due)
            .min()
            .unwrap_or(u64::MAX);
        MemoryController {
            read_queue: RequestQueue::new(config.read_queue_depth, &config.geometry, READ),
            write_queue: RequestQueue::new(config.write_queue_depth, &config.geometry, WRITE),
            floors: IssueFloors::new(&state, &config.timing, &config.geometry),
            state,
            write_mode: false,
            cycle: 0,
            last_burst_done: 0,
            completions: Vec::new(),
            stats: ChannelStats::default(),
            next_refresh_due_min,
            cached_horizon: Cell::new(None),
            pending: Cell::new(None),
            idle_cycles_skipped: 0,
            decisions: Cell::new(0),
            config,
        }
    }

    /// Current controller cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Queued requests not yet issued.
    pub fn pending(&self) -> usize {
        self.read_queue.len() + self.write_queue.len()
    }

    /// Whether any queued request or in-flight burst remains.
    pub fn is_busy(&self) -> bool {
        self.pending() > 0 || self.cycle < self.last_burst_done
    }

    /// Offer a request (already decoded to a DRAM coordinate on this
    /// channel). Returns `false` when the corresponding queue is full.
    pub fn enqueue(&mut self, request: Request, dram: DramAddr) -> bool {
        let (queue, depth) = match request.kind {
            RequestKind::Read => (&mut self.read_queue, self.config.read_queue_depth),
            RequestKind::Write => (&mut self.write_queue, self.config.write_queue_depth),
        };
        if queue.len() >= depth {
            return false;
        }
        let rank = &self.state.ranks[dram.rank];
        let bank = &rank.banks[rank.bank_index(dram.bank_group, dram.bank)];
        queue.push(request, dram, bank, self.cycle);
        // An accepted request can become issuable (or flip the write-drain
        // mode) before any previously computed horizon, or win over a
        // decision taken ahead; a rejected one returned above without
        // touching state.
        self.cached_horizon.set(None);
        self.pending.set(None);
        true
    }

    /// Take all completions recorded so far.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Move all completions recorded so far into `out`, reusing its
    /// allocation (and this controller's) across drains.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// Snapshot of the channel's statistics.
    pub fn stats(&self) -> ChannelStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s
    }

    /// Idle cycles the event-driven path ([`MemoryController::advance_to`],
    /// [`MemoryController::run_until_idle`]) jumped over instead of ticking.
    pub fn idle_cycles_skipped(&self) -> u64 {
        self.idle_cycles_skipped
    }

    /// Scheduling decisions taken so far over a non-empty queue, by either
    /// path and by [`MemoryController::next_event_cycle`] (diagnostic: the
    /// work count behind the engine's speed, not part of [`ChannelStats`]).
    /// A decision taken ahead and then carried out counts once.
    pub fn scheduling_decisions(&self) -> u64 {
        self.decisions.get()
    }

    /// Advance one controller cycle, issuing at most one DRAM command.
    ///
    /// This is the bit-exact oracle the event-driven path is verified
    /// against: it decides with the reference per-request scan in arrival
    /// order (see the module docs). Prefer
    /// [`MemoryController::advance_to`] when simulating long spans.
    pub fn tick(&mut self) {
        self.step_with_horizon(false);
    }

    /// Advance to exactly `target`, issuing the same commands at the same
    /// cycles (and accumulating the same [`ChannelStats`]) as calling
    /// [`MemoryController::tick`] `target - cycle` times, but jumping over
    /// spans in which nothing can happen.
    pub fn advance_to(&mut self, target: u64) {
        while self.cycle < target {
            self.event_step(target);
        }
    }

    /// Run until no queued request or in-flight burst remains, jumping
    /// over idle spans. Equivalent to `while self.is_busy() { self.tick() }`.
    pub fn run_until_idle(&mut self) {
        while self.is_busy() {
            self.event_step(self.idle_limit());
        }
    }

    /// Advance until just after the next cycle in which this controller
    /// issues a command, or until it drains idle; returns the new cycle.
    ///
    /// This is the back-pressure primitive: a full queue can only free a
    /// slot at such a cycle, so a blocked producer jumps here instead of
    /// retrying every cycle (reusing the step's own horizon rather than
    /// paying a second queue scan per retry).
    pub fn advance_past_next_action(&mut self) -> u64 {
        while self.is_busy() {
            if self.event_step(self.idle_limit()) {
                break;
            }
        }
        self.cycle
    }

    /// When only an in-flight burst (plus perhaps a distant refresh) keeps
    /// the controller busy, its completion bounds any run-until-idle jump;
    /// with queued work there is no such bound.
    fn idle_limit(&self) -> u64 {
        if self.pending() == 0 {
            self.last_burst_done
        } else {
            u64::MAX
        }
    }

    /// One event-engine iteration: jump over the cached known-idle span
    /// (clamped to `limit`), then — if still below `limit` or unbounded —
    /// run one step with the per-bank decision. Returns whether a command
    /// issued.
    fn event_step(&mut self, limit: u64) -> bool {
        if let Some(horizon) = self.cached_horizon.get() {
            let jump_to = horizon.min(limit);
            if jump_to != u64::MAX && jump_to > self.cycle {
                self.skip_idle_to(jump_to);
            }
            if self.cycle >= limit {
                return false;
            }
        }
        let (acted, _) = self.step_with_horizon(true);
        acted
    }

    /// The earliest cycle at or after the current one at which this
    /// controller could act — a queued command becomes issuable, a refresh
    /// falls due or becomes serviceable, or the last in-flight burst
    /// completes. `None` when the controller is fully idle with refresh
    /// disabled (nothing will ever happen without a new request).
    ///
    /// The value is a lower bound: landing on it and re-evaluating never
    /// misses an event, which is the invariant the event-driven engine
    /// rests on. It shares the step's cached horizon (module docs).
    pub fn next_event_cycle(&self) -> Option<u64> {
        let now = self.cycle;
        let mut horizon = match self.cached_horizon.get() {
            Some(horizon) => horizon,
            None => {
                let horizon = self.command_horizon();
                self.cached_horizon.set(Some(horizon));
                horizon
            }
        };
        if now < self.last_burst_done {
            horizon = horizon.min(self.last_burst_done);
        }
        if horizon == u64::MAX {
            None
        } else {
            Some(horizon.max(now))
        }
    }

    /// What a non-acting step at the current cycle would leave in the
    /// horizon cache: a lower bound on the next cycle the refresh
    /// machinery could act or a queued command could issue. The decision
    /// it takes is kept for the step that carries it out.
    fn command_horizon(&self) -> u64 {
        let now = self.cycle;
        let mut horizon = u64::MAX;
        if self.config.refresh_enabled {
            if now < self.next_refresh_due_min {
                horizon = self.next_refresh_due_min;
            } else {
                for rank in &self.state.ranks {
                    horizon = horizon.min(rank.next_refresh_event(now));
                }
            }
        }
        if horizon > now {
            let serve_writes = self.next_write_mode();
            let schedule_horizon = match self.decide(serve_writes, true) {
                Decision::Issue { index, cmd } => {
                    let q = &self.queue(serve_writes).entries[index];
                    self.pending.set(Some(Pending {
                        at: now,
                        serve_writes,
                        seq: q.seq,
                        rank: q.dram.rank,
                        cmd,
                    }));
                    now
                }
                Decision::Wait { at, then } => {
                    self.pending.set(then);
                    at
                }
            };
            horizon = horizon.min(schedule_horizon);
        }
        horizon
    }

    /// One cycle: account busy time, refresh or schedule (per bank, or
    /// with the reference scan when `by_bank` is false), advance the
    /// clock. Returns whether a command issued plus a lower bound on the
    /// next cycle at which one could (meaningful only when idle).
    fn step_with_horizon(&mut self, by_bank: bool) -> (bool, u64) {
        if self.pending() > 0 {
            self.stats.busy_cycles += 1;
        }
        self.update_mode();
        let mut acted = false;
        let mut horizon = u64::MAX;
        if self.config.refresh_enabled {
            if self.cycle >= self.next_refresh_due_min {
                let (refresh_acted, refresh_horizon) = self.service_refresh();
                acted = refresh_acted;
                horizon = refresh_horizon;
            } else {
                horizon = self.next_refresh_due_min;
            }
        }
        if !acted {
            let (issued, schedule_horizon) = self.schedule(by_bank);
            acted = issued;
            horizon = horizon.min(schedule_horizon);
        }
        self.cycle += 1;
        // An issued command changes timing state, invalidating any cached
        // horizon; an idle step proves nothing can happen before `horizon`.
        self.cached_horizon
            .set(if acted { None } else { Some(horizon) });
        (acted, horizon)
    }

    /// Jump the clock to `cycle`, crediting the skipped span to the same
    /// state a tick-by-tick run would have touched: `busy_cycles`, and the
    /// write-drain mode each skipped step refreshes first. With the queues
    /// unchanged over the span, refreshing it once is the same as every
    /// cycle — and it is needed: a horizon computed by
    /// [`MemoryController::next_event_cycle`] right after an issue skips
    /// the step that would see the shorter queue.
    fn skip_idle_to(&mut self, cycle: u64) {
        let span = cycle - self.cycle;
        if self.pending() > 0 {
            self.stats.busy_cycles += span;
        }
        self.update_mode();
        self.idle_cycles_skipped += span;
        self.cycle = cycle;
    }

    /// The write-drain mode the next cycle will run under (pure version of
    /// [`MemoryController::update_mode`]).
    fn next_write_mode(&self) -> bool {
        if self.write_mode {
            !(self.write_queue.is_empty()
                || (self.write_queue.len() <= self.config.write_low_watermark
                    && !self.read_queue.is_empty()))
        } else {
            self.write_queue.len() >= self.config.write_high_watermark
                || (self.read_queue.is_empty() && !self.write_queue.is_empty())
        }
    }

    fn update_mode(&mut self) {
        self.write_mode = self.next_write_mode();
    }

    /// Service the refresh machinery. Returns whether a refresh-related
    /// command consumed this cycle, plus the earliest future cycle the
    /// machinery could act (deadline, precharge-ready, or refresh-ready).
    fn service_refresh(&mut self) -> (bool, u64) {
        let now = self.cycle;
        let (command, horizon) = self.refresh_command(now);
        let Some((cmd, addr)) = command else {
            return (false, horizon);
        };
        self.state.issue(&self.config.timing, cmd, &addr, now);
        if cmd == DramCommand::Refresh {
            self.stats.refreshes += 1;
            self.next_refresh_due_min = self
                .state
                .ranks
                .iter()
                .map(|r| r.next_refresh_due)
                .min()
                .unwrap_or(u64::MAX);
        } else {
            self.stats.precharges += 1;
        }
        self.note_command(cmd, &addr);
        (true, u64::MAX)
    }

    /// The refresh-related command due at `now` (a PRECHARGE closing an
    /// open bank of a rank whose refresh is due, one per cycle, or the
    /// REFRESH itself once all its banks are closed), or else the earliest
    /// future cycle the machinery could act.
    fn refresh_command(&self, now: u64) -> (Option<(DramCommand, DramAddr)>, u64) {
        let geom = &self.config.geometry;
        let mut horizon = u64::MAX;
        for (rank_idx, rank) in self.state.ranks.iter().enumerate() {
            let due = rank.next_refresh_due;
            if now < due {
                horizon = horizon.min(due);
                continue;
            }
            // Close any open banks first, one precharge per cycle.
            if !rank.all_banks_closed() {
                for bg in 0..geom.bank_groups {
                    for b in 0..geom.banks_per_group {
                        if rank.banks[rank.bank_index(bg, b)].open_row.is_none() {
                            continue;
                        }
                        let earliest = rank.earliest_precharge(bg, b);
                        if earliest <= now {
                            let addr = DramAddr {
                                rank: rank_idx,
                                bank_group: bg,
                                bank: b,
                                ..DramAddr::default()
                            };
                            return (Some((DramCommand::Precharge, addr)), u64::MAX);
                        }
                        horizon = horizon.min(earliest);
                    }
                }
                // Banks open but none precharge-able yet: stall this rank.
                continue;
            }
            let earliest = rank.earliest_refresh();
            if earliest <= now {
                let addr = DramAddr {
                    rank: rank_idx,
                    ..DramAddr::default()
                };
                return (Some((DramCommand::Refresh, addr)), u64::MAX);
            }
            horizon = horizon.min(earliest);
        }
        (None, horizon)
    }

    fn refresh_blocked(&self, rank: usize) -> bool {
        self.config.refresh_enabled && self.cycle >= self.state.ranks[rank].next_refresh_due
    }

    fn queue(&self, serve_writes: bool) -> &RequestQueue {
        if serve_writes {
            &self.write_queue
        } else {
            &self.read_queue
        }
    }

    /// One scheduling pass over the active queue. Returns whether a
    /// command issued, plus (when nothing issued) the earliest cycle any
    /// queued request's next command could become issuable.
    fn schedule(&mut self, by_bank: bool) -> (bool, u64) {
        let serve_writes = self.write_mode;
        if self.queue(serve_writes).is_empty() {
            self.pending.set(None);
            return (false, u64::MAX);
        }
        // A decision taken ahead still holds when nothing has changed
        // since (any command or enqueue drops it) and its rank has no
        // refresh due.
        let decision = match self.pending.take() {
            Some(p)
                if by_bank
                    && p.at == self.cycle
                    && p.serve_writes == serve_writes
                    && !self.refresh_blocked(p.rank) =>
            {
                Decision::Issue {
                    index: self.queue(serve_writes).position(p.seq),
                    cmd: p.cmd,
                }
            }
            _ => self.decide(serve_writes, by_bank),
        };
        match decision {
            Decision::Wait { at, then } => {
                self.pending.set(then);
                (false, at)
            }
            Decision::Issue { index, cmd } => {
                self.execute(index, cmd, serve_writes);
                (true, u64::MAX)
            }
        }
    }

    /// The scheduling decision at the current cycle over the write queue
    /// (`serve_writes`) or the read queue: per bank, or with the reference
    /// scan when `by_bank` is false. FCFS only ever looks at the queue
    /// head, so it always takes the reference scan.
    fn decide(&self, serve_writes: bool, by_bank: bool) -> Decision {
        let queue = self.queue(serve_writes);
        if queue.is_empty() {
            return Decision::Wait {
                at: u64::MAX,
                then: None,
            };
        }
        self.decisions.set(self.decisions.get() + 1);
        if by_bank && self.config.scheduler == SchedulerKind::FrFcfs {
            self.decide_by_bank(queue, serve_writes)
        } else {
            self.decide_in_arrival_order(queue)
        }
    }

    /// The reference decision: walk the queue in arrival order, first for
    /// the oldest row hit whose column command can issue now, then for the
    /// oldest request whose next preparatory command can.
    fn decide_in_arrival_order(&self, queue: &RequestQueue) -> Decision {
        let now = self.cycle;
        let scan_limit = match self.config.scheduler {
            SchedulerKind::FrFcfs => usize::MAX,
            SchedulerKind::Fcfs => 1,
        };
        let mut horizon = u64::MAX;

        // Pass 1: oldest row-hit request whose column command can issue now.
        for (index, q) in queue.entries.iter().enumerate().take(scan_limit) {
            if self.refresh_blocked(q.dram.rank) {
                continue;
            }
            if let Some(earliest) = self.col_candidate(q) {
                if earliest <= now {
                    let cmd = col_cmd(q.request.kind, self.config.row_policy);
                    return Decision::Issue { index, cmd };
                }
                horizon = horizon.min(earliest);
            }
        }

        // Pass 2: oldest request whose next preparatory command can issue.
        for (index, q) in queue.entries.iter().enumerate().take(scan_limit) {
            if self.refresh_blocked(q.dram.rank) {
                continue;
            }
            if let Some((earliest, cmd)) = self.prep_candidate(q, &queue.entries) {
                if earliest <= now {
                    return Decision::Issue { index, cmd };
                }
                horizon = horizon.min(earliest);
            }
        }
        Decision::Wait {
            at: horizon,
            then: None,
        }
    }

    /// The per-bank FR-FCFS decision of the event-driven path (module
    /// docs): the same command for the same entry as
    /// [`MemoryController::decide_in_arrival_order`], from each occupied
    /// bank's [`Candidate`] and its group's floor.
    fn decide_by_bank(&self, queue: &RequestQueue, serve_writes: bool) -> Decision {
        #[cfg(debug_assertions)]
        self.assert_kept_state_is_current();
        let now = self.cycle;
        let floors = &self.floors.at;
        // A rank whose refresh is due takes no command; check for one only
        // when a refresh can be due at all.
        let refresh_due = self.config.refresh_enabled && now >= self.next_refresh_due_min;
        // `(key, bank)` of the best candidate whose time has come, and
        // `(time, key, bank)` of the earliest one whose time has not. A
        // candidate whose key cannot beat the best ready one is skipped:
        // the wait only matters when nothing is ready, and then nothing
        // was skipped.
        let mut ready = (u64::MAX, 0);
        let mut next = (u64::MAX, u64::MAX, 0);
        for bank_id in queue.occupied_banks() {
            let c = queue.candidates[bank_id];
            if c.key >= ready.0
                || (refresh_due && self.refresh_blocked(bank_id / queue.banks_per_rank))
            {
                continue;
            }
            let at = c.local.max(floors[c.floor]);
            if at <= now {
                ready = (c.key, bank_id);
            } else if (at, c.key) < (next.0, next.1) {
                next = (at, c.key, bank_id);
            }
        }
        let command = |key: u64, bank_id: usize| {
            let cmd = match queue.candidates[bank_id].floor % KINDS {
                ACTIVATE => DramCommand::Activate,
                PRECHARGE => DramCommand::Precharge,
                _ if serve_writes => col_cmd(RequestKind::Write, self.config.row_policy),
                _ => col_cmd(RequestKind::Read, self.config.row_policy),
            };
            (key & !PREP, cmd)
        };
        if ready.0 != u64::MAX {
            let (seq, cmd) = command(ready.0, ready.1);
            return Decision::Issue {
                index: queue.position(seq),
                cmd,
            };
        }
        let (at, key, bank_id) = next;
        // The earliest candidates are exactly those whose time is `at`, and
        // the same key order picks among them.
        let then = (at != u64::MAX).then(|| {
            let (seq, cmd) = command(key, bank_id);
            Pending {
                at,
                serve_writes,
                seq,
                rank: bank_id / queue.banks_per_rank,
                cmd,
            }
        });
        Decision::Wait { at, then }
    }

    /// Debug builds check, before every per-bank decision, that the state
    /// kept between decisions equals what the queues and the timing state
    /// make it now.
    #[cfg(debug_assertions)]
    fn assert_kept_state_is_current(&self) {
        let fresh = IssueFloors::new(&self.state, &self.config.timing, &self.config.geometry);
        assert_eq!(fresh.at, self.floors.at, "stale issue floors");
        for queue in [&self.read_queue, &self.write_queue] {
            for bank_id in queue.occupied_banks() {
                let (rank, flat) = (
                    bank_id / queue.banks_per_rank,
                    bank_id % queue.banks_per_rank,
                );
                let kept = queue.candidates[bank_id];
                let now = queue
                    .candidate(bank_id, &self.state.ranks[rank].banks[flat])
                    .expect("occupied banks have entries");
                assert_eq!(
                    (kept.key, kept.local, kept.floor),
                    (now.key, now.local, now.floor),
                    "stale candidate of bank {bank_id}"
                );
            }
        }
    }

    /// Pass-1 candidate for one queued request in the reference scan: the
    /// earliest cycle its column command could issue, or `None` unless the
    /// bank has the request's row open.
    fn col_candidate(&self, q: &QueuedRequest) -> Option<u64> {
        let rank = &self.state.ranks[q.dram.rank];
        let bank = &rank.banks[rank.bank_index(q.dram.bank_group, q.dram.bank)];
        if bank.open_row != Some(q.dram.row) {
            return None;
        }
        self.state.earliest_issue(
            &self.config.timing,
            col_cmd(q.request.kind, self.config.row_policy),
            &q.dram,
        )
    }

    /// Pass-2 candidate for one queued request in the reference scan: the
    /// earliest cycle its preparatory command (ACTIVATE on a closed bank,
    /// PRECHARGE on a conflicting row) could issue, or `None` when the row
    /// already matches (pass-1 territory) or must stay open.
    fn prep_candidate(
        &self,
        q: &QueuedRequest,
        queue: &VecDeque<QueuedRequest>,
    ) -> Option<(u64, DramCommand)> {
        let rank = &self.state.ranks[q.dram.rank];
        let bank = &rank.banks[rank.bank_index(q.dram.bank_group, q.dram.bank)];
        match bank.open_row {
            None => {
                let earliest =
                    rank.earliest_activate(&self.config.timing, q.dram.bank_group, q.dram.bank);
                Some((earliest, DramCommand::Activate))
            }
            Some(row) if row != q.dram.row => {
                // Under FR-FCFS, do not close a row other queued requests
                // still hit — pass 1 will serve them first. Under FCFS only
                // the head may ever issue, so holding the row open for a
                // younger request would livelock the queue; precharge
                // regardless.
                let still_useful = self.config.scheduler == SchedulerKind::FrFcfs
                    && queue.iter().any(|other| {
                        other.dram.rank == q.dram.rank
                            && other.dram.bank_group == q.dram.bank_group
                            && other.dram.bank == q.dram.bank
                            && other.dram.row == row
                    });
                if still_useful {
                    None
                } else {
                    let earliest = rank.earliest_precharge(q.dram.bank_group, q.dram.bank);
                    Some((earliest, DramCommand::Precharge))
                }
            }
            Some(_) => None,
        }
    }

    fn execute(&mut self, index: usize, cmd: DramCommand, serve_writes: bool) {
        let MemoryController {
            config,
            state,
            stats,
            read_queue,
            write_queue,
            completions,
            cycle,
            last_burst_done,
            ..
        } = self;
        let timing = &config.timing;
        let now = *cycle;
        let queue = if serve_writes {
            write_queue
        } else {
            read_queue
        };
        let dram = match cmd {
            DramCommand::Activate => {
                let q = &mut queue.entries[index];
                q.needed_activate = true;
                let dram = q.dram;
                state.issue(timing, cmd, &dram, now);
                stats.activates += 1;
                dram
            }
            DramCommand::Precharge => {
                let q = &mut queue.entries[index];
                q.needed_precharge = true;
                let dram = q.dram;
                state.issue(timing, cmd, &dram, now);
                stats.precharges += 1;
                dram
            }
            DramCommand::Read | DramCommand::ReadAp | DramCommand::Write | DramCommand::WriteAp => {
                let q = queue.remove(index);
                state.issue(timing, cmd, &q.dram, now);
                if cmd.auto_precharges() {
                    stats.precharges += 1;
                }
                if q.needed_precharge {
                    stats.row_conflicts += 1;
                } else if q.needed_activate {
                    stats.row_misses += 1;
                } else {
                    stats.row_hits += 1;
                }
                let data_lat = if cmd.is_read() { timing.cl } else { timing.cwl };
                let finished_at = now + data_lat + timing.burst_cycles();
                *last_burst_done = (*last_burst_done).max(finished_at);
                stats.bus_busy_cycles += timing.burst_cycles();
                if cmd.is_read() {
                    stats.reads += 1;
                    stats.read_latency_sum += finished_at - q.enqueued_at;
                } else {
                    stats.writes += 1;
                }
                completions.push(Completion {
                    request: q.request,
                    enqueued_at: q.enqueued_at,
                    finished_at,
                });
                q.dram
            }
            DramCommand::PrechargeAll | DramCommand::Refresh => {
                unreachable!("refresh path handles rank-wide commands")
            }
        };
        self.note_command(cmd, &dram);
    }

    /// Bring the state kept between decisions up to date after `cmd`
    /// issued to `dram` (module docs), and drop any decision taken ahead.
    fn note_command(&mut self, cmd: DramCommand, dram: &DramAddr) {
        self.pending.set(None);
        let timing = &self.config.timing;
        match cmd {
            DramCommand::Precharge => {}
            DramCommand::Activate => self.floors.activated(&self.state, timing, dram.rank),
            DramCommand::Read | DramCommand::ReadAp | DramCommand::Write | DramCommand::WriteAp => {
                self.floors.column_issued(&self.state, timing, dram.rank);
            }
            DramCommand::Refresh => self.floors.refreshed(&self.state, dram.rank),
            DramCommand::PrechargeAll => unreachable!("the controller never issues PREA"),
        }
        let rank = &self.state.ranks[dram.rank];
        let first = dram.rank * self.read_queue.banks_per_rank;
        let flats = if cmd == DramCommand::Refresh {
            0..rank.banks.len()
        } else {
            let flat = dram.flat_bank(self.config.geometry.banks_per_group);
            flat..flat + 1
        };
        for flat in flats {
            let bank = &rank.banks[flat];
            self.read_queue.update_candidate(first + flat, bank);
            self.write_queue.update_candidate(first + flat, bank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::MappingScheme;

    fn controller() -> MemoryController {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        MemoryController::new(cfg)
    }

    fn decode(cfg: &DramConfig, addr: u64) -> DramAddr {
        cfg.mapping.decode(addr, &cfg.geometry).unwrap()
    }

    fn run_until_idle(mc: &mut MemoryController) {
        let mut guard = 0;
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 1_000_000, "controller wedged");
        }
    }

    #[test]
    fn single_read_latency_is_act_plus_cas() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        let dram = decode(&cfg, 0);
        assert!(mc.enqueue(Request::read(0), dram));
        run_until_idle(&mut mc);
        let done = mc.drain_completions();
        assert_eq!(done.len(), 1);
        let t = &cfg.timing;
        // One idle-bank read: tick align + tRCD + CL + burst.
        let expect = t.trcd + t.cl + t.burst_cycles();
        assert!(
            done[0].latency() >= expect && done[0].latency() <= expect + 4,
            "latency {} expected about {}",
            done[0].latency(),
            expect
        );
    }

    #[test]
    fn row_hits_counted_for_same_row_stream() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        // 16 sequential blocks in the same rank 0 row: decode stride of
        // ranks_per_channel * 64 keeps rank fixed under rank interleaving.
        let stride = cfg.geometry.ranks_per_channel as u64 * 64;
        for i in 0..16u64 {
            let addr = i * stride;
            let dram = decode(&cfg, addr);
            assert_eq!(dram.rank, 0);
            assert!(mc.enqueue(Request::read(addr), dram));
        }
        run_until_idle(&mut mc);
        let stats = mc.stats();
        assert_eq!(stats.reads, 16);
        assert!(stats.row_hits >= 3, "row hits {}", stats.row_hits);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        let depth = cfg.read_queue_depth;
        for i in 0..depth as u64 {
            let dram = decode(&cfg, i * 64);
            assert!(mc.enqueue(Request::read(i * 64), dram));
        }
        let dram = decode(&cfg, 1 << 20);
        assert!(!mc.enqueue(Request::read(1 << 20), dram));
    }

    #[test]
    fn writes_drain_when_reads_absent() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        for i in 0..8u64 {
            let dram = decode(&cfg, i * 64);
            assert!(mc.enqueue(Request::write(i * 64), dram));
        }
        run_until_idle(&mut mc);
        assert_eq!(mc.stats().writes, 8);
    }

    #[test]
    fn mixed_read_write_all_complete() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        for i in 0..32u64 {
            let addr = i * 64;
            let dram = decode(&cfg, addr);
            let req = if i % 2 == 0 {
                Request::read(addr)
            } else {
                Request::write(addr)
            };
            assert!(mc.enqueue(req, dram));
        }
        run_until_idle(&mut mc);
        let stats = mc.stats();
        assert_eq!(stats.reads, 16);
        assert_eq!(stats.writes, 16);
        assert_eq!(mc.drain_completions().len(), 32);
    }

    #[test]
    fn refresh_eventually_issues() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = true;
        let mut mc = MemoryController::new(cfg.clone());
        // Run past the first refresh deadline with an empty queue.
        for _ in 0..(cfg.timing.trefi * 3) {
            mc.tick();
        }
        assert!(mc.stats().refreshes >= cfg.geometry.ranks_per_channel as u64);
    }

    #[test]
    fn fcfs_services_in_order() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        cfg.scheduler = SchedulerKind::Fcfs;
        let mut mc = MemoryController::new(cfg.clone());
        for i in 0..8u64 {
            let addr = i << 16; // different rows
            let dram = decode(&cfg, addr);
            assert!(mc.enqueue(Request::read(addr).with_id(i), dram));
        }
        run_until_idle(&mut mc);
        let done = mc.drain_completions();
        let ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn closed_page_never_hits() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        cfg.row_policy = RowPolicy::ClosedPage;
        let mut mc = MemoryController::new(cfg.clone());
        let stride = cfg.geometry.ranks_per_channel as u64 * 64;
        for i in 0..8u64 {
            let addr = i * stride;
            let dram = decode(&cfg, addr);
            assert!(mc.enqueue(Request::read(addr), dram));
        }
        run_until_idle(&mut mc);
        let stats = mc.stats();
        assert_eq!(stats.row_hits, 0);
        assert_eq!(stats.reads, 8);
    }

    #[test]
    fn advance_to_matches_tick_oracle() {
        for refresh in [false, true] {
            let mut cfg = DramConfig::ddr4_3200_channel();
            cfg.refresh_enabled = refresh;
            let mut oracle = MemoryController::new(cfg.clone());
            let mut fast = MemoryController::new(cfg.clone());
            for i in 0..48u64 {
                let addr = (i * 7919 * 64) % cfg.capacity_bytes();
                let dram = decode(&cfg, addr & !63);
                let req = if i % 3 == 0 {
                    Request::write(addr & !63)
                } else {
                    Request::read(addr & !63)
                };
                assert!(oracle.enqueue(req, dram));
                assert!(fast.enqueue(req, dram));
            }
            let target = 3 * cfg.timing.trefi;
            for _ in 0..target {
                oracle.tick();
            }
            fast.advance_to(target);
            assert_eq!(oracle.stats(), fast.stats());
            assert_eq!(oracle.drain_completions(), fast.drain_completions());
            assert_eq!(oracle.cycle(), fast.cycle());
            assert!(
                fast.idle_cycles_skipped() > 0,
                "event path should have skipped idle cycles"
            );
        }
    }

    #[test]
    fn next_event_cycle_is_a_valid_lower_bound() {
        // From an idle controller with refresh enabled, the next event is
        // the first refresh deadline; with refresh disabled there is none.
        let cfg = DramConfig::ddr4_3200_channel();
        let mc = MemoryController::new(cfg.clone());
        let due = mc.next_event_cycle().expect("refresh is pending");
        assert!(due >= cfg.timing.trefi, "staggering starts at tREFI");
        let mut cfg2 = cfg;
        cfg2.refresh_enabled = false;
        let mc2 = MemoryController::new(cfg2.clone());
        assert_eq!(mc2.next_event_cycle(), None);
        // With a queued request, an event exists and is actionable soon.
        let mut mc3 = MemoryController::new(cfg2.clone());
        let dram = decode(&cfg2, 0);
        assert!(mc3.enqueue(Request::read(0), dram));
        let e = mc3.next_event_cycle().expect("queued work");
        assert_eq!(e, 0, "fresh bank accepts an activate immediately");
    }

    #[test]
    fn fcfs_row_conflict_with_younger_hit_does_not_livelock() {
        // Head of queue needs row B while the open row A is still "useful"
        // to a younger entry. Under FCFS only the head can issue, so the
        // old keep-row-open heuristic livelocked this pattern (forever with
        // refresh off; until the next tREFI with refresh on).
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        cfg.scheduler = SchedulerKind::Fcfs;
        let mut mc = MemoryController::new(cfg.clone());
        let row_stride = 1u64 << 19; // crosses the row-bit boundary
        assert!(mc.enqueue(Request::read(0), decode(&cfg, 0)));
        let mut guard = 0;
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 100_000);
        }
        // Row of address 0 is now open; head wants another row while a
        // younger entry still hits the open one.
        assert!(mc.enqueue(Request::read(row_stride), decode(&cfg, row_stride)));
        assert!(mc.enqueue(Request::read(64), decode(&cfg, 64)));
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 100_000, "FCFS livelocked on a held-open row");
        }
        assert_eq!(mc.stats().reads, 3);
    }

    #[test]
    fn run_until_idle_matches_ticked_drain() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = true;
        let mut oracle = MemoryController::new(cfg.clone());
        let mut fast = MemoryController::new(cfg.clone());
        for i in 0..32u64 {
            let addr = i * 4096;
            let dram = decode(&cfg, addr);
            assert!(oracle.enqueue(Request::read(addr), dram));
            assert!(fast.enqueue(Request::read(addr), dram));
        }
        let mut guard = 0;
        while oracle.is_busy() {
            oracle.tick();
            guard += 1;
            assert!(guard < 1_000_000);
        }
        fast.run_until_idle();
        assert_eq!(oracle.cycle(), fast.cycle());
        assert_eq!(oracle.stats(), fast.stats());
        assert_eq!(oracle.drain_completions(), fast.drain_completions());
    }

    #[test]
    fn mapping_ablation_uses_vector_per_rank() {
        // Sanity that alternative mappings route through the controller too.
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        cfg.mapping = MappingScheme::vector_per_rank(&cfg.geometry);
        let mut mc = MemoryController::new(cfg.clone());
        for i in 0..8u64 {
            let addr = i * 64;
            let dram = decode(&cfg, addr);
            assert_eq!(dram.rank, 0, "low addresses stay in rank 0");
            assert!(mc.enqueue(Request::read(addr), dram));
        }
        run_until_idle(&mut mc);
        assert_eq!(mc.stats().reads, 8);
    }
}

#[cfg(test)]
mod drain_tests {
    use super::*;
    use crate::config::DramConfig;

    fn decode(cfg: &DramConfig, addr: u64) -> DramAddr {
        cfg.mapping.decode(addr, &cfg.geometry).unwrap()
    }

    #[test]
    fn write_watermark_switches_modes() {
        // Fill the write queue past the high watermark while reads are
        // present; the controller must drain writes in a burst and then
        // return to reads.
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg.clone());
        for i in 0..cfg.write_high_watermark as u64 + 4 {
            let addr = i * 64;
            assert!(mc.enqueue(Request::write(addr), decode(&cfg, addr)));
        }
        for i in 0..8u64 {
            let addr = (1 << 22) + i * 64;
            assert!(mc.enqueue(Request::read(addr), decode(&cfg, addr)));
        }
        let mut guard = 0;
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 1_000_000, "controller wedged");
        }
        let stats = mc.stats();
        assert_eq!(stats.writes, cfg.write_high_watermark as u64 + 4);
        assert_eq!(stats.reads, 8);
    }

    #[test]
    fn refresh_under_load_still_serves_all_requests() {
        let cfg = DramConfig::ddr4_3200_channel(); // refresh enabled
        let mut mc = MemoryController::new(cfg.clone());
        let mut issued = 0u64;
        let mut offered = 0u64;
        // Run well past several tREFI windows while continuously offering
        // work.
        for cycle in 0..(cfg.timing.trefi * 6) {
            if cycle % 8 == 0 {
                let addr = (offered * 64) % (1 << 24);
                if mc.enqueue(Request::read(addr), decode(&cfg, addr)) {
                    issued += 1;
                }
                offered += 1;
            }
            mc.tick();
        }
        while mc.is_busy() {
            mc.tick();
        }
        let stats = mc.stats();
        assert_eq!(stats.reads, issued);
        assert!(
            stats.refreshes >= 4 * cfg.geometry.ranks_per_channel as u64,
            "only {} refreshes over six tREFI",
            stats.refreshes
        );
    }

    #[test]
    fn per_bank_activates_are_counted() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg.clone());
        // Two different rows of the same bank force a conflict precharge.
        let row_stride = 1u64 << 19; // beyond the row-bit boundary
        for addr in [0u64, row_stride] {
            assert!(mc.enqueue(Request::read(addr), decode(&cfg, addr)));
        }
        let mut guard = 0;
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 100_000);
        }
        let stats = mc.stats();
        assert!(stats.activates >= 2);
        assert_eq!(stats.reads, 2);
    }
}
