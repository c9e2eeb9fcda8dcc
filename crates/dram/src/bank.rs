//! Bank and rank timing state.
//!
//! Each bank tracks the earliest cycle at which each command class may be
//! issued to it; each rank tracks cross-bank constraints (tRRD, tFAW,
//! CAS-to-CAS spacing, write-to-read turnaround, refresh).

use std::collections::VecDeque;

use crate::timing::DramTiming;

/// Timing state of a single DRAM bank.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// Currently open row, if any.
    pub open_row: Option<usize>,
    /// Earliest cycle an ACTIVATE may issue (tRP / tRC / tRFC).
    pub next_act: u64,
    /// Earliest cycle a PRECHARGE may issue (tRAS / tRTP / write recovery).
    pub next_pre: u64,
    /// Earliest cycle a READ may issue (tRCD).
    pub next_rd: u64,
    /// Earliest cycle a WRITE may issue (tRCD).
    pub next_wr: u64,
}

/// Timing state of a rank: its banks plus rank-wide constraints.
#[derive(Debug, Clone)]
pub struct Rank {
    /// Banks, indexed `bank_group * banks_per_group + bank`.
    pub banks: Vec<Bank>,
    banks_per_group: usize,
    /// Issue times of the most recent ACTIVATEs (bounded by four, for tFAW).
    act_window: VecDeque<u64>,
    /// Last ACTIVATE per bank group (for tRRD_S/L).
    last_act: Vec<Option<u64>>,
    /// Last READ command per bank group (for tCCD_S/L).
    last_rd: Vec<Option<u64>>,
    /// Last WRITE command per bank group (for tCCD_S/L and tWTR_S/L).
    last_wr: Vec<Option<u64>>,
    /// Next scheduled refresh deadline.
    pub next_refresh_due: u64,
    /// Rank is unavailable until this cycle (mid-refresh).
    pub refresh_busy_until: u64,
}

impl Rank {
    /// A fresh rank with `bank_groups * banks_per_group` banks.
    pub fn new(bank_groups: usize, banks_per_group: usize, first_refresh: u64) -> Self {
        Rank {
            banks: vec![Bank::default(); bank_groups * banks_per_group],
            banks_per_group,
            act_window: VecDeque::with_capacity(4),
            last_act: vec![None; bank_groups],
            last_rd: vec![None; bank_groups],
            last_wr: vec![None; bank_groups],
            next_refresh_due: first_refresh,
            refresh_busy_until: 0,
        }
    }

    /// Flat bank index.
    pub fn bank_index(&self, bank_group: usize, bank: usize) -> usize {
        bank_group * self.banks_per_group + bank
    }

    /// Earliest cycle an ACTIVATE to `(bank_group, bank)` may issue.
    pub fn earliest_activate(&self, t: &DramTiming, bank_group: usize, bank: usize) -> u64 {
        self.banks[self.bank_index(bank_group, bank)]
            .next_act
            .max(self.activate_floor(t, bank_group))
    }

    /// The part of [`Rank::earliest_activate`] every bank of `bank_group`
    /// shares: refresh, tRRD and tFAW (all but the bank's own `next_act`).
    pub(crate) fn activate_floor(&self, t: &DramTiming, bank_group: usize) -> u64 {
        let mut earliest = self.refresh_busy_until;
        for (bg, last) in self.last_act.iter().enumerate() {
            if let Some(at) = last {
                let spacing = if bg == bank_group { t.trrd_l } else { t.trrd_s };
                earliest = earliest.max(at + spacing);
            }
        }
        if self.act_window.len() == 4 {
            earliest = earliest.max(self.act_window[0] + t.tfaw);
        }
        earliest
    }

    /// Earliest cycle a READ to `(bank_group, bank)` may issue,
    /// considering only rank-internal constraints.
    pub fn earliest_read(&self, t: &DramTiming, bank_group: usize, bank: usize) -> u64 {
        self.banks[self.bank_index(bank_group, bank)]
            .next_rd
            .max(self.read_floor(t, bank_group))
    }

    /// The part of [`Rank::earliest_read`] every bank of `bank_group`
    /// shares: refresh, CAS-to-CAS spacing and write-to-read turnaround.
    pub(crate) fn read_floor(&self, t: &DramTiming, bank_group: usize) -> u64 {
        let mut earliest = self.refresh_busy_until;
        for bg in 0..self.last_rd.len() {
            let ccd = if bg == bank_group { t.tccd_l } else { t.tccd_s };
            if let Some(at) = self.last_rd[bg] {
                earliest = earliest.max(at + ccd);
            }
            if let Some(at) = self.last_wr[bg] {
                earliest = earliest.max(at + ccd);
                // Write-to-read turnaround.
                let wtr = if bg == bank_group {
                    t.write_to_read_same_bg()
                } else {
                    t.write_to_read_diff_bg()
                };
                earliest = earliest.max(at + wtr);
            }
        }
        earliest
    }

    /// Earliest cycle a WRITE to `(bank_group, bank)` may issue,
    /// considering only rank-internal constraints.
    pub fn earliest_write(&self, t: &DramTiming, bank_group: usize, bank: usize) -> u64 {
        self.banks[self.bank_index(bank_group, bank)]
            .next_wr
            .max(self.write_floor(t, bank_group))
    }

    /// The part of [`Rank::earliest_write`] every bank of `bank_group`
    /// shares: refresh and CAS-to-CAS spacing.
    pub(crate) fn write_floor(&self, t: &DramTiming, bank_group: usize) -> u64 {
        let mut earliest = self.refresh_busy_until;
        for bg in 0..self.last_wr.len() {
            let ccd = if bg == bank_group { t.tccd_l } else { t.tccd_s };
            if let Some(at) = self.last_rd[bg] {
                earliest = earliest.max(at + ccd);
            }
            if let Some(at) = self.last_wr[bg] {
                earliest = earliest.max(at + ccd);
            }
        }
        earliest
    }

    /// The rank-wide READ and WRITE floors of every bank group
    /// ([`Rank::read_floor`], [`Rank::write_floor`]) in one pass over the
    /// groups, handed to `each` as `(bank_group, [read, write])`.
    pub(crate) fn column_floors(&self, t: &DramTiming, each: impl FnMut(usize, [u64; 2])) {
        let terms = |bg: usize, ccd: u64, wtr: u64| {
            let column = after(self.last_rd[bg], ccd).max(after(self.last_wr[bg], ccd));
            [column.max(after(self.last_wr[bg], wtr)), column]
        };
        per_group(
            self.last_rd.len(),
            [self.refresh_busy_until; 2],
            |bg| terms(bg, t.tccd_s, t.write_to_read_diff_bg()),
            |bg| terms(bg, t.tccd_l, t.write_to_read_same_bg()),
            each,
        );
    }

    /// The rank-wide ACTIVATE floor of every bank group
    /// ([`Rank::activate_floor`]) in one pass over the groups, handed to
    /// `each` as `(bank_group, floor)`.
    pub(crate) fn activate_floors(&self, t: &DramTiming, mut each: impl FnMut(usize, u64)) {
        let mut base = self.refresh_busy_until;
        if self.act_window.len() == 4 {
            base = base.max(self.act_window[0] + t.tfaw);
        }
        per_group(
            self.last_act.len(),
            [base],
            |bg| [after(self.last_act[bg], t.trrd_s)],
            |bg| [after(self.last_act[bg], t.trrd_l)],
            |bg, [floor]| each(bg, floor),
        );
    }

    /// Earliest cycle a PRECHARGE to `(bank_group, bank)` may issue.
    pub fn earliest_precharge(&self, bank_group: usize, bank: usize) -> u64 {
        self.banks[self.bank_index(bank_group, bank)]
            .next_pre
            .max(self.refresh_busy_until)
    }

    /// Record an ACTIVATE issued at `cycle`.
    pub fn record_activate(
        &mut self,
        t: &DramTiming,
        bank_group: usize,
        bank: usize,
        cycle: u64,
        row: usize,
    ) {
        let idx = self.bank_index(bank_group, bank);
        let b = &mut self.banks[idx];
        b.open_row = Some(row);
        b.next_rd = b.next_rd.max(cycle + t.trcd);
        b.next_wr = b.next_wr.max(cycle + t.trcd);
        b.next_pre = b.next_pre.max(cycle + t.tras);
        b.next_act = b.next_act.max(cycle + t.trc());
        self.last_act[bank_group] = Some(cycle);
        if self.act_window.len() == 4 {
            self.act_window.pop_front();
        }
        self.act_window.push_back(cycle);
    }

    /// Record a READ issued at `cycle`; `auto_precharge` models RDA.
    pub fn record_read(
        &mut self,
        t: &DramTiming,
        bank_group: usize,
        bank: usize,
        cycle: u64,
        auto_precharge: bool,
    ) {
        let idx = self.bank_index(bank_group, bank);
        self.last_rd[bank_group] = Some(cycle);
        let b = &mut self.banks[idx];
        b.next_pre = b.next_pre.max(cycle + t.trtp);
        if auto_precharge {
            let pre_at = b.next_pre;
            b.open_row = None;
            b.next_act = b.next_act.max(pre_at + t.trp);
        }
    }

    /// Record a WRITE issued at `cycle`; `auto_precharge` models WRA.
    pub fn record_write(
        &mut self,
        t: &DramTiming,
        bank_group: usize,
        bank: usize,
        cycle: u64,
        auto_precharge: bool,
    ) {
        let idx = self.bank_index(bank_group, bank);
        self.last_wr[bank_group] = Some(cycle);
        let b = &mut self.banks[idx];
        b.next_pre = b.next_pre.max(cycle + t.write_to_precharge());
        if auto_precharge {
            let pre_at = b.next_pre;
            b.open_row = None;
            b.next_act = b.next_act.max(pre_at + t.trp);
        }
    }

    /// Record a PRECHARGE issued at `cycle`.
    pub fn record_precharge(&mut self, t: &DramTiming, bank_group: usize, bank: usize, cycle: u64) {
        let idx = self.bank_index(bank_group, bank);
        let b = &mut self.banks[idx];
        b.open_row = None;
        b.next_act = b.next_act.max(cycle + t.trp);
    }

    /// Whether every bank in the rank is precharged (required before REF).
    pub fn all_banks_closed(&self) -> bool {
        self.banks.iter().all(|b| b.open_row.is_none())
    }

    /// Earliest cycle a REFRESH may issue (all banks closed and settled).
    pub fn earliest_refresh(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| b.next_act)
            .max()
            .unwrap_or(0)
            .max(self.refresh_busy_until)
    }

    /// Earliest cycle at or after `now` at which this rank's refresh
    /// machinery could act or change state: the pending deadline if the
    /// rank is not yet due, otherwise the earliest cycle an open bank can
    /// be precharged (refresh requires all banks closed), or — once all
    /// banks are closed — the earliest cycle REFRESH itself may issue.
    ///
    /// A return value `<= now` means the machinery can act right now.
    pub fn next_refresh_event(&self, now: u64) -> u64 {
        if now < self.next_refresh_due {
            return self.next_refresh_due;
        }
        if self.all_banks_closed() {
            return self.earliest_refresh();
        }
        let mut earliest = u64::MAX;
        for (idx, bank) in self.banks.iter().enumerate() {
            if bank.open_row.is_some() {
                let bg = idx / self.banks_per_group;
                let b = idx % self.banks_per_group;
                earliest = earliest.min(self.earliest_precharge(bg, b));
            }
        }
        earliest
    }

    /// Record a REFRESH issued at `cycle`.
    pub fn record_refresh(&mut self, t: &DramTiming, cycle: u64) {
        self.refresh_busy_until = cycle + t.trfc;
        for b in &mut self.banks {
            b.next_act = b.next_act.max(cycle + t.trfc);
        }
        self.next_refresh_due += t.trefi;
    }
}

/// `at + spacing`, or 0 (no constraint) when nothing issued yet.
fn after(at: Option<u64>, spacing: u64) -> u64 {
    at.map_or(0, |at| at + spacing)
}

/// For every group `g` of `groups`, hand `each` the floors
/// `max(base, same(g), max over h != g of cross(h))`, kind by kind: a
/// group's own commands constrain it by the same-group spacing, every other
/// group's by the cross-group one. Two passes over the groups instead of a
/// pass per group: the first keeps the two largest cross-group terms, so
/// each group can leave out its own.
fn per_group<const K: usize>(
    groups: usize,
    base: [u64; K],
    cross: impl Fn(usize) -> [u64; K],
    same: impl Fn(usize) -> [u64; K],
    mut each: impl FnMut(usize, [u64; K]),
) {
    // Per kind: the largest cross-group term, its group, the second largest.
    let mut top = [(0u64, usize::MAX, 0u64); K];
    for bg in 0..groups {
        for (slot, value) in top.iter_mut().zip(cross(bg)) {
            if value > slot.0 {
                *slot = (value, bg, slot.0);
            } else if value > slot.2 {
                slot.2 = value;
            }
        }
    }
    for bg in 0..groups {
        let same = same(bg);
        let mut floors = base;
        for k in 0..K {
            let (first, at, second) = top[k];
            let others = if at == bg { second } else { first };
            floors[k] = floors[k].max(same[k]).max(others);
        }
        each(bg, floors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank() -> Rank {
        Rank::new(4, 4, 12480)
    }

    #[test]
    fn activate_opens_row_and_spaces_commands() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        r.record_activate(&t, 0, 0, 100, 7);
        assert_eq!(r.banks[0].open_row, Some(7));
        assert_eq!(r.earliest_read(&t, 0, 0), 100 + t.trcd);
        assert_eq!(r.earliest_precharge(0, 0), 100 + t.tras);
        // Same bank group: tRRD_L; different: tRRD_S.
        assert_eq!(r.earliest_activate(&t, 0, 1), 100 + t.trrd_l);
        assert_eq!(r.earliest_activate(&t, 1, 0), 100 + t.trrd_s);
        // Same bank: tRC.
        assert_eq!(r.earliest_activate(&t, 0, 0), 100 + t.trc());
    }

    #[test]
    fn four_activate_window_enforced() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        // Four activates to different bank groups at the rrd_s cadence.
        let mut c = 0;
        for i in 0..4 {
            r.record_activate(&t, i, 0, c, 0);
            c += t.trrd_s;
        }
        // Fifth activate must wait for the window regardless of tRRD.
        let e = r.earliest_activate(&t, 0, 1);
        assert!(e >= t.tfaw, "tFAW not enforced: {e}");
    }

    #[test]
    fn write_to_read_turnaround() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        r.record_activate(&t, 0, 0, 0, 1);
        r.record_activate(&t, 1, 0, t.trrd_s, 1);
        r.record_write(&t, 0, 0, 50, false);
        // Same bank group pays the long turnaround.
        assert!(r.earliest_read(&t, 0, 0) >= 50 + t.write_to_read_same_bg());
        // Different group pays the short one.
        assert!(r.earliest_read(&t, 1, 0) >= 50 + t.write_to_read_diff_bg());
        assert!(r.earliest_read(&t, 1, 0) < 50 + t.write_to_read_same_bg());
    }

    #[test]
    fn refresh_blocks_rank() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        assert!(r.all_banks_closed());
        r.record_refresh(&t, 1000);
        assert_eq!(r.refresh_busy_until, 1000 + t.trfc);
        assert!(r.earliest_activate(&t, 0, 0) >= 1000 + t.trfc);
        assert_eq!(r.next_refresh_due, 12480 + t.trefi);
    }

    #[test]
    fn auto_precharge_closes_row() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        r.record_activate(&t, 0, 0, 0, 3);
        r.record_read(&t, 0, 0, t.trcd, true);
        assert_eq!(r.banks[0].open_row, None);
        // Next activate waits for tRAS (precharge gate) + tRP at least.
        assert!(r.banks[0].next_act >= t.tras + t.trp);
    }

    #[test]
    fn closed_rank_is_refreshable_immediately() {
        let r = rank();
        assert_eq!(r.earliest_refresh(), 0);
    }

    #[test]
    fn one_pass_floors_match_the_per_group_floors() {
        let mut t = DramTiming::ddr4_3200();
        // Also with a cross-group write-to-read delay above the same-group
        // one, which no validation rules out.
        for swap_wtr in [false, true] {
            if swap_wtr {
                std::mem::swap(&mut t.twtr_l, &mut t.twtr_s);
            }
            let mut r = rank();
            let mut state = 0x5eedu64;
            for step in 0..400u64 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let (bg, bank) = ((state >> 33) as usize % 4, (state >> 40) as usize % 4);
                let cycle = step * 7 + (state >> 50) % 5;
                match (state >> 20) % 4 {
                    0 => r.record_activate(&t, bg, bank, cycle, 1),
                    1 => r.record_read(&t, bg, bank, cycle, false),
                    2 => r.record_write(&t, bg, bank, cycle, false),
                    _ if step % 50 == 0 => r.record_refresh(&t, cycle),
                    _ => r.record_precharge(&t, bg, bank, cycle),
                }
                let mut seen = 0;
                r.column_floors(&t, |g, [read, write]| {
                    assert_eq!(read, r.read_floor(&t, g), "read floor, group {g}");
                    assert_eq!(write, r.write_floor(&t, g), "write floor, group {g}");
                    seen += 1;
                });
                r.activate_floors(&t, |g, activate| {
                    assert_eq!(
                        activate,
                        r.activate_floor(&t, g),
                        "activate floor, group {g}"
                    );
                    seen += 1;
                });
                assert_eq!(seen, 8);
            }
        }
    }

    #[test]
    fn next_refresh_event_tracks_machinery_state() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        // Before the deadline: the event is the deadline itself.
        assert_eq!(r.next_refresh_event(0), 12480);
        // Past the deadline with all banks closed: refresh-ready time.
        assert_eq!(r.next_refresh_event(12480), r.earliest_refresh());
        // An open bank gates the event on its earliest precharge.
        r.record_activate(&t, 1, 2, 12000, 9);
        assert_eq!(r.next_refresh_event(12480), 12000 + t.tras);
    }
}
