//! Load/store unit.
//!
//! Enforces the per-cycle port limits (Table I era Skylake: 2 L1-D read
//! ports, 1 store port; the B$ adds 4 broadcast read ports, §IV-A), reads
//! functional values at issue and delays register write-back by the
//! memory-hierarchy latency.
//!
//! Loads must not bypass older pending stores to the same line (kernels do
//! not overlap within a run, but the guard keeps the model honest).

use crate::rename::PhysRegFile;
use crate::rs::{Rs, RsEntry};
use crate::stats::CoreStats;
use crate::uop::{LoadKind, PhysId, RobId};
use save_isa::{Memory, VecF32, F32_PER_LINE};
use save_mem::{BcastAccess, CoreMemory, LoadClass, UncoreAccess};

/// Zero mask of the 16 f32 elements of the cache line starting at
/// `line_base`, read from functional memory. Elements beyond the allocated
/// arena are treated as non-zero (mask bit clear) instead of faulting — the
/// B$ fill and the sanitizer's freshness audit must agree on this
/// convention for lines that straddle the arena end.
pub(crate) fn line_zero_mask(mem: &Memory, line_base: u64) -> u16 {
    let mut mask = 0u16;
    for i in 0..F32_PER_LINE {
        let addr = line_base + 4 * i as u64;
        if addr + 4 <= mem.size() as u64 && mem.read_f32(addr) == 0.0 {
            mask |= 1 << i;
        }
    }
    mask
}

/// A load whose value is on its way to the register file.
#[derive(Clone, Copy, Debug)]
pub struct LoadEvent {
    /// Completion cycle.
    pub complete_at: u64,
    /// ROB id of the load.
    pub rob: RobId,
    /// Destination physical register.
    pub dst: PhysId,
    /// The loaded (or broadcast) value.
    pub value: VecF32,
}

/// One issue decision collected during the immutable RS scan of
/// [`Lsu::issue_cycle_bounded`], applied after the scan.
#[derive(Clone, Copy, Debug)]
enum Action {
    Load { rob: RobId, dst: PhysId, addr: u64, value_addr: u64, kind: LoadKind },
    Store { rob: RobId, src: PhysId, addr: u64 },
}

/// The load/store unit state.
#[derive(Clone, Debug, Default)]
pub struct Lsu {
    events: Vec<LoadEvent>,
    /// (rob, line) of allocated-but-unissued stores, for load ordering.
    pending_stores: Vec<(RobId, u64)>,
    /// Per-cycle scratch: issue decisions (reused across cycles).
    actions: Vec<Action>,
    /// Per-cycle scratch: ROB ids removed from the RS this cycle.
    issued: Vec<RobId>,
}

impl Lsu {
    /// Creates an idle LSU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a store at allocation so younger loads can order against it.
    pub fn note_store_alloc(&mut self, rob: RobId, addr: u64) {
        self.pending_stores.push((rob, save_mem::line_of(addr)));
    }

    /// `true` when a store older than `rob` to `line` is still pending.
    fn blocked_by_store(&self, rob: RobId, line: u64) -> bool {
        self.pending_stores.iter().any(|&(r, l)| r < rob && l == line)
    }

    /// Drains completed load events at `cycle`, returning them for register
    /// write-back.
    pub fn drain_completed(&mut self, cycle: u64) -> Vec<LoadEvent> {
        let mut done = Vec::new();
        self.drain_completed_into(cycle, &mut done);
        done
    }

    /// Drains completed load events at `cycle` into `out` (allocation-free
    /// variant used by the core's cycle loop).
    pub fn drain_completed_into(&mut self, cycle: u64, out: &mut Vec<LoadEvent>) {
        let mut i = 0;
        while i < self.events.len() {
            if self.events[i].complete_at <= cycle {
                out.push(self.events.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }

    /// Loads still in flight.
    pub fn in_flight(&self) -> usize {
        self.events.len()
    }

    /// Earliest completion cycle among in-flight loads, if any — a wake-up
    /// event for the core's fast-forward next-event derivation.
    pub fn next_completion(&self) -> Option<u64> {
        self.events.iter().map(|ev| ev.complete_at).min()
    }

    /// Issues ready loads and stores for this cycle under the port limits
    /// with an unbounded load buffer (test convenience).
    #[allow(clippy::too_many_arguments)]
    pub fn issue_cycle(
        &mut self,
        rs: &mut Rs,
        prf: &PhysRegFile,
        mem: &mut Memory,
        cmem: &mut CoreMemory,
        uncore: &mut dyn UncoreAccess,
        load_ports: usize,
        store_ports: usize,
        freq_ghz: f64,
        cycle: u64,
        stats: &mut CoreStats,
    ) -> Vec<RobId> {
        let mut stores_done = Vec::new();
        self.issue_cycle_bounded(
            rs,
            prf,
            mem,
            cmem,
            uncore,
            load_ports,
            usize::MAX,
            store_ports,
            freq_ghz,
            cycle,
            stats,
            &mut stores_done,
        );
        stores_done
    }

    /// Issues ready loads and stores for this cycle under the port and
    /// load-buffer limits. ROB ids of stores that completed (issued) this
    /// cycle are appended to `stores_done` (cleared first); decision and
    /// removal scratch lives in the LSU, so a steady-state cycle allocates
    /// nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn issue_cycle_bounded(
        &mut self,
        rs: &mut Rs,
        prf: &PhysRegFile,
        mem: &mut Memory,
        cmem: &mut CoreMemory,
        uncore: &mut dyn UncoreAccess,
        load_ports: usize,
        load_buffer: usize,
        store_ports: usize,
        freq_ghz: f64,
        cycle: u64,
        stats: &mut CoreStats,
        stores_done: &mut Vec<RobId>,
    ) {
        stores_done.clear();
        // Fast path: nothing for the LSU. Common in compute-bound stretches
        // where the station is saturated with VFMAs — the scan below walks
        // only the mem-op index, and an empty index costs one branch.
        if rs.mem_len() == 0 {
            return;
        }
        let now_ns = cycle as f64 / freq_ghz;
        let buffer_left = load_buffer.saturating_sub(self.events.len());
        let mut l1_left = load_ports.min(buffer_left);
        let mut b_left = cmem.bcast_read_ports();
        let mut stores_left = store_ports;

        // Collect issue decisions first (immutable scan), then apply. The
        // scan walks the loads/stores index in program order; after a
        // reorder fault has permuted the station it falls back to the full
        // (possibly permuted) program-order walk the fault targets.
        let mut actions = std::mem::take(&mut self.actions);
        let mut issued = std::mem::take(&mut self.issued);
        actions.clear();
        issued.clear();
        let intact = rs.order_intact();
        let scan_len = if intact { rs.mem_len() } else { rs.len() };
        for pos in 0..scan_len {
            if l1_left == 0 && stores_left == 0 {
                break;
            }
            let e = if intact { rs.mem_at(pos) } else { rs.at(pos) };
            match e {
                RsEntry::Load(l) => {
                    if self.blocked_by_store(l.rob, save_mem::line_of(l.addr)) {
                        continue;
                    }
                    // Port reservation: broadcasts probe the B$ first.
                    let needs_l1 = !matches!(
                        (l.kind, cmem.peek_bcast(l.addr)),
                        (LoadKind::Broadcast, Some(BcastAccess::HitNoL1))
                    );
                    let needs_b = l.kind == LoadKind::Broadcast && cmem.peek_bcast(l.addr).is_some();
                    if needs_l1 && l1_left == 0 {
                        continue;
                    }
                    if needs_b && b_left == 0 {
                        continue;
                    }
                    if needs_l1 {
                        l1_left -= 1;
                    }
                    if needs_b {
                        b_left -= 1;
                    }
                    actions.push(Action::Load {
                        rob: l.rob,
                        dst: l.dst,
                        addr: l.addr,
                        value_addr: l.value_addr,
                        kind: l.kind,
                    });
                }
                RsEntry::Store(s) => {
                    if stores_left == 0 || !prf.fully_ready(s.src) {
                        continue;
                    }
                    stores_left -= 1;
                    actions.push(Action::Store { rob: s.rob, src: s.src, addr: s.addr });
                }
                RsEntry::Fma(_) => {}
            }
        }

        for act in actions.drain(..) {
            match act {
                Action::Load { rob, dst, addr, value_addr, kind } => {
                    let (value, class) = match kind {
                        LoadKind::Vector => (mem.read_vec_f32(value_addr), LoadClass::Vector),
                        LoadKind::Broadcast => {
                            let value = mem.read_bcast_f32(value_addr);
                            let line_base = value_addr & !(save_mem::LINE_BYTES - 1);
                            let mask = line_zero_mask(mem, line_base);
                            stats.bcast_loads += 1;
                            let elem_zero = value.lane(0) == 0.0;
                            (value, LoadClass::Broadcast { elem_zero, line_zero_mask: mask })
                        }
                    };
                    let r = cmem.load(uncore, addr, now_ns, class);
                    if r.bcast_hit {
                        stats.bcast_hits += 1;
                    }
                    let lat_cycles = (r.latency_ns * freq_ghz).ceil().max(1.0) as u64;
                    self.events.push(LoadEvent { complete_at: cycle + lat_cycles, rob, dst, value });
                    stats.loads_issued += 1;
                    issued.push(rob);
                }
                Action::Store { rob, src, addr } => {
                    mem.write_vec_f32(addr, *prf.value(src));
                    cmem.store(uncore, addr, now_ns);
                    self.pending_stores.retain(|&(r, _)| r != rob);
                    stats.stores_issued += 1;
                    issued.push(rob);
                    stores_done.push(rob);
                }
            }
        }

        if !issued.is_empty() {
            rs.retain(|e| match e {
                RsEntry::Load(l) => !issued.contains(&l.rob),
                RsEntry::Store(s) => !issued.contains(&s.rob),
                RsEntry::Fma(_) => true,
            });
        }
        self.actions = actions;
        self.issued = issued;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::{Rob, RobKind};
    use crate::rs::LoadEntry;
    use save_mem::{MemConfig, Uncore};

    fn setup() -> (Rs, PhysRegFile, Memory, CoreMemory, Uncore, CoreStats, Rob) {
        let cfg = MemConfig { bcast: None, prefetch_degree: 0, ..MemConfig::default() };
        (
            Rs::new(97),
            PhysRegFile::new(64),
            Memory::new(8192),
            CoreMemory::new(0, cfg, 1.7),
            Uncore::new(&cfg, 1),
            CoreStats::default(),
            Rob::new(224),
        )
    }

    #[test]
    fn load_ports_limit_issues_per_cycle() {
        let (mut rs, prf, mut mem, mut cmem, mut unc, mut stats, mut rob) = setup();
        let mut lsu = Lsu::new();
        for i in 0..4 {
            let r = rob.push(RobKind::Flagged, [None, None]);
            rs.push(RsEntry::Load(LoadEntry {
                rob: r,
                dst: i,
                addr: i as u64 * 64,
                value_addr: i as u64 * 64,
                kind: LoadKind::Vector,
            }));
        }
        lsu.issue_cycle(&mut rs, &prf, &mut mem, &mut cmem, &mut unc, 2, 1, 1.7, 0, &mut stats);
        assert_eq!(stats.loads_issued, 2);
        assert_eq!(rs.len(), 2);
        lsu.issue_cycle(&mut rs, &prf, &mut mem, &mut cmem, &mut unc, 2, 1, 1.7, 1, &mut stats);
        assert_eq!(stats.loads_issued, 4);
    }

    #[test]
    fn load_waits_for_older_store_to_same_line() {
        let (mut rs, mut prf, mut mem, mut cmem, mut unc, mut stats, mut rob) = setup();
        let mut lsu = Lsu::new();
        let src = prf.alloc().unwrap(); // not ready yet
        let st = rob.push(RobKind::Flagged, [None, None]);
        rs.push(RsEntry::Store(crate::rs::StoreEntry { rob: st, src, addr: 0 }));
        lsu.note_store_alloc(st, 0);
        let dst = prf.alloc().unwrap();
        let ld = rob.push(RobKind::Flagged, [None, None]);
        rs.push(RsEntry::Load(LoadEntry {
            rob: ld,
            dst,
            addr: 16,
            value_addr: 16,
            kind: LoadKind::Vector,
        }));
        lsu.issue_cycle(&mut rs, &prf, &mut mem, &mut cmem, &mut unc, 2, 1, 1.7, 0, &mut stats);
        assert_eq!(stats.loads_issued, 0, "load must wait behind the pending store");
        // Make the store data ready; store issues, then the load can go.
        prf.write_all(src, VecF32::splat(9.0));
        lsu.issue_cycle(&mut rs, &prf, &mut mem, &mut cmem, &mut unc, 2, 1, 1.7, 1, &mut stats);
        assert_eq!(stats.stores_issued, 1);
        lsu.issue_cycle(&mut rs, &prf, &mut mem, &mut cmem, &mut unc, 2, 1, 1.7, 2, &mut stats);
        assert_eq!(stats.loads_issued, 1);
        // The loaded value reflects the store.
        let evs = lsu.drain_completed(10_000);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].value.lane(0), 9.0);
    }

    #[test]
    fn load_buffer_bounds_inflight_loads() {
        let (mut rs, prf, mut mem, mut cmem, mut unc, mut stats, mut rob) = setup();
        let mut lsu = Lsu::new();
        for i in 0..6u32 {
            let r = rob.push(RobKind::Flagged, [None, None]);
            rs.push(RsEntry::Load(LoadEntry {
                rob: r,
                dst: i,
                addr: i as u64 * 1024, // distinct lines: long DRAM latencies
                value_addr: i as u64 * 1024,
                kind: LoadKind::Vector,
            }));
        }
        // Buffer of 3: only 3 loads may be in flight even over many cycles.
        let mut stores_done = Vec::new();
        for cyc in 0..3 {
            lsu.issue_cycle_bounded(
                &mut rs, &prf, &mut mem, &mut cmem, &mut unc, 2, 3, 1, 1.7, cyc, &mut stats,
                &mut stores_done,
            );
            assert!(lsu.in_flight() <= 3, "cycle {cyc}: {} in flight", lsu.in_flight());
        }
        assert_eq!(stats.loads_issued, 3);
        // Drain everything; the rest can then issue.
        lsu.drain_completed(1_000_000);
        lsu.issue_cycle_bounded(
            &mut rs, &prf, &mut mem, &mut cmem, &mut unc, 2, 3, 1, 1.7, 1_000_001, &mut stats,
            &mut stores_done,
        );
        assert_eq!(stats.loads_issued, 5);
    }

    #[test]
    fn broadcast_value_is_splat() {
        let (mut rs, prf, mut mem, mut cmem, mut unc, mut stats, mut rob) = setup();
        mem.write_f32(8, 5.0);
        let mut lsu = Lsu::new();
        let r = rob.push(RobKind::Flagged, [None, None]);
        rs.push(RsEntry::Load(LoadEntry {
            rob: r,
            dst: 0,
            addr: 8,
            value_addr: 8,
            kind: LoadKind::Broadcast,
        }));
        lsu.issue_cycle(&mut rs, &prf, &mut mem, &mut cmem, &mut unc, 2, 1, 1.7, 0, &mut stats);
        let evs = lsu.drain_completed(10_000);
        assert_eq!(evs[0].value, VecF32::splat(5.0));
    }
}
