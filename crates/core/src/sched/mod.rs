//! VPU select logic: baseline, SAVE vertical coalescing (with rotation and
//! lane-wise dependence), horizontal compression, and the mixed-precision
//! multiplicand-lane compression.
//!
//! Each scheduler consumes ready [`crate::rs::FmaEntry`]s from the
//! reservation station and produces at most one compacted
//! [`crate::vpu::VpuOp`] per VPU per cycle. Functional lane values are
//! computed at select time (operand lanes are proven ready) and written back
//! at completion.
//!
//! Select runs every simulated cycle, so it is the hottest code in the
//! simulator. All schedulers work out of a per-core [`SelectScratch`]: the
//! candidate lists, per-temp pick lists and per-VPU result accumulators are
//! reused across cycles, and the `Vec<LaneResult>` payloads of completed
//! [`VpuOp`]s are recycled through a pool, so steady-state selection
//! performs no heap allocation.

pub mod baseline;
pub mod horizontal;
pub mod mixed;
pub mod vertical;

use crate::config::{CoreConfig, SchedulerKind};
use crate::rename::PhysRegFile;
use crate::rs::{FmaEntry, Rs, RsEntry};
use crate::stats::CoreStats;
use crate::uop::{FmaPrecision, RobId};
use crate::vpu::{LaneResult, VpuOp};
use save_isa::LANES;

/// Reusable per-core scheduling buffers (see the module docs).
///
/// The combination-window scoreboard (`masks`) must be refreshed with
/// [`window_masks`] each cycle before calling [`select`] under a non-baseline
/// scheduler — the core does this anyway to sample the CW-size statistic.
#[derive(Debug, Default)]
pub struct SelectScratch {
    /// Per-cycle window scoreboard: `(program-order position, schedulable
    /// lane mask)` for every VFMA whose mask is nonzero, oldest first.
    /// Entries mutated by select never change a *later* entry's mask (masks
    /// depend only on the entry's own state and the unmodified PRF), so the
    /// scoreboard stays valid for the whole select pass.
    masks: Vec<(usize, u16)>,
    /// Vertical: candidates of the window precision, masks consumed in place.
    cand: Vec<(usize, u16)>,
    /// Vertical: per-temp `(entry position, logical lane)` assignments.
    temps: Vec<Vec<(usize, usize)>>,
    /// Mixed: program-order positions of MP entries.
    idxs: Vec<usize>,
    /// Mixed: per-VPU result accumulators.
    per_vpu: Vec<Vec<LaneResult>>,
    /// Baseline: ROB ids issued this cycle (removed from the RS after).
    issued: Vec<RobId>,
    /// Recycled lane-result payloads from completed ops.
    pool: Vec<Vec<LaneResult>>,
}

impl SelectScratch {
    /// Creates empty scratch; buffers grow to steady-state sizes on first
    /// use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of VFMAs in the combination window as of the last
    /// [`window_masks`] refresh (§III samples 24-28 on SAVE workloads).
    pub fn window_len(&self) -> usize {
        self.masks.len()
    }

    /// Hands out an empty lane-result vector, recycling a completed op's
    /// payload when one is pooled.
    pub(crate) fn lease(&mut self) -> Vec<LaneResult> {
        self.pool.pop().unwrap_or_else(|| Vec::with_capacity(LANES))
    }

    /// Returns a completed op's payload to the pool for reuse.
    pub fn recycle(&mut self, mut v: Vec<LaneResult>) {
        v.clear();
        self.pool.push(v);
    }
}

/// Refreshes the combination-window scoreboard in `sx` (and nothing else):
/// one [`sched_mask`] evaluation per RS entry per cycle, shared by the
/// CW-size statistic and the vertical/horizontal select passes.
pub fn window_masks(rs: &Rs, prf: &PhysRegFile, lane_wise: bool, sx: &mut SelectScratch) {
    sx.masks.clear();
    for (i, e) in rs.iter().enumerate() {
        if let RsEntry::Fma(f) = e {
            let m = sched_mask(f, prf, lane_wise);
            if m != 0 {
                sx.masks.push((i, m));
            }
        }
    }
}

/// Runs the configured select logic for one cycle, appending the issued ops
/// to `out` (cleared first). Non-baseline schedulers read the scoreboard
/// refreshed by [`window_masks`] this cycle.
pub fn select(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
    sx: &mut SelectScratch,
    out: &mut Vec<VpuOp>,
) {
    out.clear();
    match cfg.scheduler {
        SchedulerKind::Baseline => baseline::select(rs, prf, cfg, cycle, stats, sx, out),
        SchedulerKind::Vertical => {
            // A cycle's temps are homogeneous in precision; follow the
            // oldest entry that is in the combination window.
            match oldest_window_precision(rs, prf) {
                Some(FmaPrecision::Bf16) if cfg.mp_compress => {
                    mixed::select(rs, prf, cfg, cycle, stats, sx, out)
                }
                _ => vertical::select(rs, prf, cfg, cycle, stats, sx, out),
            }
        }
        SchedulerKind::Horizontal => horizontal::select(rs, prf, cfg, cycle, stats, sx, out),
    }
}

/// Precision of the oldest VFMA currently in the combination window.
pub(crate) fn oldest_window_precision(rs: &Rs, prf: &PhysRegFile) -> Option<FmaPrecision> {
    rs.iter().find_map(|e| match e {
        RsEntry::Fma(f) if f.in_window(prf) => Some(f.precision),
        _ => None,
    })
}

/// Lanes of `e` that may be scheduled this cycle under the configured
/// accumulator-dependence scheme: the unscheduled effectual lanes whose
/// accumulator-source lane is available (§IV-C).
pub(crate) fn sched_mask(e: &FmaEntry, prf: &PhysRegFile, lane_wise: bool) -> u16 {
    if !e.in_window(prf) {
        return 0;
    }
    if lane_wise {
        e.elm & prf.ready_mask(e.acc_src)
    } else if prf.fully_ready(e.acc_src) {
        e.elm
    } else {
        0
    }
}

/// FP32 lane result: `c + a*b` with fused rounding.
pub(crate) fn lane_value_f32(e: &FmaEntry, prf: &PhysRegFile, lane: usize) -> f32 {
    let a = prf.value(e.a).lane(lane);
    let b = prf.value(e.b).lane(lane);
    let c = prf.value(e.acc_src).lane(lane);
    a.mul_add(b, c)
}

/// Mixed-precision AL result: two chained MACs over the AL's effectual MLs
/// in ML order (paper Fig 2), starting from `base`.
pub(crate) fn al_value_mp(e: &FmaEntry, prf: &PhysRegFile, al: usize, ml_bits: u32, base: f32) -> f32 {
    let av = prf.value(e.a).as_bf16();
    let bv = prf.value(e.b).as_bf16();
    let mut acc = base;
    for half in 0..2usize {
        if ml_bits >> half & 1 == 1 {
            let m = 2 * al + half;
            acc = av.lane(m).to_f32().mul_add(bv.lane(m).to_f32(), acc);
        }
    }
    acc
}
