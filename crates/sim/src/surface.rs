//! 2-D sparsity-surface sweeps and bilinear interpolation (§VI).
//!
//! "For each layer, we simulate SAVE with both weight and activation
//! sparsities of 0%-90% at 10% intervals ... The result is a 2D surface of
//! execution times ... we linearly map the profiled weight and activation
//! sparsities to the 2D surface" — this module is exactly that machinery,
//! with degenerate axes collapsed when a phase has no sparsity of one type
//! (Table III), which removes most of the sweep cost.

use crate::cancel::SupervisorHandle;
use crate::checkpoint::{CellRecord, Checkpoint, SweepManifest};
use crate::durable::{run_cell, RetryPolicy};
use crate::error::SimError;
use crate::parallel::{parallel_try_map, parallel_try_map_cancel, FailureReport, JobFailure};
use crate::runner::{ConfigKind, MachineConfig};
use crate::spec::CellSpec;
use save_kernels::GemmWorkload;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Mutex;

/// The paper's 10-level grid (0%..90% at 10% intervals).
pub fn paper_grid() -> Vec<f64> {
    (0..10).map(|i| i as f64 * 0.1).collect()
}

/// A coarser 6-level grid for fast regeneration runs; interpolation fills
/// the gaps exactly as the methodology prescribes.
pub fn coarse_grid() -> Vec<f64> {
    vec![0.0, 0.2, 0.4, 0.6, 0.8, 0.9]
}

/// The grid's `(a, b)` points, `a`-major (the order of [`Surface::secs`]).
fn grid_points(a_levels: &[f64], b_levels: &[f64]) -> Vec<(f64, f64)> {
    a_levels.iter().flat_map(|&a| b_levels.iter().map(move |&b| (a, b))).collect()
}

/// Human-readable label for a grid cell, used in failure reports and
/// journals.
fn cell_label((a, b): (f64, f64)) -> String {
    format!("cell(a={a:.2},b={b:.2})")
}

/// Durability options for [`Surface::sweep_durable`].
pub struct DurableSweep<'a> {
    /// Sweep name recorded in the checkpoint manifest (figure/binary name
    /// plus any sub-sweep discriminator, e.g. `"fig14/resnet/Save2Vpu"`).
    pub name: String,
    /// Checkpoint directory; `None` disables journaling (the sweep still
    /// gets deadlines/retries/cancellation).
    pub checkpoint_dir: Option<&'a Path>,
    /// Load the journal and skip completed cells (bit-identical restore).
    pub resume: bool,
    /// Per-cell deadline/retry policy.
    pub policy: RetryPolicy,
    /// Supervisor enforcing deadlines and propagating Ctrl-C.
    pub supervisor: &'a SupervisorHandle,
}

/// What a durable sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The surface; failed or not-yet-computed cells are `NaN`.
    pub surface: Surface,
    /// Per-cell failures (journaled ones included on resume).
    pub report: FailureReport,
    /// Cells restored from a previous run's journal.
    pub resumed: usize,
    /// `true` when the sweep stopped early due to cancellation; the
    /// journal holds every completed cell, so `--resume` finishes the
    /// rest.
    pub cancelled: bool,
    /// Total simulated cycles across completed cells (journal + fresh) —
    /// the resume-invariance witness used by the kill-and-resume test.
    pub total_cycles: u64,
}

/// An execution-time surface over (broadcast-side, vector-side) sparsity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Surface {
    /// Broadcast-side (BS source) sparsity levels, ascending.
    pub a_levels: Vec<f64>,
    /// Vector-side (NBS source) sparsity levels, ascending.
    pub b_levels: Vec<f64>,
    /// Seconds, `a`-major: `secs[ai * b_levels.len() + bi]`.
    pub secs: Vec<f64>,
}

impl Surface {
    /// Builds a surface by simulating `w` at every grid point for `kind`.
    /// Pass a single-level axis (e.g. `[0.0]`) for a sparsity type the
    /// phase does not exhibit.
    ///
    /// # Errors
    /// A surface is only meaningful when complete, so the first grid point
    /// that fails (stall, invalid config, worker panic) fails the sweep;
    /// the error identifies the point through the kernel name and, for a
    /// panic, the job index.
    pub fn sweep(
        w: &GemmWorkload,
        kind: ConfigKind,
        machine: &MachineConfig,
        a_levels: &[f64],
        b_levels: &[f64],
        threads: usize,
    ) -> Result<Surface, SimError> {
        let points = grid_points(a_levels, b_levels);
        let secs = parallel_try_map(&points, threads, 0, |&p| {
            Ok(Self::point_cell(w, kind, machine, p).run(None)?.result.seconds)
        })
        .into_iter()
        .collect::<Result<Vec<f64>, SimError>>()?;
        Ok(Surface { a_levels: a_levels.to_vec(), b_levels: b_levels.to_vec(), secs })
    }

    /// The deterministic per-point seed shared by [`Surface::sweep`] and
    /// [`Surface::sweep_durable`]: tied to the sparsity point so repeated
    /// (and resumed) sweeps are deterministic while points stay
    /// independent. Public so callers can build
    /// [`crate::spec::CellSpec`]s whose results are bit-identical to a
    /// sweep of the same grid.
    pub fn point_seed(a: f64, b: f64) -> u64 {
        ((a * 1000.0) as u64) << 20 | ((b * 1000.0) as u64) << 4
    }

    /// The cell [`Surface::sweep`] and [`Surface::sweep_durable`] run at
    /// grid point `(a, b)`: `w` at that sparsity, seeded by
    /// [`Surface::point_seed`].
    fn point_cell(
        w: &GemmWorkload,
        kind: ConfigKind,
        machine: &MachineConfig,
        (a, b): (f64, f64),
    ) -> CellSpec {
        CellSpec::new(w.clone().with_sparsity(a, b), kind, *machine, Self::point_seed(a, b))
    }

    /// Durable counterpart of [`Surface::sweep`] (DESIGN.md §5f): each grid
    /// cell runs under `opts.policy` (deadline + bounded retries with
    /// backoff), completed cells are journaled to `opts.checkpoint_dir` as
    /// they finish, and with `opts.resume` journaled cells are *skipped* —
    /// their timings are restored from the journal's raw `f64` bits, so a
    /// killed-and-resumed sweep produces a bit-identical [`Surface`].
    ///
    /// Unlike [`Surface::sweep`], a failed cell does not abort the sweep:
    /// it becomes `NaN` in the surface and a structured entry in the
    /// returned [`FailureReport`]. Cancellation (Ctrl-C routed through
    /// `opts.supervisor`) stops in-flight cells at their next cycle
    /// quantum, flushes the journal, and comes back with
    /// `cancelled = true`; cancelled cells are *not* journaled, so a
    /// `--resume` recomputes exactly those.
    ///
    /// # Errors
    /// Only checkpoint-store problems (unwritable directory, manifest
    /// mismatch, corrupt journal) abort the sweep.
    pub fn sweep_durable(
        w: &GemmWorkload,
        kind: ConfigKind,
        machine: &MachineConfig,
        a_levels: &[f64],
        b_levels: &[f64],
        threads: usize,
        opts: &DurableSweep<'_>,
    ) -> Result<SweepOutcome, SimError> {
        let points = grid_points(a_levels, b_levels);
        let manifest = SweepManifest::new(
            &opts.name,
            &format!("surface sweep of kernel {}", w.name),
            points.len(),
            [
                format!("{w:?}"),
                format!("{:?}", kind.core_config()),
                format!("{:?}", machine.mem),
                format!("{:?}/{}", machine.mode, machine.cores),
                format!("a={a_levels:?}"),
                format!("b={b_levels:?}"),
            ],
        );
        let checkpoint = match opts.checkpoint_dir {
            Some(dir) => Some(Mutex::new(Checkpoint::open(dir, &manifest, opts.resume)?)),
            None => None,
        };

        // Split the grid into journaled cells (restored bit-exactly) and
        // pending work.
        let mut secs = vec![f64::NAN; points.len()];
        let mut failures: Vec<JobFailure> = Vec::new();
        let mut total_cycles = 0u64;
        let mut resumed = 0usize;
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..points.len() {
            let journaled = checkpoint
                .as_ref()
                .and_then(|ck| ck.lock().expect("checkpoint poisoned").done(i as u64).cloned());
            match journaled {
                Some(rec) => {
                    resumed += 1;
                    secs[i] = rec.secs();
                    total_cycles += rec.cycles;
                    if !rec.ok() {
                        failures.push(JobFailure {
                            job: i,
                            label: Some(cell_label(points[i])),
                            attempts: rec.attempts as usize,
                            error: rec.journaled_error(),
                        });
                    }
                }
                None => pending.push(i),
            }
        }

        // Run the pending cells; journal each as it completes. Cancelled
        // cells are deliberately not journaled: they carry no result and
        // must re-run on resume. A *failed* cell is journaled (as a NaN
        // record carrying the error kind) and is itself an `Ok(Failed)`
        // here — only cancellation and journal-write problems surface as
        // `Err` from the closure.
        enum CellFinal {
            Done { secs: f64, cycles: u64 },
            Failed { error: SimError, attempts: u32 },
        }
        let global = opts.supervisor.global();
        let results = parallel_try_map_cancel(&pending, threads, &global, |_, &i| {
            let (a, b) = points[i];
            let label = cell_label((a, b));
            let cell = Self::point_cell(w, kind, machine, (a, b));
            let run = run_cell(opts.supervisor, &opts.policy, &label, i, |tok| {
                Ok(cell.run(Some(tok))?.result)
            });
            let journal = |rec: CellRecord| -> Result<(), SimError> {
                match &checkpoint {
                    Some(ck) => ck.lock().expect("checkpoint poisoned").record(rec),
                    None => Ok(()),
                }
            };
            match run.result {
                Ok(r) => {
                    journal(CellRecord {
                        cell: i as u64,
                        secs_bits: r.seconds.to_bits(),
                        cycles: r.cycles,
                        attempts: run.attempts,
                        error_kind: String::new(),
                    })?;
                    Ok(CellFinal::Done { secs: r.seconds, cycles: r.cycles })
                }
                Err(e) if e.kind() == "cancelled" => Err(e),
                Err(e) => {
                    journal(CellRecord {
                        cell: i as u64,
                        secs_bits: f64::NAN.to_bits(),
                        cycles: 0,
                        attempts: run.attempts,
                        error_kind: e.kind().to_string(),
                    })?;
                    Ok(CellFinal::Failed { error: e, attempts: run.attempts })
                }
            }
        });

        let mut cancelled = global.is_cancelled();
        for (slot, r) in results.into_iter().enumerate() {
            let i = pending[slot];
            match r {
                Ok(CellFinal::Done { secs: s, cycles }) => {
                    secs[i] = s;
                    total_cycles += cycles;
                }
                Ok(CellFinal::Failed { error, attempts }) => {
                    failures.push(JobFailure {
                        job: i,
                        label: Some(cell_label(points[i])),
                        attempts: attempts as usize,
                        error,
                    });
                }
                Err(e) if e.kind() == "cancelled" => cancelled = true,
                Err(e) => {
                    failures.push(JobFailure {
                        job: i,
                        label: Some(cell_label(points[i])),
                        attempts: 1,
                        error: e,
                    });
                }
            }
        }
        failures.sort_by_key(|f| f.job);
        let report = FailureReport {
            total_jobs: points.len(),
            succeeded: secs.iter().filter(|s| !s.is_nan()).count(),
            failures,
        };
        Ok(SweepOutcome {
            surface: Surface {
                a_levels: a_levels.to_vec(),
                b_levels: b_levels.to_vec(),
                secs,
            },
            report,
            resumed,
            cancelled,
            total_cycles,
        })
    }

    fn bracket(levels: &[f64], x: f64) -> (usize, usize, f64) {
        if levels.len() == 1 || x <= levels[0] {
            return (0, 0, 0.0);
        }
        let last = levels.len() - 1;
        if x >= levels[last] {
            return (last, last, 0.0);
        }
        let hi = levels.iter().position(|&l| l >= x).unwrap();
        let lo = hi - 1;
        let t = (x - levels[lo]) / (levels[hi] - levels[lo]);
        (lo, hi, t)
    }

    /// Bilinear interpolation of the execution time at `(a, b)` sparsity,
    /// clamped to the grid's hull.
    pub fn interp(&self, a: f64, b: f64) -> f64 {
        let nb = self.b_levels.len();
        let (a0, a1, ta) = Self::bracket(&self.a_levels, a);
        let (b0, b1, tb) = Self::bracket(&self.b_levels, b);
        let v00 = self.secs[a0 * nb + b0];
        let v01 = self.secs[a0 * nb + b1];
        let v10 = self.secs[a1 * nb + b0];
        let v11 = self.secs[a1 * nb + b1];
        let v0 = v00 + (v01 - v00) * tb;
        let v1 = v10 + (v11 - v10) * tb;
        v0 + (v1 - v0) * ta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Surface {
        // time = 10 - 4a - 2b on a 2x3 grid.
        let a_levels = vec![0.0, 1.0];
        let b_levels = vec![0.0, 0.5, 1.0];
        let mut secs = Vec::new();
        for &a in &a_levels {
            for &b in &b_levels {
                secs.push(10.0 - 4.0 * a - 2.0 * b);
            }
        }
        Surface { a_levels, b_levels, secs }
    }

    #[test]
    fn interpolates_grid_points_exactly() {
        let s = synthetic();
        assert_eq!(s.interp(0.0, 0.0), 10.0);
        assert_eq!(s.interp(1.0, 1.0), 4.0);
        assert_eq!(s.interp(0.0, 0.5), 9.0);
    }

    #[test]
    fn bilinear_between_points() {
        let s = synthetic();
        assert!((s.interp(0.5, 0.25) - (10.0 - 2.0 - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_hull() {
        let s = synthetic();
        assert_eq!(s.interp(-0.5, 2.0), s.interp(0.0, 1.0));
    }

    #[test]
    fn degenerate_axis() {
        let s = Surface { a_levels: vec![0.0], b_levels: vec![0.0, 1.0], secs: vec![3.0, 1.0] };
        assert_eq!(s.interp(0.9, 0.5), 2.0);
    }

    #[test]
    fn grids() {
        assert_eq!(paper_grid().len(), 10);
        assert_eq!(coarse_grid().len(), 6);
        assert!((paper_grid()[9] - 0.9).abs() < 1e-12);
    }
}
