//! The three workloads: `surface`, `sweep` and `mesh28`.

use crate::gen::{self, SweepJob};
use crate::layers::{run_decomposed, same_run, secs_since, Decomposed};
use crate::{Checked, Metrics, Workload};
use save_bench::{BenchCli, SweepSession};
use save_kernels::GemmWorkload;
use save_sim::checkpoint::fnv1a;
use save_sim::{
    parallel_try_map, run_kernel_full, CellRecord, CellSpec, Checkpoint, ConfigKind, CoreSel,
    KernelResult, KernelRun, MachineConfig, SimError, Supervisor, Surface, SweepManifest,
    TraceStore,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn err(e: SimError) -> String {
    format!("[{}] {e}", e.kind())
}

fn kind_of(spec: &CellSpec) -> ConfigKind {
    match &spec.core {
        CoreSel::Kind { kind } => *kind,
        CoreSel::Custom { .. } => unreachable!("benchmark cells use named operating points"),
    }
}

/// The direct, verified run of a cell: the reference every other path is
/// checked against.
fn direct(spec: &CellSpec) -> Result<KernelRun, SimError> {
    run_kernel_full(
        &spec.workload,
        kind_of(spec),
        &spec.machine,
        spec.seed,
        true,
        None,
    )
}

/// Direct verified runs of `cells` over `threads` host threads.
fn direct_all(cells: &[CellSpec], threads: usize) -> Result<Vec<KernelRun>, String> {
    parallel_try_map(cells, threads, 0, direct)
        .into_iter()
        .map(|r| r.map_err(err))
        .collect()
}

/// FNV-1a over the debug rendering of every run: cycles, seconds, the full
/// `CoreStats` and the `UncoreReport` (floats print round-trip exactly).
fn digest<'a>(runs: impl IntoIterator<Item = &'a KernelRun>) -> u64 {
    let mut text = String::new();
    for r in runs {
        text.push_str(&format!("{:?}|{:?}\n", r.result, r.uncore));
    }
    fnv1a(text.as_bytes())
}

/// `part / whole`, or 0 when there is no whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Share of `part` in `whole`, in percent.
fn pct(part: f64, whole: f64) -> f64 {
    100.0 * ratio(part, whole)
}

/// Σ base seconds / Σ SAVE seconds per operating point, over cells that
/// are listed once each.
fn model_speedups(cells: &[(ConfigKind, f64)], m: &mut Metrics) {
    let sum = |k: ConfigKind| cells.iter().filter(|c| c.0 == k).map(|c| c.1).sum::<f64>();
    let base = sum(ConfigKind::Baseline);
    m.push(
        "model.save2_speedup",
        "ratio",
        base / sum(ConfigKind::Save2Vpu),
    );
    m.push(
        "model.save1_speedup",
        "ratio",
        base / sum(ConfigKind::Save1Vpu),
    );
}

/// Layer metrics of a set of decomposed cells: the kernels, mem and core
/// layers, with each layer's host time as seconds and as a share of the
/// cells' total traced time.
fn decomposition_metrics(cells: &[Decomposed], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&Decomposed) -> f64| cells.iter().map(f).sum::<f64>();
    let total = sum(&|d| d.spans.total());
    let (build, mem, core, verify) = (
        sum(&|d| d.spans.build),
        sum(&|d| d.spans.mem),
        sum(&|d| d.spans.core),
        sum(&|d| d.spans.verify),
    );
    m.push("kernels.build_s", "s", build);
    m.push("kernels.verify_s", "s", verify);
    m.push("kernels.builds", "count", cells.len() as f64);
    m.push("kernels.build_pct", "%", pct(build, total));
    m.push("kernels.verify_pct", "%", pct(verify, total));
    m.push("mem.setup_s", "s", mem);
    m.push("mem.setup_pct", "%", pct(mem, total));
    m.push("core.run_s", "s", core);
    m.push("core.run_pct", "%", pct(core, total));

    let count = |f: &dyn Fn(&Decomposed) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let uops = count(&|d| d.run.result.stats.uops_committed);
    let cycles = count(&|d| d.run.result.stats.cycles);
    m.push("core.uops", "count", uops);
    m.push("core.cycles", "count", cycles);
    m.push("core.ns_per_uop", "ns", 1e9 * core / uops);
    m.push("core.kuops_per_s", "kuop/s", uops / core / 1e3);
    m.push(
        "core.vpu_busy_frac",
        "ratio",
        count(&|d| d.run.result.stats.vpu_busy_cycles) / cycles,
    );
    m.push("mem.l1_misses", "count", count(&|d| d.l1_misses));
    m.push("mem.l2_misses", "count", count(&|d| d.l2_misses));
    let probes = count(&|d| d.bcast.1);
    m.push(
        "mem.bcast_hit_ratio",
        "ratio",
        ratio(count(&|d| d.bcast.0), probes),
    );
    uncore_metrics(cells.iter().map(|d| &d.run), m);
}

/// Simulated shared-uncore counters summed (maxima: maximised) over `runs`.
fn uncore_metrics<'a>(runs: impl Iterator<Item = &'a KernelRun>, m: &mut Metrics) {
    let (mut hits, mut lookups, mut lines, mut conflicts, mut flits, mut queue) =
        (0, 0, 0, 0, 0, 0);
    for r in runs {
        let u = &r.uncore;
        hits += u.l3_hits;
        lookups += u.l3_hits + u.l3_misses;
        lines += u.dram.demand_fills + u.dram.prefetch_fills;
        conflicts += u.total_mshr_conflicts();
        flits = flits.max(u.max_link_flits);
        queue = queue.max(u.dram.max_queue_depth);
    }
    m.push(
        "mem.l3_hit_ratio",
        "ratio",
        ratio(hits as f64, lookups as f64),
    );
    m.push("mem.dram_lines", "count", lines as f64);
    m.push("mem.mshr_conflicts", "count", conflicts as f64);
    m.push("mem.max_link_flits", "count", flits as f64);
    m.push("mem.dram_max_queue", "count", queue as f64);
}

// ---------------------------------------------------------------- surface

/// `surface`: `Surface::sweep` over every job, in the estimator's order.
pub struct SurfaceBench {
    jobs: Vec<SweepJob>,
    /// Every job's cells as `Surface::sweep` runs them, job by job.
    job_cells: Vec<Vec<CellSpec>>,
    machine: MachineConfig,
    threads: usize,
    /// Seconds of every cell from the first untraced pass, job-major.
    first: Option<Vec<f64>>,
    /// Decomposed cells from the first traced pass, job-major.
    decomposed: Option<Vec<Decomposed>>,
    /// Later passes that disagreed with the first.
    drift: Vec<String>,
}

impl SurfaceBench {
    fn all_cells(&self) -> impl Iterator<Item = &CellSpec> {
        self.job_cells.iter().flatten()
    }

    fn sweep_all(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let mut secs = Vec::with_capacity(self.cells());
        for j in &self.jobs {
            let s = Surface::sweep(
                &j.kernel,
                j.kind,
                &self.machine,
                &j.a_levels,
                &j.b_levels,
                self.threads,
            )
            .map_err(err)?;
            secs.extend(s.secs);
        }
        let wall = secs_since(t);
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        match &self.first {
            None => self.first = Some(secs),
            Some(f) if bits(f) != bits(&secs) => self
                .drift
                .push("surface seconds changed between passes".into()),
            Some(_) => {}
        }
        Ok(wall)
    }
}

impl Workload for SurfaceBench {
    fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let machine = MachineConfig::default();
        let jobs = gen::surface_jobs(seed);
        let job_cells: Vec<Vec<CellSpec>> = jobs.iter().map(|j| j.cells(machine)).collect();
        direct(&job_cells[0][0]).map_err(err)?;
        Ok(SurfaceBench {
            jobs,
            job_cells,
            machine,
            threads,
            first: None,
            decomposed: None,
            drift: Vec::new(),
        })
    }

    fn pass(&mut self) -> Result<f64, String> {
        self.sweep_all()
    }

    fn traced_pass(&mut self) -> Result<Metrics, String> {
        let untraced = self.sweep_all()?;
        // Same parallel shape as the untraced pass: one parallel map per job.
        let t = Instant::now();
        let mut cells: Vec<Decomposed> = Vec::with_capacity(self.cells());
        for job in &self.job_cells {
            for d in parallel_try_map(job, self.threads, 0, run_decomposed) {
                cells.push(d.map_err(err)?);
            }
        }
        let traced = secs_since(t);
        let mut m = Metrics::default();
        decomposition_metrics(&cells, &mut m);
        let serial: f64 = cells.iter().map(|d| d.spans.total()).sum();
        m.push("surface.cells", "count", cells.len() as f64);
        m.push("parallel.threads", "count", self.threads as f64);
        m.push(
            "parallel.efficiency",
            "ratio",
            serial / (untraced * self.threads as f64),
        );
        m.push("bench.trace_overhead", "ratio", traced / untraced - 1.0);
        let by_kind: Vec<(ConfigKind, f64)> = self
            .all_cells()
            .zip(&cells)
            .map(|(c, d)| (kind_of(c), d.run.result.seconds))
            .collect();
        model_speedups(&by_kind, &mut m);
        self.decomposed.get_or_insert(cells);
        Ok(m)
    }

    fn cells(&self) -> usize {
        self.job_cells.iter().map(Vec::len).sum()
    }

    fn check(&mut self) -> Result<Checked, Vec<String>> {
        let mut misses = std::mem::take(&mut self.drift);
        let cells: Vec<CellSpec> = self.all_cells().cloned().collect();
        let runs = direct_all(&cells, self.threads).map_err(|e| vec![e])?;
        for (i, (c, r)) in cells.iter().zip(&runs).enumerate() {
            if let Some(f) = &self.first {
                if f[i].to_bits() != r.result.seconds.to_bits() {
                    misses.push(format!(
                        "{}: Surface::sweep seconds differ from the direct run",
                        c.workload.name
                    ));
                }
            }
            if let Some(d) = &self.decomposed {
                if !same_run(&d[i].run, r) {
                    misses.push(format!(
                        "{}: decomposed cell differs from the direct run",
                        c.workload.name
                    ));
                }
            }
        }
        if !misses.is_empty() {
            return Err(misses);
        }
        Ok(Checked {
            uops: runs.iter().map(|r| r.result.stats.uops_committed).sum(),
            digest: digest(&runs),
            extra: Vec::new(),
        })
    }
}

// ------------------------------------------------------------------ sweep

/// Session name of the `sweep` batch (its journal's manifest names it).
const SESSION: &str = "perfbench-sweep";

/// `sweep`: a fig16-shaped batch through `SweepSession::spec_seconds_batch`
/// with a fresh checkpoint journal, then through a second session that
/// resumes from that journal — what `fig16 --checkpoint-dir DIR` and its
/// `--resume` rerun do.
pub struct SweepBench {
    cells: Vec<(String, CellSpec)>,
    /// Supervisor the sessions run their cells under, as `run_main` gives
    /// a figure binary (without signal handlers).
    sup: Supervisor,
    work: PathBuf,
    passes: usize,
    threads: usize,
    /// Seconds the first untraced pass delivered, per cell.
    first: Option<Vec<f64>>,
    /// Results of the first decomposed batch, per cell.
    traced: Option<Vec<KernelResult>>,
    /// Decomposed distinct cells from the first traced pass, by cache key.
    decomposed: Option<HashMap<u64, Decomposed>>,
    drift: Vec<String>,
}

/// Layer times of one decomposed batch.
#[derive(Default)]
struct BatchSpans {
    open: f64,
    record: f64,
    replay: f64,
    memo: f64,
    append: f64,
    resume: f64,
    /// Replay seconds per replayed cell's cache key.
    replayed: Vec<(u64, f64)>,
    /// Journal size after the batch.
    bytes: u64,
    /// Cells the resume loaded from the journal.
    resumed: usize,
}

/// A scratch directory inside the build tree for journals, unique to this
/// process.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let base = exe.parent().ok_or("executable has no directory")?;
    Ok(base
        .join("perfbench-work")
        .join(std::process::id().to_string()))
}

fn secs_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|s| s.to_bits()).collect()
}

impl SweepBench {
    /// A fresh journal directory for the next batch.
    fn next_dir(&mut self) -> PathBuf {
        self.passes += 1;
        self.work.join(format!("pass-{}", self.passes))
    }

    /// A durable session journaling into `dir`, built from the same flags
    /// a figure binary parses.
    fn session(&self, dir: &Path, resume: bool) -> Result<SweepSession, String> {
        let mut args = vec!["--checkpoint-dir".to_string(), dir.display().to_string()];
        if resume {
            args.push("--resume".into());
        }
        let cli = BenchCli::parse_from(args)?;
        SweepSession::durable(SESSION, &cli, self.sup.handle()).map_err(err)
    }

    /// The figure path: the batch through a session with a fresh journal,
    /// then again through a session resumed from it, which must give back
    /// every cell without running it.
    fn session_pass(&mut self) -> Result<(), String> {
        let dir = self.next_dir();
        let mut session = self.session(&dir, false)?;
        let secs = session.spec_seconds_batch(&self.cells);
        let clean = session.is_clean();
        drop(session);
        let mut resumed = self.session(&dir, true)?;
        let again = resumed.spec_seconds_batch(&self.cells);
        let restored = resumed.is_clean()
            && resumed.resumed() == self.cells.len()
            && secs_bits(&again) == secs_bits(&secs);
        drop(resumed);
        let _ = std::fs::remove_dir_all(&dir);
        if !clean {
            return Err("the session reported failed cells".into());
        }
        if !restored {
            self.drift
                .push("resumed session does not give back every cell bit for bit".into());
        }
        match &self.first {
            None => self.first = Some(secs),
            Some(f) if secs_bits(f) != secs_bits(&secs) => self
                .drift
                .push("session results changed between passes".into()),
            Some(_) => {}
        }
        Ok(())
    }

    /// The session's local path decomposed into its layer calls, each
    /// timed: the journal open, `CellSpec::run_traced` through one bounded
    /// store (classed by which store counter moved), one label-keyed
    /// append per cell, and the resume.
    fn decomposed_batch(
        &mut self,
        s: &mut BatchSpans,
    ) -> Result<(Vec<KernelResult>, TraceStore), String> {
        let dir = self.next_dir();
        // The manifest `SweepSession::durable` writes for this session.
        let manifest = SweepManifest::new(
            &format!("session:{SESSION}"),
            "label-keyed experiment session journal",
            0,
            [
                SESSION.to_string(),
                "quick=false".into(),
                "full=false".into(),
            ],
        );
        let t = Instant::now();
        let mut ck = Checkpoint::open(&dir, &manifest, false).map_err(err)?;
        s.open += secs_since(t);
        let store = TraceStore::with_capacity(8);
        let mut results = Vec::with_capacity(self.cells.len());
        for (label, spec) in &self.cells {
            let (memo0, hits0) = (store.result_hits(), store.hits());
            let t = Instant::now();
            let r = spec.run_traced(None, &store).map_err(err)?;
            let dt = secs_since(t);
            if store.result_hits() > memo0 {
                s.memo += dt;
            } else if store.hits() > hits0 {
                s.replay += dt;
                s.replayed.push((spec.cache_key().map_err(err)?, dt));
            } else {
                s.record += dt;
            }
            let t = Instant::now();
            let rec = CellRecord {
                cell: fnv1a(label.as_bytes()),
                secs_bits: r.seconds.to_bits(),
                cycles: 0,
                attempts: 1,
                error_kind: String::new(),
            };
            ck.record(rec).map_err(err)?;
            s.append += secs_since(t);
            results.push(r);
        }
        drop(ck);
        let t = Instant::now();
        let resumed = Checkpoint::open(&dir, &manifest, true).map_err(err)?;
        let restored = self.cells.iter().zip(&results).all(|((label, _), r)| {
            resumed
                .done(fnv1a(label.as_bytes()))
                .is_some_and(|rec| rec.secs_bits == r.seconds.to_bits())
        });
        s.resume += secs_since(t);
        s.bytes = std::fs::metadata(Checkpoint::journal_path(&dir)).map_or(0, |m| m.len());
        s.resumed = resumed.resumed_cells();
        let _ = std::fs::remove_dir_all(&dir);
        if s.resumed != self.cells.len() || !restored {
            self.drift
                .push("resumed journal does not give back every cell bit for bit".into());
        }
        Ok((results, store))
    }

    /// The first cell of every distinct cache key, in batch order.
    fn distinct(&self) -> Vec<(u64, CellSpec)> {
        let mut seen = std::collections::HashSet::new();
        self.cells
            .iter()
            .filter_map(|(_, c)| {
                let k = c.cache_key().ok()?;
                seen.insert(k).then(|| (k, c.clone()))
            })
            .collect()
    }
}

impl Drop for SweepBench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
        if let Some(parent) = self.work.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

impl Workload for SweepBench {
    fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let cells = gen::sweep_cells(seed);
        static SETUPS: AtomicUsize = AtomicUsize::new(0);
        let work = work_dir()?.join(format!("setup-{}", SETUPS.fetch_add(1, Ordering::Relaxed)));
        let bench = SweepBench {
            cells,
            sup: Supervisor::start(false),
            work,
            passes: 0,
            threads,
            first: None,
            traced: None,
            decomposed: None,
            drift: Vec::new(),
        };
        // The journal the first pass would open, opened and put away again.
        let probe = bench.work.join("probe");
        bench.session(&probe, false)?;
        let _ = std::fs::remove_dir_all(&probe);
        direct(&bench.cells[0].1).map_err(err)?;
        Ok(bench)
    }

    fn pass(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        self.session_pass()?;
        Ok(secs_since(t))
    }

    fn traced_pass(&mut self) -> Result<Metrics, String> {
        let untraced = self.pass()?;
        let mut s = BatchSpans::default();
        let t = Instant::now();
        let (results, store) = self.decomposed_batch(&mut s)?;
        let traced = secs_since(t);
        let mut m = Metrics::default();
        let layer = |m: &mut Metrics, name: &str, secs: f64| {
            m.push(&format!("{name}_s"), "s", secs);
            m.push(&format!("{name}_pct"), "%", pct(secs, traced));
        };
        layer(&mut m, "checkpoint.open", s.open);
        layer(&mut m, "trace.record", s.record);
        layer(&mut m, "trace.replay", s.replay);
        layer(&mut m, "trace.memo", s.memo);
        layer(&mut m, "checkpoint.append", s.append);
        layer(&mut m, "checkpoint.resume", s.resume);
        m.push("trace.lookups", "count", store.result_lookups() as f64);
        m.push("trace.memo_hits", "count", store.result_hits() as f64);
        m.push("trace.replay_hits", "count", store.hits() as f64);
        m.push("checkpoint.appends", "count", results.len() as f64);
        m.push("checkpoint.resumed_cells", "count", s.resumed as f64);
        m.push("checkpoint.bytes", "B", s.bytes as f64);
        m.push("surface.cells", "count", results.len() as f64);
        m.push("parallel.threads", "count", 1.0);
        m.push("bench.trace_overhead", "ratio", traced / untraced - 1.0);
        self.traced.get_or_insert(results);

        // The distinct cells again, decomposed into their layer calls.
        let distinct = self.distinct();
        let mut decomposed = HashMap::new();
        for (k, spec) in &distinct {
            decomposed.insert(*k, run_decomposed(spec).map_err(err)?);
        }
        let list: Vec<Decomposed> = distinct
            .iter()
            .map(|(k, _)| decomposed[k].clone())
            .collect();
        decomposition_metrics(&list, &mut m);
        let direct_of_replayed: f64 = s
            .replayed
            .iter()
            .map(|(k, _)| decomposed[k].spans.total())
            .sum();
        let replay_secs: f64 = s.replayed.iter().map(|(_, dt)| dt).sum();
        m.push(
            "trace.replay_vs_direct",
            "ratio",
            replay_secs / direct_of_replayed,
        );
        let serial: f64 = s.record + s.replay + s.memo;
        m.push("parallel.efficiency", "ratio", serial / untraced);
        let by_kind: Vec<(ConfigKind, f64)> = distinct
            .iter()
            .map(|(k, c)| (kind_of(c), decomposed[k].run.result.seconds))
            .collect();
        model_speedups(&by_kind, &mut m);
        self.decomposed.get_or_insert(decomposed);
        Ok(m)
    }

    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn check(&mut self) -> Result<Checked, Vec<String>> {
        let mut misses = std::mem::take(&mut self.drift);
        let distinct = self.distinct();
        let specs: Vec<CellSpec> = distinct.iter().map(|(_, c)| c.clone()).collect();
        let runs = direct_all(&specs, self.threads).map_err(|e| vec![e])?;
        let by_key: HashMap<u64, &KernelRun> =
            distinct.iter().map(|(k, _)| *k).zip(&runs).collect();
        let Some(first) = &self.first else {
            return Err(vec!["no batch ran".into()]);
        };
        for (i, (label, spec)) in self.cells.iter().enumerate() {
            let want = &by_key[&spec.cache_key().unwrap_or_default()].result;
            if first[i].to_bits() != want.seconds.to_bits() {
                misses.push(format!(
                    "{label}: session seconds differ from the direct run"
                ));
            }
            if let Some(got) = self.traced.as_ref().map(|t| &t[i]) {
                if got.seconds.to_bits() != want.seconds.to_bits()
                    || got.cycles != want.cycles
                    || got.stats != want.stats
                {
                    misses.push(format!(
                        "{label}: trace-store result differs from the direct run"
                    ));
                }
            }
        }
        if let Some(d) = &self.decomposed {
            for (k, spec) in &distinct {
                if !same_run(&d[k].run, by_key[k]) {
                    misses.push(format!(
                        "{}: decomposed cell differs from the direct run",
                        spec.workload.name
                    ));
                }
            }
        }
        if !misses.is_empty() {
            return Err(misses);
        }
        let mut text = format!("{:x}", digest(runs.iter()));
        for s in first {
            text.push_str(&format!("|{:x}", s.to_bits()));
        }
        Ok(Checked {
            uops: self
                .cells
                .iter()
                .map(|(_, c)| {
                    by_key[&c.cache_key().unwrap_or_default()]
                        .result
                        .stats
                        .uops_committed
                })
                .sum(),
            digest: fnv1a(text.as_bytes()),
            extra: Vec::new(),
        })
    }
}

// ----------------------------------------------------------------- mesh28

/// `mesh28`: the detailed 28-core mesh under lockstep and relaxed sync.
pub struct MeshBench {
    kernels: Vec<GemmWorkload>,
    seed: u64,
    threads: usize,
    /// Runs of the first pass: per kernel, lockstep then relaxed.
    first: Option<Vec<KernelRun>>,
    drift: Vec<String>,
}

/// The operating point every mesh cell runs at.
const MESH_KIND: ConfigKind = ConfigKind::Save2Vpu;

/// Quantum of the relaxed engine.
const MESH_QUANTUM: u64 = 1000;

impl MeshBench {
    fn engines(&self) -> [MachineConfig; 2] {
        [
            gen::mesh_machine(1, 0),
            gen::mesh_machine(MESH_QUANTUM, self.threads),
        ]
    }

    /// Every kernel under both engines; returns the runs and the host
    /// seconds per engine.
    fn run_all(&mut self) -> Result<(Vec<KernelRun>, [f64; 2]), String> {
        let mut runs = Vec::new();
        let mut per_engine = [0.0; 2];
        let engines = self.engines();
        for k in &self.kernels {
            for (e, m) in engines.iter().enumerate() {
                let t = Instant::now();
                runs.push(run_kernel_full(k, MESH_KIND, m, self.seed, true, None).map_err(err)?);
                per_engine[e] += secs_since(t);
            }
        }
        match &self.first {
            None => self.first = Some(runs.clone()),
            Some(f) if !f.iter().zip(&runs).all(|(a, b)| same_run(a, b)) => {
                self.drift.push("mesh runs changed between passes".into())
            }
            Some(_) => {}
        }
        Ok((runs, per_engine))
    }

    /// Largest |relaxed − lockstep| / lockstep simulated seconds.
    fn drift_of(runs: &[KernelRun]) -> f64 {
        runs.chunks(2)
            .map(|p| (p[1].result.seconds - p[0].result.seconds).abs() / p[0].result.seconds)
            .fold(0.0, f64::max)
    }
}

impl Workload for MeshBench {
    fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let (kernels, data_seed) = gen::mesh_kernels(seed);
        let warm = gen::mesh_machine(MESH_QUANTUM, threads);
        run_kernel_full(&kernels[0], MESH_KIND, &warm, data_seed, true, None).map_err(err)?;
        Ok(MeshBench {
            kernels,
            seed: data_seed,
            threads,
            first: None,
            drift: Vec::new(),
        })
    }

    fn pass(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        self.run_all()?;
        Ok(secs_since(t))
    }

    fn traced_pass(&mut self) -> Result<Metrics, String> {
        let untraced = self.pass()?;
        let t = Instant::now();
        let (runs, [lock, relaxed]) = self.run_all()?;
        let traced = secs_since(t);
        let mut m = Metrics::default();
        m.push("multicore.lockstep_s", "s", lock);
        m.push("multicore.relaxed_s", "s", relaxed);
        m.push("multicore.lockstep_pct", "%", pct(lock, traced));
        m.push("multicore.relaxed_pct", "%", pct(relaxed, traced));
        m.push("multicore.relaxed_speedup", "ratio", lock / relaxed);
        m.push("multicore.quantum_drift", "ratio", Self::drift_of(&runs));
        m.push("surface.cells", "count", runs.len() as f64);
        m.push("parallel.threads", "count", self.threads as f64);
        m.push("bench.trace_overhead", "ratio", traced / untraced - 1.0);
        uncore_metrics(runs.iter(), &mut m);
        Ok(m)
    }

    fn cells(&self) -> usize {
        2 * self.kernels.len()
    }

    fn check(&mut self) -> Result<Checked, Vec<String>> {
        let mut misses = std::mem::take(&mut self.drift);
        let Some(first) = self.first.clone() else {
            return Err(vec!["no pass ran".into()]);
        };
        let serial = gen::mesh_machine(MESH_QUANTUM, 1);
        match run_kernel_full(&self.kernels[0], MESH_KIND, &serial, self.seed, true, None) {
            Ok(one) if same_run(&one, &first[1]) => {}
            Ok(_) => misses.push("relaxed sync differs between 1 and nproc host threads".into()),
            Err(e) => misses.push(err(e)),
        }
        if !misses.is_empty() {
            return Err(misses);
        }
        let cores = gen::mesh_machine(1, 0).cores as u64;
        Ok(Checked {
            uops: first
                .iter()
                .map(|r| r.result.stats.uops_committed * cores)
                .sum(),
            digest: digest(&first),
            extra: vec![("quantum_drift", "ratio", Self::drift_of(&first))],
        })
    }
}
