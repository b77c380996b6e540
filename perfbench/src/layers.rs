//! A symmetric cell decomposed into the simulator's public layer calls, each
//! timed from outside: kernel build, uncore/core-memory construction and
//! warm-up, the core cycle loop, and output verification.
//!
//! The composition mirrors `run_kernel_full` on a `Symmetric` machine;
//! `same_run` is how the benchmark proves it still does (seconds bits,
//! cycles, full `CoreStats` and the uncore report).

use save_core::Core;
use save_mem::{CoreMemory, Uncore};
use save_sim::runner::warm_regions;
use save_sim::{CellSpec, CoreSel, KernelResult, KernelRun, SimError};
use std::time::Instant;

/// Host seconds spent in each layer of one decomposed cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    /// `GemmWorkload::build`.
    pub build: f64,
    /// `Uncore::new_symmetric` + `CoreMemory::new` + `warm_regions`.
    pub mem: f64,
    /// `Core::new` + `Core::run_mut`.
    pub core: f64,
    /// `BuiltKernel::verify`.
    pub verify: f64,
}

impl Spans {
    /// All layers together: the cell's traced host time.
    pub fn total(&self) -> f64 {
        self.build + self.mem + self.core + self.verify
    }
}

/// One decomposed cell: the run as `run_kernel_full` reports it, the layer
/// spans, and the core-side memory counters the run leaves behind.
#[derive(Clone, Debug)]
pub struct Decomposed {
    /// Result and uncore report, comparable with a direct run.
    pub run: KernelRun,
    /// Host time per layer.
    pub spans: Spans,
    /// L1 misses of the simulated core.
    pub l1_misses: u64,
    /// L2 misses of the simulated core.
    pub l2_misses: u64,
    /// Broadcast-cache probes that hit / all probes (0/0 without a B$).
    pub bcast: (u64, u64),
}

/// Host seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `spec` (a named operating point on a symmetric machine) through the
/// layer calls, always verifying the numerical output.
pub fn run_decomposed(spec: &CellSpec) -> Result<Decomposed, SimError> {
    let CoreSel::Kind { kind } = &spec.core else {
        return Err(SimError::Protocol {
            what: "decomposition needs a named operating point".into(),
        });
    };
    let cfg = kind.core_config();
    cfg.validate()
        .map_err(|what| SimError::InvalidConfig { what })?;
    spec.machine
        .mem
        .validate()
        .map_err(|what| SimError::InvalidConfig { what })?;
    let (w, m) = (&spec.workload, &spec.machine);
    let mut spans = Spans::default();

    let t = Instant::now();
    let mut built = w.build(spec.seed);
    spans.build = secs_since(t);

    let t = Instant::now();
    let mut uncore = Uncore::new_symmetric(&m.mem, m.cores);
    let mut cmem = CoreMemory::new(0, m.mem, cfg.freq_ghz);
    warm_regions(w, &built.regions, &mut cmem, &mut uncore);
    spans.mem = secs_since(t);

    let t = Instant::now();
    let mut core = Core::new(cfg);
    let out = core.run_mut(&built.program, &mut built.mem, &mut cmem, &mut uncore);
    spans.core = secs_since(t);
    if !out.completed {
        return Err(SimError::Io {
            what: format!("{}: decomposed run did not complete", w.name),
        });
    }

    let t = Instant::now();
    let checked = built.verify();
    spans.verify = secs_since(t);
    if let Err((index, got, want)) = checked {
        return Err(SimError::VerifyMismatch {
            kernel: w.name.clone(),
            core: None,
            index,
            got,
            want,
        });
    }

    let mstats = cmem.stats();
    let bcast = cmem
        .bcast_stats()
        .map_or((0, 0), |b| (b.hits, b.hits + b.misses));
    Ok(Decomposed {
        run: KernelRun {
            result: KernelResult {
                seconds: cfg.cycles_to_seconds(out.stats.cycles),
                cycles: out.stats.cycles,
                stats: out.stats,
                verified: true,
                completed: true,
            },
            uncore: uncore.report(),
        },
        spans,
        l1_misses: mstats.l1.misses,
        l2_misses: mstats.l2.misses,
        bcast,
    })
}

/// Whether two runs of one cell are the same simulation: seconds bits,
/// cycles, every `CoreStats` counter and the uncore report.
pub fn same_run(a: &KernelRun, b: &KernelRun) -> bool {
    a.result.seconds.to_bits() == b.result.seconds.to_bits()
        && a.result.cycles == b.result.cycles
        && a.result.stats == b.result.stats
        && format!("{:?}", a.uncore) == format!("{:?}", b.uncore)
}
