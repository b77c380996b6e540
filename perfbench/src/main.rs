//! `perfbench`: the SAVE simulator's benchmark.
//!
//! ```text
//! perfbench --workload surface|sweep|mesh28 --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end host metrics; with
//! `--trace 1` it re-runs the workload through the simulator's public layer
//! calls, timed from outside, and reports the per-layer breakdown. Either
//! way it prints a table of every metric (median, quartiles, sample count),
//! the workload's `sim_digest`, and as its last line one JSON object. See
//! `README.md` next to this package for what each number means.

mod gen;
mod layers;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics reported with `--trace 0` (all workloads), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("host_s", "s"),
    ("kuops_per_s", "kuop/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics reported with `--trace 1` (all workloads; a layer a
/// workload never calls reads 0), with units. Host time per layer is a
/// share (`_pct`) of its group's traced time; the seconds behind each share
/// are in the printed table.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("kernels.build_pct", "%"),
    ("kernels.verify_pct", "%"),
    ("kernels.builds", "count"),
    ("mem.setup_pct", "%"),
    ("mem.l1_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.l3_hit_ratio", "ratio"),
    ("mem.dram_lines", "count"),
    ("mem.bcast_hit_ratio", "ratio"),
    ("mem.mshr_conflicts", "count"),
    ("mem.max_link_flits", "count"),
    ("mem.dram_max_queue", "count"),
    ("core.run_pct", "%"),
    ("core.uops", "count"),
    ("core.cycles", "count"),
    ("core.kuops_per_s", "kuop/s"),
    ("core.vpu_busy_frac", "ratio"),
    ("surface.cells", "count"),
    ("parallel.threads", "count"),
    ("parallel.efficiency", "ratio"),
    ("trace.lookups", "count"),
    ("trace.replay_hits", "count"),
    ("trace.memo_hits", "count"),
    ("trace.record_pct", "%"),
    ("trace.replay_pct", "%"),
    ("trace.memo_pct", "%"),
    ("trace.replay_vs_direct", "ratio"),
    ("checkpoint.open_pct", "%"),
    ("checkpoint.append_pct", "%"),
    ("checkpoint.appends", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.resume_pct", "%"),
    ("checkpoint.resumed_cells", "count"),
    ("multicore.lockstep_pct", "%"),
    ("multicore.relaxed_pct", "%"),
    ("multicore.relaxed_speedup", "ratio"),
    ("multicore.quantum_drift", "ratio"),
    ("model.save2_speedup", "ratio"),
    ("model.save1_speedup", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Set-ups timed before every untraced pass: set-up is short and noisy, so
/// `setup_s` is the median of many.
const SETUPS_PER_PASS: usize = 3;

/// Passes measured even when `--seconds` runs out first. `peak_rss_mb` is
/// read after exactly this many passes, so every run samples it after the
/// same work.
const MIN_PASSES: usize = 3;

/// Samples of every metric over one run, keyed by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (&'static str, Vec<f64>)>);

impl Metrics {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0
            .entry(name.to_string())
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (name, (unit, values)) in other.0 {
            for v in values {
                self.push(&name, unit, v);
            }
        }
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(_, v)| stats::median(v))
    }

    fn table(&self) -> String {
        let mut s = format!(
            "{:<28} {:>8} {:>3} {:>14} {:>14} {:>14}\n",
            "metric", "unit", "n", "q1", "median", "q3"
        );
        for (name, (unit, v)) in &self.0 {
            let [q1, q2, q3] = stats::quartiles(v);
            let _ = writeln!(
                s,
                "{name:<28} {unit:>8} {:>3} {q1:>14.6} {q2:>14.6} {q3:>14.6}",
                v.len()
            );
        }
        s
    }
}

/// What every workload provides to `measure`.
pub trait Workload: Sized {
    /// Generates the inputs for `seed`, opens what the first cell needs and
    /// runs a warm-up cell. Timed as `setup_s`.
    fn setup(seed: u64, threads: usize) -> Result<Self, String>;
    /// Delivers every cell once, untraced; returns the wall seconds.
    fn pass(&mut self) -> Result<f64, String>;
    /// One untraced and one traced pass; returns the per-layer metrics.
    fn traced_pass(&mut self) -> Result<Metrics, String>;
    /// Cells one pass delivers.
    fn cells(&self) -> usize;
    /// Checks every output against direct verified runs (and everything
    /// else the workload promises); returns the µops one pass delivers and
    /// extra end-to-end figures. Each miss is returned as an error line.
    fn check(&mut self) -> Result<Checked, Vec<String>>;
}

/// The result of a workload's correctness check.
pub struct Checked {
    /// Committed µops one pass delivers (memo and journal answers count).
    pub uops: u64,
    /// Hash of every cell's cycles, `CoreStats` and `UncoreReport`.
    pub digest: u64,
    /// Workload-specific end-to-end figures, printed but not gated.
    pub extra: Vec<(&'static str, &'static str, f64)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Peak resident set of this process (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One measured run of workload `W`: set-up, passes for `seconds`, check.
/// Untraced runs set up `SETUPS_PER_PASS` more times before every pass, so
/// `setup_s` samples the whole run rather than its first moments. After
/// `MIN_PASSES`, a pass starts only if one more like the slowest so far
/// still ends in time.
fn measure<W: Workload>(args: &Args) -> (Metrics, Checked, u64, Vec<String>) {
    let threads = save_sim::host_parallelism();
    let mut m = Metrics::default();
    let mut errors = Vec::new();
    let setup = |m: &mut Metrics| {
        let t = Instant::now();
        let b = W::setup(args.seed, threads);
        m.push("setup_s", "s", t.elapsed().as_secs_f64());
        b
    };
    let empty = Checked {
        uops: 0,
        digest: 0,
        extra: Vec::new(),
    };
    let mut bench = match setup(&mut m) {
        Ok(b) => b,
        Err(e) => return (m, empty, 1, vec![format!("setup: {e}")]),
    };
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut passes = 0;
    let mut longest = 0.0f64;
    while passes < MIN_PASSES || t0.elapsed().as_secs_f64() + longest < args.seconds {
        passes += 1;
        let t = Instant::now();
        let outcome = if args.trace {
            bench.traced_pass().map(|layers| m.extend(layers))
        } else {
            (0..SETUPS_PER_PASS)
                .try_for_each(|_| setup(&mut m).map(drop))
                .and_then(|_| bench.pass())
                .map(|wall| walls.push(wall))
        };
        longest = longest.max(t.elapsed().as_secs_f64());
        if let Err(e) = outcome {
            errors.push(format!("pass {passes}: {e}"));
            break;
        }
        if passes == MIN_PASSES {
            // Peak memory of delivering the workload; the check below
            // re-runs cells on its own and is not part of it.
            m.push("peak_rss_mb", "MB", peak_rss_mb());
        }
    }
    let attempted = (passes * bench.cells()) as u64;
    let checked = match bench.check() {
        Ok(c) => c,
        Err(misses) => {
            errors.extend(misses);
            empty
        }
    };
    for &w in &walls {
        m.push("host_s", "s", w);
        m.push("kuops_per_s", "kuop/s", checked.uops as f64 / w / 1e3);
    }
    // The highest percentile of host_s with at least ten passes above it.
    if walls.len() > 10 {
        let p = (100 * (walls.len() - 10) / walls.len()) as f64;
        println!(
            "host_s p{p:.0} {:.6} s over {} passes",
            stats::percentile(&walls, p),
            walls.len()
        );
    }
    (m, checked, attempted, errors)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload surface|sweep|mesh28 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let (mut m, checked, attempted, errors) = match args.workload.as_str() {
        "surface" => measure::<workloads::SurfaceBench>(&args),
        "sweep" => measure::<workloads::SweepBench>(&args),
        "mesh28" => measure::<workloads::MeshBench>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (surface, sweep, mesh28)");
            return ExitCode::from(2);
        }
    };
    for e in &errors {
        eprintln!("perfbench: FAIL {e}");
    }
    let failed = errors.len() as u64;
    let attempted = attempted.max(failed).max(1);
    let fail_frac = failed as f64 / attempted as f64;
    m.push("fail_frac", "ratio", fail_frac);
    for &(name, unit, v) in &checked.extra {
        m.push(name, unit, v);
    }

    println!(
        "workload {} seed {} trace {} on {} host threads",
        args.workload,
        args.seed,
        u8::from(args.trace),
        save_sim::host_parallelism()
    );
    print!("{}", m.table());
    println!("sim_digest {:016x}", checked.digest);

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| json_metric(name, m.median(name).unwrap_or(0.0), unit))
        .collect();
    let metrics = metrics.join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{entry} not declared");
        }
        let declared = spec.matches("\"name\":").count();
        assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn metrics_summarise_by_median() {
        let mut m = Metrics::default();
        for v in [3.0, 1.0, 2.0] {
            m.push("host_s", "s", v);
        }
        assert_eq!(m.median("host_s"), Some(2.0));
        assert!(m.table().contains("host_s"));
    }
}
