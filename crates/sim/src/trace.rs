//! The in-process cell store: a full-result memo plus built-kernel reuse
//! (DESIGN.md §5h).
//!
//! A sweep submits many cells that share their functional work: the same
//! workload, data seed and machine shape under several timing
//! configurations (operating points, memory latencies). Building such a
//! kernel — codegen, operand generation and the scalar reference output —
//! depends only on `(workload, seed)`, so a [`TraceStore`] keeps each
//! [`BuiltKernel`] under its [`trace_key`] and hands it to every later cell
//! with that key. The cell clones the kernel's functional memory and runs
//! the ordinary direct path on the copy: the MGU and LSU still compute
//! every mask from real operand values, so a reused kernel is bit-identical
//! to a fresh build by construction (pinned by
//! `crates/sim/tests/store_canary.rs`).
//!
//! [`trace_key`] is an FNV-1a hash over the workload's canonical JSON, the
//! machine *shape* (mode and core count) and the data seed. Timing-only
//! knobs (core configuration, memory latencies, the verify flag) are
//! excluded, which is what lets N timing configurations share one kernel.
//! [`crate::CellSpec::cache_key`] splits along the same line:
//! `hash(trace_key ‖ timing_key)`.
//!
//! The run that admits a kernel always verifies its output against the
//! reference first — a kernel that will stand in for N builds must be
//! known-good. Only symmetric-machine cells reuse kernels; detailed-mode
//! cells build one kernel per core and use the result memo alone.

use crate::error::SimError;
use crate::runner::MachineConfig;
use save_kernels::{BuiltKernel, GemmWorkload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Content address of the functional work shared by every timing
/// configuration of a cell: workload (shape, sparsity — but *not* the
/// display name, which is a label rather than functional content, so two
/// identically-shaped layers under different names share one kernel),
/// machine *shape* (mode + core count), and data seed. Timing-only
/// configuration — the core operating point, memory latencies, the verify
/// flag — is excluded by design.
///
/// # Errors
/// [`SimError::Protocol`] if the workload fails to serialize (it never
/// does for well-formed specs).
pub fn trace_key(w: &GemmWorkload, machine: &MachineConfig, seed: u64) -> Result<u64, SimError> {
    let mut anon = w.clone();
    anon.name.clear();
    let wj = serde_json::to_string(&anon)
        .map_err(|e| SimError::Protocol { what: format!("serialize workload: {e}") })?;
    let text = format!("trace|{wj}|{:?}/{}|{seed}", machine.mode, machine.cores);
    Ok(crate::checkpoint::fnv1a(text.as_bytes()))
}

/// An in-memory, thread-safe store of verified built kernels, keyed by
/// [`trace_key`]. The first cell to run for a key builds and admits its
/// kernel; every later cell reuses it. Lookups and hits are counted so
/// sweeps can report their reuse rate.
///
/// The store also memoizes *full cell results* by
/// [`crate::CellSpec::cache_key`]: two cells with identical trace **and**
/// timing keys are the same deterministic simulation, so the second can
/// return the first's [`crate::KernelResult`] without entering the core at
/// all. (Sweeps such as `fig16` genuinely submit such duplicates — e.g.
/// one shared baseline per VPU-count panel.)
///
/// Kernels hold their operand memory and can be large; an optional FIFO
/// capacity bounds how many are held at once. Result memos are a few
/// machine words each and are never evicted.
#[derive(Debug, Default)]
pub struct TraceStore {
    kernels: Mutex<Kernels>,
    results: Mutex<HashMap<u64, crate::runner::KernelResult>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    result_lookups: AtomicU64,
    result_hits: AtomicU64,
}

/// Kernel map plus FIFO admission order (capacity 0 = unbounded).
#[derive(Debug, Default)]
struct Kernels {
    map: HashMap<u64, Arc<BuiltKernel>>,
    order: std::collections::VecDeque<u64>,
    capacity: usize,
}

impl TraceStore {
    /// Creates an empty, unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store holding at most `capacity` kernels, evicting
    /// the oldest admission first. Result memos are not bounded.
    pub fn with_capacity(capacity: usize) -> Self {
        let s = Self::default();
        s.kernels.lock().expect("trace store poisoned").capacity = capacity;
        s
    }

    /// Fetches the kernel filed under `key`, if one was admitted.
    pub fn get(&self, key: u64) -> Option<Arc<BuiltKernel>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let found = self.kernels.lock().expect("trace store poisoned").map.get(&key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Admits a built kernel. The caller guarantees its memory is pristine
    /// (no run wrote into it) and that a run of it verified against the
    /// numerical reference.
    pub fn insert(&self, key: u64, kernel: Arc<BuiltKernel>) {
        let mut k = self.kernels.lock().expect("trace store poisoned");
        if k.map.insert(key, kernel).is_none() {
            k.order.push_back(key);
            if k.capacity != 0 && k.order.len() > k.capacity {
                if let Some(old) = k.order.pop_front() {
                    k.map.remove(&old);
                }
            }
        }
    }

    /// Fetches the memoized result for a cell `cache_key`, if an identical
    /// cell already ran to completion.
    pub fn result(&self, cache_key: u64) -> Option<crate::runner::KernelResult> {
        self.result_lookups.fetch_add(1, Ordering::Relaxed);
        let found =
            self.results.lock().expect("trace store poisoned").get(&cache_key).copied();
        if found.is_some() {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Memoizes a completed cell result under its `cache_key`.
    pub fn record_result(&self, cache_key: u64, result: crate::runner::KernelResult) {
        self.results.lock().expect("trace store poisoned").insert(cache_key, result);
    }

    /// Number of [`TraceStore::get`] calls so far.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Number of cells that reused a built kernel from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of [`TraceStore::result`] calls so far.
    pub fn result_lookups(&self) -> u64 {
        self.result_lookups.load(Ordering::Relaxed)
    }

    /// Number of result lookups served from the memo.
    pub fn result_hits(&self) -> u64 {
        self.result_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::MachineMode;

    fn tiny() -> GemmWorkload {
        crate::testutil::gemm("tk", (2, 2), 16, 1, (0.5, 0.5))
    }

    #[test]
    fn trace_key_ignores_timing_but_not_function() {
        let m = MachineConfig::default();
        let k = trace_key(&tiny(), &m, 7).unwrap();
        // Timing-only change: memory latency config is not part of the key.
        let mut m2 = m;
        m2.mem.l3_ns += 10.0;
        assert_eq!(k, trace_key(&tiny(), &m2, 7).unwrap(), "mem timing must not re-key");
        // Functional changes re-key.
        assert_ne!(k, trace_key(&tiny(), &m, 8).unwrap(), "seed re-keys");
        assert_ne!(
            k,
            trace_key(&tiny().with_sparsity(0.5, 0.6), &m, 7).unwrap(),
            "sparsity re-keys"
        );
        let md = MachineConfig { mode: MachineMode::Detailed, ..m };
        assert_ne!(k, trace_key(&tiny(), &md, 7).unwrap(), "machine mode re-keys");
    }

    #[test]
    fn trace_key_ignores_display_name() {
        // VGG16's conv3_2 and conv3_3 (and friends) are the same shape
        // under different labels; they must share one kernel.
        let m = MachineConfig::default();
        let mut renamed = tiny();
        renamed.name = "a different label".into();
        assert_eq!(
            trace_key(&tiny(), &m, 7).unwrap(),
            trace_key(&renamed, &m, 7).unwrap(),
            "the display name is not functional content"
        );
    }

    fn kernel() -> Arc<BuiltKernel> {
        Arc::new(tiny().build(1))
    }

    #[test]
    fn store_counts_lookups_and_hits() {
        let s = TraceStore::new();
        assert!(s.get(1).is_none());
        s.insert(1, kernel());
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_none());
        assert_eq!(s.lookups(), 3);
        assert_eq!(s.hits(), 1);
    }

    #[test]
    fn bounded_store_evicts_oldest_first() {
        let s = TraceStore::with_capacity(2);
        for k in 1..=3 {
            s.insert(k, kernel());
        }
        assert!(s.get(1).is_none(), "oldest kernel evicted at capacity");
        assert!(s.get(2).is_some());
        assert!(s.get(3).is_some());
        // Re-inserting an existing key must not double-count it in the
        // FIFO order (which would evict the wrong kernel later).
        s.insert(2, kernel());
        s.insert(4, kernel());
        assert!(s.get(2).is_none(), "2 was oldest after 1's eviction");
        assert!(s.get(3).is_some());
        assert!(s.get(4).is_some());
    }

    #[test]
    fn result_memo_round_trips() {
        let s = TraceStore::new();
        assert!(s.result(9).is_none());
        let r = crate::runner::KernelResult {
            seconds: 1.5,
            cycles: 42,
            stats: Default::default(),
            verified: true,
            completed: true,
        };
        s.record_result(9, r);
        let back = s.result(9).expect("memoized");
        assert_eq!(back.cycles, 42);
        assert_eq!(s.result_lookups(), 2);
        assert_eq!(s.result_hits(), 1);
    }
}
