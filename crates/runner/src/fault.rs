//! Deterministic, seeded fault injection for the engine.
//!
//! A [`FaultPlan`] decides, as a pure function of its seed and the
//! *injection site + subject key*, whether a fault fires at a given point —
//! never from wall-clock time or thread scheduling, so a run under an
//! active plan is exactly reproducible. Each site selects a deterministic
//! subset of keys (one in `rate`) and fails each selected key at most
//! `budget` times before letting it succeed, which is what makes "every
//! failure is recoverable" provable: a panicking cell panics the same
//! number of times on every run, then computes normally.
//!
//! The plan is threaded through [`Engine`](crate::Engine): cell compute
//! panics and latency, cache read corruption, and cache write errors. The
//! default is `Option<Arc<FaultPlan>>::None`: a single pointer test on the
//! cold side of a multi-millisecond simulation.

use crate::cell::fnv1a;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside a cell computation (simulates a worker crash).
    ComputePanic,
    /// Artificial latency before a cell computation (simulates a slow cell).
    ComputeLatency,
    /// A cache line reads back corrupt (simulates disk corruption).
    CacheRead,
    /// Persisting the cache fails with an I/O error.
    CacheWrite,
}

impl FaultSite {
    /// All sites, for counter reports.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::ComputePanic,
        FaultSite::ComputeLatency,
        FaultSite::CacheRead,
        FaultSite::CacheWrite,
    ];

    /// Stable short name (used in metrics).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ComputePanic => "panic",
            FaultSite::ComputeLatency => "latency",
            FaultSite::CacheRead => "cache_read",
            FaultSite::CacheWrite => "cache_write",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-site configuration: which keys are selected and how often they fail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SiteConfig {
    /// One key in `rate` is selected; `0` disables the site.
    rate: u64,
    /// Times each selected key fires before succeeding forever.
    budget: u32,
    /// Injected delay for the latency site.
    delay: Duration,
}

/// Marker prefix of injected panic payloads, so supervision layers can
/// distinguish planned faults from real bugs in reports.
pub const INJECTED_PANIC: &str = "injected fault:";

/// SplitMix64 finalizer: decorrelates (seed, site, key) into selection bits.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic, seeded fault-injection plan (see the module docs).
///
/// Cheap to share: the engine holds it as `Option<Arc<FaultPlan>>`, where
/// `None` is the zero-cost production default.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    sites: [SiteConfig; FaultSite::ALL.len()],
    /// Attempts so far per (site, key-hash): how many times the fault has
    /// fired for that subject. Interior mutability keeps the injection API
    /// `&self`, matching the engine's sharing model.
    attempts: Mutex<HashMap<(usize, u64), u32>>,
    injected: [AtomicU64; FaultSite::ALL.len()],
}

impl FaultPlan {
    /// An empty plan (no site enabled) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    fn site(mut self, site: FaultSite, rate: u64, budget: u32, delay: Duration) -> FaultPlan {
        self.sites[site.index()] = SiteConfig {
            rate,
            budget,
            delay,
        };
        self
    }

    /// Panic one cell computation in `rate`, `budget` times each.
    #[must_use]
    pub fn with_panics(self, rate: u64, budget: u32) -> FaultPlan {
        self.site(FaultSite::ComputePanic, rate, budget, Duration::ZERO)
    }

    /// Delay one cell computation in `rate` by `delay`, `budget` times each.
    #[must_use]
    pub fn with_latency(self, rate: u64, budget: u32, delay: Duration) -> FaultPlan {
        self.site(FaultSite::ComputeLatency, rate, budget, delay)
    }

    /// Corrupt one cache line in `rate` on read, `budget` times each.
    #[must_use]
    pub fn with_cache_read_faults(self, rate: u64, budget: u32) -> FaultPlan {
        self.site(FaultSite::CacheRead, rate, budget, Duration::ZERO)
    }

    /// Fail one cache save in `rate`, `budget` times each.
    #[must_use]
    pub fn with_cache_write_faults(self, rate: u64, budget: u32) -> FaultPlan {
        self.site(FaultSite::CacheWrite, rate, budget, Duration::ZERO)
    }

    /// Whether `key` is in `site`'s deterministic selection (independent of
    /// how many times it has fired).
    #[must_use]
    pub fn selects(&self, site: FaultSite, key: &str) -> bool {
        let cfg = &self.sites[site.index()];
        if cfg.rate == 0 {
            return false;
        }
        mix(self.seed
            ^ (site.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ fnv1a(key.as_bytes()))
        .is_multiple_of(cfg.rate)
    }

    /// Whether the fault fires now for `key` at `site`: true while the key
    /// is selected and under its failure budget. Counts the injection.
    #[must_use]
    pub fn fire(&self, site: FaultSite, key: &str) -> bool {
        if !self.selects(site, key) {
            return false;
        }
        let cfg = &self.sites[site.index()];
        let mut attempts = self.attempts.lock().unwrap();
        let n = attempts
            .entry((site.index(), fnv1a(key.as_bytes())))
            .or_insert(0);
        if *n >= cfg.budget {
            return false;
        }
        *n += 1;
        drop(attempts);
        self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The configured delay of a latency site.
    #[must_use]
    pub fn delay(&self, site: FaultSite) -> Duration {
        self.sites[site.index()].delay
    }

    /// Engine hook: run before computing the cell named by `key`. May sleep
    /// (injected latency) and may panic (injected worker crash); the panic
    /// payload starts with [`INJECTED_PANIC`].
    ///
    /// # Panics
    /// Panics exactly when the plan's `ComputePanic` site fires for `key` —
    /// that is the injected fault.
    pub fn before_compute(&self, key: &str) {
        if self.fire(FaultSite::ComputeLatency, key) {
            std::thread::sleep(self.delay(FaultSite::ComputeLatency));
        }
        if self.fire(FaultSite::ComputePanic, key) {
            panic!("{INJECTED_PANIC} compute panic for cell `{key}`");
        }
    }

    /// Engine hook: whether the cache line at `index` should be treated as
    /// corrupt on this read.
    #[must_use]
    pub fn corrupt_cache_read(&self, index: usize) -> bool {
        self.fire(FaultSite::CacheRead, &format!("line{index}"))
    }

    /// Engine hook: an injected error for this cache save, if the site
    /// fires.
    #[must_use]
    pub fn fail_cache_write(&self) -> Option<std::io::Error> {
        if self.fire(FaultSite::CacheWrite, "save") {
            Some(std::io::Error::other(format!(
                "{INJECTED_PANIC} cache write error"
            )))
        } else {
            None
        }
    }

    /// Total faults injected so far, across all sites.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Faults injected per site, in [`FaultSite::ALL`] order.
    #[must_use]
    pub fn injected_by_site(&self) -> Vec<(&'static str, u64)> {
        FaultSite::ALL
            .iter()
            .map(|s| (s.name(), self.injected[s.index()].load(Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::new(1);
        for k in ["a", "b", "c"] {
            assert!(!p.fire(FaultSite::ComputePanic, k));
            assert!(!p.selects(FaultSite::CacheRead, k));
        }
        assert_eq!(p.injected_total(), 0);
    }

    #[test]
    fn selection_is_deterministic_and_budgeted() {
        let p = FaultPlan::new(42).with_panics(2, 3);
        let q = FaultPlan::new(42).with_panics(2, 3);
        let keys: Vec<String> = (0..64).map(|i| format!("cell{i}")).collect();
        let selected: Vec<&String> = keys
            .iter()
            .filter(|k| p.selects(FaultSite::ComputePanic, k))
            .collect();
        assert!(!selected.is_empty(), "rate 2 over 64 keys must select some");
        for k in &keys {
            assert_eq!(
                p.selects(FaultSite::ComputePanic, k),
                q.selects(FaultSite::ComputePanic, k),
                "same seed, same selection"
            );
        }
        // A selected key fires exactly `budget` times, then never again.
        let k = selected[0];
        for _ in 0..3 {
            assert!(p.fire(FaultSite::ComputePanic, k));
        }
        for _ in 0..5 {
            assert!(!p.fire(FaultSite::ComputePanic, k));
        }
        assert_eq!(p.injected_total(), 3);
    }

    #[test]
    fn different_seeds_select_differently() {
        let a = FaultPlan::new(1).with_panics(2, 1);
        let b = FaultPlan::new(2).with_panics(2, 1);
        let keys: Vec<String> = (0..256).map(|i| format!("k{i}")).collect();
        let same = keys
            .iter()
            .filter(|k| {
                a.selects(FaultSite::ComputePanic, k) == b.selects(FaultSite::ComputePanic, k)
            })
            .count();
        assert!(same < 256, "seeds must change the selection");
    }

    #[test]
    fn sites_are_independent() {
        let p = FaultPlan::new(7).with_panics(1, 1); // every key panics once
        assert!(p.selects(FaultSite::ComputePanic, "x"));
        assert!(!p.selects(FaultSite::CacheRead, "x"));
        assert!(!p.selects(FaultSite::CacheWrite, "x"));
    }

    #[test]
    fn before_compute_panics_with_marker() {
        let p = FaultPlan::new(7).with_panics(1, 1);
        let err =
            std::panic::catch_unwind(|| p.before_compute("cell")).expect_err("must inject a panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(INJECTED_PANIC), "payload: {msg}");
        // Budget spent: the retry succeeds.
        p.before_compute("cell");
    }

    #[test]
    fn cache_write_faults_are_io_errors() {
        let p = FaultPlan::new(3).with_cache_write_faults(1, 2);
        assert!(p.fail_cache_write().is_some());
        assert!(p.fail_cache_write().is_some());
        assert!(p.fail_cache_write().is_none(), "budget exhausted");
    }
}
