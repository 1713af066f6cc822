//! Experiment session: runs (configuration × benchmark) simulations with
//! an in-memory and on-disk cache so figures sharing configurations (and
//! repeated invocations) do not re-simulate.
//!
//! The session is the harness's fault boundary. Each cell runs under
//! [`Session::try_run`], which catches panics and structured
//! [`SimError`]s and records them in [`Session::failures`] so one broken
//! cell cannot abort a whole sweep. The on-disk cache is a
//! [`ResultStore`] keyed by the cell's canonical request text
//! ([`Session::request_key`]). *Stale* entries (another store format or
//! another request — expected across builds) are deleted and
//! re-simulated, counted in [`Session::cache_rejected`]; *corrupt*
//! entries (damaged bytes) are quarantined to `<name>.corrupt` for
//! inspection and counted separately in [`Session::cache_quarantined`].
//! Disk I/O failures are logged once and degrade the session to
//! in-memory-only caching.
//!
//! With a warm-state directory attached ([`Session::enable_warm_fork`]),
//! the warmup phase of each (config × benchmark × warmup) cell is
//! simulated once, captured as an [`ss_snapshot`] snapshot, and every
//! later measurement for that cell forks off the warm state instead of
//! re-simulating the warmup — bit-identical to the fresh run by the
//! snapshot identity guarantee.

use crate::configs::NamedConfig;
use crate::store::{Rejection, ResultStore};
use ss_core::{RunLength, RunRequest};
use ss_snapshot::Snapshot;
use ss_types::{SimConfig, SimError, SimStats};
use ss_workloads::{Benchmark, KernelSpec, BENCHMARKS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Seed used for all workload generation (fixed for reproducibility).
pub const WORKLOAD_SEED: u64 = 0xB5;

/// One failed (configuration × benchmark) cell of a sweep.
///
/// Carries enough identity to reproduce the cell from the report alone:
/// the canonical cell key ([`Session::cell_key`]: config spec, benchmark,
/// run length) and, for fuzz-campaign cells, the cell's derivation seed.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Configuration name.
    pub config: String,
    /// Benchmark name.
    pub bench: String,
    /// Canonical cell key (`{name}|{spec}|{bench}|w{W}m{M}`), naming the
    /// display name, config spec, benchmark and run length needed to
    /// re-run the identical cell.
    pub cell_key: String,
    /// For fuzz cells: the seed the whole cell (config × kernel × fault
    /// plan) derives from, replayable via `experiments fuzz --repro`.
    pub fuzz_seed: Option<u64>,
    /// What went wrong.
    pub error: SimError,
}

/// Runs simulations and caches their statistics.
pub struct Session {
    len: RunLength,
    store: Option<ResultStore>,
    mem: HashMap<(String, String), SimStats>,
    /// Memoized failed cells: a cell that failed once is not re-simulated
    /// on later recalls (each figure sharing it gets the same error back).
    failed: HashMap<(String, String), SimError>,
    disk_warned: bool,
    /// Simulations actually executed (not served from cache).
    pub simulated: u64,
    /// On-disk cache entries rejected as *stale* (another store format or
    /// another request's key; deleted and re-simulated).
    pub cache_rejected: u64,
    /// On-disk cache entries rejected as *corrupt* (damaged bytes;
    /// quarantined to `<name>.corrupt` and re-simulated).
    pub cache_quarantined: u64,
    /// Measurement runs forked off an on-disk warm-state snapshot
    /// (warmup simulation skipped).
    pub warm_forked: u64,
    /// Cells that failed (panic or structured error); the sweep
    /// continues past them.
    pub failures: Vec<CellFailure>,
    /// Warm-state snapshot directory, when warm forking is enabled.
    warm_dir: Option<PathBuf>,
}

impl Session {
    /// Creates a session with the given run length; `cache_dir` enables
    /// the on-disk cache. If the directory cannot be created the error
    /// is logged and the session falls back to in-memory-only caching.
    pub fn new(len: RunLength, cache_dir: Option<PathBuf>) -> Self {
        let mut sess = Session {
            len,
            store: None,
            mem: HashMap::new(),
            failed: HashMap::new(),
            disk_warned: false,
            simulated: 0,
            cache_rejected: 0,
            cache_quarantined: 0,
            warm_forked: 0,
            failures: Vec::new(),
            warm_dir: None,
        };
        if let Some(d) = cache_dir {
            match ResultStore::open(&d) {
                Ok(store) => sess.store = Some(store),
                Err(e) => sess.disk_cache_failed(&format!("create {}", d.display()), &e),
            }
        }
        sess
    }

    /// The on-disk result store, when one is attached.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// The run length in use.
    pub fn run_length(&self) -> RunLength {
        self.len
    }

    /// Whether this cell already has an in-memory result (or a memoized
    /// failure) and needs no work.
    pub fn is_cached(&self, cfg: &NamedConfig, bench: &Benchmark) -> bool {
        let key = (cfg.name.clone(), bench.name.to_string());
        self.mem.contains_key(&key) || self.failed.contains_key(&key)
    }

    /// An empty worker session sharing this session's run length, cache
    /// directory, and disk-degradation state. The parallel engine gives
    /// one to each worker and [`Session::merge`]s them back afterwards.
    pub fn fork_worker(&self) -> Session {
        Session {
            len: self.len,
            store: self.store.clone(),
            mem: HashMap::new(),
            failed: HashMap::new(),
            disk_warned: self.disk_warned,
            simulated: 0,
            cache_rejected: 0,
            cache_quarantined: 0,
            warm_forked: 0,
            failures: Vec::new(),
            warm_dir: self.warm_dir.clone(),
        }
    }

    /// Enables warm-state forking: warmup snapshots are captured into
    /// (and reused from) `dir`. If the directory cannot be created the
    /// error is logged and forking stays disabled.
    pub fn enable_warm_fork(&mut self, dir: PathBuf) {
        match std::fs::create_dir_all(&dir) {
            Ok(()) => self.warm_dir = Some(dir),
            Err(e) => eprintln!(
                "warning: warm-state dir {} unavailable ({e}); warm forking disabled",
                dir.display()
            ),
        }
    }

    /// Logs a disk-cache failure once and degrades to in-memory-only
    /// caching for the rest of the session.
    fn disk_cache_failed(&mut self, what: &str, err: &dyn std::fmt::Display) {
        if !self.disk_warned {
            eprintln!("warning: result store disabled (failed to {what}: {err}); continuing in-memory only");
            self.disk_warned = true;
        }
        self.store = None;
    }

    /// The cell's [`ResultStore`] key: its canonical request text
    /// (`src=bench:{bench}@{seed} cfg={spec} len=w{W}m{M}`), the same text
    /// `experiments serve` answers. `None` for a configuration whose
    /// display name is not its [`ConfigSpec`] (a test's custom machine):
    /// the spec would not describe it, so it is cached in memory only.
    ///
    /// [`ConfigSpec`]: crate::configs::ConfigSpec
    pub fn request_key(&self, cfg: &NamedConfig, bench: &str) -> Option<String> {
        (cfg.name == cfg.spec.to_string()).then(|| {
            RunRequest::bench(bench, WORKLOAD_SEED)
                .config(cfg.spec)
                .length(self.len)
                .to_string()
        })
    }

    /// The cell's identity in failure notes: display name,
    /// [`ConfigSpec`] canonical string, benchmark, and run length.
    ///
    /// [`ConfigSpec`]: crate::configs::ConfigSpec
    pub fn cell_key(&self, cfg: &NamedConfig, bench: &str) -> String {
        format!(
            "{}|{}|{}|w{}m{}",
            cfg.name, cfg.spec, bench, self.len.warmup, self.len.measure
        )
    }

    /// Runs (or recalls) one configuration × benchmark, isolating
    /// failures: a panicking or erroring simulation is recorded in
    /// [`Session::failures`] and returned as `Err` instead of taking the
    /// whole sweep down. A cell that already failed in this session is
    /// not re-simulated; the recorded error is returned again.
    pub fn try_run(&mut self, cfg: &NamedConfig, bench: &Benchmark) -> Result<SimStats, SimError> {
        let key = (cfg.name.clone(), bench.name.to_string());
        if let Some(s) = self.mem.get(&key) {
            return Ok(s.clone());
        }
        if let Some(e) = self.failed.get(&key) {
            return Err(e.clone());
        }
        let store_key = self.request_key(cfg, bench.name);
        if let (Some(store), Some(k)) = (&self.store, &store_key) {
            match store.get(k) {
                Ok(Some(s)) => {
                    self.mem.insert(key, s.clone());
                    return Ok(s);
                }
                Ok(None) => {}
                Err(Rejection::Stale(why)) => {
                    // Written by another build or for another request —
                    // expected across upgrades; deleted, re-simulate.
                    self.cache_rejected += 1;
                    eprintln!("warning: result store {why}; re-simulating");
                }
                Err(Rejection::Quarantined(why)) => {
                    // Damaged bytes: the evidence is kept under
                    // `<name>.corrupt`; re-simulate.
                    self.cache_quarantined += 1;
                    eprintln!("warning: result store {why}; quarantined, re-simulating");
                }
            }
        }
        let config = cfg.config.clone();
        let len = self.len;
        let cell_key = self.cell_key(cfg, bench.name);
        let warm_path = self.warm_path(&cfg.name, bench.name);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cell(
                config,
                (bench.build)(WORKLOAD_SEED),
                warm_path.as_deref(),
                len,
            )
        }));
        let stats = match outcome {
            Ok(Ok((s, forked))) => {
                self.warm_forked += u64::from(forked);
                s
            }
            Ok(Err(e)) => return Err(self.record_failure(key, cell_key, e)),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload")
                    .to_string();
                return Err(self.record_failure(key, cell_key, SimError::Panicked(msg)));
            }
        };
        self.simulated += 1;
        if let (Some(store), Some(k)) = (&self.store, &store_key) {
            if let Err(e) = store.put(k, &stats) {
                let what = format!("write {}", store.path(k).display());
                self.disk_cache_failed(&what, &e);
            }
        }
        self.mem.insert(key, stats.clone());
        Ok(stats)
    }

    fn warm_path(&self, cfg: &str, bench: &str) -> Option<PathBuf> {
        self.warm_dir
            .as_ref()
            .map(|d| d.join(format!("{cfg}__{bench}__w{}.snap", self.len.warmup)))
    }

    fn record_failure(&mut self, key: (String, String), cell_key: String, e: SimError) -> SimError {
        self.failures.push(CellFailure {
            config: key.0.clone(),
            bench: key.1.clone(),
            cell_key,
            fuzz_seed: None,
            error: e.clone(),
        });
        self.failed.insert(key, e.clone());
        e
    }

    /// Runs one configuration over the whole benchmark suite, in table
    /// order, stopping at the first failing cell (which is recorded in
    /// [`Session::failures`] like any other).
    pub fn try_run_suite(
        &mut self,
        cfg: &NamedConfig,
    ) -> Result<Vec<(&'static str, SimStats)>, SimError> {
        BENCHMARKS
            .iter()
            .map(|b| Ok((b.name, self.try_run(cfg, b)?)))
            .collect()
    }

    /// Folds a worker session's results into this one (used by the
    /// parallel execution engine in [`crate::exec`]). Cached statistics,
    /// failures, and counters are merged; entries already present locally
    /// win (the matrix shards cells disjointly, so overlaps only happen
    /// when the same cell was deliberately run twice).
    pub fn merge(&mut self, other: Session) {
        for (k, v) in other.mem {
            self.mem.entry(k).or_insert(v);
        }
        for f in other.failures {
            let key = (f.config.clone(), f.bench.clone());
            if let std::collections::hash_map::Entry::Vacant(e) = self.failed.entry(key) {
                e.insert(f.error.clone());
                self.failures.push(f);
            }
        }
        self.simulated += other.simulated;
        self.cache_rejected += other.cache_rejected;
        self.cache_quarantined += other.cache_quarantined;
        self.warm_forked += other.warm_forked;
        if other.disk_warned {
            self.disk_warned = true;
        }
    }

    /// Sorts recorded failures by (configuration, benchmark) so parallel
    /// sweeps report them in a deterministic order regardless of worker
    /// completion order.
    pub fn sort_failures(&mut self) {
        self.failures
            .sort_by(|a, b| (&a.config, &a.bench).cmp(&(&b.config, &b.bench)));
    }

    /// Human-readable lines describing every recorded cell failure (for
    /// report notes). Each line carries the canonical cell key (and, for
    /// fuzz cells, the derivation seed) so any reported failure can be
    /// reproduced from the report alone.
    pub fn failure_notes(&self) -> Vec<String> {
        self.failures
            .iter()
            .map(|f| {
                let seed = match f.fuzz_seed {
                    Some(s) => format!(" [fuzz seed {s:#x}]"),
                    None => String::new(),
                };
                format!(
                    "FAILED {} × {}: {} [cell {}]{seed}",
                    f.config, f.bench, f.error, f.cell_key
                )
            })
            .collect()
    }
}

/// Runs one cell, forking off a warm-state snapshot when a directory is
/// attached. Returns the warmup-corrected statistics and whether the
/// warmup simulation was skipped via an on-disk snapshot.
///
/// The fresh path warms up, captures + persists the warm state, then
/// measures *from the captured snapshot* — the same code path a later
/// fork takes, so both produce identical statistics by construction (and
/// identical to a plain uninterrupted run, by the snapshot identity
/// guarantee tested in `ss-core`). A snapshot that fails verification is
/// quarantined by [`ss_snapshot::read_verified`] and the cell falls back
/// to a fresh warmup.
fn run_cell(
    cfg: SimConfig,
    spec: KernelSpec,
    warm_path: Option<&Path>,
    len: RunLength,
) -> Result<(SimStats, bool), SimError> {
    let Some(path) = warm_path else {
        let outcome = RunRequest::kernel(spec)
            .custom_config(cfg)
            .length(len)
            .execute()?;
        return Ok((outcome.stats, false));
    };
    let note = path.display().to_string();
    let measure_from = |snap: Snapshot, cfg: SimConfig, spec: KernelSpec| {
        RunRequest::kernel(spec)
            .custom_config(cfg)
            .length(RunLength {
                warmup: 0,
                measure: len.measure,
            })
            .from_snapshot(snap)
            .checkpoint_note(&note)
            .execute()
            .map(|o| o.stats)
    };
    match ss_snapshot::read_verified(path) {
        Ok(snap) => {
            match measure_from(snap, cfg.clone(), spec.clone()) {
                Ok(s) => return Ok((s, true)),
                // A config that drifted under an unchanged name (or a
                // damaged section the container checksum cannot see,
                // which it can't — but be safe): re-warm from scratch.
                Err(
                    SimError::SnapshotCorrupt { .. } | SimError::SnapshotVersionMismatch { .. },
                ) => {}
                Err(e) => return Err(e),
            }
        }
        Err(ss_snapshot::SnapshotError::Io(_)) => {} // absent: first visit
        Err(e) => eprintln!("warning: warm snapshot {note}: {e}; re-warming"),
    }
    let warm = RunRequest::kernel(spec.clone())
        .custom_config(cfg.clone())
        .length(RunLength {
            warmup: len.warmup,
            measure: 0,
        })
        .capture_warm()
        .execute()?;
    let snap = warm
        .snapshot
        .ok_or_else(|| SimError::ConfigInvalid("capture run produced no snapshot".into()))?;
    if let Err(e) = ss_snapshot::write_atomic(path, &snap) {
        eprintln!("warning: could not persist warm snapshot {note}: {e}");
    }
    let s = measure_from(snap, cfg, spec)?;
    Ok((s, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use ss_workloads::benchmark;

    #[test]
    fn memory_cache_avoids_resimulation() {
        let mut sess = Session::new(
            RunLength {
                warmup: 1000,
                measure: 5000,
            },
            None,
        );
        let cfg = configs::spec_sched(4, true);
        let bench = benchmark("fp_compute").unwrap();
        let a = sess.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess.simulated, 1);
        let b = sess.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess.simulated, 1, "second call served from memory");
        assert_eq!(a, b);
    }

    #[test]
    fn warm_fork_skips_warmup_and_matches_cold_run() {
        let dir = std::env::temp_dir().join(format!("ss-harness-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let len = RunLength {
            warmup: 1000,
            measure: 5000,
        };
        let cfg = configs::spec_sched(4, false);
        let bench = benchmark("mix_int").unwrap();
        // Cold reference: no warm dir, no disk cache.
        let cold = Session::new(len, None).try_run(&cfg, bench).expect("runs");
        // First warm session captures the warm state (no fork yet).
        let mut warm1 = Session::new(len, None);
        warm1.enable_warm_fork(dir.clone());
        let first = warm1.try_run(&cfg, bench).expect("runs");
        assert_eq!(warm1.warm_forked, 0, "first visit warms up from cold");
        assert_eq!(first, cold, "warm-captured run is bit-identical");
        // Second session forks off the persisted snapshot.
        let mut warm2 = Session::new(len, None);
        warm2.enable_warm_fork(dir.clone());
        let second = warm2.try_run(&cfg, bench).expect("runs");
        assert_eq!(warm2.warm_forked, 1, "warmup simulation skipped");
        assert_eq!(second, cold, "forked run is bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_cell_is_recorded_and_does_not_abort() {
        // A watchdog small enough that the pointer-chase benchmark's
        // inter-commit gaps trip it.
        let mut starved = configs::baseline(0);
        starved.name = "TinyWatchdog".to_string();
        starved.config.watchdog_cycles = 2;
        let mut sess = Session::new(
            RunLength {
                warmup: 100,
                measure: 1000,
            },
            None,
        );
        let bench = benchmark("fp_compute").unwrap();
        let err = sess.try_run(&starved, bench).unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock(_)),
            "expected deadlock, got {err}"
        );
        assert_eq!(sess.failures.len(), 1);
        assert_eq!(sess.failures[0].config, "TinyWatchdog");
        // The failure carries the full canonical cell key (and no fuzz
        // seed — this is a matrix cell), so it is reproducible from the
        // report alone.
        assert!(sess.failures[0].cell_key.starts_with("TinyWatchdog|"));
        assert!(sess.failures[0].cell_key.ends_with("|fp_compute|w100m1000"));
        assert!(sess.failures[0].fuzz_seed.is_none());
        assert!(sess.failure_notes()[0].contains("FAILED"));
        assert!(sess.failure_notes()[0].contains("[cell TinyWatchdog|"));
        // The session keeps working for healthy cells.
        let ok = sess.try_run(&configs::baseline(0), bench);
        assert!(ok.is_ok());
        // A recall of the failed cell is memoized: same error back, no
        // re-simulation, no duplicate failure record.
        let again = sess.try_run(&starved, bench).unwrap_err();
        assert!(matches!(again, SimError::Deadlock(_)));
        assert_eq!(sess.failures.len(), 1, "failure recorded once");
    }

    #[test]
    fn merge_folds_worker_results_and_failures() {
        let len = RunLength {
            warmup: 100,
            measure: 1000,
        };
        let bench = benchmark("fp_compute").unwrap();
        let mut main = Session::new(len, None);
        let mut w1 = Session::new(len, None);
        let ok = w1.try_run(&configs::baseline(0), bench).expect("runs");
        let mut w2 = Session::new(len, None);
        let mut starved = configs::baseline(0);
        starved.name = "TinyWatchdog".to_string();
        starved.config.watchdog_cycles = 2;
        let _ = w2.try_run(&starved, bench);
        main.merge(w1);
        main.merge(w2);
        assert_eq!(main.simulated, 1);
        assert_eq!(main.failures.len(), 1);
        // The merged result is served from memory.
        let b = main.try_run(&configs::baseline(0), bench).expect("cached");
        assert_eq!(main.simulated, 1, "served from merged cache");
        assert_eq!(ok, b);
        // The merged failure is memoized too.
        let err = main.try_run(&starved, bench).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)));
        assert_eq!(main.failures.len(), 1);
    }
}
