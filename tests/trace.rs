//! Integration tests for the observability subsystem (`ss-trace`):
//! tracing must be invisible to the simulation (identical `SimStats`
//! with any sink attached), captured traces must be deterministic —
//! across repeated runs and across `--jobs 1` vs `--jobs 2` fuzz
//! campaigns — the Perfetto export must survive a schema-validating
//! parse, and a seeded-bug divergence must carry the trailing trace
//! window with the squash events that explain it.

use speculative_scheduling::core::{DiffChecker, FaultPlan, RunLength, RunRequest, Simulator};
use speculative_scheduling::harness::fuzz::{error_trace, run_campaign, FuzzOptions};
use speculative_scheduling::oracle::InOrderModel;
use speculative_scheduling::prelude::*;
use speculative_scheduling::trace::{
    json, perfetto, pipeview, CaptureSink, NullSink, RingSink, TraceEvent,
};
use speculative_scheduling::types::SimError;
use speculative_scheduling::workloads::{kernels, KernelSpec, KernelTrace};

fn missy_cfg() -> SimConfig {
    SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .banked_l1d(true)
        .commit_log_window(32)
        .build()
}

fn missy_kernel() -> KernelSpec {
    kernels::ptr_chase_big(7)
}

const LEN: RunLength = RunLength {
    warmup: 1_000,
    measure: 10_000,
};

fn stats_with<S: speculative_scheduling::trace::TraceSink>(sink: S) -> SimStats {
    let mut sim = Simulator::with_sink(missy_cfg(), KernelTrace::new(missy_kernel()), sink);
    let warm = sim.try_run_committed(LEN.warmup).expect("warmup");
    let end = sim.try_run_committed(LEN.measure).expect("measure");
    end.delta(&warm)
}

/// Tracing must never perturb the simulation: the no-op sink (the
/// "compiled out" configuration every production path uses) and the
/// recording sinks must produce identical statistics on a replay-heavy
/// machine.
#[test]
fn stats_are_identical_with_and_without_tracing() {
    let null = stats_with(NullSink);
    let ring = stats_with(RingSink::default());
    let capture = stats_with(CaptureSink::new());
    assert_eq!(null, ring, "RingSink perturbed the simulation");
    assert_eq!(null, capture, "CaptureSink perturbed the simulation");
    assert!(
        null.replayed_miss + null.replayed_bank + null.replayed_prf > 0,
        "fixture must actually replay"
    );
}

fn capture_window(window: std::ops::Range<u64>) -> Vec<TraceEvent> {
    let mut sim = Simulator::with_sink(
        missy_cfg(),
        KernelTrace::new(missy_kernel()),
        CaptureSink::with_window(window.clone()),
    );
    sim.try_run_committed(window.end).expect("runs");
    sim.into_sink().into_events()
}

/// The same (config × kernel × window) capture is bit-identical across
/// repeated runs, and both renderers are pure functions of it.
#[test]
fn captures_are_deterministic_across_repeated_runs() {
    let a = capture_window(100..300);
    let b = capture_window(100..300);
    assert!(!a.is_empty());
    assert_eq!(a, b, "capture differs between identical runs");
    assert_eq!(pipeview::render(&a), pipeview::render(&b));
    assert_eq!(
        perfetto::export_chrome_trace(&a),
        perfetto::export_chrome_trace(&b)
    );
}

/// Failure traces are independent of worker parallelism: a seeded-bug
/// fuzz campaign sharded over 1 vs 2 jobs records the same trailing
/// trace window for every failing cell.
#[test]
fn fuzz_failure_traces_match_across_jobs_1_and_2() {
    let opts = |jobs| FuzzOptions {
        campaign_seed: 0xD1FF_5EED,
        cells: 16,
        run: 1_000,
        jobs,
        out_dir: None,
        seed_bug: true,
    };
    let one = run_campaign(&opts(1));
    let two = run_campaign(&opts(2));
    assert!(!one.outcomes.is_empty(), "seeded bug escaped the campaign");
    assert_eq!(one.outcomes.len(), two.outcomes.len());
    for (a, b) in one.outcomes.iter().zip(&two.outcomes) {
        assert_eq!(a.cell.seed, b.cell.seed, "outcome order must be stable");
        assert_eq!(
            error_trace(&a.error),
            error_trace(&b.error),
            "trace for cell {:#x} differs between --jobs 1 and --jobs 2",
            a.cell.seed
        );
    }
}

/// The Perfetto export of a real captured window round-trips through
/// the schema-validating JSON parser: every event phase is well-formed
/// and the expected track metadata is present.
#[test]
fn perfetto_export_roundtrips_through_schema_validation() {
    let events = capture_window(0..256);
    let doc = perfetto::export_chrome_trace(&events);
    let summary = json::validate_chrome_trace(&doc).expect("schema-valid trace");
    assert!(summary.spans > 0, "{summary:?}");
    assert!(summary.counters > 0, "occupancy counter track missing");
    // 1 process_name + (thread_name + thread_sort_index) per stage track.
    assert_eq!(summary.metadata, 1 + 2 * 8, "{summary:?}");
    // A replay-heavy window must link squashes back to their triggers.
    assert!(summary.flows > 0, "no replay flow events captured");
}

/// Acceptance criterion: a `DivergenceReport` produced by the seeded
/// wakeup-recovery bug carries the trailing trace window, and that
/// window shows the squash activity around the dropped µ-op.
#[test]
fn seeded_bug_divergence_carries_squash_trace() {
    let spec = missy_kernel();
    let oracle = InOrderModel::from_spec(spec.clone());
    let mut sim = Simulator::with_sink(missy_cfg(), KernelTrace::new(spec), RingSink::default());
    sim.attach_diff_checker(DiffChecker::new(Box::new(oracle)));
    sim.seed_wakeup_bug();
    let err = sim
        .try_run_committed(20_000)
        .expect_err("seeded bug must diverge");
    let SimError::Divergence(report) = err else {
        panic!("expected a divergence, got: {err}");
    };
    assert!(
        !report.trace.is_empty(),
        "divergence report should carry the trailing trace window"
    );
    assert!(
        report
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::ReplaySquash { .. })),
        "trace window should show the squash that lost the µ-op"
    );
    // The report text renders the window for humans…
    let text = report.to_string();
    assert!(text.contains("trailing trace window"), "got: {text}");
    // …and the window renders through the pipeview for diffing.
    let pv = pipeview::render(&report.trace);
    assert!(
        pv.contains('R'),
        "pipeview should show replay glyphs:\n{pv}"
    );
}

/// A deadlock's flight recorder shows the cycles before the stall, not
/// one occupancy sample repeated: under a 10K watchdog and a 400K-cycle
/// load stall, the ring keeps the commits that led up to it, and no two
/// consecutive occupancy samples in it are equal (a sample is recorded
/// only when occupancy changes).
#[test]
fn deadlock_flight_recorder_keeps_the_run_up_to_the_stall() {
    let err = RunRequest::kernel(kernels::mix_int(1))
        .custom_config(SimConfig::builder().watchdog_cycles(10_000).build())
        .length(RunLength {
            warmup: 0,
            measure: 1_000_000,
        })
        .faults(FaultPlan::new().latency_spike(3_000, 100, 400_000))
        .ring_trace(4096)
        .execute()
        .expect_err("the stall must trip the watchdog");
    let SimError::Deadlock(report) = err else {
        panic!("expected a deadlock, got: {err}");
    };
    assert_eq!(report.trace.len(), 4096, "ring not full");
    assert!(
        report
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Commit { .. })),
        "flight recorder holds no commits"
    );
    let samples: Vec<_> = report
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Occupancy { .. }))
        .map(|e| {
            let mut e = *e;
            if let TraceEvent::Occupancy { cycle, .. } = &mut e {
                *cycle = Default::default();
            }
            e
        })
        .collect();
    assert!(!samples.is_empty(), "no occupancy samples");
    assert!(
        samples.windows(2).all(|w| w[0] != w[1]),
        "consecutive occupancy samples repeat"
    );
}

/// A windowed capture deep into a run keeps the occupancy over the
/// window's span only: the sample in force when the window opens, then
/// at most one per cycle up to the last in-window event — not every
/// sample since cycle 0.
#[test]
fn deep_window_capture_is_bounded_by_the_window() {
    let window = 6_000..6_100;
    let events = capture_window(window.clone());
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.seq().is_some())
        .map(|e| e.cycle().get())
        .collect();
    assert!(
        events
            .iter()
            .filter_map(TraceEvent::seq)
            .all(|s| window.contains(&s.get())),
        "capture leaked out-of-window events"
    );
    let (lo, hi) = (
        *spans.iter().min().expect("window captured"),
        *spans.iter().max().expect("window captured"),
    );
    let samples: Vec<u64> = events
        .iter()
        .filter(|e| e.seq().is_none())
        .map(|e| e.cycle().get())
        .collect();
    assert!(
        samples.windows(2).all(|w| w[0] < w[1]),
        "samples not one per cycle"
    );
    assert!(
        samples.iter().skip(1).all(|&c| c <= hi),
        "sample past the window's last event"
    );
    assert!(
        samples.len() as u64 <= hi - lo + 2,
        "{} samples over a {}-cycle window",
        samples.len(),
        hi - lo + 1
    );
    let mut full = Simulator::with_sink(
        missy_cfg(),
        KernelTrace::new(missy_kernel()),
        CaptureSink::new(),
    );
    full.try_run_committed(window.end).expect("runs");
    let all = full
        .sink()
        .events()
        .iter()
        .filter(|e| e.seq().is_none())
        .count();
    assert!(
        samples.len() * 10 < all,
        "window kept {} of the run's {all} samples",
        samples.len()
    );
}
