//! Differential proof that the production stepper — the gated
//! `try_run_committed` loop over the event-driven ready queue — is
//! observably identical to the reference model (one full `tick` per
//! cycle over the per-cycle O(ROB) scan, `legacy_scan`): for the same
//! configuration and workload, the two must produce **byte-identical**
//! [`SimStats`] — same cycle count, same issue/replay counters, same
//! predictor training, everything — and identical failure reports. The
//! equivalence argument lives in DESIGN.md "Scheduler data structures";
//! these tests are the enforcement.

use speculative_scheduling::core::{FaultPlan, RunLength, RunRequest, Simulator};
use speculative_scheduling::harness::configs::ConfigSpec;
use speculative_scheduling::harness::fuzz::FuzzCell;
use speculative_scheduling::prelude::*;
use speculative_scheduling::trace::{CaptureSink, NullSink, RingSink, TraceSink};
use speculative_scheduling::types::{CancelFlag, SimError};
use speculative_scheduling::workloads::{kernels, KernelSpec, KernelTrace};

/// Test-local shim over the unified runner, preserving the fallible
/// signature these tests assert error taxonomy through. `chunk` slices
/// the run into `RunRequest` chunks of that many committed µ-ops (`0`:
/// one chunk).
fn try_run_kernel(
    cfg: SimConfig,
    spec: speculative_scheduling::workloads::KernelSpec,
    len: RunLength,
    chunk: u64,
) -> Result<SimStats, SimError> {
    RunRequest::kernel(spec)
        .custom_config(cfg)
        .length(len)
        .execute_observed(&CancelFlag::new(), chunk, |_, _| {})
        .map(|o| o.stats)
}

/// Runs the same kernel through the production stepper (sliced into
/// `chunk`-µ-op requests) and through the reference model (one chunk),
/// returning both outcomes.
fn run_both(
    cfg: &SimConfig,
    spec: speculative_scheduling::workloads::KernelSpec,
    len: RunLength,
    chunk: u64,
) -> [Result<SimStats, SimError>; 2] {
    let mut production = cfg.clone();
    production.legacy_scan = false;
    let mut reference = cfg.clone();
    reference.legacy_scan = true;
    [
        try_run_kernel(production, spec.clone(), len, chunk),
        try_run_kernel(reference, spec, len, 0),
    ]
}

/// Runs the same kernel through the production stepper and the
/// reference model and asserts both complete with identical statistics.
fn assert_equivalent(
    cfg: &SimConfig,
    spec: speculative_scheduling::workloads::KernelSpec,
    len: RunLength,
    chunk: u64,
    what: &str,
) {
    let [a, b] = run_both(cfg, spec, len, chunk);
    let a = a.unwrap_or_else(|e| panic!("{what}: production run failed: {e}"));
    let b = b.unwrap_or_else(|e| panic!("{what}: reference run failed: {e}"));
    assert_eq!(
        a, b,
        "{what}: production stepper diverged from the reference"
    );
}

/// Every configuration the harness's experiments name, at the paper's
/// endpoint delays, on a replay-heavy kernel: the full policy matrix
/// (wakeup policies, replay schemes, banking, shifting, PRF banking,
/// criticality) must be bit-equivalent between the two steppers.
#[test]
fn policy_matrix_is_byte_identical() {
    let len = RunLength {
        warmup: 500,
        measure: 6_000,
    };
    for delay in [0u64, 4] {
        for spec in ConfigSpec::variants_at(delay) {
            let named = spec.named();
            assert_equivalent(
                &named.config,
                kernels::mix_int(3),
                len,
                0,
                &format!("{} (d{delay})", named.name),
            );
        }
    }
}

/// Contrasting workloads at the sweet-spot delay: memory-bound,
/// dependency-chained, branchy, and store-forwarding-heavy kernels all
/// stress different scheduler event paths (tag broadcast, timer
/// parking, store-dependence waiters, squash/flush invalidation).
#[test]
fn kernel_sweep_is_byte_identical() {
    let len = RunLength {
        warmup: 1_000,
        measure: 12_000,
    };
    let cfg = SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .banked_l1d(true)
        .build();
    for (name, spec) in [
        ("dep_chain_l2", kernels::dep_chain_l2(1)),
        ("ptr_chase_big", kernels::ptr_chase_big(1)),
        ("mix_int", kernels::mix_int(1)),
        ("crafty_like", kernels::crafty_like(1)),
        ("stream_all_miss", kernels::stream_all_miss(1)),
    ] {
        assert_equivalent(&cfg, spec, len, 0, name);
    }
}

/// Ragged warmup/measure budgets crossed with small `RunRequest` chunk
/// sizes: every chunk boundary re-enters the production stepper with
/// its quiet-skip cache carried over, and on the miss-bound kernel most
/// boundaries sit just before a long quiet stretch. Slicing must leave
/// no trace in the statistics.
#[test]
fn ragged_chunked_budgets_are_byte_identical() {
    let lens = [(50, 700), (200, 1_500), (500, 3_000), (1_000, 8_000)];
    let shapes = [(64u32, 24u32), (192, 60), (384, 120)];
    for (i, &(warmup, measure)) in lens.iter().enumerate() {
        let (rob, iq) = shapes[i % shapes.len()];
        let cfg = SimConfig::builder()
            .issue_to_execute_delay(4)
            .sched_policy(SchedPolicyKind::AlwaysHit)
            .rob_entries(rob)
            .iq_entries(iq)
            .build();
        let len = RunLength { warmup, measure };
        for chunk in [1u64, 7, 333] {
            assert_equivalent(
                &cfg,
                kernels::dep_chain_l2(1),
                len,
                chunk,
                &format!("rob{rob} {len} chunk {chunk}"),
            );
        }
    }
}

/// The checker paths the production stepper must land on exactly: a
/// tight watchdog deadlocks (2 cycles: before the first commit; 200
/// cycles: on a DRAM miss, mid-run) and the report (cycle,
/// committed count, occupancies, stuck-window detail) must equal the
/// reference model's; a per-cycle invariant check
/// (`invariant_check_interval(1)`) must run clean through both.
#[test]
fn checker_reports_are_byte_identical() {
    let len = RunLength {
        warmup: 500,
        measure: 4_000,
    };
    for watchdog in [2u64, 200] {
        let doomed = SimConfig::builder()
            .issue_to_execute_delay(4)
            .watchdog_cycles(watchdog)
            .build();
        for chunk in [0u64, 7] {
            let what = format!("watchdog {watchdog} chunk {chunk}");
            match run_both(&doomed, kernels::ptr_chase_big(1), len, chunk) {
                [Err(SimError::Deadlock(a)), Err(SimError::Deadlock(b))] => {
                    assert_eq!(a.snapshot, b.snapshot, "{what}: deadlock snapshots differ");
                    assert_eq!(a, b, "{what}: deadlock reports differ");
                    if watchdog > 2 {
                        assert!(
                            a.snapshot.committed > 0,
                            "{what}: deadlocked before any commit"
                        );
                    }
                }
                other => panic!("{what}: expected two deadlocks, got {other:?}"),
            }
        }
    }
    let checked = SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .banked_l1d(true)
        .invariant_check_interval(1)
        .build();
    for (name, spec) in [
        ("dep_chain_l2", kernels::dep_chain_l2(1)),
        ("mix_int", kernels::mix_int(1)),
    ] {
        assert_equivalent(
            &checked,
            spec,
            len,
            0,
            &format!("{name} (per-cycle checks)"),
        );
    }
}

/// Every injected-fault kind: fault windows perturb load latencies and
/// force replay storms mid-run, which exercises squash re-registration
/// and the recovery-buffer paths under the nastiest timing.
#[test]
fn fault_kinds_are_byte_identical() {
    let plans: [(&str, FaultPlan); 3] = [
        (
            "latency-spike",
            FaultPlan::new().latency_spike(2_000, 1_500, 40),
        ),
        (
            "bank-conflict-burst",
            FaultPlan::new().bank_conflict_burst(2_000, 1_500, 6),
        ),
        ("replay-storm", FaultPlan::new().replay_storm(2_000, 1_500)),
    ];
    for (name, plan) in plans {
        let base = SimConfig::builder()
            .issue_to_execute_delay(4)
            .sched_policy(SchedPolicyKind::AlwaysHit)
            .banked_l1d(true)
            .build();
        let mut stats = [SimStats::default(), SimStats::default()];
        for (i, legacy) in [false, true].into_iter().enumerate() {
            let mut cfg = base.clone();
            cfg.legacy_scan = legacy;
            let mut sim = Simulator::new(cfg, KernelTrace::new(kernels::mix_int(5)));
            sim.set_fault_plan(plan.clone())
                .unwrap_or_else(|e| panic!("{name}: bad plan: {e}"));
            sim.try_run_committed(15_000)
                .unwrap_or_else(|e| panic!("{name}: run failed (legacy={legacy}): {e}"));
            stats[i] = sim.stats();
        }
        assert_eq!(stats[0], stats[1], "{name}: production stepper diverged");
        assert!(
            stats[0].faults_injected > 0,
            "{name}: fault window never fired — test proves nothing"
        );
    }
}

/// 32 seeded fuzz cells (random machine shape × generated kernel ×
/// fault windows, seeded-loop convention): the steppers must
/// stay byte-identical across the whole randomized space. A cell whose
/// run ends in a structured error (e.g. the pre-existing IQ-reacquire
/// overshoot tripping the periodic invariant checker under an extreme
/// fault plan) still counts as equivalent only if *both* steppers
/// produce the identical error at the identical point.
#[test]
fn fuzz_cells_are_byte_identical() {
    let mut clean = 0u32;
    for seed in 0..32u64 {
        let cell = FuzzCell::from_seed(0xEC0_5EED ^ (seed * 0x9E37_79B9), 4_000, false);
        let base = cell.config().unwrap_or_else(|e| panic!("cell {seed}: {e}"));
        let mut outcomes: [Option<(Result<(), String>, SimStats)>; 2] = [None, None];
        for (i, legacy) in [false, true].into_iter().enumerate() {
            let mut cfg = base.clone();
            cfg.legacy_scan = legacy;
            let mut sim = Simulator::new(cfg, KernelTrace::new(cell.kernel()));
            sim.set_fault_plan(cell.fault_plan())
                .unwrap_or_else(|e| panic!("cell {seed}: bad plan: {e}"));
            let outcome = sim
                .try_run_committed(cell.run)
                .map(|_| ())
                .map_err(|e| e.to_string());
            outcomes[i] = Some((outcome, sim.stats()));
        }
        let [Some(event), Some(legacy)] = outcomes else {
            unreachable!()
        };
        assert_eq!(
            event,
            legacy,
            "cell {seed} ({}): production stepper diverged",
            cell.cell_key()
        );
        clean += u32::from(event.0.is_ok());
    }
    assert!(
        clean >= 24,
        "only {clean}/32 cells ran clean — the campaign is degenerate"
    );
}

/// One run of `n` committed µ-ops with `sink` attached, through the
/// reference model iff `legacy`: the outcome, the statistics and the
/// sink.
fn sink_run<S: TraceSink>(
    cfg: &SimConfig,
    spec: KernelSpec,
    plan: &FaultPlan,
    legacy: bool,
    n: u64,
    sink: S,
) -> (Result<SimStats, SimError>, SimStats, S) {
    let mut cfg = cfg.clone();
    cfg.legacy_scan = legacy;
    let mut sim = Simulator::with_sink(cfg, KernelTrace::new(spec), sink);
    sim.set_fault_plan(plan.clone()).expect("valid plan");
    let outcome = sim.try_run_committed(n);
    let stats = sim.stats();
    (outcome, stats, sim.into_sink())
}

/// A traced run steps the production stepper, not a machine of its own:
/// over kernels × delays 0/2/4/6 × {default, AlwaysHit + banked L1D},
/// plus a fault plan per kernel, a fully captured production run and a
/// fully captured reference run record identical event streams, and
/// both end with the statistics of the untraced production run.
#[test]
fn traced_runs_are_byte_identical() {
    const RUN: u64 = 2_000;
    let mut cells: Vec<(String, SimConfig, FaultPlan)> = Vec::new();
    for delay in [0u64, 2, 4, 6] {
        let default = SimConfig::builder().issue_to_execute_delay(delay).build();
        let missy = SimConfig::builder()
            .issue_to_execute_delay(delay)
            .sched_policy(SchedPolicyKind::AlwaysHit)
            .banked_l1d(true)
            .build();
        cells.push((format!("d{delay} default"), default, FaultPlan::new()));
        cells.push((
            format!("d{delay} AlwaysHit banked"),
            missy,
            FaultPlan::new(),
        ));
    }
    let faulted = SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .banked_l1d(true)
        .build();
    let plan = FaultPlan::new()
        .latency_spike(1_000, 300, 40)
        .replay_storm(2_000, 300);
    cells.push(("d4 AlwaysHit banked + faults".into(), faulted, plan));
    let mut events = 0;
    for (name, spec) in [
        ("dep_chain_l2", kernels::dep_chain_l2(1)),
        ("ptr_chase_big", kernels::ptr_chase_big(1)),
        ("mix_int", kernels::mix_int(1)),
        ("crafty_like", kernels::crafty_like(1)),
        ("stream_all_miss", kernels::stream_all_miss(1)),
    ] {
        for (what, cfg, plan) in &cells {
            let what = format!("{name} {what}");
            let (outcome, untraced, _) = sink_run(cfg, spec.clone(), plan, false, RUN, NullSink);
            outcome.unwrap_or_else(|e| panic!("{what}: run failed: {e}"));
            assert!(
                *plan == FaultPlan::new() || untraced.faults_injected > 0,
                "{what}: fault window never fired"
            );
            let traced =
                |legacy| sink_run(cfg, spec.clone(), plan, legacy, RUN, CaptureSink::new());
            let (_, production, p_sink) = traced(false);
            let (_, reference, r_sink) = traced(true);
            assert_eq!(production, untraced, "{what}: traced production stats");
            assert_eq!(reference, untraced, "{what}: traced reference stats");
            let (p, r) = (p_sink.into_events(), r_sink.into_events());
            if let Some(i) = p.iter().zip(&r).position(|(a, b)| a != b) {
                panic!(
                    "{what}: event {i} differs: production {} vs reference {}",
                    p[i], r[i]
                );
            }
            assert_eq!(p.len(), r.len(), "{what}: event counts differ");
            events += p.len();
        }
    }
    assert!(events > 1_000_000, "only {events} events captured");
}

/// A ring-traced deadlock ends the production stepper and the reference
/// model with byte-identical reports, flight-recorder trace included:
/// the stepper fast-forwards the 10K stalled cycles, the reference steps
/// each, and neither records anything on a cycle that changes nothing.
#[test]
fn ring_traced_deadlock_reports_are_byte_identical() {
    // A 400K-cycle load stall under a 10K watchdog.
    let cfg = SimConfig::builder().watchdog_cycles(10_000).build();
    let plan = FaultPlan::new().latency_spike(3_000, 100, 400_000);
    let [production, reference] = [false, true].map(|legacy| {
        let sink = RingSink::new(RingSink::DEFAULT_CAPACITY);
        match sink_run(&cfg, kernels::mix_int(1), &plan, legacy, 1_000_000, sink) {
            (Err(SimError::Deadlock(report)), _, _) => report,
            (other, _, _) => panic!("legacy={legacy}: expected a deadlock, got {other:?}"),
        }
    });
    assert!(!production.trace.is_empty(), "flight recorder is empty");
    assert_eq!(production, reference, "deadlock reports differ");
    assert_eq!(production.to_string(), reference.to_string());
}

/// Public per-cycle `tick()` steps the production stepper one gated
/// cycle at a time; every cycle's occupancy snapshot equals the
/// reference model's, and so do the final statistics.
#[test]
fn per_cycle_tick_matches_the_reference() {
    const CYCLES: u64 = 20_000;
    let base = SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .banked_l1d(true)
        .build();
    let [mut production, mut reference] = [false, true].map(|legacy| {
        let mut cfg = base.clone();
        cfg.legacy_scan = legacy;
        Simulator::new(cfg, KernelTrace::new(kernels::mix_int(1)))
    });
    for cycle in 1..=CYCLES {
        production.tick();
        reference.tick();
        assert_eq!(
            production.snapshot(),
            reference.snapshot(),
            "cycle {cycle}: snapshots differ"
        );
    }
    let stats = production.stats();
    assert_eq!(stats, reference.stats(), "statistics differ");
    assert!(
        stats.replayed_miss + stats.replayed_bank > 0,
        "fixture must replay"
    );
}
