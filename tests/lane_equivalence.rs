//! Cell isolation for sweeps: cells stepped side by side through the
//! production stepper, each on its own thread and sliced into small
//! `RunRequest` chunks the way `run_chunked` slices a sweep cell, must
//! each produce the byte-identical [`SimStats`] of their own one-shot
//! run through the reference model. State leaking between cells (a
//! shared predictor table, a fault plan on the wrong cell) shows up as a
//! counter diff.

use speculative_scheduling::core::{FaultPlan, RunLength, RunRequest};
use speculative_scheduling::types::{CancelFlag, SchedPolicyKind, SimConfig, SimStats};
use speculative_scheduling::workloads::kernels;

fn cfg(policy: SchedPolicyKind) -> SimConfig {
    SimConfig::builder()
        .issue_to_execute_delay(4)
        .rob_entries(192)
        .iq_entries(60)
        .sched_policy(policy)
        .build()
}

/// One cell of `kernel`, `chunk` µ-ops per `RunRequest` chunk (`0`: one
/// chunk), through the reference model iff `legacy_scan`.
fn run_cell(
    kernel: &str,
    cell: &(SimConfig, FaultPlan),
    legacy_scan: bool,
    chunk: u64,
) -> SimStats {
    let spec = kernels::benchmark(kernel).expect("kernel exists");
    let mut cfg = cell.0.clone();
    cfg.legacy_scan = legacy_scan;
    RunRequest::kernel((spec.build)(1))
        .custom_config(cfg)
        .length(RunLength {
            warmup: 500,
            measure: 4_000,
        })
        .faults(cell.1.clone())
        .execute_observed(&CancelFlag::new(), chunk, |_, _| {})
        .unwrap_or_else(|e| panic!("{kernel} (legacy_scan={legacy_scan}): run failed: {e}"))
        .stats
}

/// Runs every cell concurrently through the production stepper, then
/// each alone through the reference model, and compares them.
fn assert_cells_match(kernel: &str, cells: Vec<(SimConfig, FaultPlan)>) {
    let got: Vec<SimStats> = std::thread::scope(|s| {
        let handles: Vec<_> = cells
            .iter()
            .map(|cell| s.spawn(move || run_cell(kernel, cell, false, 333)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cell thread panicked"))
            .collect()
    });
    for (i, (cell, got)) in cells.iter().zip(&got).enumerate() {
        let want = run_cell(kernel, cell, true, 0);
        assert_eq!(got, &want, "{kernel} cell {i}: stats diverged");
    }
}

/// Every scheduling policy side by side over each kernel shape: the
/// policies exercise disjoint predictor state (global counter, per-PC
/// filter, criticality table), so leakage between cells would show up.
#[test]
fn policy_matrix_matches_sequential() {
    let policies = [
        SchedPolicyKind::Conservative,
        SchedPolicyKind::AlwaysHit,
        SchedPolicyKind::GlobalCounter,
        SchedPolicyKind::FilterAndCounter,
        SchedPolicyKind::FilterNoSilence,
        SchedPolicyKind::Criticality,
    ];
    for kernel in ["dep_chain_l2", "mix_int", "stream_all_miss"] {
        let cells = policies.iter().map(|&p| (cfg(p), FaultPlan::new()));
        assert_cells_match(kernel, cells.collect());
    }
}

/// Per-cell fault plans stay per-cell: a clean cell, a latency spike, a
/// bank-conflict burst and a replay storm on the same machine, so a
/// plan applied to the wrong cell is guaranteed to be visible.
#[test]
fn fault_plans_match_sequential() {
    let plans = [
        FaultPlan::new(),
        FaultPlan::new().latency_spike(200, 400, 60),
        FaultPlan::new().bank_conflict_burst(100, 600, 3),
        FaultPlan::new().replay_storm(300, 500),
    ];
    let cells = plans
        .into_iter()
        .map(|p| (cfg(SchedPolicyKind::AlwaysHit), p))
        .collect();
    assert_cells_match("mix_int", cells);
}
