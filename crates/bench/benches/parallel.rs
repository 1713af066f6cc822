//! Parallel-engine bench: the same uncached prewarm sweep with one
//! worker vs two, so the scaling of the execution engine is visible on
//! multi-core hosts (on a single-core host the two cases should tie).
//! Plain `harness = false` timing binary — no external bench framework.

use ss_bench::time_case;
use ss_core::RunLength;
use ss_harness::{configs, prewarm, Session};
use ss_types::CancelFlag;

const ITERS: u32 = 5;

/// One sweep of the Figure 5 delay-4 configurations over every
/// benchmark, freshly simulated (no cache directory, fresh session per
/// iteration) so the workers always have real work to steal.
fn sweep(jobs: usize) {
    let cfgs = vec![
        configs::baseline(4),
        configs::spec_sched(4, true),
        configs::spec_sched_crit(4),
    ];
    let len = RunLength {
        warmup: 500,
        measure: 5_000,
    };
    let mut sess = Session::new(len, None);
    prewarm(&mut sess, &cfgs, jobs, &CancelFlag::new(), false);
}

fn main() {
    for jobs in [1usize, 2] {
        time_case("parallel_prewarm", &format!("jobs{jobs}"), ITERS, || {
            sweep(jobs)
        });
    }
}
