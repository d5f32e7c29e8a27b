//! Fault runs on the fast engine against the reference engine: for the
//! fig. 9 programs under fig. 9's seeded tag-clear plans, the
//! `FaultRun` that `FaultRunner::run` produces (on the fast engine) has
//! the same outcome, exit code, injection journal and full `UarchStats`
//! as the same run replayed through
//! `Interp::run_reference_with_faults`.

use cheri_isa::{Abi, Interp, InterpError, RunResult};
use cheri_workloads::{by_key, Scale};
use morello_fault::{
    fold_fault_stats, plan_seed, FaultOutcome, FaultPlan, FaultRun, FaultRunner, FaultSession,
    RecoveryPolicy,
};
use morello_sim::{fold_heap_stats, Platform, Watchdog};
use morello_uarch::TimingCore;

/// The fig. 9 programs.
const KEYS: [&str; 3] = ["omnetpp_520", "xz_557", "sqlite"];

/// The runner's classification rules, restated for the replay.
fn classify(result: &Result<RunResult, InterpError>, trapped: u64, expected: u64) -> FaultOutcome {
    if trapped > 0 {
        return FaultOutcome::Trapped;
    }
    match result {
        Ok(r) if r.exit_code != expected => FaultOutcome::SilentCorruption {
            expected,
            got: r.exit_code,
        },
        Ok(_) => FaultOutcome::Benign,
        Err(InterpError::Fault { .. }) => FaultOutcome::Trapped,
        Err(e) => FaultOutcome::Crashed(e.to_string()),
    }
}

/// `FaultRunner::run`, replayed on the reference engine.
fn reference_run(platform: &Platform, key: &str, abi: Abi, plan: &FaultPlan) -> FaultRun {
    let w = by_key(key).expect("known workload");
    let prog = cheri_isa::lower(&w.build(abi, platform.scale));
    let interp = Interp::new(platform.interp);
    let clean = interp
        .run_reference(&prog, &mut cheri_isa::NullSink)
        .expect("clean run");
    let mut session = FaultSession::new(plan);
    let mut core = TimingCore::new(platform.uarch);
    let result = interp.run_reference_with_faults(&prog, &mut core, &mut session);
    let mut stats = core.finish();
    if let Ok(r) = &result {
        fold_heap_stats(&mut stats, &r.heap_stats);
    }
    let outcome = classify(&result, session.trapped_count(), clean.exit_code);
    fold_fault_stats(&mut stats, &session, outcome.is_silent());
    let counts = morello_pmu::EventCounts::from_uarch(&stats);
    FaultRun {
        workload: w.name.to_owned(),
        abi,
        outcome,
        expected_exit: clean.exit_code,
        exit_code: result.as_ref().ok().map(|r| r.exit_code),
        stats,
        derived: morello_pmu::DerivedMetrics::from_counts(&counts),
        counts,
        journal: session.into_journal(),
    }
}

#[test]
fn fig9_fault_runs_match_the_reference_engine() {
    let platform = Platform::morello().with_scale(Scale::Test);
    let runner = FaultRunner::new(platform);
    let mut trapped = 0;
    for key in KEYS {
        let w = by_key(key).expect("known workload");
        let abis: Vec<Abi> = Abi::ALL.into_iter().filter(|a| w.supports(*a)).collect();
        let horizon = abis
            .iter()
            .map(|a| runner.clean_reference(&w, *a).expect("clean run").retired)
            .min()
            .expect("a supported ABI");
        for (rate, policy) in [
            (50, RecoveryPolicy::SkipFaultingOp),
            (800, RecoveryPolicy::SkipFaultingOp),
            (200, RecoveryPolicy::UnwindToCheckpoint),
            (200, RecoveryPolicy::Abort),
        ] {
            let n = ((rate * horizon) / 1_000_000).max(1) as usize;
            let mut plan =
                FaultPlan::tag_clear_campaign(plan_seed(0x5EED_FA17, w.key, rate, 0), n, horizon);
            plan.policy = policy;
            let watchdog = Watchdog::budgeted(horizon.saturating_mul(8).saturating_add(100_000));
            let capped = watchdog.cap_platform(&platform, 1);
            for &abi in &abis {
                let ctx = format!("{key}/{abi}/rate {rate}/{policy:?}");
                let fast = FaultRunner::new(capped)
                    .run(&w, abi, &plan)
                    .expect("fault run");
                let reference = reference_run(&capped, key, abi, &plan);
                assert_eq!(fast.outcome, reference.outcome, "{ctx}: outcome");
                assert_eq!(fast.exit_code, reference.exit_code, "{ctx}: exit code");
                assert_eq!(fast.journal, reference.journal, "{ctx}: journal");
                assert_eq!(fast.stats, reference.stats, "{ctx}: UarchStats");
                assert_eq!(fast.counts, reference.counts, "{ctx}: PMU counts");
                assert!(!fast.journal.is_empty(), "{ctx}: the plan fires");
                trapped += u32::from(fast.outcome == FaultOutcome::Trapped);
            }
        }
    }
    assert!(trapped > 10, "the capability ABIs trap ({trapped} runs)");
}
