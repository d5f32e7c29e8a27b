//! Property tests for the detection-coverage contract: for *any* seeded
//! tag-clear plan that actually fires, the capability ABIs (purecap and
//! benchmark) classify **trapped** — never a wrong checksum — while the
//! hybrid ABI, fed the identical plan, never traps. Plus the
//! reproducibility half: re-running a plan yields an identical journal,
//! and the session's kind-indexed polls against the linear-scan
//! definition they replace.

use cheri_isa::{Abi, FaultInjector};
use cheri_workloads::{by_key, Scale};
use morello_fault::{
    FaultKind, FaultOutcome, FaultPlan, FaultRunner, FaultSession, RecoveryPolicy, Trigger,
    TriggerSite,
};
use morello_sim::Platform;
use proptest::prelude::*;

const KEYS: [&str; 4] = ["omnetpp_520", "xz_557", "sqlite", "deepsjeng_531"];

fn runner() -> FaultRunner {
    let mut p = Platform::morello().with_scale(Scale::Test);
    // Watchdog for hybrid runaways (see fault_injection.rs).
    p.interp.max_insts = 4_000_000;
    FaultRunner::new(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The paper's safety contrast, as a property over random plans.
    #[test]
    fn capability_abis_trap_hybrid_never_does(
        wi in 0usize..KEYS.len(),
        seed in any::<u64>(),
        n in 1usize..6,
    ) {
        let runner = runner();
        let w = by_key(KEYS[wi]).expect("known workload");
        let horizon = Abi::ALL
            .iter()
            .filter(|a| w.supports(**a))
            .map(|a| runner.clean_reference(&w, *a).expect("clean run").retired)
            .min()
            .expect("at least one ABI");
        let plan = FaultPlan::tag_clear_campaign(seed, n, horizon);

        for abi in [Abi::Purecap, Abi::Benchmark] {
            if !w.supports(abi) {
                continue;
            }
            let r = runner.run(&w, abi, &plan).expect("fault run");
            if r.journal.is_empty() {
                continue; // nothing fired, nothing to detect
            }
            prop_assert_eq!(
                &r.outcome, &FaultOutcome::Trapped,
                "{:?} must trap on a fired tag clear (seed {})", abi, seed
            );
            prop_assert!(
                !r.outcome.is_silent(),
                "a capability ABI may never return a wrong checksum"
            );
            prop_assert!(r.stats.faults_trapped > 0);
        }

        let hybrid = runner.run(&w, Abi::Hybrid, &plan).expect("hybrid run");
        prop_assert!(
            hybrid.outcome != FaultOutcome::Trapped,
            "hybrid has no tags to trap on (seed {})", seed
        );
        prop_assert_eq!(hybrid.stats.faults_trapped, 0);
    }

    /// Reproducibility: a plan is a pure function of its seed, and a run
    /// is a pure function of its plan.
    #[test]
    fn plans_replay_to_identical_journals(seed in any::<u64>()) {
        let runner = runner();
        let w = by_key("omnetpp_520").expect("known workload");
        let horizon = runner
            .clean_reference(&w, Abi::Hybrid)
            .expect("clean run")
            .retired;
        let plan = FaultPlan::tag_clear_campaign(seed, 4, horizon);
        let replanned = FaultPlan::tag_clear_campaign(seed, 4, horizon);
        prop_assert_eq!(&plan, &replanned, "plans are pure functions of the seed");

        let a = runner.run(&w, Abi::Purecap, &plan).expect("first run");
        let b = runner.run(&w, Abi::Purecap, &plan).expect("second run");
        prop_assert_eq!(&a.journal, &b.journal, "journals replay bit-for-bit");
        prop_assert_eq!(&a.counts, &b.counts, "counts replay bit-for-bit");
        prop_assert_eq!(&a.outcome, &b.outcome);
    }
}

/// The definition `FaultSession` indexes: scan the whole plan in order
/// and fire the first armed trigger of the hook's kind whose site
/// matches.
struct LinearScan {
    triggers: Vec<Trigger>,
    armed: Vec<bool>,
}

impl LinearScan {
    fn poll(&mut self, pcc: bool, retired: u64, pc: u64, ea: u64) -> Option<usize> {
        let i = (0..self.triggers.len()).find(|&i| {
            let t = &self.triggers[i];
            self.armed[i]
                && (t.kind == FaultKind::PccCorrupt) == pcc
                && if pcc {
                    t.site.matches_pcc(retired, pc)
                } else {
                    t.site.matches_mem(retired, pc, ea)
                }
        })?;
        self.armed[i] = false;
        Some(i)
    }

    /// `quiet_until`'s contract, from the definition: no armed trigger
    /// can match below the smallest armed `AtRetired` count, unless a
    /// range trigger is armed.
    fn quiet_until(&self) -> u64 {
        let mut q = u64::MAX;
        for (t, _) in self.triggers.iter().zip(&self.armed).filter(|(_, &a)| a) {
            match t.site {
                TriggerSite::AtRetired(n) => q = q.min(n),
                _ => return 0,
            }
        }
        q
    }
}

fn trigger((family, x, kind): (u8, u64, u8)) -> Trigger {
    let site = match family {
        0..=3 => TriggerSite::AtRetired(x % 400),
        4 => {
            let lo = x % 64 * 4;
            TriggerSite::PcRange { lo, hi: lo + 16 }
        }
        _ => {
            let lo = x % 32 * 8;
            TriggerSite::AddrRange { lo, hi: lo + 24 }
        }
    };
    let kind = match kind {
        0 => FaultKind::PccCorrupt,
        1 => FaultKind::TagClear,
        2 => FaultKind::BoundsNudge { delta: 16 },
        _ => FaultKind::PermDrop,
    };
    Trigger { site, kind }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The kind-indexed session fires exactly the triggers a linear scan
    /// of the plan does, in the same order (so journals are unchanged),
    /// on random mixed-kind plans in arbitrary (unsorted) order, and
    /// its `quiet_until` is the definition's.
    #[test]
    fn session_polls_match_a_linear_scan(
        raw in proptest::collection::vec((0u8..6, any::<u64>(), 0u8..4), 0..24),
        polls in proptest::collection::vec((any::<bool>(), 0u64..500, 0u64..256, 0u64..256), 1..200),
    ) {
        let triggers: Vec<Trigger> = raw.into_iter().map(trigger).collect();
        let plan = FaultPlan { seed: 0, triggers: triggers.clone(), policy: RecoveryPolicy::Abort };
        let mut session = FaultSession::new(&plan);
        let mut linear = LinearScan { armed: vec![true; triggers.len()], triggers };
        let mut retired = 0;
        for (pcc, step, pc, ea) in polls {
            retired += step % 7;
            prop_assert_eq!(session.quiet_until(), linear.quiet_until());
            prop_assert_eq!(session.active(), linear.armed.iter().any(|&a| a));
            let want = linear.poll(pcc, retired, pc, ea);
            let fired = if pcc {
                session.poll_pcc(retired, pc)
            } else {
                session.poll_mem(retired, pc, ea, false).is_some()
            };
            prop_assert_eq!(fired, want.is_some());
            if let Some(i) = want {
                prop_assert_eq!(session.journal().last().map(|r| r.trigger), Some(i));
            }
        }
    }
}
