//! Golden snapshot of the fig. 9 campaign: the `run_coverage` report at
//! `Scale::Test` (the fig. 9 programs, seed `0x5eedfa17`, rates
//! 50/200/800 per million, two trials, skip-and-continue recovery) plus
//! every injected run's outcome, exit code and injection journal, in
//! the campaign's canonical order. The file is compared **byte for
//! byte**, so any change to which triggers fire where, to how a run is
//! classified, or to the aggregated table fails here. Intentional
//! changes regenerate it:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p morello-fault --test golden_campaign
//! ```
//!
//! and the diff of `tests/golden/campaign_test_scale.json` becomes part
//! of the review.

use cheri_isa::Abi;
use cheri_workloads::Scale;
use morello_fault::{
    plan_seed, run_coverage, CampaignConfig, CoverageReport, FaultOutcome, FaultPlan, FaultRunner,
    InjectionRecord, RecoveryPolicy,
};
use morello_sim::suite::select;
use morello_sim::{Platform, Watchdog};
use serde::Serialize;

/// The fig. 9 programs.
const KEYS: [&str; 3] = ["omnetpp_520", "xz_557", "sqlite"];

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/campaign_test_scale.json"
);

/// One injected run of the campaign.
#[derive(Serialize)]
struct GoldenRun {
    key: String,
    abi: Abi,
    rate_per_million: u64,
    trial: u32,
    outcome: FaultOutcome,
    exit_code: Option<u64>,
    journal: Vec<InjectionRecord>,
}

#[derive(Serialize)]
struct Golden {
    report: CoverageReport,
    runs: Vec<GoldenRun>,
}

fn config() -> CampaignConfig {
    CampaignConfig {
        seed: 0x5EED_FA17,
        rates_per_million: vec![50, 200, 800],
        trials: 2,
        policy: RecoveryPolicy::SkipFaultingOp,
        jobs: 2,
    }
}

/// Runs the campaign, then replays each of its injected runs with the
/// plan, size and fuel watchdog `run_coverage` gives it, to capture the
/// per-run journals the aggregated report sums away.
fn campaign() -> Golden {
    let platform = Platform::morello().with_scale(Scale::Test);
    let workloads = select(&KEYS);
    let config = config();
    let report = run_coverage(&platform, &workloads, &config).expect("campaign runs");
    let runner = FaultRunner::new(platform);
    let mut runs = Vec::new();
    for w in &workloads {
        let abis: Vec<Abi> = Abi::ALL.into_iter().filter(|a| w.supports(*a)).collect();
        let horizon = abis
            .iter()
            .map(|a| runner.clean_reference(w, *a).expect("clean run").retired)
            .min()
            .expect("every program supports an ABI");
        for &rate in &config.rates_per_million {
            for trial in 0..config.trials {
                for &abi in &abis {
                    let n = ((rate.saturating_mul(horizon)) / 1_000_000).max(1) as usize;
                    let mut plan = FaultPlan::tag_clear_campaign(
                        plan_seed(config.seed, w.key, rate, trial),
                        n,
                        horizon,
                    );
                    plan.policy = config.policy;
                    let watchdog =
                        Watchdog::budgeted(horizon.saturating_mul(8).saturating_add(100_000));
                    let run = FaultRunner::new(watchdog.cap_platform(&platform, 1))
                        .run(w, abi, &plan)
                        .expect("injected run classifies");
                    runs.push(GoldenRun {
                        key: w.key.to_owned(),
                        abi,
                        rate_per_million: rate,
                        trial,
                        outcome: run.outcome,
                        exit_code: run.exit_code,
                        journal: run.journal,
                    });
                }
            }
        }
    }
    Golden { report, runs }
}

#[test]
fn campaign_matches_golden_byte_for_byte() {
    let golden_now = campaign();
    let mut json = serde_json::to_string_pretty(&golden_now).expect("campaign serialises");
    json.push('\n');
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &json).expect("golden snapshot written");
        eprintln!("golden snapshot updated: {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "could not read golden snapshot {GOLDEN_PATH}: {e}\n\
             (generate it with `UPDATE_GOLDEN=1 cargo test -p morello-fault \
             --test golden_campaign`)"
        )
    });
    if json != golden {
        let mismatch = json
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "fault campaign drifted from the golden snapshot at line {}:\n  \
                 got:  {got}\n  want: {want}\n\
                 (intentional changes: re-run with UPDATE_GOLDEN=1 and commit the diff)",
                i + 1
            ),
            None => panic!(
                "fault campaign drifted from the golden snapshot: lengths differ \
                 ({} vs {} bytes) with a common prefix\n\
                 (intentional changes: re-run with UPDATE_GOLDEN=1 and commit the diff)",
                json.len(),
                golden.len()
            ),
        }
    }
}
