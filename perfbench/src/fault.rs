//! `fault_campaign`: the fig. 9 detection-coverage campaign at
//! `Scale::Test`, driven cell by cell through `FaultRunner::run` with the
//! same plan seeds, plan sizes and fuel watchdog as
//! `morello_fault::run_coverage`, so each injected run can be timed.
//! Every untraced run also calls `run_coverage` itself and fails unless
//! its cells equal the ones the timed runs aggregate to.

use crate::ladder::{ladder_all, program_cells};
use crate::paper::slowdowns;
use crate::spans::Spans;
use crate::stats::Probe;
use crate::{Measured, Options, Traced};
use cheri_isa::{Abi, RecoveryPolicy};
use cheri_workloads::{Scale, Workload};
use morello_fault::{
    plan_seed, run_coverage, CampaignConfig, CoverageCell, FaultOutcome, FaultPlan, FaultRun,
    FaultRunner,
};
use morello_sim::suite::select;
use morello_sim::{Platform, ProgramCache, RunError, Runner, Watchdog};

/// The fig. 9 campaign's programs.
pub const KEYS: [&str; 3] = ["omnetpp_520", "xz_557", "sqlite"];

/// Injection rates in faults per million clean-run instructions.
pub const RATES: [u64; 3] = [50, 200, 800];

/// Seeded trials per (program, rate, ABI).
pub const TRIALS: u32 = 2;

/// One injected run of the campaign.
#[derive(Clone, Debug)]
pub struct Injection {
    /// Index into the campaign's workloads.
    pub w: usize,
    /// Injection rate.
    pub rate: u64,
    /// Trial number.
    pub trial: u32,
    /// The ABI run.
    pub abi: Abi,
    /// Index of the run's coverage cell: its (program, rate, ABI), over
    /// which `run_coverage` sums the trials.
    pub cell: usize,
}

/// The campaign's shape: programs, cells and per-program horizons.
pub struct Campaign {
    /// The platform (`Scale::Test`).
    pub platform: Platform,
    /// Programs.
    pub workloads: Vec<Workload>,
    /// Injected runs in `run_coverage`'s canonical order.
    pub runs: Vec<Injection>,
    /// Coverage cells as (program, rate, ABI), in canonical order.
    pub cells: Vec<(usize, u64, Abi)>,
    /// Campaign seed.
    pub seed: u64,
    /// Clean-run retired count per program (minimum over its ABIs).
    pub horizons: Vec<u64>,
    /// Clean-run exit code per (program, ABI) in `Abi::ALL` order.
    pub clean_exit: Vec<Vec<Option<u64>>>,
}

impl Campaign {
    fn new(opts: &Options) -> Campaign {
        let workloads = select(&KEYS);
        let mut runs = Vec::new();
        let mut cells = Vec::new();
        for (w, wl) in workloads.iter().enumerate() {
            for rate in RATES {
                for trial in 0..TRIALS {
                    for abi in Abi::ALL.into_iter().filter(|a| wl.supports(*a)) {
                        let key = (w, rate, abi);
                        let cell = cells.iter().position(|c| *c == key).unwrap_or_else(|| {
                            cells.push(key);
                            cells.len() - 1
                        });
                        runs.push(Injection {
                            w,
                            rate,
                            trial,
                            abi,
                            cell,
                        });
                    }
                }
            }
        }
        Campaign {
            platform: Platform::morello().with_scale(Scale::Test),
            workloads,
            runs,
            cells,
            seed: opts.seed,
            horizons: Vec::new(),
            clean_exit: Vec::new(),
        }
    }

    /// Phase 0 of the campaign: a clean reference per (program, ABI).
    fn clean_references(&mut self, spans: &Spans) -> Result<(), RunError> {
        let runner = FaultRunner::new(self.platform);
        self.horizons.clear();
        self.clean_exit.clear();
        for w in &self.workloads {
            let mut horizon = u64::MAX;
            let mut exits = Vec::new();
            for abi in Abi::ALL {
                if !w.supports(abi) {
                    exits.push(None);
                    continue;
                }
                let clean = spans.span("fault.clean", None, || runner.clean_reference(w, abi))?;
                horizon = horizon.min(clean.retired);
                exits.push(Some(clean.exit_code));
            }
            self.horizons.push(horizon);
            self.clean_exit.push(exits);
        }
        Ok(())
    }

    /// One injected run, exactly as `run_coverage` makes it.
    fn inject(&self, i: &Injection) -> Result<FaultRun, RunError> {
        let w = &self.workloads[i.w];
        let horizon = self.horizons[i.w];
        let n = ((i.rate.saturating_mul(horizon)) / 1_000_000).max(1) as usize;
        let mut plan =
            FaultPlan::tag_clear_campaign(plan_seed(self.seed, w.key, i.rate, i.trial), n, horizon);
        plan.policy = RecoveryPolicy::SkipFaultingOp;
        let watchdog = Watchdog::budgeted(horizon.saturating_mul(8).saturating_add(100_000));
        FaultRunner::new(watchdog.cap_platform(&self.platform, 1)).run(w, i.abi, &plan)
    }
}

/// Whether a run was stopped by the fuel watchdog (a runaway loop).
pub fn is_runaway(run: &FaultRun) -> bool {
    matches!(&run.outcome, FaultOutcome::Crashed(msg) if msg.starts_with("instruction budget exhausted"))
}

/// The outcome class of a run, for the digest and the repeat check.
fn outcome_code(run: &Result<FaultRun, RunError>) -> (u64, u64) {
    match run {
        Ok(r) => {
            let class = match r.outcome {
                FaultOutcome::Trapped => 1,
                FaultOutcome::SilentCorruption { .. } => 2,
                FaultOutcome::Benign => 3,
                FaultOutcome::Crashed(_) => 4,
            };
            (class, r.journal.len() as u64)
        }
        Err(_) => (0, 0),
    }
}

/// Aggregates runs into `run_coverage`'s cells: per (program, rate,
/// ABI), `[runs, injected, trapped, silent, benign, crashed]`.
pub fn coverage_cells(c: &Campaign, codes: &[(u64, u64)]) -> Vec<[u64; 6]> {
    let mut out = vec![[0; 6]; c.cells.len()];
    for (i, (class, injected)) in c.runs.iter().zip(codes) {
        let slot = &mut out[i.cell];
        slot[0] += 1;
        slot[1] += injected;
        match class {
            1 => slot[2] += 1,
            2 => slot[3] += 1,
            3 => slot[4] += 1,
            _ => slot[5] += 1,
        }
    }
    out
}

/// Whether `morello_fault::run_coverage`, given the campaign's
/// configuration, reports exactly `cells`: the check that the injected
/// runs timed here are the ones the campaign makes.
fn matches_run_coverage(c: &Campaign, cells: &[[u64; 6]]) -> bool {
    let config = CampaignConfig {
        seed: c.seed,
        rates_per_million: RATES.to_vec(),
        trials: TRIALS,
        policy: RecoveryPolicy::SkipFaultingOp,
        jobs: 1,
    };
    let Ok(coverage) = run_coverage(&c.platform, &c.workloads, &config) else {
        return false;
    };
    let row = |x: &CoverageCell| {
        [
            u64::from(x.runs),
            x.injected,
            u64::from(x.trapped_runs),
            u64::from(x.silent_runs),
            u64::from(x.benign_runs),
            u64::from(x.crashed_runs),
        ]
    };
    coverage.cells.len() == cells.len()
        && c.cells
            .iter()
            .zip(&coverage.cells)
            .zip(cells)
            .all(|(((w, rate, abi), theirs), ours)| {
                theirs.key == c.workloads[*w].key
                    && theirs.rate_per_million == *rate
                    && theirs.abi == *abi
                    && row(theirs) == *ours
            })
}

/// The untraced run: repeated clean-reference set-up, a timed clean run
/// per (program, ABI) checked against it, the timed passes of every
/// injected run, and `run_coverage` checked against the first pass.
pub fn measure(opts: &Options, report: &mut Vec<String>) -> Measured {
    let mut c = Campaign::new(opts);
    let mut m = Measured::default();
    report.push(format!(
        "{} injected runs in {} coverage cells per pass at {:?} scale, campaign seed {}",
        c.runs.len(),
        c.cells.len(),
        c.platform.scale,
        c.seed
    ));
    let quiet = Spans::new(false);
    let mut probe = Probe::default();
    let mut setup_ok = true;
    crate::repeat_setup(&mut m, &mut probe, || {
        setup_ok &= c.clean_references(&quiet).is_ok();
    });
    if !setup_ok {
        m.attempted += 1;
        m.failed += 1;
        return m;
    }

    // Timed clean leg: must agree with the engine-only clean reference;
    // its cycles give the simulated slowdowns.
    let runner = Runner::new(c.platform);
    let cache = ProgramCache::new();
    let mut cycles = Vec::new();
    for (wi, w) in c.workloads.iter().enumerate() {
        for (ai, abi) in Abi::ALL.into_iter().enumerate() {
            let Some(exit) = c.clean_exit[wi][ai] else {
                continue;
            };
            m.attempted += 1;
            match runner.run_with_cache(w, abi, &cache) {
                Ok(r) if r.exit_code == exit => {
                    cycles.push((w.key.to_owned(), abi, r.stats.cpu_cycles));
                }
                _ => m.failed += 1,
            }
        }
    }
    m.slowdowns = slowdowns(&cycles);

    let mut first: Vec<(u64, u64)> = Vec::new();
    let mut runaway = 0;
    crate::repeat_passes(&mut m, opts.workload.passes(opts.seconds), |m| {
        let mut insts = 0u64;
        let mut times = Vec::with_capacity(c.runs.len());
        let mut codes = Vec::with_capacity(c.runs.len());
        for inj in &c.runs {
            let (run, t) = probe.timed(|| c.inject(inj));
            times.push(t);
            m.attempted += 1;
            let code = outcome_code(&run);
            match &run {
                Ok(r) => {
                    insts += r.stats.inst_retired;
                    if first.is_empty() && is_runaway(r) {
                        runaway += 1;
                    }
                }
                Err(_) => m.failed += 1,
            }
            // Every pass reproduces the first pass's outcomes exactly.
            if first.get(codes.len()).is_some_and(|f| *f != code) {
                m.failed += 1;
            }
            codes.push(code);
        }
        m.cells.push(times);
        m.insts_per_pass = insts;
        m.work_per_pass = c.runs.len() as f64;
        if first.is_empty() {
            first = codes;
        }
    });

    let cells = coverage_cells(&c, &first);
    m.attempted += 1;
    if !matches_run_coverage(&c, &cells) {
        m.failed += 1;
        report.push("run_coverage disagrees with the timed runs' coverage cells".to_owned());
    }
    for ((w, rate, abi), v) in c.cells.iter().zip(&cells) {
        m.digest.text(c.workloads[*w].key);
        m.digest.word(*rate);
        m.digest.text(&abi.to_string());
        for x in v {
            m.digest.word(*x);
        }
    }
    let total = |k: usize| cells.iter().map(|c| c[k]).sum::<u64>();
    m.digest_note = format!(
        "{} coverage cells: runs {}, injected {}, trapped {}, silent {}, benign {}, crashed {} ({} runaway)",
        cells.len(),
        total(0),
        total(1),
        total(2),
        total(3),
        total(4),
        total(5),
        runaway
    );
    m.probe_s = probe.samples;
    m
}

/// The traced run: clean references, the layer ladder over every
/// (program, ABI), then every injected run made untraced and traced.
pub fn trace(opts: &Options, spans: &Spans, t: &mut Traced) {
    let mut c = Campaign::new(opts);
    t.attempted += 1;
    if c.clean_references(spans).is_err() {
        t.failed += 1;
        return;
    }
    ladder_all(spans, &c.platform, &program_cells(&KEYS), t);
    spans.span("pass.paired", None, || {
        for (i, inj) in c.runs.iter().enumerate() {
            t.attempted += 1;
            match crate::paired(spans, t, "fault.armed", Some(i), || c.inject(inj)) {
                Ok(r) => {
                    t.fault_runs += 1;
                    t.fault_injections += r.journal.len() as u64;
                    t.fault_insts += r.stats.inst_retired;
                    t.fault_runaway += u64::from(is_runaway(&r));
                }
                Err(_) => t.failed += 1,
            }
        }
    });
}
