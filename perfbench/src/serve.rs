//! `serve_sweep`: the full fig. 11 load sweep (`run_service_sweep`) and
//! the full fig. 12 resilience sweep (`run_resilience_sweep`), one after
//! the other, per pass.

use crate::ladder::{ladder_all, program_cells};
use crate::paper::slowdowns;
use crate::spans::Spans;
use crate::stats::Probe;
use crate::{Measured, Options, Traced};
use cheri_isa::{lower, Abi};
use cheri_workloads::{Scale, Workload};
use morello_fault::{FaultOutcome, FaultPlan, FaultRunner};
use morello_serve::{
    profile_shapes, resilience_metrics, run_resilience_sweep, run_service_sweep, service_metrics,
    FaultClass, ResilienceReport, ServiceReport, ShapeProfile, SimRng, SweepConfig, PROFILE_FUEL,
    PROFILE_RETRIES, SHAPE_KEYS,
};
use morello_sim::suite::select;
use morello_sim::{Platform, Runner, Watchdog};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Sweep seeds whose fault-variant shape profiling stays near 0.3M
/// cycles. Of the sweep seeds 0..=30, the eight left out (5, 6, 7, 11,
/// 14, 16, 17, 18) make purecap sqlite's tag-clear-injected profile run
/// spin for 60M–143M cycles on the reference engine, stretching
/// `profile_shapes` from ~0.3 s to 9–33 s per call (see README.md,
/// "Seeds").
pub const SWEEP_SEEDS: [u64; 23] = [
    0, 1, 2, 3, 4, 8, 9, 10, 12, 13, 15, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
];

/// The sweep seed a workload seed selects.
pub fn sweep_seed(seed: u64) -> u64 {
    SWEEP_SEEDS[(seed % SWEEP_SEEDS.len() as u64) as usize]
}

fn config(opts: &Options) -> SweepConfig {
    SweepConfig {
        jobs: 1,
        seed: sweep_seed(opts.seed),
        ..SweepConfig::default()
    }
}

/// The platform both sweeps price shapes on.
fn platform() -> Platform {
    Platform::morello().with_scale(Scale::Test)
}

/// The fault seed `run_resilience_sweep` profiles with.
fn fault_seed(cfg: &SweepConfig) -> u64 {
    cfg.seed ^ 0xFA17
}

/// Phase A of both sweeps: every ABI's shapes, clean (fig. 11 at zero
/// background faults) and with the tag-clear variant (fig. 12). Returns
/// the fault-injected profiles (their clean fields are the clean
/// profiles') and the most cycles any faulted variant took.
fn profile_all(spans: &Spans, cfg: &SweepConfig) -> (Vec<(Abi, Vec<ShapeProfile>)>, u64) {
    let shapes = select(&SHAPE_KEYS);
    let mut out = Vec::new();
    let mut fault_max = 0;
    for abi in Abi::ALL {
        spans.span("serve.profile", None, || {
            profile_shapes(platform(), &shapes, abi, 1, None)
        });
        let faulted = spans.span("serve.profile", None, || {
            profile_shapes(platform(), &shapes, abi, 1, Some(fault_seed(cfg)))
        });
        let max = faulted
            .iter()
            .filter_map(|p| p.fault.map(|f| f.cycles))
            .max();
        fault_max = fault_max.max(max.unwrap_or(0));
        out.push((abi, faulted));
    }
    (out, fault_max)
}

/// Instructions the fault-injected profile run of `shape` retires, the
/// run made as `profile_shapes` makes it for `p`. `None` unless the run
/// reproduces the profile's cycles and class: the check that the count
/// belongs to the run the sweep makes.
fn faulted_retired(shape: &Workload, p: &ShapeProfile, cfg: &SweepConfig) -> Option<u64> {
    let fault = p.fault?;
    let index = SHAPE_KEYS.iter().position(|k| *k == shape.key)?;
    let seed = SimRng::new(fault_seed(cfg).wrapping_add(index as u64)).next_u64();
    let plan = FaultPlan::tag_clear_campaign(seed, 1, p.retired);
    let fuelled = Watchdog::budgeted(PROFILE_FUEL)
        .with_retries(PROFILE_RETRIES)
        .cap_platform(&platform(), p.attempts);
    let run = FaultRunner::new(fuelled).run(shape, p.abi, &plan).ok()?;
    let class = match run.outcome {
        FaultOutcome::Trapped => FaultClass::Trapped,
        FaultOutcome::SilentCorruption { .. } => FaultClass::Silent,
        FaultOutcome::Benign => FaultClass::Benign,
        FaultOutcome::Crashed(_) => FaultClass::Crashed,
    };
    (run.stats.cpu_cycles == fault.cycles && class == fault.class).then_some(run.stats.inst_retired)
}

fn requests(svc: &ServiceReport, res: &ResilienceReport) -> (u64, u64) {
    let svc_req: u64 = svc
        .abis
        .iter()
        .flat_map(|a| &a.points)
        .map(|p| p.arrivals)
        .sum();
    let res_req: u64 = res
        .abis
        .iter()
        .flat_map(|a| &a.cells)
        .map(|c| c.arrivals)
        .sum();
    let attempts: u64 = res
        .abis
        .iter()
        .flat_map(|a| &a.cells)
        .map(|c| c.attempts)
        .sum();
    (svc_req + res_req, attempts)
}

type Sweeps = (ServiceReport, ResilienceReport);

/// The deterministic model output of one pass.
fn model_values(s: &Sweeps) -> Vec<u64> {
    service_metrics(&s.0)
        .into_iter()
        .chain(resilience_metrics(&s.1))
        .map(|(_, v)| v.to_bits())
        .collect()
}

/// The untraced run: repeated shape profiling as set-up, an engine-only
/// check of every profiled shape, then the timed sweep passes.
pub fn measure(opts: &Options, report: &mut Vec<String>) -> Measured {
    let cfg = config(opts);
    let mut m = Measured::default();
    report.push(format!(
        "workload seed {} selects sweep seed {} (fault profile seed {:#x}); {} requests per fig. 11 point",
        opts.seed,
        cfg.seed,
        fault_seed(&cfg),
        cfg.requests_per_point()
    ));
    let quiet = Spans::new(false);
    let mut probe = Probe::default();
    let mut profiles = Vec::new();
    let mut fault_max = 0;
    crate::repeat_setup(&mut m, &mut probe, || {
        (profiles, fault_max) = profile_all(&quiet, &cfg);
    });
    report.push(format!("serve.fault_profile_cycles_max {fault_max}"));

    // Engine-only leg: each profiled shape must retire what its timed
    // profile run retired, and its fault-injected run must reproduce.
    let platform = platform();
    let runner = Runner::new(platform);
    let mut cycles = Vec::new();
    // Instructions the resilience sweep's shape profiling retires with
    // the timing model attached: each shape clean, then fault-injected.
    let mut resilience_retired = 0;
    for (w, abi) in program_cells(&SHAPE_KEYS) {
        m.attempted += 1;
        let row = profiles
            .iter()
            .find(|(a, _)| *a == abi)
            .and_then(|(_, rows)| rows.iter().find(|p| p.key == w.key));
        let prog = lower(&w.build(abi, platform.scale));
        let faulted = row.and_then(|p| faulted_retired(&w, p, &cfg));
        match (row, runner.run_lowered_arch(&prog), faulted) {
            (Some(p), Ok(r), Some(f)) if !p.degraded && p.retired == r.retired => {
                cycles.push((w.key.to_owned(), abi, p.service_cycles));
                resilience_retired += p.retired + f;
            }
            _ => m.failed += 1,
        }
    }
    m.slowdowns = slowdowns(&cycles);

    let mut first: Option<Vec<u64>> = None;
    crate::repeat_passes(&mut m, opts.workload.passes(opts.seconds), |m| {
        let (svc, svc_t) =
            probe.timed(|| catch_unwind(AssertUnwindSafe(|| run_service_sweep(&cfg))));
        let (res, res_t) =
            probe.timed(|| catch_unwind(AssertUnwindSafe(|| run_resilience_sweep(&cfg))));
        m.cells.push(vec![svc_t, res_t]);
        m.attempted += 2;
        let (Ok(svc), Ok(res)) = (svc, res) else {
            m.failed += 2;
            return;
        };
        let pair = (svc, res);
        let (req, _) = requests(&pair.0, &pair.1);
        // The fig. 11 sweep reports what its clean shape profiling
        // retired; the fig. 12 report does not, so its count comes from
        // the checked set-up profiles.
        let service_retired: u64 = pair
            .0
            .abis
            .iter()
            .flat_map(|a| &a.profiles)
            .map(|p| p.retired)
            .sum();
        m.insts_per_pass = service_retired + resilience_retired;
        m.work_per_pass = req as f64;
        let values = model_values(&pair);
        match &first {
            None => {
                for v in &values {
                    m.digest.word(*v);
                }
                m.digest_note = format!(
                    "{} service/resilience gate values, {} simulated requests",
                    values.len(),
                    req
                );
                first = Some(values);
            }
            // Every pass reproduces the first pass exactly.
            Some(f) if *f != values => m.failed += 2,
            Some(_) => {}
        }
    });
    m.probe_s = probe.samples;
    m
}

/// The traced run: profiling per ABI, the layer ladder over every shape,
/// then both sweeps made untraced and traced.
pub fn trace(opts: &Options, spans: &Spans, t: &mut Traced) {
    let cfg = config(opts);
    t.serve_fault_cycles_max = profile_all(spans, &cfg).1;
    let platform = platform();
    ladder_all(spans, &platform, &program_cells(&SHAPE_KEYS), t);
    let pair = spans.span("pass.paired", None, || {
        let svc = crate::paired(spans, t, "serve.sweep", None, || {
            catch_unwind(AssertUnwindSafe(|| run_service_sweep(&cfg)))
        });
        let res = crate::paired(spans, t, "serve.resilience", None, || {
            catch_unwind(AssertUnwindSafe(|| run_resilience_sweep(&cfg)))
        });
        svc.ok().zip(res.ok())
    });
    t.attempted += 2;
    match pair {
        Some((svc, res)) => {
            let (req, attempts) = requests(&svc, &res);
            t.serve_requests = req;
            t.serve_attempts = attempts;
        }
        None => t.failed += 2,
    }
}
