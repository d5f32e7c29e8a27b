//! Host-time benchmark of the Morello simulator.
//!
//! Four workloads each load one heavy layer: the timing model on a
//! memory-bound suite (`suite_memory`) and on a compute-bound suite
//! (`suite_compute`), the armed reference engine in the fig. 9 fault
//! campaign (`fault_campaign`), and the serving DES in the fig. 11 and
//! fig. 12 sweeps (`serve_sweep`). The untraced run reports the
//! end-to-end metrics; the traced run wraps every call into a simulator
//! crate in a span and reports per-layer metrics. See README.md.

pub mod fault;
pub mod ladder;
pub mod paper;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod suite;

use ladder::LadderCounts;
use paper::SlowdownRow;
use spans::Spans;
use stats::{median, peak_rss_mib, tail, Digest, Probe, Timed};
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Memory-bound suite members under the timing model.
    SuiteMemory,
    /// Compute-bound suite members under the timing model.
    SuiteCompute,
    /// The fig. 9 fault-injection campaign.
    FaultCampaign,
    /// The fig. 11 and fig. 12 serving sweeps.
    ServeSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SuiteMemory,
        Workload::SuiteCompute,
        Workload::FaultCampaign,
        Workload::ServeSweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteMemory => "suite_memory",
            Workload::SuiteCompute => "suite_compute",
            Workload::FaultCampaign => "fault_campaign",
            Workload::ServeSweep => "serve_sweep",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Host seconds of one timed pass on the reference host (2-vCPU
    /// Intel Xeon at 2.1 GHz), from which `--seconds` sets the pass
    /// count.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::SuiteMemory => 4.0,
            Workload::SuiteCompute => 3.0,
            Workload::FaultCampaign => 2.0,
            Workload::ServeSweep => 3.5,
        }
    }

    /// Timed passes for a run of `seconds`: `seconds` over the nominal
    /// pass, rounded, and at least one. The count depends only on
    /// `seconds`, so a faster simulator takes each cell's fastest pass
    /// over the same number of draws as a slower one.
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_s()).round() as usize).max(1)
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time of the untraced run, in seconds; sets its pass
    /// count (see [`Workload::passes`]).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run.
    pub trace: bool,
}

/// What an untraced run measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Each set-up repetition.
    pub setup: Vec<Timed>,
    /// Host seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Each cell, per pass. Every pass runs the same cells in the same
    /// order.
    pub cells: Vec<Vec<Timed>>,
    /// Host-speed probe readings taken around the timed calls.
    pub probe_s: Vec<f64>,
    /// Simulated instructions one pass retires.
    pub insts_per_pass: u64,
    /// Work units one pass completes (cells, runs or requests).
    pub work_per_pass: f64,
    /// Cells attempted (checks included).
    pub attempted: u64,
    /// Cells that failed or disagreed.
    pub failed: u64,
    /// Simulated slowdowns beside the paper's.
    pub slowdowns: Vec<SlowdownRow>,
    /// Digest of the deterministic model output.
    pub digest: Digest,
    /// What the digest covers.
    pub digest_note: String,
}

/// What a traced run counted (its times live in the spans).
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Ladder counts.
    pub ladder: LadderCounts,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed or disagreed.
    pub failed: u64,
    /// Injected runs.
    pub fault_runs: u64,
    /// Injections fired.
    pub fault_injections: u64,
    /// Injected runs stopped by the fuel watchdog.
    pub fault_runaway: u64,
    /// Instructions retired by injected runs.
    pub fault_insts: u64,
    /// Requests the sweeps simulated.
    pub serve_requests: u64,
    /// Attempts (first tries, retries, hedges) of the resilience sweep.
    pub serve_attempts: u64,
    /// Most cycles any fault-injected shape profile took.
    pub serve_fault_cycles_max: u64,
    /// Host seconds of the untraced halves of paired calls.
    pub untraced_s: f64,
    /// Host seconds of the traced halves, span bookkeeping included.
    pub traced_s: f64,
    /// Paired calls made so far.
    pub pairs: u64,
}

/// Makes one call of the end-to-end path twice, once untraced and once
/// inside a span of `layer`, alternating which goes first, and adds both
/// host times to `t`: their ratio is the tracing overhead. Returns the
/// traced call's result.
pub fn paired<T>(
    spans: &Spans,
    t: &mut Traced,
    layer: &'static str,
    cell: Option<usize>,
    mut f: impl FnMut() -> T,
) -> T {
    fn untraced<T>(f: &mut impl FnMut() -> T) -> f64 {
        let s = Instant::now();
        std::hint::black_box(f());
        s.elapsed().as_secs_f64()
    }
    let traced_first = t.pairs % 2 == 1;
    t.pairs += 1;
    let mut u = 0.0;
    if !traced_first {
        u = untraced(&mut f);
    }
    let s = Instant::now();
    let out = spans.span(layer, cell, &mut f);
    t.traced_s += s.elapsed().as_secs_f64();
    if traced_first {
        u = untraced(&mut f);
    }
    t.untraced_s += u;
    out
}

/// Set-up repetitions: at least this many ...
const SETUP_MIN_REPS: usize = 3;
/// ... and more until this many seconds of set-up have been measured.
const SETUP_MIN_SECONDS: f64 = 0.25;

/// Runs `setup` several times, timing each repetition.
pub fn repeat_setup(m: &mut Measured, probe: &mut Probe, mut setup: impl FnMut()) {
    while m.setup.len() < SETUP_MIN_REPS
        || m.setup.iter().map(|t| t.host_s).sum::<f64>() < SETUP_MIN_SECONDS
    {
        let ((), t) = probe.timed(&mut setup);
        m.setup.push(t);
    }
}

/// Runs `passes` passes of `pass`, recording each pass's host seconds.
pub fn repeat_passes(m: &mut Measured, passes: usize, mut pass: impl FnMut(&mut Measured)) {
    for _ in 0..passes {
        let t = Instant::now();
        pass(m);
        m.pass_s.push(t.elapsed().as_secs_f64());
    }
}

/// An end-to-end or per-layer metric: name and unit.
pub type MetricDef = (&'static str, &'static str);

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [MetricDef; 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "Minst/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
    ("paper_err", "ln"),
];

/// The per-layer metrics, printed by every traced run.
pub const PER_LAYER: [MetricDef; 38] = [
    ("workloads.build_s", "s"),
    ("isa.lower_s", "s"),
    ("isa.decode_s", "s"),
    ("isa.engine_s", "s"),
    ("isa.engine_ns_per_inst", "ns"),
    ("isa.events_s", "s"),
    ("isa.retired", "count"),
    ("isa.blocks", "count"),
    ("isa.interior_ops", "count"),
    ("uarch.timing_s", "s"),
    ("uarch.ns_per_inst", "ns"),
    ("uarch.share", "ratio"),
    ("uarch.l1d_accesses", "count"),
    ("uarch.l1d_refills", "count"),
    ("uarch.l2d_tlb_lookups", "count"),
    ("uarch.dtlb_walks", "count"),
    ("uarch.br_mispredicts", "count"),
    ("isa.reference_s", "s"),
    ("isa.fast_vs_ref", "ratio"),
    ("core.assemble_s", "s"),
    ("fault.clean_s", "s"),
    ("fault.armed_s", "s"),
    ("fault.armed_ns_per_inst", "ns"),
    ("fault.runs", "count"),
    ("fault.injections", "count"),
    ("fault.runaway_runs", "count"),
    ("serve.profile_s", "s"),
    ("serve.fault_profile_cycles_max", "cycles"),
    ("serve.des_s", "s"),
    ("serve.des_ns_per_req", "ns"),
    ("serve.requests", "count"),
    ("serve.attempts", "count"),
    ("mem.allocs", "count"),
    ("revoke.epochs", "count"),
    ("revoke.sweep_granules", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.harness_s", "s"),
    ("bench.traced_wall_s", "s"),
];

/// Span layers whose time is a per-layer metric (directly or through a
/// difference). A workload that never calls one records an empty span
/// for it, so the metric reads the (sub-microsecond) cost of the empty
/// phase rather than a constant.
const TIMED_LAYERS: [&str; 13] = [
    "workloads.build",
    "isa.lower",
    "isa.decode",
    "isa.engine",
    "isa.events",
    "uarch.timed",
    "core.runner",
    "isa.reference",
    "fault.clean",
    "fault.armed",
    "serve.profile",
    "serve.sweep",
    "serve.resilience",
];

/// Span layers that are the benchmark's own bookkeeping. The self time
/// of `pass.paired` also holds the untraced halves of the paired calls,
/// which are work, not bookkeeping.
pub const HARNESS_LAYERS: [&str; 3] = ["bench.run", "bench.cell", "pass.paired"];

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed or disagreed.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The traced run's spans (empty for an untraced run).
    pub spans: Vec<spans::Span>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn with_units(
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    defs.iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (*name, v, *unit)
        })
        .collect()
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Outcome {
    let mut report = vec![format!(
        "perfbench workload {} seed {} seconds {} ({} timed passes of nominally {} s) trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.workload.passes(opts.seconds),
        opts.workload.nominal_pass_s(),
        u8::from(opts.trace)
    )];
    if opts.trace {
        run_traced(opts, report)
    } else {
        let m = match opts.workload {
            Workload::SuiteMemory => suite::measure(opts, &suite::MEMORY_KEYS, &mut report),
            Workload::SuiteCompute => suite::measure(opts, &suite::COMPUTE_KEYS, &mut report),
            Workload::FaultCampaign => fault::measure(opts, &mut report),
            Workload::ServeSweep => serve::measure(opts, &mut report),
        };
        end_to_end(m, report)
    }
}

fn end_to_end(m: Measured, mut report: Vec<String>) -> Outcome {
    // Host contention only ever slows a cell down, so each cell's cost
    // is its fastest pass; passes spread a cell's repeats over the run.
    let run_probe_s = median(&m.probe_s);
    let norm = |t: &Timed| t.normalised(run_probe_s);
    let setup_s: Vec<f64> = m.setup.iter().map(norm).collect();
    let cell_best: Vec<f64> = (0..m.cells.first().map_or(0, Vec::len))
        .map(|c| {
            m.cells
                .iter()
                .map(|p| norm(&p[c]))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let wall_s: f64 = cell_best.iter().sum();
    let cell_ms: Vec<f64> = cell_best.iter().map(|s| s * 1e3).collect();
    let (tail_ms, tail_rank, n) = tail(&cell_ms);
    let ok = if m.attempted == 0 {
        0.0
    } else {
        (m.attempted - m.failed) as f64 / m.attempted as f64
    };
    let values = [
        ("setup_s", median(&setup_s)),
        ("wall_s", wall_s),
        ("sim_mips", m.insts_per_pass as f64 / 1e6 / wall_s),
        ("cell_ms_p50", median(&cell_ms)),
        ("cell_ms_tail", tail_ms),
        ("work_per_s", m.work_per_pass / wall_s),
        ("peak_rss_mb", peak_rss_mib()),
        ("ok_share", ok),
        ("paper_err", paper::paper_err(&m.slowdowns)),
    ];
    report.push(format!(
        "setup: {} repetitions, normalised seconds min {:.6} median {:.6} max {:.6}",
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        median(&setup_s),
        setup_s.iter().copied().fold(0.0, f64::max)
    ));
    report.push(format!(
        "host-speed probe: median {:.4} ms over {} readings (nominal {:.4} ms); times are scaled by nominal / probe",
        run_probe_s * 1e3,
        m.probe_s.len(),
        stats::PROBE_NOMINAL_S * 1e3
    ));
    report.push(format!(
        "timed passes: {} (host seconds): {}",
        m.pass_s.len(),
        fmt_list(&m.pass_s, "s")
    ));
    report.push(format!(
        "cells per pass: {n}, each timed by its fastest of {} passes; cell_ms_tail is rank {tail_rank} of {n}{}",
        m.pass_s.len(),
        if n > 10 {
            format!(" (p{:.1})", 100.0 * tail_rank as f64 / n as f64)
        } else {
            " (ten or fewer samples: the maximum)".to_owned()
        }
    ));
    report.push(format!(
        "model digest {:#018x} ({})",
        m.digest.value(),
        m.digest_note
    ));
    report.push(paper::render(&m.slowdowns).trim_end().to_owned());
    Outcome {
        report,
        attempted: m.attempted,
        failed: m.failed,
        metrics: with_units(&END_TO_END, &values),
        spans: Vec::new(),
    }
}

fn fmt_list(xs: &[f64], unit: &str) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}{unit}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn run_traced(opts: &Options, mut report: Vec<String>) -> Outcome {
    let spans = Spans::new(true);
    let mut t = Traced::default();
    spans.span("bench.run", None, || {
        match opts.workload {
            Workload::SuiteMemory => suite::trace(&suite::MEMORY_KEYS, &spans, &mut t),
            Workload::SuiteCompute => suite::trace(&suite::COMPUTE_KEYS, &spans, &mut t),
            Workload::FaultCampaign => fault::trace(opts, &spans, &mut t),
            Workload::ServeSweep => serve::trace(opts, &spans, &mut t),
        }
        for layer in TIMED_LAYERS {
            if !spans.has(layer) {
                spans.span(layer, None, || ());
            }
        }
    });
    let s = |layer: &str| spans.total_s(layer);
    let l = &t.ladder;
    let per_inst = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    let events_s = s("isa.events") - s("isa.engine");
    let timing_s = s("uarch.timed") - s("isa.events");
    let sweeps_s = s("serve.sweep") + s("serve.resilience");
    let des_s = if t.serve_requests > 0 {
        sweeps_s - s("serve.profile")
    } else {
        sweeps_s
    };
    let all = spans.spans();
    let self_times = spans::self_times(&all);
    let harness_s: f64 = HARNESS_LAYERS
        .iter()
        .map(|h| self_times.get(h).copied().unwrap_or(0.0))
        .sum::<f64>()
        - t.untraced_s;
    let values = [
        ("workloads.build_s", s("workloads.build")),
        ("isa.lower_s", s("isa.lower")),
        ("isa.decode_s", s("isa.decode")),
        ("isa.engine_s", s("isa.engine")),
        (
            "isa.engine_ns_per_inst",
            per_inst(s("isa.engine"), l.retired),
        ),
        ("isa.events_s", events_s),
        ("isa.retired", l.retired as f64),
        ("isa.blocks", l.blocks as f64),
        ("isa.interior_ops", l.interior_ops as f64),
        ("uarch.timing_s", timing_s),
        ("uarch.ns_per_inst", per_inst(timing_s, l.retired)),
        ("uarch.share", timing_s / s("uarch.timed")),
        ("uarch.l1d_accesses", l.l1d_accesses as f64),
        ("uarch.l1d_refills", l.l1d_refills as f64),
        ("uarch.l2d_tlb_lookups", l.l2d_tlb_lookups as f64),
        ("uarch.dtlb_walks", l.dtlb_walks as f64),
        ("uarch.br_mispredicts", l.br_mispredicts as f64),
        ("isa.reference_s", s("isa.reference")),
        ("isa.fast_vs_ref", s("isa.reference") / s("uarch.timed")),
        ("core.assemble_s", s("core.runner") - s("uarch.timed")),
        ("fault.clean_s", s("fault.clean")),
        ("fault.armed_s", s("fault.armed")),
        (
            "fault.armed_ns_per_inst",
            per_inst(s("fault.armed"), t.fault_insts),
        ),
        ("fault.runs", t.fault_runs as f64),
        ("fault.injections", t.fault_injections as f64),
        ("fault.runaway_runs", t.fault_runaway as f64),
        ("serve.profile_s", s("serve.profile")),
        (
            "serve.fault_profile_cycles_max",
            t.serve_fault_cycles_max as f64,
        ),
        ("serve.des_s", des_s),
        ("serve.des_ns_per_req", per_inst(des_s, t.serve_requests)),
        ("serve.requests", t.serve_requests as f64),
        ("serve.attempts", t.serve_attempts as f64),
        ("mem.allocs", l.allocs as f64),
        ("revoke.epochs", l.revoke_epochs as f64),
        ("revoke.sweep_granules", l.sweep_granules as f64),
        ("bench.trace_overhead", t.traced_s / t.untraced_s),
        ("bench.harness_s", harness_s),
        ("bench.traced_wall_s", s("bench.run")),
    ];
    report.push(format!(
        "ladder: {} cells, {} retired; traced wall {:.3}s",
        l.cells,
        l.retired,
        s("bench.run")
    ));
    report.push("self time by span layer:".to_owned());
    for (layer, secs) in &self_times {
        report.push(format!(
            "  {layer:<22} {secs:>10.4}s  {:>5.1}%",
            100.0 * secs / s("bench.run")
        ));
    }
    report.push(format!(
        "uarch.share {:.3} and isa.fast_vs_ref {:.3} are same-cell ratios: they cancel most host drift",
        timing_s / s("uarch.timed"),
        s("isa.reference") / s("uarch.timed")
    ));
    Outcome {
        report,
        attempted: t.attempted,
        failed: t.failed,
        metrics: with_units(&PER_LAYER, &values),
        spans: all,
    }
}
