//! `suite_memory` and `suite_compute`: fixed programs at `Scale::Small`,
//! each cell run through `Runner::run_with_cache` with the timing model
//! attached and a fresh `TimingCore` (cold modelled caches) per cell.

use crate::ladder::{ladder_all, program_cells};
use crate::paper::slowdowns;
use crate::spans::Spans;
use crate::stats::{Digest, Probe};
use crate::{Measured, Options, Traced};
use cheri_isa::Abi;
use cheri_workloads::{Scale, Workload};
use morello_sim::{Platform, ProgramCache, Runner};
use morello_uarch::UarchStats;

/// Members whose cells load the cache/TLB/page-walk model hardest.
pub const MEMORY_KEYS: [&str; 10] = [
    "parest_510",
    "lbm_519",
    "lbm_619",
    "omnetpp_520",
    "omnetpp_620",
    "xalancbmk_523",
    "xalancbmk_623",
    "sqlite",
    "llama_inference",
    "alloc_stress",
];

/// Members with few cache misses and almost no TLB walks: per-event core
/// bookkeeping and engine dispatch dominate.
pub const COMPUTE_KEYS: [&str; 12] = [
    "x264_525",
    "x264_625",
    "deepsjeng_531",
    "deepsjeng_631",
    "leela_541",
    "leela_641",
    "nab_544",
    "nab_644",
    "xz_557",
    "xz_657",
    "quickjs",
    "llama_matmul",
];

fn platform() -> Platform {
    Platform::morello().with_scale(Scale::Small)
}

fn fill_cache(cells: &[(Workload, Abi)], scale: Scale) -> ProgramCache {
    let cache = ProgramCache::new();
    for (w, abi) in cells {
        cache.get_or_lower(w, *abi, scale);
    }
    cache
}

/// The simulated output the digest covers: retired, cycles, exit code
/// and the per-class retired and cycle counts.
fn fold_stats(d: &mut Digest, w: &Workload, abi: Abi, exit: u64, s: &UarchStats) {
    d.text(w.key);
    d.text(&abi.to_string());
    for v in [
        exit,
        s.inst_retired,
        s.cpu_cycles,
        s.opc_int_alu_retired,
        s.opc_int_alu_cycles,
        s.opc_cap_manip_retired,
        s.opc_cap_manip_cycles,
        s.opc_mem_scalar_retired,
        s.opc_mem_scalar_cycles,
        s.opc_mem_cap_retired,
        s.opc_mem_cap_cycles,
        s.opc_branch_retired,
        s.opc_branch_cycles,
        s.opc_cap_branch_retired,
        s.opc_cap_branch_cycles,
        s.opc_runtime_retired,
        s.opc_runtime_cycles,
        s.opc_meta_retired,
        s.opc_meta_cycles,
    ] {
        d.word(v);
    }
}

/// The untraced run: repeated set-up, an engine-only check leg, then
/// the timed passes.
pub fn measure(opts: &Options, keys: &[&str], report: &mut Vec<String>) -> Measured {
    let platform = platform();
    let cells = program_cells(keys);
    let mut m = Measured::default();
    report.push(format!(
        "{} cells at {:?} scale; suite workloads are fixed programs, so the seed is not used",
        cells.len(),
        platform.scale
    ));

    let mut probe = Probe::default();
    let mut cache = None;
    crate::repeat_setup(&mut m, &mut probe, || {
        cache = Some(fill_cache(&cells, platform.scale));
    });
    let cache = cache.expect("set-up ran at least once");
    let runner = Runner::new(platform);

    // Engine-only leg: the fast engine without the timing model. The
    // timed leg must retire the same instructions and exit the same way.
    let arch: Vec<Option<(u64, u64)>> = cells
        .iter()
        .map(|(w, abi)| {
            let prog = cache.get_or_lower(w, *abi, platform.scale);
            runner
                .run_lowered_arch(&prog)
                .ok()
                .map(|r| (r.retired, r.exit_code))
        })
        .collect();

    let mut first: Vec<Option<UarchStats>> = Vec::new();
    crate::repeat_passes(&mut m, opts.workload.passes(opts.seconds), |m| {
        let mut insts = 0u64;
        let mut times = Vec::with_capacity(cells.len());
        let mut stats = Vec::with_capacity(cells.len());
        for (i, (w, abi)) in cells.iter().enumerate() {
            let (rep, t) = probe.timed(|| runner.run_with_cache(w, *abi, &cache));
            times.push(t);
            m.attempted += 1;
            let s = rep.as_ref().ok().map(|r| r.stats);
            // The timed leg agrees with the engine-only leg, and every
            // pass reproduces the first pass exactly.
            let agrees = rep
                .as_ref()
                .is_ok_and(|r| arch[i] == Some((r.retired, r.exit_code)));
            if !agrees || first.get(i).is_some_and(|f| *f != s) {
                m.failed += 1;
            }
            if let Ok(r) = &rep {
                insts += r.retired;
                if first.is_empty() {
                    fold_stats(&mut m.digest, w, *abi, r.exit_code, &r.stats);
                }
            }
            stats.push(s);
        }
        m.cells.push(times);
        m.insts_per_pass = insts;
        m.work_per_pass = cells.len() as f64;
        if first.is_empty() {
            first = stats;
        }
    });

    let cycles: Vec<(String, Abi, u64)> = cells
        .iter()
        .zip(&first)
        .filter_map(|((w, abi), s)| s.map(|s| (w.key.to_owned(), *abi, s.cpu_cycles)))
        .collect();
    m.slowdowns = slowdowns(&cycles);
    m.digest_note = format!(
        "{} cells, retired {}, cycles {}",
        first.len(),
        first.iter().flatten().map(|s| s.inst_retired).sum::<u64>(),
        first.iter().flatten().map(|s| s.cpu_cycles).sum::<u64>()
    );
    m.probe_s = probe.samples;
    m
}

/// The traced run: the layer ladder over every cell, then one pass of
/// the end-to-end path with every call made untraced and traced.
pub fn trace(keys: &[&str], spans: &Spans, t: &mut Traced) {
    let platform = platform();
    let cells = program_cells(keys);
    ladder_all(spans, &platform, &cells, t);
    let cache = spans.span("core.program_cache", None, || {
        fill_cache(&cells, platform.scale)
    });
    let runner = Runner::new(platform);
    spans.span("pass.paired", None, || {
        for (i, (w, abi)) in cells.iter().enumerate() {
            t.attempted += 1;
            let ok = crate::paired(spans, t, "core.run_with_cache", Some(i), || {
                runner.run_with_cache(w, *abi, &cache).is_ok()
            });
            if !ok {
                t.failed += 1;
            }
        }
    });
}
