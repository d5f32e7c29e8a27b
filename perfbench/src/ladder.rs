//! The layer ladder: one program run through each layer's public entry
//! point in turn, inside one cell span, so every leg of a cell sees the
//! same host state (paired, interleaved measurement).
//!
//! Legs, in order: `Workload::build`, `lower`, `superblock_stats`
//! (decode), the fast engine with `NullSink`, the fast engine with a
//! counting block sink, the fast engine with `TimingCore`,
//! `Runner::run_lowered`, and the reference engine with `TimingCore`.
//! Layer times are differences between neighbouring legs (events =
//! counting sink − engine, timing model = timed − counting sink,
//! report assembly = runner − timed).

use crate::spans::Spans;
use crate::Traced;
use cheri_isa::{lower, superblock_stats, Abi, EventSink, Interp, NullSink, OpClass, RetiredEvent};
use cheri_workloads::Workload;
use morello_sim::suite::select;
use morello_sim::{Platform, Runner};
use morello_uarch::TimingCore;

/// Counts retired events; the cheapest sink that still takes the
/// engine's batched block delivery path.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Retired events delivered.
    pub events: u64,
}

impl EventSink for CountingSink {
    const WANTS_BLOCK_EVENTS: bool = true;

    fn retire(&mut self, _ev: RetiredEvent) {
        self.events += 1;
    }

    fn retire_block_classified(&mut self, evs: &[(RetiredEvent, OpClass)]) {
        self.events += evs.len() as u64;
    }
}

/// Counts summed over the ladder's cells.
#[derive(Clone, Debug, Default)]
pub struct LadderCounts {
    /// Cells laddered.
    pub cells: u64,
    /// Instructions retired (timed leg).
    pub retired: u64,
    /// Static superblocks of the decoded programs.
    pub blocks: u64,
    /// Static interior micro-ops of the decoded programs.
    pub interior_ops: u64,
    /// L1D accesses.
    pub l1d_accesses: u64,
    /// L1D refills.
    pub l1d_refills: u64,
    /// L2 dTLB lookups.
    pub l2d_tlb_lookups: u64,
    /// dTLB page walks.
    pub dtlb_walks: u64,
    /// Mispredicted branches.
    pub br_mispredicts: u64,
    /// `malloc` calls.
    pub allocs: u64,
    /// Revocation epochs.
    pub revoke_epochs: u64,
    /// Granules visited by revocation sweeps.
    pub sweep_granules: u64,
}

/// Runs every leg of the ladder on `(workload, abi)` inside a
/// `bench.cell` span. Returns `false` when a leg failed or two legs
/// disagreed (retired count, exit code, or the reference engine's
/// `UarchStats` against the fast engine's).
fn ladder_cell(
    spans: &Spans,
    platform: &Platform,
    w: &Workload,
    abi: Abi,
    cell: usize,
    counts: &mut LadderCounts,
) -> bool {
    let c = Some(cell);
    spans.span("bench.cell", c, || {
        let generic = spans.span("workloads.build", c, || w.build(abi, platform.scale));
        let prog = spans.span("isa.lower", c, || lower(&generic));
        let sb = spans.span("isa.decode", c, || superblock_stats(&prog));
        let interp = Interp::new(platform.interp);
        let engine = spans.span("isa.engine", c, || interp.run(&prog, &mut NullSink));
        let mut counter = CountingSink::default();
        let events = spans.span("isa.events", c, || interp.run(&prog, &mut counter));
        let timed = spans.span("uarch.timed", c, || {
            let mut core = TimingCore::new(platform.uarch);
            interp.run(&prog, &mut core).map(|r| (r, core.finish()))
        });
        let runner = Runner::new(*platform);
        let report = spans.span("core.runner", c, || runner.run_lowered(w, abi, &prog));
        let reference = spans.span("isa.reference", c, || {
            let mut core = TimingCore::new(platform.uarch);
            interp
                .run_reference(&prog, &mut core)
                .map(|r| (r, core.finish()))
        });
        counts.cells += 1;
        counts.blocks += sb.blocks;
        counts.interior_ops += sb.interior_ops;
        let (Ok(engine), Ok(events), Ok((run, stats)), Ok(report), Ok((ref_run, ref_stats))) =
            (engine, events, timed, report, reference)
        else {
            return false;
        };
        counts.retired += run.retired;
        counts.l1d_accesses += stats.l1d_cache;
        counts.l1d_refills += stats.l1d_cache_refill;
        counts.l2d_tlb_lookups += stats.l2d_tlb;
        counts.dtlb_walks += stats.dtlb_walk;
        counts.br_mispredicts += stats.br_mis_pred_retired;
        counts.allocs += run.heap_stats.total_allocs;
        counts.revoke_epochs += run.heap_stats.revocation_epochs;
        counts.sweep_granules += run.heap_stats.sweep_granules_visited;
        engine.retired == run.retired
            && engine.exit_code == run.exit_code
            && counter.events == run.retired
            && events.exit_code == run.exit_code
            && report.retired == run.retired
            && report.exit_code == run.exit_code
            && ref_run.retired == run.retired
            && ref_run.exit_code == run.exit_code
            && ref_stats == stats
    })
}

/// Every (program, ABI) cell the programs named by `keys` support, in
/// `Abi::ALL` order per program.
pub fn program_cells(keys: &[&str]) -> Vec<(Workload, Abi)> {
    let mut out = Vec::new();
    for w in select(keys) {
        for abi in Abi::ALL.into_iter().filter(|a| w.supports(*a)) {
            out.push((w.clone(), abi));
        }
    }
    out
}

/// Runs the ladder on every cell, counting attempts and failures in `t`.
pub fn ladder_all(spans: &Spans, platform: &Platform, cells: &[(Workload, Abi)], t: &mut Traced) {
    for (i, (w, abi)) in cells.iter().enumerate() {
        t.attempted += 1;
        if !ladder_cell(spans, platform, w, *abi, i, &mut t.ladder) {
            t.failed += 1;
        }
    }
}
