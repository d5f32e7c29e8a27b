//! The top-down accounting core: consumes retired-instruction events and
//! charges every stall cycle to one bucket.
//!
//! All cycle quantities are unsigned fixed-point: a `u64` count of
//! 2^-[`SHIFT`] cycles. Every per-event cost is rounded to the nearest
//! unit once, when the core is built, so charging is exact integer
//! addition and the running total does not depend on the order in which
//! a set of costs is charged.

use crate::branch::{Btb, Gshare, ReturnStack};
use crate::cache::{Cache, CacheGeometry, Tlb};
use crate::config::UarchConfig;
use crate::stats::UarchStats;
use cheri_isa::{BranchKind, EventSink, InstClass, OpClass, RetiredEvent, RetiredInfo};
use std::collections::VecDeque;

/// Fractional bits of a fixed-point cycle count.
const SHIFT: u32 = 20;
/// One cycle in fixed-point units.
const ONE: u64 = 1 << SHIFT;

/// Converts a cycle cost to fixed-point, rounding to the nearest unit.
fn fx(cycles: f64) -> u64 {
    (cycles * ONE as f64).round() as u64
}

/// Rounds a fixed-point cycle count to the nearest whole cycle.
fn round_cycles(units: u64) -> u64 {
    (units + ONE / 2) >> SHIFT
}

/// Which level of the hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Served {
    L1,
    L2,
    Llc,
    Dram,
}

/// Fixed-point cycle accumulators, one per top-down bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Buckets {
    retire: u64,
    frontend: u64,
    pcc: u64,
    mem_l1: u64,
    mem_l2: u64,
    mem_ext: u64,
    core: u64,
    sb_stall: u64,
    badspec: u64,
}

/// Every per-event cost of a configuration, in fixed-point units.
struct Costs {
    /// One issue slot: `1 / issue_width` cycles.
    issue: u64,
    dp: u64,
    vfp: u64,
    cap_manip: u64,
    /// Long-latency ops expose 0.3× their extra latency; indexed by it.
    long_latency: [u64; 256],
    /// Instruction refill penalties: fetch-ahead hides 30% of the level
    /// latency.
    ifetch_l2: u64,
    ifetch_llc: u64,
    ifetch_dram: u64,
    l2_tlb: u64,
    walk: u64,
    /// Pointer-chase serialisation, charged on top of a dependent load.
    chase: u64,
    /// Exposed load latency beyond L1: a dependent access pays the level
    /// latency plus the chase penalty, a streaming one its share of the
    /// memory-level-parallelism window.
    l2_dep: u64,
    l2_stream: u64,
    llc_dep: u64,
    llc_stream: u64,
    /// DRAM latency beyond L1, before queueing; the streaming share is
    /// divided per event because it includes the queue delay.
    dram: u64,
    dram_line: u64,
    tag_miss: u64,
    /// Store-buffer occupancy by serving level.
    store_l1: u64,
    store_l2: u64,
    store_llc: u64,
    store_dram: u64,
    /// The tag-table write extends a capability store's occupancy.
    store_cap: u64,
    mispredict: u64,
    pcc_stall: u64,
}

impl Costs {
    fn new(cfg: &UarchConfig) -> Costs {
        let mlp = cfg.mlp_streaming as f64;
        let l2 = (cfg.lat_l2 - cfg.lat_l1) as f64;
        let llc = (cfg.lat_llc - cfg.lat_l1) as f64;
        Costs {
            issue: fx(1.0 / cfg.issue_width as f64),
            dp: fx(cfg.dp_core_cost),
            vfp: fx(cfg.vfp_core_cost),
            cap_manip: fx(cfg.cap_manip_core_cost),
            long_latency: std::array::from_fn(|extra| fx(extra as f64 * 0.3)),
            ifetch_l2: fx(cfg.lat_l2 as f64 * 0.7),
            ifetch_llc: fx(cfg.lat_llc as f64 * 0.7),
            ifetch_dram: fx(cfg.lat_dram as f64 * 0.7),
            l2_tlb: fx(cfg.lat_l2_tlb as f64),
            walk: fx(cfg.tlb_walk_cycles as f64),
            chase: fx(cfg.chase_l1_penalty),
            l2_dep: fx(l2 + cfg.chase_l1_penalty),
            l2_stream: fx(l2 / mlp),
            llc_dep: fx(llc + cfg.chase_l1_penalty),
            llc_stream: fx(llc / mlp),
            dram: fx((cfg.lat_dram - cfg.lat_l1) as f64),
            dram_line: fx(cfg.dram_line_cycles as f64),
            tag_miss: fx(cfg.tag_miss_penalty as f64 / mlp),
            store_l1: fx(1.0),
            store_l2: fx(3.0),
            store_llc: fx(8.0),
            store_dram: fx(20.0),
            store_cap: fx(1.5),
            mispredict: fx(cfg.mispredict_penalty as f64),
            pcc_stall: fx(cfg.pcc_change_stall as f64),
        }
    }
}

/// The timing model. Implements [`EventSink`]: feed it the interpreter's
/// event stream, then call [`TimingCore::finish`].
///
/// ```
/// use cheri_isa::{Abi, Interp, InterpConfig, ProgramBuilder};
/// use morello_uarch::{TimingCore, UarchConfig};
///
/// let mut b = ProgramBuilder::new("demo", Abi::Hybrid);
/// let main = b.function("main", 0, |f| {
///     let n = f.vreg();
///     f.mov_imm(n, 1000);
///     f.for_loop(0, n, 1, |_, _| {});
///     f.halt();
/// });
/// b.set_entry(main);
/// let prog = b.lower();
/// let mut core = TimingCore::new(UarchConfig::neoverse_n1_morello());
/// Interp::new(InterpConfig::default()).run(&prog, &mut core).unwrap();
/// let stats = core.finish();
/// assert!(stats.cpu_cycles > 0);
/// assert!(stats.ipc() <= 4.0);
/// ```
pub struct TimingCore {
    cfg: UarchConfig,
    costs: Costs,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    l2tlb: Tlb,
    gshare: Gshare,
    btb: Btb,
    ras: ReturnStack,
    tag_cache: Cache,
    store_buffer: VecDeque<u64>,
    last_store_completion: u64,
    // The sum of all buckets, kept as one running total: the core's clock.
    total: u64,
    buckets: Buckets,
    dram_next_free: u64,
    last_fetch_line: u64,
    last_fetch_page: u64,
    prev_was_mul: bool,
    s: UarchStats,
}

/// Adds `amount` fixed-point units to one bucket and the running total.
macro_rules! charge {
    ($self:ident, $amount:expr, $field:ident) => {{
        let amount = $amount;
        $self.buckets.$field += amount;
        $self.total += amount;
    }};
}

impl TimingCore {
    /// Creates a core in its post-reset state.
    pub fn new(cfg: UarchConfig) -> TimingCore {
        TimingCore {
            costs: Costs::new(&cfg),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            llc: Cache::new(cfg.llc),
            itlb: Tlb::new(cfg.l1i_tlb_entries),
            dtlb: Tlb::new(cfg.l1d_tlb_entries),
            l2tlb: Tlb::new(cfg.l2_tlb_entries),
            gshare: Gshare::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_entries),
            ras: ReturnStack::new(cfg.ras_entries),
            // One tag byte covers 128 data bytes; model the tag cache as a
            // set-associative cache over tag-granule addresses.
            tag_cache: Cache::new(CacheGeometry::new(cfg.tag_cache_bytes.max(1024), 4, 64)),
            store_buffer: VecDeque::with_capacity(cfg.store_buffer_entries as usize + 2),
            last_store_completion: 0,
            total: 0,
            buckets: Buckets::default(),
            dram_next_free: 0,
            last_fetch_line: u64::MAX,
            last_fetch_page: u64::MAX,
            prev_was_mul: false,
            cfg,
            s: UarchStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &UarchConfig {
        &self.cfg
    }

    /// Finalises cycle accounting and returns the full counter set.
    pub fn finish(self) -> UarchStats {
        self.snapshot()
    }

    /// The full counter set as of now, without consuming the core —
    /// the cheap hook behind windowed (`pmcstat -w`-style) collection
    /// and region profiling. Calling this mid-run and feeding more
    /// events afterwards is fine: counters are cumulative, so
    /// successive snapshots yield exact interval deltas.
    pub fn snapshot(&self) -> UarchStats {
        let b = self.buckets;
        let mut s = self.s;
        s.cpu_cycles = self.cycles();
        s.stall_frontend = round_cycles(b.frontend + b.pcc);
        s.stall_backend = round_cycles(b.mem_l1 + b.mem_l2 + b.mem_ext + b.core + b.sb_stall);
        s.bound_mem_l1 = round_cycles(b.mem_l1);
        s.bound_mem_l2 = round_cycles(b.mem_l2);
        s.bound_mem_ext = round_cycles(b.mem_ext);
        s.bound_core = round_cycles(b.core + b.sb_stall);
        s.badspec_cycles = round_cycles(b.badspec);
        s.pcc_stall_cycles = round_cycles(b.pcc);
        s.store_buffer_stalls = round_cycles(b.sb_stall);
        s.l1i_cache = self.l1i.stats().accesses;
        s.l1i_cache_refill = self.l1i.stats().refills;
        s.l1d_cache = self.l1d.stats().accesses;
        s.l1d_cache_refill = self.l1d.stats().refills;
        s.l2d_cache = self.l2.stats().accesses;
        s.l2d_cache_refill = self.l2.stats().refills;
        s.l1i_tlb = self.itlb.stats().accesses;
        s.l1i_tlb_refill = self.itlb.stats().refills;
        s.l1d_tlb = self.dtlb.stats().accesses;
        s.l1d_tlb_refill = self.dtlb.stats().refills;
        s.l2d_tlb = self.l2tlb.stats().accesses;
        s.l2d_tlb_refill = self.l2tlb.stats().refills;
        s
    }

    /// Total cycles accounted so far, rounded up to a whole cycle (cheap;
    /// no counter materialisation).
    pub fn cycles(&self) -> u64 {
        (self.total + ONE - 1) >> SHIFT
    }

    // ---- Instruction fetch -------------------------------------------------

    fn fetch(&mut self, pc: u64) {
        let line = pc & !(self.cfg.l1i.line - 1);
        if line == self.last_fetch_line {
            return;
        }
        self.last_fetch_line = line;
        if !self.l1i.access(line, false) {
            // Instruction refill through the unified L2 (and below).
            let pen = match self.lower_levels(line, false) {
                Served::L2 => self.costs.ifetch_l2,
                Served::Llc => self.costs.ifetch_llc,
                _ => self.costs.ifetch_dram,
            };
            charge!(self, pen, frontend);
        }
        let page = pc >> 12;
        if page != self.last_fetch_page {
            self.last_fetch_page = page;
            if !self.itlb.access(pc) {
                if self.l2tlb.access(pc) {
                    charge!(self, self.costs.l2_tlb, frontend);
                } else {
                    self.s.itlb_walk += 1;
                    charge!(self, self.costs.walk, frontend);
                }
            }
        }
    }

    /// Walks L2 → LLC → DRAM after an L1 miss, updating all counters, and
    /// reports which level served the line. Only reads count towards the
    /// LLC read counters (the paper only uses the read-side LLC events).
    fn lower_levels(&mut self, addr: u64, write: bool) -> Served {
        if self.l2.access(addr, write) {
            return Served::L2;
        }
        if !write {
            self.s.ll_cache_rd += 1;
        }
        if self.llc.access(addr, write) {
            return Served::Llc;
        }
        if !write {
            self.s.ll_cache_miss_rd += 1;
        }
        Served::Dram
    }

    // ---- Data side -----------------------------------------------------------

    fn dtlb_lookup(&mut self, addr: u64) {
        if !self.dtlb.access(addr) {
            if self.l2tlb.access(addr) {
                charge!(self, self.costs.l2_tlb, mem_l1);
            } else {
                self.s.dtlb_walk += 1;
                charge!(self, self.costs.walk, mem_ext);
            }
        }
    }

    fn data_access(&mut self, addr: u64, write: bool, dep: bool) -> Served {
        self.dtlb_lookup(addr);
        let (hit, victim) = self.l1d.access_wb(addr, write);
        if let Some(wb) = victim {
            // The evicted dirty line is written back into the L2 (and
            // cascades further on an L2 dirty eviction). Write-backs are
            // off the load/store critical path, so they count as traffic
            // but cost no core cycles.
            let (_, l2_victim) = self.l2.access_wb(wb, true);
            if let Some(wb2) = l2_victim {
                self.llc.access(wb2, true);
            }
        }
        if hit {
            return Served::L1;
        }
        let served = self.lower_levels(addr, write);
        if self.cfg.prefetch_next_line && !dep {
            let next = addr.wrapping_add(self.cfg.l1d.line);
            self.l1d.prefetch(next);
            self.l2.prefetch(next);
        }
        served
    }

    /// Capability traffic that reaches DRAM must also fetch/update its tag
    /// line from the in-DRAM tag table (extension model; the baseline
    /// folds this into the DRAM latency constant).
    fn tag_table_access(&mut self, addr: u64) {
        if !self.cfg.tag_table_model {
            return;
        }
        self.s.tag_cache_access += 1;
        // One tag byte covers 8 granules (128 data bytes).
        let tag_addr = addr >> 7;
        if !self.tag_cache.access(tag_addr, false) {
            self.s.tag_cache_miss += 1;
            charge!(self, self.costs.tag_miss, mem_ext);
        }
    }

    fn dram_queue_delay(&mut self) -> u64 {
        let start = self.total.max(self.dram_next_free);
        self.dram_next_free = start + self.costs.dram_line;
        start - self.total
    }

    fn on_load(&mut self, addr: u64, is_cap: bool, dep: bool) {
        self.s.ld_spec += 1;
        self.s.mem_access_rd += 1;
        if is_cap {
            self.s.cap_mem_access_rd += 1;
            self.s.mem_access_rd_ctag += 1;
        }
        let served = self.data_access(addr, false, dep);
        if is_cap && served == Served::Dram {
            self.tag_table_access(addr);
        }
        // Exposed latency: a dependent (pointer-chasing) access pays the
        // full level latency plus the chase penalty; a streaming access
        // amortises it across the memory-level parallelism window. The
        // common case — a non-dependent L1 hit — charges nothing.
        let c = &self.costs;
        match served {
            Served::L1 => {
                if dep {
                    charge!(self, c.chase, mem_l1);
                }
            }
            Served::L2 => charge!(self, if dep { c.l2_dep } else { c.l2_stream }, mem_l2),
            Served::Llc => charge!(self, if dep { c.llc_dep } else { c.llc_stream }, mem_ext),
            Served::Dram => {
                let base = self.costs.dram + self.dram_queue_delay();
                let exposed = if dep {
                    base + self.costs.chase
                } else {
                    // Truncating division: the quotient is still exact
                    // integer arithmetic, independent of charge order.
                    base / u64::from(self.cfg.mlp_streaming)
                };
                charge!(self, exposed, mem_ext);
            }
        }
    }

    fn on_store(&mut self, addr: u64, is_cap: bool) {
        self.s.st_spec += 1;
        self.s.mem_access_wr += 1;
        if is_cap {
            self.s.cap_mem_access_wr += 1;
            self.s.mem_access_wr_ctag += 1;
        }
        let served = self.data_access(addr, true, false);
        if is_cap && served == Served::Dram {
            self.tag_table_access(addr);
        }
        let mut service = match served {
            Served::L1 => self.costs.store_l1,
            Served::L2 => self.costs.store_l2,
            Served::Llc => self.costs.store_llc,
            Served::Dram => self.costs.store_dram,
        };
        if is_cap {
            service += self.costs.store_cap;
        }
        let entries = if is_cap && !self.cfg.wide_cap_store_buffer {
            2
        } else {
            1
        };
        // Drain completed entries.
        while let Some(&front) = self.store_buffer.front() {
            if front <= self.total {
                self.store_buffer.pop_front();
            } else {
                break;
            }
        }
        // Stall until there is room.
        let cap = self.cfg.store_buffer_entries as usize;
        while self.store_buffer.len() + entries > cap {
            let t = self
                .store_buffer
                .pop_front()
                .expect("store buffer cannot be empty while over capacity");
            if t > self.total {
                let stall = t - self.total;
                charge!(self, stall, sb_stall);
            }
        }
        let completion = self.total.max(self.last_store_completion) + service;
        self.last_store_completion = completion;
        for _ in 0..entries {
            self.store_buffer.push_back(completion);
        }
    }

    // ---- Branches --------------------------------------------------------------

    fn on_branch(&mut self, pc: u64, kind: BranchKind, taken: bool, target: u64, pcc: bool) {
        self.s.br_retired += 1;
        let mispredicted = match kind {
            BranchKind::Immediate => {
                let pred = self.gshare.predict(pc);
                self.gshare.update(pc, taken);
                pred != taken
            }
            BranchKind::Call => {
                self.ras.push(pc + 4);
                false
            }
            BranchKind::IndirectCall | BranchKind::Indirect => {
                let pred = self.btb.predict(pc);
                self.btb.update(pc, target);
                if matches!(kind, BranchKind::IndirectCall) {
                    self.ras.push(pc + 4);
                }
                pred != Some(target)
            }
            BranchKind::Return => self.ras.pop() != Some(target),
        };
        if mispredicted {
            self.s.br_mis_pred_retired += 1;
            charge!(self, self.costs.mispredict, badspec);
        }
        if pcc {
            self.s.pcc_change_branches += 1;
            if !self.cfg.pcc_aware_branch_predictor {
                charge!(self, self.costs.pcc_stall, pcc);
            }
        }
        if taken {
            // Redirect: the next fetch group starts at the target line.
            self.last_fetch_line = u64::MAX;
            self.btb.note_path(target);
        }
    }

    fn count_class(&mut self, class: InstClass) {
        match class {
            InstClass::Dp => self.s.dp_spec += 1,
            InstClass::Vfp => self.s.vfp_spec += 1,
            InstClass::Ase => self.s.ase_spec += 1,
            InstClass::Ld => {} // counted in on_load
            InstClass::St => {}
            InstClass::BrImmed => self.s.br_immed_spec += 1,
            InstClass::BrIndirect => self.s.br_indirect_spec += 1,
            InstClass::BrReturn => self.s.br_return_spec += 1,
        }
    }
}

impl TimingCore {
    /// The shared retire body behind both [`EventSink`] entry points.
    ///
    /// Per-opcode-class attribution: everything this instruction
    /// charges (fetch, issue, execute, memory, resteers) lands in the
    /// cycles() delta across the call, so per-class cycles telescope
    /// exactly to CPU_CYCLES and retired counts to INST_RETIRED.
    fn retire_with_class(&mut self, ev: RetiredEvent, opclass: OpClass) {
        debug_assert_eq!(opclass, OpClass::of(ev.pc, &ev.info));
        let cycles_before = self.cycles();
        self.s.inst_retired += 1;
        self.s.inst_spec += 1;
        self.fetch(ev.pc);
        // Every instruction consumes one issue slot.
        charge!(self, self.costs.issue, retire);

        let mut is_mul = false;
        match ev.info {
            RetiredInfo::Simple(class) => {
                self.count_class(class);
                let cost = match class {
                    InstClass::Dp => self.costs.dp,
                    InstClass::Vfp | InstClass::Ase => self.costs.vfp,
                    _ => 0,
                };
                charge!(self, cost, core);
            }
            RetiredInfo::LongLatency { class, extra } => {
                self.count_class(class);
                is_mul = class == InstClass::Dp && extra == 1;
                // Long-latency ops expose a fraction of their latency as
                // execution-resource pressure (out-of-order execution
                // overlaps independent long ops).
                charge!(self, self.costs.long_latency[usize::from(extra)], core);
            }
            RetiredInfo::CapManip => {
                self.count_class(InstClass::Dp);
                self.s.cap_manip_spec += 1;
                let fused = self.cfg.cap_madd_fusion && self.prev_was_mul;
                if !fused {
                    charge!(self, self.costs.cap_manip, core);
                }
            }
            RetiredInfo::Load {
                addr,
                is_cap,
                dep_load,
                ..
            } => self.on_load(addr, is_cap, dep_load),
            RetiredInfo::Store { addr, is_cap, .. } => self.on_store(addr, is_cap),
            RetiredInfo::Branch {
                kind,
                taken,
                target,
                pcc_change,
            } => {
                self.count_class(ev.info.class());
                self.on_branch(ev.pc, kind, taken, target, pcc_change);
            }
        }
        self.prev_was_mul = is_mul;
        let cycles_after = self.cycles();
        self.s.opc_attribute(opclass, cycles_after - cycles_before);
    }
}

impl EventSink for TimingCore {
    /// The timing core opts into superblock-batched delivery: the fast
    /// engine buffers a block's interior events and hands them over in
    /// one call, amortising the sink hop over the block.
    const WANTS_BLOCK_EVENTS: bool = true;

    fn retire(&mut self, ev: RetiredEvent) {
        let opclass = OpClass::of(ev.pc, &ev.info);
        self.retire_with_class(ev, opclass);
    }

    #[inline]
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        self.retire_with_class(ev, class);
    }

    /// Batched delivery walks the block's events through the *same*
    /// per-event retire path in the same order — `UarchStats` is
    /// bit-identical whichever delivery mode the engine picks (locked
    /// by the `differential_timing` harness).
    fn retire_block_classified(&mut self, evs: &[(RetiredEvent, OpClass)]) {
        for &(ev, class) in evs {
            self.retire_with_class(ev, class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::{Abi, Interp, InterpConfig, MemSize, ProgramBuilder};

    fn run(abi: Abi, cfg: UarchConfig, build: impl Fn(&mut ProgramBuilder)) -> UarchStats {
        let mut b = ProgramBuilder::new("t", abi);
        build(&mut b);
        let prog = b.lower();
        let mut core = TimingCore::new(cfg);
        Interp::new(InterpConfig::default())
            .run(&prog, &mut core)
            .unwrap();
        core.finish()
    }

    fn streaming_sum_passes(size_kb: u64, passes: u64) -> impl Fn(&mut ProgramBuilder) {
        move |b: &mut ProgramBuilder| {
            let bytes = size_kb * 1024;
            let g = b.global_zero("arr", bytes);
            let main = b.function("main", 0, |f| {
                let p = f.vreg();
                f.lea_global(p, g, 0);
                let reps = f.vreg();
                f.mov_imm(reps, passes);
                let n = f.vreg();
                f.mov_imm(n, bytes / 8);
                let sum = f.vreg();
                f.mov_imm(sum, 0);
                f.for_loop(0, reps, 1, |f, _| {
                    f.for_loop(0, n, 1, |f, i| {
                        let off = f.vreg();
                        f.lsl(off, i, 3);
                        let v = f.vreg();
                        f.load_int(v, p, off, MemSize::S8);
                        f.add(sum, sum, v);
                    });
                });
                f.halt_code(sum);
            });
            b.set_entry(main);
        }
    }

    fn streaming_sum(size_kb: u64) -> impl Fn(&mut ProgramBuilder) {
        streaming_sum_passes(size_kb, 8)
    }

    #[test]
    fn zero_capacity_ras_and_tlbs_run() {
        // A program with calls and returns, so the RAS is pushed and
        // popped, and loads, so both first-level TLBs are looked up.
        let with_calls = |b: &mut ProgramBuilder| {
            let g = b.global_zero("arr", 4096);
            let leaf = b.function("leaf", 1, |f| {
                let r = f.vreg();
                f.add(r, f.arg(0), 1i64);
                f.ret(Some(r));
            });
            let main = b.function("main", 0, |f| {
                let p = f.vreg();
                f.lea_global(p, g, 0);
                let n = f.vreg();
                f.mov_imm(n, 64);
                let sum = f.vreg();
                f.mov_imm(sum, 0);
                f.for_loop(0, n, 1, |f, i| {
                    let off = f.vreg();
                    f.lsl(off, i, 6);
                    let v = f.vreg();
                    f.load_int(v, p, off, MemSize::S8);
                    f.add(sum, sum, v);
                    f.call(leaf, &[sum], Some(sum));
                });
                f.halt_code(sum);
            });
            b.set_entry(main);
        };
        let base = run(Abi::Hybrid, UarchConfig::neoverse_n1_morello(), with_calls);
        for (ras, itlb, dtlb) in [(0, 48, 48), (16, 0, 48), (16, 48, 0), (0, 0, 0)] {
            let cfg = UarchConfig {
                ras_entries: ras,
                l1i_tlb_entries: itlb,
                l1d_tlb_entries: dtlb,
                ..UarchConfig::neoverse_n1_morello()
            };
            let s = run(Abi::Hybrid, cfg, with_calls);
            assert_eq!(s.inst_retired, base.inst_retired);
            if ras == 0 {
                assert!(s.br_mis_pred_retired > base.br_mis_pred_retired);
            }
            if itlb == 0 {
                assert_eq!(s.l1i_tlb_refill, s.l1i_tlb, "every fetch misses");
            }
            if dtlb == 0 {
                assert_eq!(s.l1d_tlb_refill, s.l1d_tlb, "every access misses");
            }
        }
    }

    #[test]
    fn ipc_bounded_by_width() {
        let s = run(
            Abi::Hybrid,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(16),
        );
        assert!(s.ipc() > 0.2 && s.ipc() <= 4.0, "ipc = {}", s.ipc());
        assert_eq!(s.inst_retired, s.inst_spec);
    }

    #[test]
    fn small_working_set_hits_l1() {
        let s = run(
            Abi::Hybrid,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(16),
        );
        let mr = s.l1d_cache_refill as f64 / s.l1d_cache as f64;
        // 16 KiB fits L1D; only cold misses (with prefetch, fewer).
        assert!(mr < 0.02, "L1D miss rate {mr} too high for a 16 KiB set");
    }

    #[test]
    fn large_working_set_spills() {
        let s = run(
            Abi::Hybrid,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(8192), // 8 MiB >> LLC
        );
        assert!(s.l2d_cache_refill > 0);
        assert!(s.ll_cache_miss_rd > 0);
        // Streaming misses every 8th element (64B line / 8B loads), halved
        // by the next-line prefetcher.
        let mr = s.l1d_cache_refill as f64 / s.l1d_cache as f64;
        assert!(mr < 0.14, "prefetcher should cut streaming misses: {mr}");
    }

    #[test]
    fn bigger_footprint_is_slower() {
        let cfg = UarchConfig::neoverse_n1_morello();
        let small = run(Abi::Hybrid, cfg, streaming_sum_passes(32, 32));
        let large = run(Abi::Hybrid, cfg, streaming_sum_passes(4096, 2));
        let cpi_small = small.cpu_cycles as f64 / small.inst_retired as f64;
        let cpi_large = large.cpu_cycles as f64 / large.inst_retired as f64;
        assert!(
            cpi_large > cpi_small,
            "4 MiB sweep must be slower per instruction ({cpi_large} vs {cpi_small})"
        );
    }

    #[test]
    fn topdown_buckets_sum_to_cycles() {
        let s = run(
            Abi::Purecap,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(256),
        );
        let sum = s.stall_frontend + s.stall_backend + s.badspec_cycles;
        assert!(
            sum < s.cpu_cycles,
            "stalls {sum} must leave room for retirement in {}",
            s.cpu_cycles
        );
        let backend = s.bound_mem_l1 + s.bound_mem_l2 + s.bound_mem_ext + s.bound_core;
        assert!((backend as i64 - s.stall_backend as i64).abs() <= 2);
    }

    #[test]
    fn pcc_stalls_gate_on_config_and_abi() {
        let chatty_calls = |b: &mut ProgramBuilder| {
            let lib = b.module("lib");
            let f1 = b.function_in(lib, "ext", 0, |f| {
                let r = f.vreg();
                f.mov_imm(r, 1);
                f.ret(Some(r));
            });
            let main = b.function("main", 0, |f| {
                let n = f.vreg();
                f.mov_imm(n, 500);
                f.for_loop(0, n, 1, |f, _| {
                    let r = f.vreg();
                    f.call(f1, &[], Some(r));
                });
                f.halt();
            });
            b.set_entry(main);
        };
        let morello = UarchConfig::neoverse_n1_morello();
        let aware = morello.with_pcc_aware_bp(true);

        let purecap = run(Abi::Purecap, morello, chatty_calls);
        assert!(purecap.pcc_change_branches >= 1000);
        assert!(purecap.pcc_stall_cycles > 0);

        let purecap_aware = run(Abi::Purecap, aware, chatty_calls);
        assert_eq!(purecap_aware.pcc_stall_cycles, 0);
        assert!(purecap_aware.cpu_cycles < purecap.cpu_cycles);

        let benchmark = run(Abi::Benchmark, morello, chatty_calls);
        assert_eq!(benchmark.pcc_change_branches, 0);
        assert_eq!(benchmark.pcc_stall_cycles, 0);

        let hybrid = run(Abi::Hybrid, morello, chatty_calls);
        assert_eq!(hybrid.pcc_change_branches, 0);
    }

    #[test]
    fn store_buffer_pressure_hits_capability_stores() {
        let store_storm = |b: &mut ProgramBuilder| {
            let g = b.global_zero("buf", 1 << 20);
            let main = b.function("main", 0, |f| {
                let p = f.vreg();
                f.lea_global(p, g, 0);
                let n = f.vreg();
                f.mov_imm(n, 20_000);
                f.for_loop(0, n, 1, |f, i| {
                    let off = f.vreg();
                    f.lsl(off, i, 4);
                    let mask = f.vreg();
                    f.mov_imm(mask, (1 << 20) - 1);
                    f.and(off, off, mask);
                    let q = f.vreg();
                    f.ptr_add(q, p, off);
                    f.store_ptr(p, q, 0);
                });
                f.halt();
            });
            b.set_entry(main);
        };
        let morello = UarchConfig::neoverse_n1_morello();
        let narrow = run(Abi::Purecap, morello, store_storm);
        let wide = run(
            Abi::Purecap,
            morello.with_wide_cap_store_buffer(true),
            store_storm,
        );
        assert!(
            narrow.store_buffer_stalls > wide.store_buffer_stalls,
            "wide store buffer must relieve capability-store pressure ({} vs {})",
            narrow.store_buffer_stalls,
            wide.store_buffer_stalls
        );
    }

    #[test]
    fn mispredict_counting_and_badspec() {
        // A data-dependent unpredictable branch pattern.
        let noisy = |b: &mut ProgramBuilder| {
            let main = b.function("main", 0, |f| {
                let n = f.vreg();
                f.mov_imm(n, 4000);
                let x = f.vreg();
                f.mov_imm(x, 12345);
                let acc = f.vreg();
                f.mov_imm(acc, 0);
                f.for_loop(0, n, 1, |f, _| {
                    // xorshift PRNG
                    let t = f.vreg();
                    f.lsr(t, x, 7);
                    f.eor(x, x, t);
                    f.lsl(t, x, 9);
                    f.eor(x, x, t);
                    let bit = f.vreg();
                    f.and(bit, x, 1);
                    let skip = f.label();
                    f.br(cheri_isa::Cond::Eq, bit, 0, skip);
                    f.add(acc, acc, 1);
                    f.bind(skip);
                });
                f.halt_code(acc);
            });
            b.set_entry(main);
        };
        let s = run(Abi::Hybrid, UarchConfig::neoverse_n1_morello(), noisy);
        let mr = s.br_mis_pred_retired as f64 / s.br_retired as f64;
        assert!(
            mr > 0.05 && mr < 0.5,
            "PRNG branch should mispredict substantially: {mr}"
        );
        assert!(s.badspec_cycles > 0);
    }

    #[test]
    fn tag_table_model_charges_capability_dram_traffic() {
        // A purecap pointer-array sweep larger than the LLC: with the tag
        // table modelled, capability misses also miss the (small) tag
        // cache and pay extra external-memory cycles.
        let cap_sweep = |b: &mut ProgramBuilder| {
            let n: u64 = 256 * 1024; // ptr slots; 4 MiB of capabilities
            let main = b.function("main", 0, |f| {
                let arr = f.vreg();
                f.malloc(arr, n * 16);
                let lim = f.vreg();
                f.mov_imm(lim, n);
                f.for_loop(0, lim, 1, |f, i| {
                    store_ptr_like(f, arr, i);
                });
                f.halt();
            });
            b.set_entry(main);
        };
        fn store_ptr_like(
            f: &mut cheri_isa::FunctionBuilder,
            arr: cheri_isa::VReg,
            i: cheri_isa::VReg,
        ) {
            f.store_ptr_idx(arr, arr, i);
        }
        let base = UarchConfig::neoverse_n1_morello();
        let off = run(Abi::Purecap, base, cap_sweep);
        assert_eq!(off.tag_cache_access, 0, "model disabled by default");
        let on = run(Abi::Purecap, base.with_tag_table_model(true), cap_sweep);
        assert!(on.tag_cache_access > 10_000, "{}", on.tag_cache_access);
        assert!(on.tag_cache_miss > 0);
        assert!(on.tag_cache_miss <= on.tag_cache_access);
        assert!(
            on.cpu_cycles > off.cpu_cycles,
            "tag-table traffic must cost cycles ({} vs {})",
            on.cpu_cycles,
            off.cpu_cycles
        );
        // Hybrid traffic is untouched by the knob.
        let h = run(Abi::Hybrid, base.with_tag_table_model(true), cap_sweep);
        assert_eq!(h.tag_cache_access, 0);
    }

    #[test]
    fn dtlb_walks_appear_with_huge_footprints() {
        let s = run(
            Abi::Hybrid,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(16 * 1024), // 16 MiB = 4096 pages >> TLB reach
        );
        assert!(s.dtlb_walk > 0, "16 MiB sweep must walk the page table");
        assert!(s.l1d_tlb_refill > 0);
    }

    /// Each fixed-point cost next to the f64 cycle value it stands for.
    fn cost_pairs(cfg: &UarchConfig) -> Vec<(&'static str, u64, f64)> {
        let c = Costs::new(cfg);
        let mlp = cfg.mlp_streaming as f64;
        let l2 = (cfg.lat_l2 - cfg.lat_l1) as f64;
        let llc = (cfg.lat_llc - cfg.lat_l1) as f64;
        let mut pairs = vec![
            ("issue", c.issue, 1.0 / cfg.issue_width as f64),
            ("dp", c.dp, cfg.dp_core_cost),
            ("vfp", c.vfp, cfg.vfp_core_cost),
            ("cap_manip", c.cap_manip, cfg.cap_manip_core_cost),
            ("ifetch_l2", c.ifetch_l2, cfg.lat_l2 as f64 * 0.7),
            ("ifetch_llc", c.ifetch_llc, cfg.lat_llc as f64 * 0.7),
            ("ifetch_dram", c.ifetch_dram, cfg.lat_dram as f64 * 0.7),
            ("l2_tlb", c.l2_tlb, cfg.lat_l2_tlb as f64),
            ("walk", c.walk, cfg.tlb_walk_cycles as f64),
            ("chase", c.chase, cfg.chase_l1_penalty),
            ("l2_dep", c.l2_dep, l2 + cfg.chase_l1_penalty),
            ("l2_stream", c.l2_stream, l2 / mlp),
            ("llc_dep", c.llc_dep, llc + cfg.chase_l1_penalty),
            ("llc_stream", c.llc_stream, llc / mlp),
            ("dram", c.dram, (cfg.lat_dram - cfg.lat_l1) as f64),
            ("dram_line", c.dram_line, cfg.dram_line_cycles as f64),
            ("tag_miss", c.tag_miss, cfg.tag_miss_penalty as f64 / mlp),
            ("store_l1", c.store_l1, 1.0),
            ("store_l2", c.store_l2, 3.0),
            ("store_llc", c.store_llc, 8.0),
            ("store_dram", c.store_dram, 20.0),
            ("store_cap", c.store_cap, 1.5),
            ("mispredict", c.mispredict, cfg.mispredict_penalty as f64),
            ("pcc_stall", c.pcc_stall, cfg.pcc_change_stall as f64),
        ];
        pairs.extend(
            c.long_latency
                .iter()
                .enumerate()
                .map(|(extra, &units)| ("long_latency", units, extra as f64 * 0.3)),
        );
        pairs
    }

    #[test]
    fn fixed_point_costs_lie_within_half_a_unit() {
        for cfg in [
            UarchConfig::neoverse_n1_morello(),
            UarchConfig::projected_cheri_native(),
        ] {
            for (name, units, cycles) in cost_pairs(&cfg) {
                let err = (units as f64 - cycles * ONE as f64).abs();
                assert!(err <= 0.5, "{name}: {units} units for {cycles} cycles");
            }
        }
    }

    #[test]
    fn cycles_round_up_and_stalls_round_to_nearest() {
        let mut core = TimingCore::new(UarchConfig::neoverse_n1_morello());
        assert_eq!(core.cycles(), 0);
        charge!(core, 1, badspec);
        assert_eq!(core.cycles(), 1);
        assert_eq!(core.snapshot().badspec_cycles, 0);
        charge!(core, ONE / 2 - 1, badspec);
        assert_eq!(core.snapshot().badspec_cycles, 1);
        charge!(core, ONE / 2, badspec);
        assert_eq!(core.cycles(), 1);
        charge!(core, 1, badspec);
        assert_eq!(core.cycles(), 2);
    }

    /// Charges `(bucket, amount)` pairs into a fresh core.
    fn charge_all(charges: impl Iterator<Item = (u8, u64)>) -> TimingCore {
        let mut core = TimingCore::new(UarchConfig::neoverse_n1_morello());
        for (bucket, amount) in charges {
            match bucket {
                0 => charge!(core, amount, retire),
                1 => charge!(core, amount, frontend),
                2 => charge!(core, amount, pcc),
                3 => charge!(core, amount, mem_l1),
                4 => charge!(core, amount, mem_l2),
                5 => charge!(core, amount, mem_ext),
                6 => charge!(core, amount, core),
                7 => charge!(core, amount, sb_stall),
                _ => charge!(core, amount, badspec),
            }
        }
        core
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Charging is exact: one multiset of costs charged in two orders
        /// gives identical buckets and identical cycles.
        fn charge_order_does_not_change_buckets_or_cycles(
            charges in proptest::collection::vec(
                (0u8..9, 0u64..(256 << SHIFT), proptest::prelude::any::<u32>()),
                1..500,
            )
        ) {
            let forward = charge_all(charges.iter().map(|&(b, a, _)| (b, a)));
            let mut shuffled = charges.clone();
            shuffled.sort_by_key(|&(_, _, key)| key);
            let reordered = charge_all(shuffled.iter().map(|&(b, a, _)| (b, a)));
            let b = forward.buckets;
            let sum = b.retire + b.frontend + b.pcc + b.mem_l1 + b.mem_l2 + b.mem_ext
                + b.core + b.sb_stall + b.badspec;
            proptest::prop_assert_eq!(forward.total, sum);
            proptest::prop_assert_eq!(forward.buckets, reordered.buckets);
            proptest::prop_assert_eq!(forward.cycles(), reordered.cycles());
            proptest::prop_assert_eq!(forward.snapshot(), reordered.snapshot());
        }
    }
}
