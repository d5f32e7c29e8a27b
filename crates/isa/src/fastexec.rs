//! The pre-decoded, direct-threaded fast engine.
//!
//! Executes a [`DecodedProgram`] (see [`crate::decoded`]) as a loop
//! over *superblocks*: each block's packed interior micro-ops dispatch
//! through a per-ABI fn-pointer table (`table[op.kind](machine, sink,
//! op)` — no discriminant `match` on the hot path), while the
//! per-instruction bookkeeping of the reference loop — fuel check,
//! retired count, `ClassCounts` accumulation, and (for sinks that opt
//! in) the timing-core retire hop — happens once per block using the
//! pre-summed [`Superblock`] totals. The handler table is the engine's
//! only implementation of interior ops. `Jump`/`CondBr` terminators run
//! inline in the block loop; the other terminators (calls, returns,
//! allocator intrinsics, halt, region markers, the reject sentinels)
//! and the one op `pack` demotes — a captable load whose offset does
//! not fit the packed form — run through [`FastMachine::step`].
//!
//! This engine runs every execution, plain or fault-injected. A block
//! runs one op at a time, through the same table, when fuel would die
//! inside it, or when a [`FaultInjector`] is active and its
//! [`quiet_until`](FaultInjector::quiet_until) says a poll may fire in
//! it: such a *due* block polls the injector before each fetch and
//! each load or store, exactly where the reference does and with the
//! same arguments, and accounts retired instructions per op. All other
//! blocks skip the polls, which cannot fire there; for the inert
//! [`NoInjector`](crate::NoInjector) the whole check compiles away. A
//! capability fault goes to the same SIGPROT-analogue handler as in
//! the reference, which applies the injector's [`RecoveryPolicy`]:
//! skip resumes after the faulting op (the rest of its block runs per
//! op), unwind resumes at the caller's return site. A trap the run
//! survives allocates nothing. Run state (registers, taints, frames,
//! event scratch) lives in a [`RunArena`] recycled through a
//! thread-local pool, so steady-state runs allocate nothing per run.
//!
//! Equivalence contract: for any program, sink and injector, this
//! engine produces the *same event stream* (order and payload), the
//! same architectural result, the same error, and the same firing
//! injector hook calls as the reference executor ([`crate::refexec`]).
//! The differential harness (`tests/differential.rs`) locks this across
//! every workload×ABI cell, random programs, superblock edge cases, the
//! error paths, and armed injection under every recovery policy;
//! `debug_assert`s in the emit paths additionally check every
//! pre-computed class against [`OpClass::of`] in debug builds.

use crate::classify::{ClassCounts, OpClass};
use crate::decoded::{
    data_off_mode, is_data_access, kind_class, mk, ArgsRef, DecodedFunc, DecodedProgram, MicroOp,
    Op, NO_TERM,
};
use crate::inst::{BranchKind, FloatOp, InstClass, IntOp, Operand};
use crate::interp::{
    eval_float_op, eval_int_op, fell_off_end, EventSink, FaultInjector, InterpConfig, InterpError,
    RecoveryPolicy, RetiredEvent, RetiredInfo, RunResult, UNWIND_EXIT,
};
use crate::lower::{RT_FREE_PC, RT_MALLOC_PC, RT_SWEEP_PC, STACK_SIZE};
use crate::program::Program;
use crate::refexec::{access_ea, corrupt_base, init_memory, Value, META_LINES, SAVE_AREA};
use cheri_cap::{CapFault, Capability, FaultKind, Perms};
use cheri_mem::{HeapAllocator, TaggedMemory};
use cheri_revoke::{RevokingHeap, StrategyKind, SweepOutcome};
use std::cell::{Cell, RefCell};

/// Runs `prog` to completion on the fast engine under injector `inj`
/// (the inert [`NoInjector`](crate::NoInjector) for plain runs).
pub(crate) fn run<S: EventSink, I: FaultInjector>(
    prog: &Program,
    cfg: InterpConfig,
    sink: &mut S,
    mut inj: I,
) -> Result<RunResult, InterpError> {
    let dec = DecodedProgram::decode(prog);
    let mut m = FastMachine::new(prog, &dec, cfg);
    let r = init_memory(prog, &mut m.mem).and_then(|()| m.exec(sink, &mut inj));
    m.recycle();
    r
}

// ---- Pooled run-state arena ------------------------------------------------

/// The per-run growable state of a [`FastMachine`] — register and taint
/// files, the frame stack, and the block event scratch buffer —
/// recycled across runs through a thread-local pool so steady-state
/// runs (the serving profiler's phase A, the bench reps) allocate
/// nothing per run.
struct RunArena {
    regs: Vec<Value>,
    taints: Vec<u64>,
    frames: Vec<FastFrame>,
    evbuf: Vec<(RetiredEvent, OpClass)>,
    block_execs: Vec<u64>,
}

impl RunArena {
    fn fresh() -> RunArena {
        RunArena {
            regs: Vec::with_capacity(256),
            taints: Vec::with_capacity(256),
            frames: Vec::with_capacity(64),
            evbuf: Vec::new(),
            block_execs: Vec::new(),
        }
    }

    /// Empties every buffer but keeps the grown capacity — that
    /// retained capacity is the entire point of the pool.
    fn reset(&mut self) {
        self.regs.clear();
        self.taints.clear();
        self.frames.clear();
        self.evbuf.clear();
        self.block_execs.clear();
    }
}

/// Upper bound on pooled arenas per thread; beyond this, arenas drop.
const ARENA_POOL_CAP: usize = 8;

thread_local! {
    static ARENA_POOL: RefCell<Vec<RunArena>> = const { RefCell::new(Vec::new()) };
    static ARENA_STATS: Cell<RunArenaStats> = const {
        Cell::new(RunArenaStats {
            acquires: 0,
            reuses: 0,
        })
    };
}

/// Counters for the fast engine's thread-local run-arena pool (see
/// [`run_arena_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunArenaStats {
    /// Fast-engine runs started on this thread (each acquires one
    /// arena).
    pub acquires: u64,
    /// Acquisitions served by a recycled arena rather than a fresh
    /// allocation — after warm-up this tracks `acquires` one-for-one.
    pub reuses: u64,
}

/// This thread's fast-engine arena-pool counters. Observability hook
/// for the pooled-`RunState` contract: callers that price many cells on
/// one thread (the serving profiler, the speed bench) can assert that
/// runs after the first reuse an arena instead of allocating.
pub fn run_arena_stats() -> RunArenaStats {
    ARENA_STATS.with(|s| s.get())
}

fn acquire_arena() -> RunArena {
    let reused = ARENA_POOL.with(|p| p.borrow_mut().pop());
    ARENA_STATS.with(|s| {
        let mut st = s.get();
        st.acquires += 1;
        if reused.is_some() {
            st.reuses += 1;
        }
        s.set(st);
    });
    reused.unwrap_or_else(RunArena::fresh)
}

fn release_arena(mut arena: RunArena) {
    arena.reset();
    ARENA_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < ARENA_POOL_CAP {
            pool.push(arena);
        }
    });
}

/// One active call frame. Registers live in the machine-wide arenas at
/// `[reg_base, reg_base + vregs)`; the running frame's `func`/`ip` are
/// cached in locals of the dispatch loop, so only the return plumbing
/// is stored here.
struct FastFrame {
    func: u32,
    reg_base: u32,
    ret_reg: Option<u16>,
    ret_ip: u32,
    saved_sp: u64,
}

struct FastMachine<'p> {
    prog: &'p Program,
    dec: &'p DecodedProgram,
    cfg: InterpConfig,
    mem: TaggedMemory,
    heap: RevokingHeap,
    frames: Vec<FastFrame>,
    regs: Vec<Value>,
    taints: Vec<u64>,
    sp: u64,
    stack_cap: Capability,
    code_root: Capability,
    data_root: Capability,
    retired: u64,
    classes: ClassCounts,
    load_seq: u64,
    exit: Option<u64>,
    cap_abi: bool,
    pcc_branches: bool,
    /// Register base of the executing frame, synced from the block
    /// loop before each block so handlers (free fns, no extra args)
    /// can reach it.
    rb: usize,
    /// Index of the executing function, synced like `rb` — only needed
    /// to name the function of a fault that ends the run.
    fi: usize,
    /// Error parked by a dying handler; the block loop takes it.
    err: Option<InterpError>,
    /// Block-scoped event buffer for sinks with
    /// [`EventSink::WANTS_BLOCK_EVENTS`]; flushed at block boundaries.
    evbuf: Vec<(RetiredEvent, OpClass)>,
    /// Deferred class accounting: executions per global block id
    /// (`block_base + local index`). The block loop bumps one counter
    /// per block instead of eight class adds; run end folds
    /// `count × blk.classes` into [`FastMachine::classes`].
    block_execs: Vec<u64>,
}

/// A capability fault at `pc`, with the function name left empty:
/// every fault reaches [`FastMachine::trap`], which names the function
/// only when the fault ends the run, so a trap the run survives
/// allocates nothing.
#[inline]
fn cap_fault(fault: CapFault, pc: u64) -> InterpError {
    InterpError::Fault {
        fault,
        pc,
        func: String::new(),
    }
}

/// Emits one retired event with its pre-computed class: bumps the
/// architectural counters and hands the sink the class so classifying
/// sinks skip `OpClass::of`. Debug builds verify the hint.
macro_rules! femit {
    ($self:ident, $sink:ident, $pc:expr, $class:expr, $info:expr) => {{
        let pc = $pc;
        let info = $info;
        let class = $class;
        debug_assert_eq!(class, OpClass::of(pc, &info), "pre-computed class mismatch");
        $self.retired += 1;
        $self.classes.bump(class);
        $sink.retire_classified(RetiredEvent { pc, info }, class);
    }};
}

impl<'p> FastMachine<'p> {
    fn new(prog: &'p Program, dec: &'p DecodedProgram, cfg: InterpConfig) -> FastMachine<'p> {
        let cap_abi = prog.abi.is_capability();
        let kind = if cap_abi {
            match cfg.cap_alloc {
                // Capability ABIs need representable bounds: classic
                // layout would hand out unencodable large blocks.
                StrategyKind::Classic => StrategyKind::CapabilityPadded,
                k => k,
            }
        } else {
            StrategyKind::Classic
        };
        let (heap_lo, heap_hi) = prog.map.heap;
        let heap = RevokingHeap::new(heap_lo + (1 << 20), heap_hi, heap_lo + (1 << 19), kind);
        let stack_base = prog.map.stack_top - STACK_SIZE;
        let stack_cap = Capability::root_rw()
            .set_bounds(stack_base, STACK_SIZE)
            .expect("stack bounds representable");
        let RunArena {
            regs,
            taints,
            frames,
            evbuf,
            mut block_execs,
        } = acquire_arena();
        block_execs.resize(dec.total_blocks as usize, 0);
        FastMachine {
            prog,
            dec,
            cfg,
            mem: TaggedMemory::new(),
            heap,
            frames,
            regs,
            taints,
            sp: prog.map.stack_top,
            stack_cap,
            code_root: Capability::root_exec(),
            data_root: Capability::root_rw(),
            retired: 0,
            classes: ClassCounts::new(),
            load_seq: 0,
            exit: None,
            cap_abi,
            pcc_branches: prog.abi.capability_branches(),
            rb: 0,
            fi: 0,
            err: None,
            evbuf,
            block_execs,
        }
    }

    /// Returns this machine's grown buffers to the thread-local arena
    /// pool. Called once per run, success or failure.
    fn recycle(&mut self) {
        release_arena(RunArena {
            regs: std::mem::take(&mut self.regs),
            taints: std::mem::take(&mut self.taints),
            frames: std::mem::take(&mut self.frames),
            evbuf: std::mem::take(&mut self.evbuf),
            block_execs: std::mem::take(&mut self.block_execs),
        });
    }

    // ---- Value plumbing (flat-arena addressing) ---------------------------

    #[inline]
    fn as_int(&self, idx: usize, pc: u64) -> Result<u64, InterpError> {
        match self.regs[idx] {
            Value::Int(v) => Ok(v),
            _ => Err(InterpError::TypeConfusion {
                pc,
                expected: "integer",
            }),
        }
    }

    #[inline]
    fn as_f64(&self, idx: usize, pc: u64) -> Result<f64, InterpError> {
        match self.regs[idx] {
            Value::F64(v) => Ok(v),
            Value::Int(0) => Ok(0.0), // zero-initialised registers
            _ => Err(InterpError::TypeConfusion {
                pc,
                expected: "float",
            }),
        }
    }

    #[inline]
    fn as_cap(&self, idx: usize, pc: u64) -> Result<Capability, InterpError> {
        match self.regs[idx] {
            Value::Cap(c) => Ok(c),
            _ => Err(InterpError::TypeConfusion {
                pc,
                expected: "capability",
            }),
        }
    }

    #[inline]
    fn operand_int(&self, rb: usize, op: Operand, pc: u64) -> Result<u64, InterpError> {
        match op {
            Operand::Reg(r) => self.as_int(rb + r as usize, pc),
            Operand::Imm(i) => Ok(i as u64),
        }
    }

    /// Resolves a memory operand to (effective address, authorising
    /// cap) for the memory handlers. Specialised on the ABI at compile
    /// time, so the `cap_abi` test disappears; the frame base and
    /// function index come from the block-loop-synced fields.
    #[inline]
    fn resolve_c<const CAP: bool>(
        &self,
        base: u16,
        off: i64,
        size: u64,
        write: bool,
        cap_access: bool,
        pc: u64,
    ) -> Result<(u64, Option<Capability>), InterpError> {
        debug_assert_eq!(self.cap_abi, CAP, "handler table built for the wrong ABI");
        if CAP {
            let c = self.as_cap(self.rb + base as usize, pc)?;
            let addr = c.address().wrapping_add(off as u64);
            let mut req = if write { Perms::STORE } else { Perms::LOAD };
            if cap_access && write {
                req = req | Perms::STORE_CAP;
            }
            c.check_access(addr, size, req)
                .map_err(|fault| cap_fault(fault, pc))?;
            Ok((addr, Some(c)))
        } else {
            let b = self.as_int(self.rb + base as usize, pc)?;
            Ok((b.wrapping_add(off as u64), None))
        }
    }

    /// Block-interior event emission: no `retired`/`classes` bump
    /// (those are folded in once per block from the pre-summed totals)
    /// and, for batching sinks, buffered delivery. Per-event *order* is
    /// identical to `femit!` either way.
    #[inline]
    fn iemit<S: EventSink>(&mut self, sink: &mut S, pc: u64, class: OpClass, info: RetiredInfo) {
        debug_assert_eq!(class, OpClass::of(pc, &info), "pre-computed class mismatch");
        let ev = RetiredEvent { pc, info };
        if S::WANTS_BLOCK_EVENTS {
            self.evbuf.push((ev, class));
        } else {
            sink.retire_classified(ev, class);
        }
    }

    #[inline]
    fn dep_load(&self, base_taint: u64) -> bool {
        base_taint != 0 && self.load_seq.saturating_sub(base_taint) <= self.cfg.dep_window
    }

    // ---- Frame plumbing ---------------------------------------------------

    /// Pushes a frame for `callee`: depth/arity checks, the call-site
    /// branch event (`None` for the entry frame), the synthetic
    /// prologue (SP adjust + return-address save), and fresh registers
    /// in the flat arenas. Returns the new frame's register base.
    /// `branch` is `(call_pc, kind, target, pcc_change)`.
    #[allow(clippy::too_many_arguments)]
    fn enter_frame<S: EventSink>(
        &mut self,
        sink: &mut S,
        callee: u32,
        caller_args: Option<(usize, ArgsRef)>,
        ret_reg: Option<u16>,
        ret_ip: u32,
        branch: Option<(u64, BranchKind, u64, bool)>,
        call_pc: u64,
    ) -> Result<usize, InterpError> {
        if self.frames.len() as u32 >= self.cfg.max_call_depth {
            return Err(InterpError::CallDepth { pc: call_pc });
        }
        let dec = self.dec;
        let f = &dec.funcs[callee as usize];
        let n_args = caller_args.map_or(0, |(_, a)| a.len);
        if n_args != f.params {
            return Err(InterpError::BadProgram {
                msg: format!(
                    "call to `{}` with {} args (expects {})",
                    self.prog.funcs[callee as usize].name, n_args, f.params
                ),
            });
        }
        let mut ret_pc = 0;
        if let Some((pc, kind, target, pcc_change)) = branch {
            ret_pc = pc + 4;
            femit!(
                self,
                sink,
                pc,
                if pcc_change {
                    OpClass::CapBranch
                } else {
                    OpClass::Branch
                },
                RetiredInfo::Branch {
                    kind,
                    taken: true,
                    target,
                    pcc_change,
                }
            );
        }

        // Prologue: SP adjust + return-address save.
        let saved_sp = self.sp;
        let new_sp = self.sp - (f.frame_size + SAVE_AREA);
        self.sp = new_sp;
        let base_pc = f.base_pc;
        if self.cap_abi {
            femit!(
                self,
                sink,
                base_pc,
                OpClass::CapManip,
                RetiredInfo::CapManip
            );
        } else {
            femit!(
                self,
                sink,
                base_pc,
                OpClass::IntAlu,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let lr_addr = new_sp + f.frame_size;
        if self.cap_abi {
            // Save the return address as a capability into the caller.
            let ret_cap = self.code_root.set_address(ret_pc);
            self.mem
                .store_cap(lr_addr & !15, ret_cap.to_compressed(), true)
                .map_err(|err| InterpError::Mem { err, pc: base_pc })?;
            femit!(
                self,
                sink,
                base_pc + 4,
                OpClass::MemCap,
                RetiredInfo::Store {
                    addr: lr_addr & !15,
                    size: 16,
                    is_cap: true,
                }
            );
        } else {
            self.mem
                .write_u64(lr_addr, ret_pc)
                .map_err(|err| InterpError::Mem { err, pc: base_pc })?;
            femit!(
                self,
                sink,
                base_pc + 4,
                OpClass::MemScalar,
                RetiredInfo::Store {
                    addr: lr_addr,
                    size: 8,
                    is_cap: false,
                }
            );
        }

        let new_base = self.regs.len();
        self.regs.resize(new_base + f.vregs as usize, Value::Int(0));
        self.taints.resize(new_base + f.vregs as usize, 0);
        self.regs[new_base] = if self.cap_abi {
            Value::Cap(self.stack_cap.set_address(new_sp))
        } else {
            Value::Int(new_sp)
        };
        if let Some((caller_rb, args)) = caller_args {
            for k in 0..args.len as usize {
                let src = dec.args[args.start as usize + k];
                self.regs[new_base + 1 + k] = self.regs[caller_rb + src as usize];
            }
        }
        self.frames.push(FastFrame {
            func: callee,
            reg_base: new_base as u32,
            ret_reg,
            ret_ip,
            saved_sp,
        });
        Ok(new_base)
    }

    // ---- The dispatch loop ------------------------------------------------

    fn exec<S: EventSink, I: FaultInjector>(
        &mut self,
        sink: &mut S,
        inj: &mut I,
    ) -> Result<RunResult, InterpError> {
        let prog = self.prog;
        let dec = self.dec;
        let entry = prog.entry.0;
        if dec.funcs[entry as usize].params != 0 {
            return Err(InterpError::BadProgram {
                msg: format!(
                    "entry `{}` must take no parameters",
                    prog.funcs[entry as usize].name
                ),
            });
        }
        // The entry frame: no call-site branch event, return address 0.
        self.enter_frame(sink, entry, None, None, 0, None, 0)?;
        self.exec_blocks(sink, inj, entry as usize)?;
        // Fold the deferred per-block execution counts into the class
        // totals. Addition is commutative, so the fold is
        // order-insensitive and exactly matches per-op accumulation;
        // error exits skip it because a failed run reports no counts.
        for fun in dec.funcs.iter() {
            let base = fun.block_base as usize;
            for (b, cls) in fun.block_classes.iter().enumerate() {
                let k = self.block_execs[base + b];
                if k > 0 {
                    self.classes.add_scaled(cls, k);
                }
            }
        }
        Ok(RunResult {
            retired: self.retired,
            exit_code: self.exit.unwrap_or(0),
            mem_stats: self.mem.stats(),
            heap_stats: self.heap.stats(),
            pages_touched: self.mem.pages_touched(),
            classes: self.classes,
        })
    }

    /// The direct-threaded superblock loop, starting at op 0 of the
    /// entry function `entry` (whose frame base is 0).
    ///
    /// Invariant (established by [`crate::decoded::build_blocks`] and
    /// every control transfer below and in [`FastMachine::step`]): `ip`
    /// is always a block leader. Each iteration runs one block. In the
    /// common case a single up-front fuel-margin check covers every
    /// interior op (exactly the per-op checks of the reference —
    /// `retired + n <= max` iff all `n` per-op checks pass), the
    /// interiors dispatch through the per-ABI fn-pointer table with no
    /// discriminant match and no per-op bookkeeping, then `retired`
    /// absorbs the block's op count, the block's execution counter
    /// bumps (its pre-summed classes fold in at run end), and buffered
    /// events flush. Finally the terminator (if any) runs under the
    /// reference's own fuel check — `Jump`/`CondBr` inline here, every
    /// other terminator through [`FastMachine::step`].
    ///
    /// Two cases run the interiors one op at a time instead
    /// ([`FastMachine::run_per_op`]), through the same table: fuel that
    /// dies inside the block, and a block in which an injector poll may
    /// fire — the injector is active and its
    /// [`quiet_until`](FaultInjector::quiet_until) is at most the
    /// retired count the block's last poll (its terminator's) would
    /// see. Such a *due* block polls the injector exactly where the
    /// reference does, with the same arguments; every other block skips
    /// the polls, which by that contract cannot fire. For the inert
    /// injector `active()` is constant `false`, so all of this
    /// compiles away.
    ///
    /// Every capability fault, in any block, goes to the trap handler
    /// ([`FastMachine::trap`]). Under skip recovery a faulting interior
    /// retires nothing and the rest of its block runs per op; a
    /// skipped terminator resumes at the next leader. Under unwind
    /// recovery the frame is dropped and control resumes at the
    /// caller's return site, itself a leader.
    fn exec_blocks<S: EventSink, I: FaultInjector>(
        &mut self,
        sink: &mut S,
        inj: &mut I,
        entry: usize,
    ) -> Result<(), InterpError> {
        let dec = self.dec;
        let table = handler_table::<S>(self.cap_abi);
        let max = self.cfg.max_insts;
        // `fun`/`bidx` chain block-to-block without touching
        // `block_idx`: fallthrough and not-taken paths are the next
        // block in start-ip order, taken branches use the pre-resolved
        // `t_blk`, and only the `step` and recovery paths re-derive
        // them.
        let mut fi = entry;
        let mut ip = 0usize;
        let mut rb = 0usize;
        let mut fun: &DecodedFunc = &dec.funcs[fi];
        let mut bidx = fun.block_idx[ip] as usize;
        while self.exit.is_none() {
            let blk = &fun.blocks[bidx];
            debug_assert_eq!(
                blk.start_ip as usize, ip,
                "control transfer into a superblock interior"
            );
            let n = u64::from(blk.n);
            let due = inj.active() && inj.quiet_until() <= self.retired.saturating_add(n);
            if n > 0 {
                self.rb = rb;
                self.fi = fi;
                let micros = &fun.micros[blk.first as usize..(blk.first + blk.n) as usize];
                let ran = if due || self.retired.saturating_add(n) > max {
                    self.run_per_op(sink, inj, &table, micros, due)?
                } else if let Some(k) = self.run_micros(sink, &table, micros) {
                    self.block_trap(sink, inj, &table, micros, k)?
                } else {
                    self.retired += n;
                    // Deferred class accounting: one counter bump here,
                    // the pre-summed per-block classes fold in at run
                    // end.
                    self.block_execs[fun.block_base as usize + bidx] += 1;
                    self.flush_events(sink);
                    Ran::ToEnd
                };
                if let Ran::Unwound = ran {
                    let Some(to) = self.unwind_frame() else {
                        break;
                    };
                    (fi, ip, rb) = to;
                    fun = &dec.funcs[fi];
                    bidx = fun.block_idx[ip] as usize;
                    continue;
                }
            }
            if blk.term == NO_TERM {
                // Fallthrough into the next block (its entry re-checks
                // fuel), so no terminator work here. Blocks tile the
                // function in start-ip order, so it is `bidx + 1`.
                ip += blk.n as usize;
                bidx += 1;
                continue;
            }
            ip = blk.term as usize;
            if self.retired >= max {
                return Err(InterpError::FuelExhausted {
                    retired: self.retired,
                });
            }
            if due {
                match self.poll_terminator(inj, fun, fi, ip)? {
                    Ran::ToEnd => {}
                    Ran::Skipped => {
                        ip += 1;
                        bidx = fun.block_idx[ip] as usize;
                        continue;
                    }
                    Ran::Unwound => {
                        let Some(to) = self.unwind_frame() else {
                            break;
                        };
                        (fi, ip, rb) = to;
                        fun = &dec.funcs[fi];
                        bidx = fun.block_idx[ip] as usize;
                        continue;
                    }
                }
            }
            let pc = fun.base_pc + u64::from(blk.term) * 4;
            match fun.ops[ip] {
                Op::Jump { t_ip, t_pc } => {
                    femit!(
                        self,
                        sink,
                        pc,
                        OpClass::Branch,
                        RetiredInfo::Branch {
                            kind: BranchKind::Immediate,
                            taken: true,
                            target: t_pc,
                            pcc_change: false,
                        }
                    );
                    ip = t_ip as usize;
                    bidx = blk.t_blk as usize;
                }
                Op::CondBr {
                    cond,
                    a,
                    b,
                    t_ip,
                    t_pc,
                } => {
                    let av = self.as_int(rb + a as usize, pc)?;
                    let bv = self.operand_int(rb, b, pc)?;
                    let taken = cond.eval(av, bv);
                    femit!(
                        self,
                        sink,
                        pc,
                        OpClass::Branch,
                        RetiredInfo::Branch {
                            kind: BranchKind::Immediate,
                            taken,
                            target: t_pc,
                            pcc_change: false,
                        }
                    );
                    if taken {
                        ip = t_ip as usize;
                        bidx = blk.t_blk as usize;
                    } else {
                        ip += 1;
                        bidx += 1;
                    }
                }
                op => match self.step(sink, op, pc, fi, ip, rb) {
                    Ok(next) => {
                        (fi, ip, rb) = next;
                        // On halt the loop exits without another block
                        // lookup.
                        if self.exit.is_none() {
                            fun = &dec.funcs[fi];
                            bidx = fun.block_idx[ip] as usize;
                        }
                    }
                    Err(InterpError::Fault { fault, pc, .. }) => {
                        match self.trap(inj, fault, pc, fi)? {
                            Recovery::Skip => {
                                ip += 1;
                                bidx = fun.block_idx[ip] as usize;
                            }
                            Recovery::Unwind => {
                                let Some(to) = self.unwind_frame() else {
                                    break;
                                };
                                (fi, ip, rb) = to;
                                fun = &dec.funcs[fi];
                                bidx = fun.block_idx[ip] as usize;
                            }
                        }
                    }
                    Err(e) => return Err(e),
                },
            }
        }
        Ok(())
    }

    /// Dispatches `micros` through the handler table. Returns the index
    /// of the op whose handler died (its error is parked in
    /// [`FastMachine::err`]), or `None` when every op ran.
    #[inline(always)]
    fn run_micros<S: EventSink>(
        &mut self,
        sink: &mut S,
        table: &[Handler<S>; 256],
        micros: &[MicroOp],
    ) -> Option<usize> {
        micros
            .iter()
            .position(|mo| matches!(table[mo.kind as usize](self, sink, mo), Ctl::Die))
    }

    /// A handler died at interior `k` of a block that was running
    /// whole: the `k` ops before it retired, so they are accounted one
    /// by one (the block's execution counter stays untouched). A
    /// capability fault then goes to the trap handler — under skip the
    /// rest of the block runs per op — and any other error ends the
    /// run.
    #[inline(never)]
    fn block_trap<S: EventSink, I: FaultInjector>(
        &mut self,
        sink: &mut S,
        inj: &mut I,
        table: &[Handler<S>; 256],
        micros: &[MicroOp],
        k: usize,
    ) -> Result<Ran, InterpError> {
        for mo in &micros[..k] {
            self.classes.bump(kind_class(mo.kind));
        }
        self.retired += k as u64;
        match self.handler_died(inj) {
            // The block was not due and skipping only lowers `retired`,
            // so the rest of it stays quiet: no polls.
            Ok(Recovery::Skip) => self.run_per_op(sink, inj, table, &micros[k + 1..], false),
            Ok(Recovery::Unwind) => {
                self.flush_events(sink);
                Ok(Ran::Unwound)
            }
            Err(e) => {
                self.flush_events(sink);
                Err(e)
            }
        }
    }

    /// Takes the error a dying handler parked: a capability fault goes
    /// to the trap handler, anything else ends the run.
    fn handler_died<I: FaultInjector>(&mut self, inj: &mut I) -> Result<Recovery, InterpError> {
        match self.err.take().expect("handler died without an error") {
            InterpError::Fault { fault, pc, .. } => self.trap(inj, fault, pc, self.fi),
            e => Err(e),
        }
    }

    /// Runs `micros` one op at a time, as the reference does: a fuel
    /// check before each op, then [`FastMachine::run_one`].
    #[inline(never)]
    fn run_per_op<S: EventSink, I: FaultInjector>(
        &mut self,
        sink: &mut S,
        inj: &mut I,
        table: &[Handler<S>; 256],
        micros: &[MicroOp],
        due: bool,
    ) -> Result<Ran, InterpError> {
        let mut ran = Ok(Ran::ToEnd);
        for mo in micros {
            if self.retired >= self.cfg.max_insts {
                ran = Err(InterpError::FuelExhausted {
                    retired: self.retired,
                });
                break;
            }
            match self.run_one(sink, inj, table, mo, due) {
                Ok(None | Some(Recovery::Skip)) => {}
                Ok(Some(Recovery::Unwind)) => {
                    ran = Ok(Ran::Unwound);
                    break;
                }
                Err(e) => {
                    ran = Err(e);
                    break;
                }
            }
        }
        self.flush_events(sink);
        ran
    }

    /// Runs interior `mo` on its own: when `due`, first the fetch poll
    /// and, for a load or store, the data-access poll, each with the
    /// exact retired count; then its handler, with per-op retired and
    /// class accounting. `Ok(None)`: the op retired; `Ok(Some(_))`: a
    /// trap at its fetch or in its handler was survived.
    #[inline]
    fn run_one<S: EventSink, I: FaultInjector>(
        &mut self,
        sink: &mut S,
        inj: &mut I,
        table: &[Handler<S>; 256],
        mo: &MicroOp,
        due: bool,
    ) -> Result<Option<Recovery>, InterpError> {
        if due {
            if let Some(r) = self.poll_fetch(inj, mo.pc, self.fi)? {
                return Ok(Some(r));
            }
            if is_data_access(mo.kind) && inj.active() {
                self.poll_data(inj, mo);
            }
        }
        if let Ctl::Die = table[mo.kind as usize](self, sink, mo) {
            return self.handler_died(inj).map(Some);
        }
        self.retired += 1;
        self.classes.bump(kind_class(mo.kind));
        Ok(None)
    }

    /// The fetch poll of terminator `ip` of function `fi` in a due
    /// block: [`Ran::ToEnd`] runs the terminator, [`Ran::Skipped`]
    /// resumes at the next leader, [`Ran::Unwound`] at the caller.
    /// Skipping the fell-off sentinel moves past the function's end,
    /// where the reference keeps checking fuel and polling each next
    /// fetch; the first that does not fire fails the run there.
    #[inline(never)]
    fn poll_terminator<I: FaultInjector>(
        &self,
        inj: &mut I,
        fun: &DecodedFunc,
        fi: usize,
        ip: usize,
    ) -> Result<Ran, InterpError> {
        let sentinel = fun.ops.len() - 1;
        let mut at = ip;
        loop {
            match self.poll_fetch(inj, fun.base_pc + at as u64 * 4, fi)? {
                None if at == ip => return Ok(Ran::ToEnd),
                None => return Err(fell_off_end(&self.prog.funcs[fi].name)),
                Some(Recovery::Unwind) => return Ok(Ran::Unwound),
                Some(Recovery::Skip) if at < sentinel => return Ok(Ran::Skipped),
                Some(Recovery::Skip) => {
                    at += 1;
                    if self.retired >= self.cfg.max_insts {
                        return Err(InterpError::FuelExhausted {
                            retired: self.retired,
                        });
                    }
                }
            }
        }
    }

    /// The reference's fetch-stage poll at `pc`. A fired PCC corruption
    /// traps under the capability ABIs, which check the PCC at every
    /// fetch; hybrid's raw PC is unchecked, so the corruption has no
    /// effect and the same fetch is polled again, as the reference's
    /// loop does. `None`: nothing fired that changes control.
    #[inline]
    fn poll_fetch<I: FaultInjector>(
        &self,
        inj: &mut I,
        pc: u64,
        fi: usize,
    ) -> Result<Option<Recovery>, InterpError> {
        while inj.active() && inj.poll_pcc(self.retired, pc) {
            if self.cap_abi {
                let fault = CapFault::op(FaultKind::TagViolation, pc);
                return self.trap(inj, fault, pc, fi).map(Some);
            }
        }
        Ok(None)
    }

    /// The data-access poll of load or store `mo`, made where the
    /// reference makes it: once the offset has evaluated (a bad offset
    /// register skips the poll and its handler then fails), with the
    /// would-be effective address. A fired injection corrupts the base
    /// register before the handler checks the access.
    fn poll_data<I: FaultInjector>(&mut self, inj: &mut I, mo: &MicroOp) {
        let mode = data_off_mode(mo.kind);
        let off = if mode == 0 {
            mo.imm as i64
        } else {
            let Ok(v) = self.as_int(self.rb + mo.b as usize, mo.pc) else {
                return;
            };
            if mode == mk::OFF_SCL {
                (v as i64).wrapping_mul(i64::from(mo.sz))
            } else {
                v as i64
            }
        };
        let base = self.rb + mo.a as usize;
        let Some(ea) = access_ea(self.regs[base], off) else {
            return;
        };
        let is_store = mo.kind >= mk::ST_U8_IMM;
        if let Some(kind) = inj.poll_mem(self.retired, mo.pc, ea, is_store) {
            self.regs[base] = corrupt_base(self.regs[base], kind);
        }
    }

    /// The SIGPROT-analogue handler, as in the reference: journals the
    /// trap, then applies the injector's [`RecoveryPolicy`]. Only a
    /// fault that ends the run (`Abort`) builds its error, naming
    /// function `fi`.
    fn trap<I: FaultInjector>(
        &self,
        inj: &mut I,
        fault: CapFault,
        pc: u64,
        fi: usize,
    ) -> Result<Recovery, InterpError> {
        inj.trapped(pc);
        match inj.policy() {
            RecoveryPolicy::Abort => Err(InterpError::Fault {
                fault,
                pc,
                func: self.prog.funcs[fi].name.clone(),
            }),
            RecoveryPolicy::SkipFaultingOp => Ok(Recovery::Skip),
            RecoveryPolicy::UnwindToCheckpoint => {
                inj.unwound(pc);
                Ok(Recovery::Unwind)
            }
        }
    }

    /// The `longjmp` half of unwind recovery, as in the reference:
    /// abandon the faulting frame, restore the caller's stack pointer,
    /// zero its return register, and resume at the return site.
    /// Returns the caller's `(fi, ip, rb)`, or `None` once the entry
    /// frame itself unwinds (the run then exits with [`UNWIND_EXIT`]).
    fn unwind_frame(&mut self) -> Option<(usize, usize, usize)> {
        let fr = self.frames.pop().expect("no frame");
        self.sp = fr.saved_sp;
        self.regs.truncate(fr.reg_base as usize);
        self.taints.truncate(fr.reg_base as usize);
        let Some(caller) = self.frames.last() else {
            self.exit = Some(UNWIND_EXIT);
            return None;
        };
        let crb = caller.reg_base as usize;
        if let Some(r) = fr.ret_reg {
            self.regs[crb + r as usize] = Value::Int(0);
            self.taints[crb + r as usize] = 0;
        }
        Some((caller.func as usize, fr.ret_ip as usize, crb))
    }

    /// Flushes block-buffered events to a batching sink. A no-op (and
    /// dead code, compiled out) for sinks that keep the default per-op
    /// delivery.
    #[inline]
    fn flush_events<S: EventSink>(&mut self, sink: &mut S) {
        if S::WANTS_BLOCK_EVENTS && !self.evbuf.is_empty() {
            sink.retire_block_classified(&self.evbuf);
            self.evbuf.clear();
        }
    }

    /// Executes terminator `op` at `pc` (op `ip` of function `fi`, frame
    /// base `rb`) and returns the next `(fi, ip, rb)`. Only terminators
    /// the block loop does not run inline reach here — calls, returns,
    /// allocator intrinsics, halt, region markers, the two reject
    /// sentinels, and the one demoted interior, a captable load whose
    /// offset does not fit the packed form. Every op `pack` accepts is
    /// executed by the handler table instead. Inlined so call/return
    /// terminators don't pay an outlined call with its loop-state
    /// spills.
    #[inline]
    fn step<S: EventSink>(
        &mut self,
        sink: &mut S,
        op: Op,
        pc: u64,
        fi: usize,
        ip: usize,
        rb: usize,
    ) -> Result<(usize, usize, usize), InterpError> {
        let dec = self.dec;
        match op {
            Op::Call {
                callee,
                args,
                ret,
                pcc_change,
            } => {
                let target = dec.funcs[callee as usize].base_pc;
                let rb = self.enter_frame(
                    sink,
                    callee,
                    Some((rb, args)),
                    ret,
                    (ip + 1) as u32,
                    Some((pc, BranchKind::Call, target, pcc_change)),
                    pc,
                )?;
                Ok((callee as usize, 0, rb))
            }
            Op::CallIndirect { target, args, ret } => {
                let taddr = match self.regs[rb + target as usize] {
                    Value::Int(a) if !self.cap_abi => a,
                    Value::Cap(c) if self.cap_abi => {
                        c.check_branch().map_err(|fault| cap_fault(fault, pc))?;
                        c.address()
                    }
                    _ => {
                        return Err(InterpError::TypeConfusion {
                            pc,
                            expected: "function pointer",
                        })
                    }
                };
                let callee = self
                    .prog
                    .map
                    .func_at(taddr)
                    .ok_or(InterpError::UnknownCode { addr: taddr, pc })?;
                let pcc_change = self.pcc_branches
                    && dec.funcs[callee.0 as usize].module != dec.funcs[fi].module;
                let rb = self.enter_frame(
                    sink,
                    callee.0,
                    Some((rb, args)),
                    ret,
                    (ip + 1) as u32,
                    Some((pc, BranchKind::IndirectCall, taddr, pcc_change)),
                    pc,
                )?;
                Ok((callee.0 as usize, 0, rb))
            }
            Op::Ret { val } => {
                let v = val.map(|r| self.regs[rb + r as usize]);
                let fr = self.frames.pop().expect("no frame");
                let fun = &dec.funcs[fi];
                let lr_addr = (self.sp + fun.frame_size) & if self.cap_abi { !15 } else { !0 };

                // Epilogue: LR reload + SP adjust + return branch.
                femit!(
                    self,
                    sink,
                    pc,
                    if self.cap_abi {
                        OpClass::MemCap
                    } else {
                        OpClass::MemScalar
                    },
                    RetiredInfo::Load {
                        addr: lr_addr,
                        size: if self.cap_abi { 16 } else { 8 },
                        is_cap: self.cap_abi,
                        dep_load: false,
                    }
                );
                if self.cap_abi {
                    self.mem
                        .load_cap(lr_addr)
                        .map_err(|err| InterpError::Mem { err, pc })?;
                    femit!(self, sink, pc, OpClass::CapManip, RetiredInfo::CapManip);
                } else {
                    self.mem
                        .read_u64(lr_addr)
                        .map_err(|err| InterpError::Mem { err, pc })?;
                    femit!(
                        self,
                        sink,
                        pc,
                        OpClass::IntAlu,
                        RetiredInfo::Simple(InstClass::Dp)
                    );
                }
                self.sp = fr.saved_sp;

                let Some(caller) = self.frames.last() else {
                    // Returning from the entry function ends the
                    // program.
                    let code = match v {
                        Some(Value::Int(v)) => v,
                        _ => 0,
                    };
                    self.exit = Some(code);
                    return Ok((fi, ip, rb));
                };
                let caller_fun = &dec.funcs[caller.func as usize];
                let ret_target = caller_fun.base_pc + u64::from(fr.ret_ip) * 4;
                let pcc_change = self.pcc_branches && caller_fun.module != fun.module;
                let caller_rb = caller.reg_base as usize;
                let caller_func = caller.func as usize;
                if let (Some(r), Some(v)) = (fr.ret_reg, v) {
                    // Return values inherit "recently loaded" status
                    // conservatively: cleared.
                    self.regs[caller_rb + r as usize] = v;
                    self.taints[caller_rb + r as usize] = 0;
                }
                femit!(
                    self,
                    sink,
                    pc,
                    if pcc_change {
                        OpClass::CapBranch
                    } else {
                        OpClass::Branch
                    },
                    RetiredInfo::Branch {
                        kind: BranchKind::Return,
                        taken: true,
                        target: ret_target,
                        pcc_change,
                    }
                );
                self.regs.truncate(fr.reg_base as usize);
                self.taints.truncate(fr.reg_base as usize);
                Ok((caller_func, fr.ret_ip as usize, caller_rb))
            }
            Op::Malloc { dst, size } => {
                let sz = self.operand_int(rb, size, pc)?;
                self.run_malloc(rb + dst as usize, sz, pc, sink)?;
                Ok((fi, ip + 1, rb))
            }
            Op::Free { ptr } => {
                let addr = match self.regs[rb + ptr as usize] {
                    Value::Int(a) => a,
                    Value::Cap(c) => c.address(),
                    Value::F64(_) => {
                        return Err(InterpError::TypeConfusion {
                            pc,
                            expected: "pointer",
                        })
                    }
                };
                self.run_free(addr, pc, sink)?;
                Ok((fi, ip + 1, rb))
            }
            Op::Halt { code } => {
                let c = match code {
                    Some(r) => self.as_int(rb + r as usize, pc)?,
                    None => 0,
                };
                femit!(
                    self,
                    sink,
                    pc,
                    OpClass::IntAlu,
                    RetiredInfo::Simple(InstClass::Dp)
                );
                self.exit = Some(c);
                Ok((fi, ip, rb))
            }
            // Profiling marker: no retired instruction, no cycles —
            // just tell the sink the attribution context changed.
            Op::Region { id } => {
                sink.region(id);
                Ok((fi, ip + 1, rb))
            }
            Op::BadGeneric => Err(InterpError::BadProgram {
                msg: "pointer-generic memory op survived lowering".into(),
            }),
            Op::FellOff => Err(fell_off_end(&self.prog.funcs[fi].name)),
            // Demoted by `pack`: the post-increment does not fit the
            // packed `aux` field (so it is never 0).
            Op::LoadCapTable { dst, addr, off } => {
                let (cc, tag) = self
                    .mem
                    .load_cap(addr)
                    .map_err(|err| InterpError::Mem { err, pc })?;
                let cap = Capability::from_compressed(cc, tag).inc_address(off);
                self.load_seq += 1;
                self.regs[rb + dst as usize] = Value::Cap(cap);
                self.taints[rb + dst as usize] = self.load_seq;
                femit!(
                    self,
                    sink,
                    pc,
                    OpClass::MemCap,
                    RetiredInfo::Load {
                        addr,
                        size: 16,
                        is_cap: true,
                        dep_load: false,
                    }
                );
                Ok((fi, ip + 1, rb))
            }
            _ => unreachable!(
                "op at pc {pc:#x} reached `step`, but decode packs it as a superblock \
                 interior or the block loop runs it inline"
            ),
        }
    }

    // ---- Runtime intrinsics (same synthetic streams as the reference) -----

    fn run_malloc<S: EventSink>(
        &mut self,
        dst_idx: usize,
        size: u64,
        pc: u64,
        sink: &mut S,
    ) -> Result<(), InterpError> {
        // Same-bounds PLT stub: no PCC resteer (see the reference for
        // the Morello rationale).
        let pcc = false;
        femit!(
            self,
            sink,
            pc,
            OpClass::Branch,
            RetiredInfo::Branch {
                kind: BranchKind::Call,
                taken: true,
                target: RT_MALLOC_PC,
                pcc_change: pcc,
            }
        );
        let alloc = self
            .heap
            .malloc(size)
            .map_err(|e| InterpError::BadProgram { msg: e.to_string() })?;

        let class = HeapAllocator::size_class(size);
        let meta = self.prog.map.heap.0 + (class / 16 % META_LINES) * 64;
        for i in 0..14u64 {
            femit!(
                self,
                sink,
                RT_MALLOC_PC + i * 4,
                OpClass::Runtime,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let cap_meta = self.cap_abi;
        let meta_sz: u8 = if cap_meta { 16 } else { 8 };
        femit!(
            self,
            sink,
            RT_MALLOC_PC + 56,
            OpClass::Runtime,
            RetiredInfo::Load {
                addr: meta,
                size: meta_sz,
                is_cap: cap_meta,
                dep_load: false,
            }
        );
        femit!(
            self,
            sink,
            RT_MALLOC_PC + 60,
            OpClass::Runtime,
            RetiredInfo::Load {
                addr: meta + 16,
                size: meta_sz,
                is_cap: cap_meta,
                dep_load: true,
            }
        );
        femit!(
            self,
            sink,
            RT_MALLOC_PC + 64,
            OpClass::Runtime,
            RetiredInfo::Store {
                addr: meta + 16,
                size: meta_sz,
                is_cap: cap_meta,
            }
        );
        if self.cap_abi {
            for i in 0..10u64 {
                femit!(
                    self,
                    sink,
                    RT_MALLOC_PC + 68 + i * 4,
                    OpClass::Runtime,
                    RetiredInfo::CapManip
                );
            }
            for i in 0..26u64 {
                femit!(
                    self,
                    sink,
                    RT_MALLOC_PC + 108 + i * 4,
                    OpClass::Runtime,
                    RetiredInfo::Simple(InstClass::Dp)
                );
            }
            femit!(
                self,
                sink,
                RT_MALLOC_PC + 156,
                OpClass::Runtime,
                RetiredInfo::Store {
                    addr: meta + 32,
                    size: 16,
                    is_cap: true,
                }
            );
            let revbm = self.prog.map.heap.0 + (1 << 19) + (alloc.addr >> 10 & 0x3FFFF);
            femit!(
                self,
                sink,
                RT_MALLOC_PC + 160,
                OpClass::Runtime,
                RetiredInfo::Load {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                    dep_load: false,
                }
            );
            femit!(
                self,
                sink,
                RT_MALLOC_PC + 164,
                OpClass::Runtime,
                RetiredInfo::Load {
                    addr: revbm + 64,
                    size: 8,
                    is_cap: false,
                    dep_load: true,
                }
            );
            femit!(
                self,
                sink,
                RT_MALLOC_PC + 168,
                OpClass::Runtime,
                RetiredInfo::Store {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                }
            );
            let cap = self
                .data_root
                .set_bounds_exact(alloc.addr, alloc.padded)
                .expect("allocator guarantees representable bounds");
            self.regs[dst_idx] = Value::Cap(cap);
        } else {
            self.regs[dst_idx] = Value::Int(alloc.addr);
        }
        self.taints[dst_idx] = 0;
        femit!(
            self,
            sink,
            RT_MALLOC_PC + 92,
            OpClass::Runtime,
            RetiredInfo::Branch {
                kind: BranchKind::Return,
                taken: true,
                target: pc + 4,
                pcc_change: pcc,
            }
        );
        Ok(())
    }

    fn run_free<S: EventSink>(
        &mut self,
        addr: u64,
        pc: u64,
        sink: &mut S,
    ) -> Result<(), InterpError> {
        let pcc = false; // see run_malloc
        femit!(
            self,
            sink,
            pc,
            OpClass::Branch,
            RetiredInfo::Branch {
                kind: BranchKind::Call,
                taken: true,
                target: RT_FREE_PC,
                pcc_change: pcc,
            }
        );
        let outcome = self
            .heap
            .free(&mut self.mem, addr)
            .map_err(|e| InterpError::BadProgram { msg: e.to_string() })?;
        for i in 0..8u64 {
            femit!(
                self,
                sink,
                RT_FREE_PC + i * 4,
                OpClass::Runtime,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let cap_meta = self.cap_abi;
        let meta_sz: u8 = if cap_meta { 16 } else { 8 };
        let meta = self.prog.map.heap.0 + (addr / 64 % META_LINES) * 64;
        femit!(
            self,
            sink,
            RT_FREE_PC + 32,
            OpClass::Runtime,
            RetiredInfo::Load {
                addr: meta,
                size: meta_sz,
                is_cap: cap_meta,
                dep_load: false,
            }
        );
        femit!(
            self,
            sink,
            RT_FREE_PC + 36,
            OpClass::Runtime,
            RetiredInfo::Store {
                addr: meta,
                size: meta_sz,
                is_cap: cap_meta,
            }
        );
        if self.cap_abi {
            for i in 0..4u64 {
                femit!(
                    self,
                    sink,
                    RT_FREE_PC + 40 + i * 4,
                    OpClass::Runtime,
                    RetiredInfo::CapManip
                );
            }
            for i in 0..6u64 {
                femit!(
                    self,
                    sink,
                    RT_FREE_PC + 56 + i * 4,
                    OpClass::Runtime,
                    RetiredInfo::Simple(InstClass::Dp)
                );
            }
            let revbm = self.prog.map.heap.0 + (1 << 19) + (addr >> 10 & 0x3FFFF);
            femit!(
                self,
                sink,
                RT_FREE_PC + 80,
                OpClass::Runtime,
                RetiredInfo::Load {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                    dep_load: false,
                }
            );
            femit!(
                self,
                sink,
                RT_FREE_PC + 84,
                OpClass::Runtime,
                RetiredInfo::Store {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                }
            );
            femit!(
                self,
                sink,
                RT_FREE_PC + 88,
                OpClass::Runtime,
                RetiredInfo::Store {
                    addr: revbm + 64,
                    size: 8,
                    is_cap: false,
                }
            );
        }
        if let Some(sweep) = outcome.sweep {
            self.emit_sweep(&sweep, sink);
        }
        femit!(
            self,
            sink,
            RT_FREE_PC + 48,
            OpClass::Runtime,
            RetiredInfo::Branch {
                kind: BranchKind::Return,
                taken: true,
                target: pc + 4,
                pcc_change: pcc,
            }
        );
        Ok(())
    }

    fn emit_sweep<S: EventSink>(&mut self, sweep: &SweepOutcome, sink: &mut S) {
        for i in 0..4u64 {
            femit!(
                self,
                sink,
                RT_SWEEP_PC + i * 4,
                OpClass::Meta,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let mut page_boundary = 0u64;
        for (i, acc) in sweep.accesses.iter().enumerate() {
            let pc = RT_SWEEP_PC + 16 + (i as u64 % 48) * 4;
            if acc.write {
                femit!(
                    self,
                    sink,
                    pc,
                    OpClass::Meta,
                    RetiredInfo::Store {
                        addr: acc.addr,
                        size: acc.size,
                        is_cap: acc.is_cap,
                    }
                );
            } else {
                femit!(
                    self,
                    sink,
                    pc,
                    OpClass::Meta,
                    RetiredInfo::Load {
                        addr: acc.addr,
                        size: acc.size,
                        is_cap: acc.is_cap,
                        dep_load: false,
                    }
                );
            }
            femit!(
                self,
                sink,
                pc + 4,
                OpClass::Meta,
                RetiredInfo::Simple(InstClass::Dp)
            );
            if acc.addr >> 12 != page_boundary {
                page_boundary = acc.addr >> 12;
                femit!(
                    self,
                    sink,
                    RT_SWEEP_PC + 16 + 49 * 4,
                    OpClass::Meta,
                    RetiredInfo::Branch {
                        kind: BranchKind::Immediate,
                        taken: true,
                        target: RT_SWEEP_PC + 16,
                        pcc_change: false,
                    }
                );
            }
        }
    }
}

// ---- Direct-threaded interior handlers -------------------------------------
//
// The fast engine's only implementation of the ops `pack` accepts.
// One free function per micro-op kind (see `decoded::mk`), fully
// specialised: no operand-form, size, or sub-op `match` survives inside
// a handler — `eval_int_op`/`eval_float_op` are called with constant
// ops so their internal dispatch const-folds away. Handlers read the
// frame base and function index from the block-loop-synced
// `FastMachine::{rb, fi}` fields, report errors by parking them in
// `FastMachine::err` and returning `Ctl::Die`, and emit events through
// `FastMachine::iemit` (per-op bookkeeping is hoisted to the block
// boundary). Memory handlers and `MOV_NULL` are additionally
// monomorphised over the ABI (`const CAP: bool`).

/// Handler outcome: continue with the next interior op, or stop the
/// block because the op faulted (the error is in [`FastMachine::err`]).
enum Ctl {
    Next,
    Die,
}

/// How the trap handler lets a run go on after a capability fault.
enum Recovery {
    /// Resume after the faulting op.
    Skip,
    /// Drop the faulting frame and resume at its caller.
    Unwind,
}

/// How a block's interiors, or a due terminator's fetch poll, ended.
enum Ran {
    /// Ran to the end: go on to the terminator (or run it).
    ToEnd,
    /// The trap handler skipped the terminator.
    Skipped,
    /// The trap handler unwound the frame.
    Unwound,
}

/// A dispatch-table entry.
type Handler<S> = for<'a, 'b, 'c, 'p> fn(&'a mut FastMachine<'p>, &'b mut S, &'c MicroOp) -> Ctl;

/// Unwraps a `Result` inside a handler, converting `Err` into the
/// park-and-die protocol.
macro_rules! get {
    ($m:ident, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => {
                $m.err = Some(e);
                return Ctl::Die;
            }
        }
    };
}

/// Rebuilds the exact ALU event info from the packed long-latency byte.
#[inline(always)]
fn ll_info(class: InstClass, ll: u8) -> RetiredInfo {
    if ll == 0 {
        RetiredInfo::Simple(class)
    } else {
        RetiredInfo::LongLatency { class, extra: ll }
    }
}

/// Expands to the `(offset value, offset taint)` pair for a memory
/// handler's offset mode (`imm`/`reg`/`scl`): immediate, register, or
/// register scaled by the access width.
macro_rules! off_val {
    ($m:ident, $o:ident, imm) => {
        ($o.imm as i64, 0u64)
    };
    ($m:ident, $o:ident, reg) => {{
        let r = $m.rb + $o.b as usize;
        (get!($m, $m.as_int(r, $o.pc)) as i64, $m.taints[r])
    }};
    ($m:ident, $o:ident, scl) => {{
        let r = $m.rb + $o.b as usize;
        (
            (get!($m, $m.as_int(r, $o.pc)) as i64).wrapping_mul($o.sz as i64),
            $m.taints[r],
        )
    }};
}

fn h_bad_kind<S: EventSink>(_m: &mut FastMachine<'_>, _sink: &mut S, o: &MicroOp) -> Ctl {
    unreachable!("no handler for micro-op kind {} at pc {:#x}", o.kind, o.pc)
}

fn h_mov_imm<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::Int(o.imm);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_mov_f64<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::F64(f64::from_bits(o.imm));
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_mov<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let d = rb + o.dst as usize;
    m.regs[d] = m.regs[rb + o.a as usize];
    m.taints[d] = m.taints[rb + o.a as usize];
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

/// Defines the register-register / register-immediate handler pair for
/// one integer ALU op. The constant `$op` lets `eval_int_op`'s dispatch
/// const-fold into the single operation.
macro_rules! alu_h {
    ($rr:ident, $ri:ident, $op:expr) => {
        fn $rr<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_int(rb + o.a as usize, o.pc));
            let bv = get!(m, m.as_int(rb + o.b as usize, o.pc));
            let t = m.taints[rb + o.a as usize].max(m.taints[rb + o.b as usize]);
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Int(eval_int_op($op, av, bv));
            m.taints[d] = t;
            m.iemit(sink, o.pc, OpClass::IntAlu, ll_info(InstClass::Dp, o.sz));
            Ctl::Next
        }
        fn $ri<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_int(rb + o.a as usize, o.pc));
            let t = m.taints[rb + o.a as usize];
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Int(eval_int_op($op, av, o.imm));
            m.taints[d] = t;
            m.iemit(sink, o.pc, OpClass::IntAlu, ll_info(InstClass::Dp, o.sz));
            Ctl::Next
        }
    };
}

alu_h!(h_add_rr, h_add_ri, IntOp::Add);
alu_h!(h_sub_rr, h_sub_ri, IntOp::Sub);
alu_h!(h_mul_rr, h_mul_ri, IntOp::Mul);
alu_h!(h_udiv_rr, h_udiv_ri, IntOp::UDiv);
alu_h!(h_urem_rr, h_urem_ri, IntOp::URem);
alu_h!(h_and_rr, h_and_ri, IntOp::And);
alu_h!(h_orr_rr, h_orr_ri, IntOp::Orr);
alu_h!(h_eor_rr, h_eor_ri, IntOp::Eor);
alu_h!(h_lsl_rr, h_lsl_ri, IntOp::Lsl);
alu_h!(h_lsr_rr, h_lsr_ri, IntOp::Lsr);
alu_h!(h_asr_rr, h_asr_ri, IntOp::Asr);

fn h_madd<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let av = get!(m, m.as_int(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_int(rb + o.b as usize, o.pc));
    let cv = get!(m, m.as_int(rb + o.aux as usize, o.pc));
    let t = m.taints[rb + o.a as usize]
        .max(m.taints[rb + o.b as usize])
        .max(m.taints[rb + o.aux as usize]);
    let d = rb + o.dst as usize;
    m.regs[d] = Value::Int(av.wrapping_mul(bv).wrapping_add(cv));
    m.taints[d] = t;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::LongLatency {
            class: InstClass::Dp,
            extra: 1,
        },
    );
    Ctl::Next
}

/// Defines the handler for one float ALU op (same const-fold trick as
/// [`alu_h`]).
macro_rules! falu_h {
    ($name:ident, $op:expr) => {
        fn $name<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
            let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
            let d = rb + o.dst as usize;
            m.regs[d] = Value::F64(eval_float_op($op, av, bv));
            m.taints[d] = 0;
            m.iemit(sink, o.pc, OpClass::IntAlu, ll_info(InstClass::Vfp, o.sz));
            Ctl::Next
        }
    };
}

falu_h!(h_fadd, FloatOp::FAdd);
falu_h!(h_fsub, FloatOp::FSub);
falu_h!(h_fmul, FloatOp::FMul);
falu_h!(h_fdiv, FloatOp::FDiv);
falu_h!(h_fmin, FloatOp::FMin);
falu_h!(h_fmax, FloatOp::FMax);
falu_h!(h_fsqrt, FloatOp::FSqrt);

fn h_fmadd<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
    let cv = get!(m, m.as_f64(rb + o.aux as usize, o.pc));
    let d = rb + o.dst as usize;
    m.regs[d] = Value::F64(av.mul_add(bv, cv));
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Vfp),
    );
    Ctl::Next
}

/// Defines the handler for one folded f64 comparison ordering.
macro_rules! fcmp_h {
    ($name:ident, $op:tt) => {
        fn $name<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
            let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Int(u64::from(av $op bv));
            m.taints[d] = 0;
            m.iemit(sink, o.pc, OpClass::IntAlu, RetiredInfo::Simple(InstClass::Vfp));
            Ctl::Next
        }
    };
}

fcmp_h!(h_fceq, ==);
fcmp_h!(h_fcne, !=);
fcmp_h!(h_fclt, <);
fcmp_h!(h_fcle, <=);
fcmp_h!(h_fcgt, >);
fcmp_h!(h_fcge, >=);

fn h_vadd<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
    let d = rb + o.dst as usize;
    m.regs[d] = Value::F64(av + bv);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Ase),
    );
    Ctl::Next
}

fn h_vmul<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
    let d = rb + o.dst as usize;
    m.regs[d] = Value::F64(av * bv);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Ase),
    );
    Ctl::Next
}

fn h_vfma<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let d = rb + o.dst as usize;
    let acc = get!(m, m.as_f64(d, o.pc));
    let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
    m.regs[d] = Value::F64(av.mul_add(bv, acc));
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Ase),
    );
    Ctl::Next
}

fn h_vsad<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let d = rb + o.dst as usize;
    let acc = get!(m, m.as_int(d, o.pc));
    let av = get!(m, m.as_int(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_int(rb + o.b as usize, o.pc));
    m.regs[d] = Value::Int(acc.wrapping_add(av.abs_diff(bv)));
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Ase),
    );
    Ctl::Next
}

fn h_cvt_to_int<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let v = get!(m, m.as_f64(m.rb + o.a as usize, o.pc));
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::Int(v as i64 as u64);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Vfp),
    );
    Ctl::Next
}

fn h_cvt_to_f64<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let v = get!(m, m.as_int(m.rb + o.a as usize, o.pc));
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::F64(v as i64 as f64);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Vfp),
    );
    Ctl::Next
}

fn h_lea<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::Int(o.imm);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_mov_null<S: EventSink, const CAP: bool>(
    m: &mut FastMachine<'_>,
    sink: &mut S,
    o: &MicroOp,
) -> Ctl {
    let d = m.rb + o.dst as usize;
    m.regs[d] = if CAP {
        Value::Cap(Capability::null())
    } else {
        Value::Int(0)
    };
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

// `PtrAdd`/`PtrToInt` skip the taint write, exactly like the reference
// (pre-lowering misuse shims).
fn h_ptr_add_rr<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let b = get!(m, m.as_int(rb + o.a as usize, o.pc));
    let ov = get!(m, m.as_int(rb + o.b as usize, o.pc));
    m.regs[rb + o.dst as usize] = Value::Int(b.wrapping_add(ov));
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_ptr_add_ri<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let b = get!(m, m.as_int(rb + o.a as usize, o.pc));
    m.regs[rb + o.dst as usize] = Value::Int(b.wrapping_add(o.imm));
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_ptr_to_int<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let r = match m.regs[rb + o.a as usize] {
        Value::Int(i) => i,
        Value::Cap(c) => c.address(),
        Value::F64(_) => {
            m.err = Some(InterpError::TypeConfusion {
                pc: o.pc,
                expected: "pointer",
            });
            return Ctl::Die;
        }
    };
    m.regs[rb + o.dst as usize] = Value::Int(r);
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_load_ct<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let (cc, tag) = get!(
        m,
        m.mem
            .load_cap(o.imm)
            .map_err(|err| InterpError::Mem { err, pc: o.pc })
    );
    let mut cap = Capability::from_compressed(cc, tag);
    let off = o.aux as i32;
    if off != 0 {
        cap = cap.inc_address(i64::from(off));
    }
    m.load_seq += 1;
    let seq = m.load_seq;
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::Cap(cap);
    m.taints[d] = seq;
    m.iemit(
        sink,
        o.pc,
        OpClass::MemCap,
        RetiredInfo::Load {
            addr: o.imm,
            size: 16,
            is_cap: true,
            dep_load: false,
        },
    );
    Ctl::Next
}

/// Defines one narrow integer-load handler (u8/u16/u32, widened).
macro_rules! load_int_h {
    ($name:ident, $mode:tt, $bytes:expr, $rd:ident) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let rb = m.rb;
            let (off_v, off_taint) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(
                m,
                m.resolve_c::<CAP>(o.a, off_v, $bytes, false, false, o.pc)
            );
            let base_taint = m.taints[rb + o.a as usize].max(off_taint);
            let dep = m.dep_load(base_taint);
            let v = get!(
                m,
                m.mem
                    .$rd(addr)
                    .map(u64::from)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.load_seq += 1;
            let seq = m.load_seq;
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Int(v);
            m.taints[d] = seq;
            m.iemit(
                sink,
                o.pc,
                OpClass::MemScalar,
                RetiredInfo::Load {
                    addr,
                    size: $bytes,
                    is_cap: false,
                    dep_load: dep,
                },
            );
            Ctl::Next
        }
    };
}

load_int_h!(h_ld_u8_imm, imm, 1, read_u8);
load_int_h!(h_ld_u8_reg, reg, 1, read_u8);
load_int_h!(h_ld_u8_scl, scl, 1, read_u8);
load_int_h!(h_ld_u16_imm, imm, 2, read_u16);
load_int_h!(h_ld_u16_reg, reg, 2, read_u16);
load_int_h!(h_ld_u16_scl, scl, 2, read_u16);
load_int_h!(h_ld_u32_imm, imm, 4, read_u32);
load_int_h!(h_ld_u32_reg, reg, 4, read_u32);
load_int_h!(h_ld_u32_scl, scl, 4, read_u32);

/// Defines one u64/f64 load handler (`$wrap` rebuilds the register
/// value from the raw 8-byte read).
macro_rules! load_word_h {
    ($name:ident, $mode:tt, $wrap:path) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let rb = m.rb;
            let (off_v, off_taint) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, 8, false, false, o.pc));
            let base_taint = m.taints[rb + o.a as usize].max(off_taint);
            let dep = m.dep_load(base_taint);
            let v = get!(
                m,
                m.mem
                    .read_u64(addr)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.load_seq += 1;
            let seq = m.load_seq;
            let d = rb + o.dst as usize;
            m.regs[d] = $wrap(v);
            m.taints[d] = seq;
            m.iemit(
                sink,
                o.pc,
                OpClass::MemScalar,
                RetiredInfo::Load {
                    addr,
                    size: 8,
                    is_cap: false,
                    dep_load: dep,
                },
            );
            Ctl::Next
        }
    };
}

#[inline(always)]
fn word_as_int(v: u64) -> Value {
    Value::Int(v)
}

#[inline(always)]
fn word_as_f64(v: u64) -> Value {
    Value::F64(f64::from_bits(v))
}

load_word_h!(h_ld_u64_imm, imm, word_as_int);
load_word_h!(h_ld_u64_reg, reg, word_as_int);
load_word_h!(h_ld_u64_scl, scl, word_as_int);
load_word_h!(h_ld_f64_imm, imm, word_as_f64);
load_word_h!(h_ld_f64_reg, reg, word_as_f64);
load_word_h!(h_ld_f64_scl, scl, word_as_f64);

/// Defines one capability-load handler (Morello tag-strip on missing
/// LOAD_CAP, like the reference).
macro_rules! load_cap_h {
    ($name:ident, $mode:tt) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let rb = m.rb;
            let (off_v, off_taint) = off_val!(m, o, $mode);
            let (addr, auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, 16, false, false, o.pc));
            let base_taint = m.taints[rb + o.a as usize].max(off_taint);
            let dep = m.dep_load(base_taint);
            let (cc, mut tag) = get!(
                m,
                m.mem
                    .load_cap(addr)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            if let Some(a) = auth {
                if !a.perms().contains(Perms::LOAD_CAP) {
                    tag = false;
                }
            }
            m.load_seq += 1;
            let seq = m.load_seq;
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Cap(Capability::from_compressed(cc, tag));
            m.taints[d] = seq;
            m.iemit(
                sink,
                o.pc,
                OpClass::MemCap,
                RetiredInfo::Load {
                    addr,
                    size: 16,
                    is_cap: true,
                    dep_load: dep,
                },
            );
            Ctl::Next
        }
    };
}

load_cap_h!(h_ld_cap_imm, imm);
load_cap_h!(h_ld_cap_reg, reg);
load_cap_h!(h_ld_cap_scl, scl);

/// Defines one narrow integer-store handler (truncating cast).
macro_rules! store_int_h {
    ($name:ident, $mode:tt, $bytes:expr, $wr:ident, $cast:ty) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let (off_v, _t) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, $bytes, true, false, o.pc));
            let v = get!(m, m.as_int(m.rb + o.dst as usize, o.pc));
            get!(
                m,
                m.mem
                    .$wr(addr, v as $cast)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.iemit(
                sink,
                o.pc,
                OpClass::MemScalar,
                RetiredInfo::Store {
                    addr,
                    size: $bytes,
                    is_cap: false,
                },
            );
            Ctl::Next
        }
    };
}

store_int_h!(h_st_u8_imm, imm, 1, write_u8, u8);
store_int_h!(h_st_u8_reg, reg, 1, write_u8, u8);
store_int_h!(h_st_u8_scl, scl, 1, write_u8, u8);
store_int_h!(h_st_u16_imm, imm, 2, write_u16, u16);
store_int_h!(h_st_u16_reg, reg, 2, write_u16, u16);
store_int_h!(h_st_u16_scl, scl, 2, write_u16, u16);
store_int_h!(h_st_u32_imm, imm, 4, write_u32, u32);
store_int_h!(h_st_u32_reg, reg, 4, write_u32, u32);
store_int_h!(h_st_u32_scl, scl, 4, write_u32, u32);

/// Defines one u64/f64 store handler (`$src` reads the source register
/// as raw 8-byte payload).
macro_rules! store_word_h {
    ($name:ident, $mode:tt, $src:ident) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let (off_v, _t) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, 8, true, false, o.pc));
            let v = get!(m, $src(m, o));
            get!(
                m,
                m.mem
                    .write_u64(addr, v)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.iemit(
                sink,
                o.pc,
                OpClass::MemScalar,
                RetiredInfo::Store {
                    addr,
                    size: 8,
                    is_cap: false,
                },
            );
            Ctl::Next
        }
    };
}

#[inline(always)]
fn src_int(m: &FastMachine<'_>, o: &MicroOp) -> Result<u64, InterpError> {
    m.as_int(m.rb + o.dst as usize, o.pc)
}

#[inline(always)]
fn src_f64_bits(m: &FastMachine<'_>, o: &MicroOp) -> Result<u64, InterpError> {
    m.as_f64(m.rb + o.dst as usize, o.pc).map(f64::to_bits)
}

store_word_h!(h_st_u64_imm, imm, src_int);
store_word_h!(h_st_u64_reg, reg, src_int);
store_word_h!(h_st_u64_scl, scl, src_int);
store_word_h!(h_st_f64_imm, imm, src_f64_bits);
store_word_h!(h_st_f64_reg, reg, src_f64_bits);
store_word_h!(h_st_f64_scl, scl, src_f64_bits);

/// Defines one capability-store handler.
macro_rules! store_cap_h {
    ($name:ident, $mode:tt) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let (off_v, _t) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, 16, true, true, o.pc));
            let c = get!(m, m.as_cap(m.rb + o.dst as usize, o.pc));
            get!(
                m,
                m.mem
                    .store_cap(addr, c.to_compressed(), c.tag())
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.iemit(
                sink,
                o.pc,
                OpClass::MemCap,
                RetiredInfo::Store {
                    addr,
                    size: 16,
                    is_cap: true,
                },
            );
            Ctl::Next
        }
    };
}

store_cap_h!(h_st_cap_imm, imm);
store_cap_h!(h_st_cap_reg, reg);
store_cap_h!(h_st_cap_scl, scl);

/// Defines the RR/RI handler pair for one two-operand capability op.
/// `$body` produces the result `Value` from capability `$c` and integer
/// operand `$v` (idents passed in so the expansion stays hygienic).
macro_rules! cap_rr_ri {
    ($rr:ident, $ri:ident, |$m:ident, $o:ident, $c:ident, $v:ident| $body:expr) => {
        fn $rr<S: EventSink>($m: &mut FastMachine<'_>, sink: &mut S, $o: &MicroOp) -> Ctl {
            let rb = $m.rb;
            let t = $m.taints[rb + $o.a as usize];
            let $c = get!($m, $m.as_cap(rb + $o.a as usize, $o.pc));
            let $v = get!($m, $m.as_int(rb + $o.b as usize, $o.pc));
            let r: Value = $body;
            $m.regs[rb + $o.dst as usize] = r;
            $m.taints[rb + $o.dst as usize] = t;
            $m.iemit(sink, $o.pc, OpClass::CapManip, RetiredInfo::CapManip);
            Ctl::Next
        }
        fn $ri<S: EventSink>($m: &mut FastMachine<'_>, sink: &mut S, $o: &MicroOp) -> Ctl {
            let rb = $m.rb;
            let t = $m.taints[rb + $o.a as usize];
            let $c = get!($m, $m.as_cap(rb + $o.a as usize, $o.pc));
            let $v = $o.imm;
            let r: Value = $body;
            $m.regs[rb + $o.dst as usize] = r;
            $m.taints[rb + $o.dst as usize] = t;
            $m.iemit(sink, $o.pc, OpClass::CapManip, RetiredInfo::CapManip);
            Ctl::Next
        }
    };
}

cap_rr_ri!(h_cinc_rr, h_cinc_ri, |m, o, c, v| Value::Cap(
    c.inc_address(v as i64)
));
cap_rr_ri!(h_csetaddr_rr, h_csetaddr_ri, |m, o, c, v| Value::Cap(
    c.set_address(v)
));
cap_rr_ri!(h_csetb_rr, h_csetb_ri, |m, o, c, v| Value::Cap(get!(
    m,
    c.set_bounds(c.address(), v).map_err(|f| cap_fault(f, o.pc))
)));
cap_rr_ri!(h_csetbe_rr, h_csetbe_ri, |m, o, c, v| Value::Cap(get!(
    m,
    c.set_bounds_exact(c.address(), v)
        .map_err(|f| cap_fault(f, o.pc))
)));
cap_rr_ri!(h_candp_rr, h_candp_ri, |m, o, c, v| Value::Cap(get!(
    m,
    c.and_perms(Perms::from_bits_truncate(v as u32))
        .map_err(|f| cap_fault(f, o.pc))
)));

/// Defines the handler for one single-operand capability op.
macro_rules! cap_un_h {
    ($name:ident, |$m:ident, $o:ident, $c:ident| $body:expr) => {
        fn $name<S: EventSink>($m: &mut FastMachine<'_>, sink: &mut S, $o: &MicroOp) -> Ctl {
            let rb = $m.rb;
            let t = $m.taints[rb + $o.a as usize];
            let $c = get!($m, $m.as_cap(rb + $o.a as usize, $o.pc));
            let r: Value = $body;
            $m.regs[rb + $o.dst as usize] = r;
            $m.taints[rb + $o.dst as usize] = t;
            $m.iemit(sink, $o.pc, OpClass::CapManip, RetiredInfo::CapManip);
            Ctl::Next
        }
    };
}

cap_un_h!(h_cgetaddr, |m, o, c| Value::Int(c.address()));
cap_un_h!(h_cgetlen, |m, o, c| Value::Int(c.length()));
cap_un_h!(h_cgetbase, |m, o, c| Value::Int(c.base()));
cap_un_h!(h_cgettag, |m, o, c| Value::Int(u64::from(c.tag())));
cap_un_h!(h_cseale, |m, o, c| Value::Cap(get!(
    m,
    c.seal_sentry().map_err(|f| cap_fault(f, o.pc))
)));
cap_un_h!(h_ccleartag, |m, o, c| Value::Cap(c.clear_tag()));

/// Defines the handler for one sealing op (cap × auth-cap).
macro_rules! cap2_h {
    ($name:ident, $method:ident) => {
        fn $name<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_cap(rb + o.a as usize, o.pc));
            let authv = get!(m, m.as_cap(rb + o.b as usize, o.pc));
            let r = get!(m, av.$method(&authv).map_err(|f| cap_fault(f, o.pc)));
            let t = m.taints[rb + o.a as usize];
            m.regs[rb + o.dst as usize] = Value::Cap(r);
            m.taints[rb + o.dst as usize] = t;
            m.iemit(sink, o.pc, OpClass::CapManip, RetiredInfo::CapManip);
            Ctl::Next
        }
    };
}

cap2_h!(h_cseal, seal);
cap2_h!(h_cunseal, unseal);

/// Builds the 256-entry dispatch table for the sink/ABI pair. Entries
/// not covered by a packed kind point at [`h_bad_kind`] (unreachable:
/// `pack` only produces kinds assigned here). The `u8` index means the
/// hot-loop lookup needs no bounds check.
fn handler_table<S: EventSink>(cap_abi: bool) -> [Handler<S>; 256] {
    if cap_abi {
        build_table::<S, true>()
    } else {
        build_table::<S, false>()
    }
}

fn build_table<S: EventSink, const CAP: bool>() -> [Handler<S>; 256] {
    let mut t: [Handler<S>; 256] = [h_bad_kind as Handler<S>; 256];
    t[mk::MOV_IMM as usize] = h_mov_imm;
    t[mk::MOV_F64 as usize] = h_mov_f64;
    t[mk::MOV as usize] = h_mov;
    t[mk::ADD_RR as usize] = h_add_rr;
    t[mk::ADD_RI as usize] = h_add_ri;
    t[mk::SUB_RR as usize] = h_sub_rr;
    t[mk::SUB_RI as usize] = h_sub_ri;
    t[mk::MUL_RR as usize] = h_mul_rr;
    t[mk::MUL_RI as usize] = h_mul_ri;
    t[mk::UDIV_RR as usize] = h_udiv_rr;
    t[mk::UDIV_RI as usize] = h_udiv_ri;
    t[mk::UREM_RR as usize] = h_urem_rr;
    t[mk::UREM_RI as usize] = h_urem_ri;
    t[mk::AND_RR as usize] = h_and_rr;
    t[mk::AND_RI as usize] = h_and_ri;
    t[mk::ORR_RR as usize] = h_orr_rr;
    t[mk::ORR_RI as usize] = h_orr_ri;
    t[mk::EOR_RR as usize] = h_eor_rr;
    t[mk::EOR_RI as usize] = h_eor_ri;
    t[mk::LSL_RR as usize] = h_lsl_rr;
    t[mk::LSL_RI as usize] = h_lsl_ri;
    t[mk::LSR_RR as usize] = h_lsr_rr;
    t[mk::LSR_RI as usize] = h_lsr_ri;
    t[mk::ASR_RR as usize] = h_asr_rr;
    t[mk::ASR_RI as usize] = h_asr_ri;
    t[mk::MADD as usize] = h_madd;
    t[mk::FADD as usize] = h_fadd;
    t[mk::FSUB as usize] = h_fsub;
    t[mk::FMUL as usize] = h_fmul;
    t[mk::FDIV as usize] = h_fdiv;
    t[mk::FMIN as usize] = h_fmin;
    t[mk::FMAX as usize] = h_fmax;
    t[mk::FSQRT as usize] = h_fsqrt;
    t[mk::FMADD as usize] = h_fmadd;
    t[mk::FCEQ as usize] = h_fceq;
    t[mk::FCNE as usize] = h_fcne;
    t[mk::FCLT as usize] = h_fclt;
    t[mk::FCLE as usize] = h_fcle;
    t[mk::FCGT as usize] = h_fcgt;
    t[mk::FCGE as usize] = h_fcge;
    t[mk::VADD as usize] = h_vadd;
    t[mk::VMUL as usize] = h_vmul;
    t[mk::VFMA as usize] = h_vfma;
    t[mk::VSAD as usize] = h_vsad;
    t[mk::CVT_TO_INT as usize] = h_cvt_to_int;
    t[mk::CVT_TO_F64 as usize] = h_cvt_to_f64;
    t[mk::LEA as usize] = h_lea;
    t[mk::MOV_NULL as usize] = h_mov_null::<S, CAP>;
    t[mk::PTR_ADD_RR as usize] = h_ptr_add_rr;
    t[mk::PTR_ADD_RI as usize] = h_ptr_add_ri;
    t[mk::PTR_TO_INT as usize] = h_ptr_to_int;
    t[mk::LOAD_CT as usize] = h_load_ct;
    t[mk::LD_U8_IMM as usize] = h_ld_u8_imm::<S, CAP>;
    t[mk::LD_U8_IMM as usize + 1] = h_ld_u8_reg::<S, CAP>;
    t[mk::LD_U8_IMM as usize + 2] = h_ld_u8_scl::<S, CAP>;
    t[mk::LD_U16_IMM as usize] = h_ld_u16_imm::<S, CAP>;
    t[mk::LD_U16_IMM as usize + 1] = h_ld_u16_reg::<S, CAP>;
    t[mk::LD_U16_IMM as usize + 2] = h_ld_u16_scl::<S, CAP>;
    t[mk::LD_U32_IMM as usize] = h_ld_u32_imm::<S, CAP>;
    t[mk::LD_U32_IMM as usize + 1] = h_ld_u32_reg::<S, CAP>;
    t[mk::LD_U32_IMM as usize + 2] = h_ld_u32_scl::<S, CAP>;
    t[mk::LD_U64_IMM as usize] = h_ld_u64_imm::<S, CAP>;
    t[mk::LD_U64_IMM as usize + 1] = h_ld_u64_reg::<S, CAP>;
    t[mk::LD_U64_IMM as usize + 2] = h_ld_u64_scl::<S, CAP>;
    t[mk::LD_F64_IMM as usize] = h_ld_f64_imm::<S, CAP>;
    t[mk::LD_F64_IMM as usize + 1] = h_ld_f64_reg::<S, CAP>;
    t[mk::LD_F64_IMM as usize + 2] = h_ld_f64_scl::<S, CAP>;
    t[mk::LD_CAP_IMM as usize] = h_ld_cap_imm::<S, CAP>;
    t[mk::LD_CAP_IMM as usize + 1] = h_ld_cap_reg::<S, CAP>;
    t[mk::LD_CAP_IMM as usize + 2] = h_ld_cap_scl::<S, CAP>;
    t[mk::ST_U8_IMM as usize] = h_st_u8_imm::<S, CAP>;
    t[mk::ST_U8_IMM as usize + 1] = h_st_u8_reg::<S, CAP>;
    t[mk::ST_U8_IMM as usize + 2] = h_st_u8_scl::<S, CAP>;
    t[mk::ST_U16_IMM as usize] = h_st_u16_imm::<S, CAP>;
    t[mk::ST_U16_IMM as usize + 1] = h_st_u16_reg::<S, CAP>;
    t[mk::ST_U16_IMM as usize + 2] = h_st_u16_scl::<S, CAP>;
    t[mk::ST_U32_IMM as usize] = h_st_u32_imm::<S, CAP>;
    t[mk::ST_U32_IMM as usize + 1] = h_st_u32_reg::<S, CAP>;
    t[mk::ST_U32_IMM as usize + 2] = h_st_u32_scl::<S, CAP>;
    t[mk::ST_U64_IMM as usize] = h_st_u64_imm::<S, CAP>;
    t[mk::ST_U64_IMM as usize + 1] = h_st_u64_reg::<S, CAP>;
    t[mk::ST_U64_IMM as usize + 2] = h_st_u64_scl::<S, CAP>;
    t[mk::ST_F64_IMM as usize] = h_st_f64_imm::<S, CAP>;
    t[mk::ST_F64_IMM as usize + 1] = h_st_f64_reg::<S, CAP>;
    t[mk::ST_F64_IMM as usize + 2] = h_st_f64_scl::<S, CAP>;
    t[mk::ST_CAP_IMM as usize] = h_st_cap_imm::<S, CAP>;
    t[mk::ST_CAP_IMM as usize + 1] = h_st_cap_reg::<S, CAP>;
    t[mk::ST_CAP_IMM as usize + 2] = h_st_cap_scl::<S, CAP>;
    t[mk::CINC_RR as usize] = h_cinc_rr;
    t[mk::CINC_RI as usize] = h_cinc_ri;
    t[mk::CSETADDR_RR as usize] = h_csetaddr_rr;
    t[mk::CSETADDR_RI as usize] = h_csetaddr_ri;
    t[mk::CSETB_RR as usize] = h_csetb_rr;
    t[mk::CSETB_RI as usize] = h_csetb_ri;
    t[mk::CSETBE_RR as usize] = h_csetbe_rr;
    t[mk::CSETBE_RI as usize] = h_csetbe_ri;
    t[mk::CANDP_RR as usize] = h_candp_rr;
    t[mk::CANDP_RI as usize] = h_candp_ri;
    t[mk::CGETADDR as usize] = h_cgetaddr;
    t[mk::CGETLEN as usize] = h_cgetlen;
    t[mk::CGETBASE as usize] = h_cgetbase;
    t[mk::CGETTAG as usize] = h_cgettag;
    t[mk::CSEALE as usize] = h_cseale;
    t[mk::CCLEARTAG as usize] = h_ccleartag;
    t[mk::CSEAL as usize] = h_cseal;
    t[mk::CUNSEAL as usize] = h_cunseal;
    t
}
