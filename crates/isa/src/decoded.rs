//! The decoded micro-op arena behind the fast engine.
//!
//! [`DecodedProgram::decode`] lowers a [`Program`] once into a flat
//! per-function array of [`Op`]s with everything the per-instruction
//! `match` of the reference executor re-derives on every visit already
//! resolved: label targets become `(ip, pc)` pairs, `Lea*`/captable
//! addresses are absolute, long-latency extras and direct-call
//! `pcc_change` bits are pre-computed, and call argument lists live in
//! one shared pool so every [`Op`] stays `Copy` and cache-dense. The
//! execution loop in [`crate::fastexec`] then dispatches on this dense
//! enum without touching the original [`Inst`] stream.

use crate::classify::{ClassCounts, OpClass};
use crate::inst::{CapOp2Kind, CapOpKind, Cond, FloatOp, Inst, IntOp, LoadKind, Operand, VecKind};
use crate::program::{ModuleId, Program};

/// A call's argument registers: a window into [`DecodedProgram::args`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArgsRef {
    /// First index in the shared argument pool.
    pub(crate) start: u32,
    /// Number of arguments.
    pub(crate) len: u16,
}

/// A pre-resolved memory-operand offset. `RegScaled` keeps the scale
/// implicit (the access width) exactly as the `scaled` flag does on
/// [`Inst::Load`]/[`Inst::Store`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Off {
    /// Immediate byte offset.
    Imm(i64),
    /// Register byte offset.
    Reg(u16),
    /// Register element offset, scaled by the access width.
    RegScaled(u16),
}

/// One decoded micro-op. Mirrors [`Inst`] one-to-one (the fast engine
/// retires exactly one event per op, plus the synthetic frames and
/// allocator bodies), but with operands in execution-ready form.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
// `CapOp`/`CapOp2` deliberately mirror the `Inst` variant names.
#[allow(clippy::enum_variant_names)]
pub(crate) enum Op {
    MovImm {
        dst: u16,
        imm: u64,
    },
    MovF64 {
        dst: u16,
        imm: f64,
    },
    Mov {
        dst: u16,
        src: u16,
    },
    /// `ll` is the pre-computed long-latency extra (0 = pipelined).
    IntAlu {
        op: IntOp,
        dst: u16,
        a: u16,
        b: Operand,
        ll: u8,
    },
    Madd {
        dst: u16,
        a: u16,
        b: u16,
        c: u16,
    },
    FloatAlu {
        op: FloatOp,
        dst: u16,
        a: u16,
        b: u16,
        ll: u8,
    },
    FMadd {
        dst: u16,
        a: u16,
        b: u16,
        c: u16,
    },
    FCmp {
        cond: Cond,
        dst: u16,
        a: u16,
        b: u16,
    },
    Vec {
        op: VecKind,
        dst: u16,
        a: u16,
        b: u16,
    },
    Cvt {
        dst: u16,
        src: u16,
        to_int: bool,
    },
    /// `LeaGlobal`/`LeaFunc` with the absolute address pre-computed.
    LeaConst {
        dst: u16,
        addr: u64,
    },
    MovNullPtr {
        dst: u16,
    },
    PtrAdd {
        dst: u16,
        base: u16,
        off: Operand,
    },
    PtrToInt {
        dst: u16,
        src: u16,
    },
    /// A pointer-generic memory op that survived lowering (the
    /// reference rejects these with `BadProgram`; so does the fast
    /// engine).
    BadGeneric,
    /// Captable load with the slot address pre-computed.
    LoadCapTable {
        dst: u16,
        addr: u64,
        off: i64,
    },
    /// `bytes` is the access width (16 for capabilities).
    Load {
        dst: u16,
        base: u16,
        off: Off,
        kind: LoadKind,
        bytes: u8,
    },
    Store {
        src: u16,
        base: u16,
        off: Off,
        kind: LoadKind,
        bytes: u8,
    },
    Jump {
        t_ip: u32,
        t_pc: u64,
    },
    CondBr {
        cond: Cond,
        a: u16,
        b: Operand,
        t_ip: u32,
        t_pc: u64,
    },
    /// Direct call: `pcc_change` is static (caller and callee modules
    /// are both known at decode time).
    Call {
        callee: u32,
        args: ArgsRef,
        ret: Option<u16>,
        pcc_change: bool,
    },
    CallIndirect {
        target: u16,
        args: ArgsRef,
        ret: Option<u16>,
    },
    Ret {
        val: Option<u16>,
    },
    Malloc {
        dst: u16,
        size: Operand,
    },
    Free {
        ptr: u16,
    },
    CapOp {
        op: CapOpKind,
        dst: u16,
        a: u16,
        b: Operand,
    },
    CapOp2 {
        op: CapOp2Kind,
        a: u16,
        auth: u16,
        dst: u16,
    },
    Halt {
        code: Option<u16>,
    },
    Region {
        id: u32,
    },
    /// The sentinel decode appends after every function's last op:
    /// control that moves past the end lands here and the run fails
    /// with `BadProgram`, exactly as in the reference.
    FellOff,
}

/// One decoded function: its op array plus the frame/layout facts the
/// call and return paths need without chasing back into [`Program`],
/// and its superblock partition (micro-op arena, block table, and the
/// ip→block map) for the direct-threaded dispatch loop.
pub(crate) struct DecodedFunc {
    pub(crate) ops: Box<[Op]>,
    /// Flat arena of packed interior micro-ops, block by block.
    pub(crate) micros: Box<[MicroOp]>,
    /// Superblocks in `start_ip` order; they tile `ops` exactly.
    pub(crate) blocks: Box<[Superblock]>,
    /// Pre-summed interior event classes per block (parallel to
    /// `blocks`). Kept out of [`Superblock`] so the dispatch loop's
    /// block table stays cache-dense; only the run-end class fold and
    /// the stats reader touch this.
    pub(crate) block_classes: Box<[ClassCounts]>,
    /// `block_idx[ip]` = index into `blocks` of the block containing
    /// `ip`. Every control-transfer target is a block's `start_ip`.
    pub(crate) block_idx: Box<[u32]>,
    /// This function's offset into the program-wide block numbering
    /// (`block_base + local index` = global block id), used by the
    /// engine's per-block execution counters.
    pub(crate) block_base: u32,
    pub(crate) base_pc: u64,
    pub(crate) frame_size: u64,
    pub(crate) params: u16,
    pub(crate) vregs: u16,
    pub(crate) module: ModuleId,
}

/// The whole program, decoded once per run.
pub(crate) struct DecodedProgram {
    pub(crate) funcs: Box<[DecodedFunc]>,
    /// Shared pool of call-argument registers ([`ArgsRef`] windows).
    pub(crate) args: Box<[u16]>,
    /// Total superblocks across all functions (sizes the engine's
    /// per-block execution-count table).
    pub(crate) total_blocks: u32,
}

impl DecodedProgram {
    /// Lowers `prog` into the micro-op arena.
    pub(crate) fn decode(prog: &Program) -> DecodedProgram {
        let mut pool: Vec<u16> = Vec::new();
        let mut funcs = Vec::with_capacity(prog.funcs.len());
        let mut total_blocks: u32 = 0;
        for (fi, f) in prog.funcs.iter().enumerate() {
            let base_pc = prog.map.func_base[fi];
            let caller_module = f.module;
            let mut intern = |args: &[u16]| {
                let start = pool.len() as u32;
                pool.extend_from_slice(args);
                ArgsRef {
                    start,
                    len: args.len() as u16,
                }
            };
            let label = |l: crate::inst::Label| {
                let t_ip = f.labels[l.0 as usize];
                (t_ip, base_pc + u64::from(t_ip) * 4)
            };
            let ops: Vec<Op> = f
                .insts
                .iter()
                .map(|inst| match inst {
                    Inst::MovImm { dst, imm } => Op::MovImm {
                        dst: *dst,
                        imm: *imm,
                    },
                    Inst::MovF64 { dst, imm } => Op::MovF64 {
                        dst: *dst,
                        imm: *imm,
                    },
                    Inst::Mov { dst, src } => Op::Mov {
                        dst: *dst,
                        src: *src,
                    },
                    Inst::IntOp { op, dst, a, b } => Op::IntAlu {
                        op: *op,
                        dst: *dst,
                        a: *a,
                        b: *b,
                        ll: match op {
                            IntOp::Mul => 1,
                            IntOp::UDiv | IntOp::URem => 9,
                            _ => 0,
                        },
                    },
                    Inst::Madd { dst, a, b, c, .. } => Op::Madd {
                        dst: *dst,
                        a: *a,
                        b: *b,
                        c: *c,
                    },
                    Inst::FloatOp { op, dst, a, b } => Op::FloatAlu {
                        op: *op,
                        dst: *dst,
                        a: *a,
                        b: *b,
                        ll: match op {
                            FloatOp::FDiv => 12,
                            FloatOp::FSqrt => 16,
                            _ => 0,
                        },
                    },
                    Inst::FMadd { dst, a, b, c } => Op::FMadd {
                        dst: *dst,
                        a: *a,
                        b: *b,
                        c: *c,
                    },
                    Inst::FCmp { cond, dst, a, b } => Op::FCmp {
                        cond: *cond,
                        dst: *dst,
                        a: *a,
                        b: *b,
                    },
                    Inst::VecOp { op, dst, a, b } => Op::Vec {
                        op: *op,
                        dst: *dst,
                        a: *a,
                        b: *b,
                    },
                    Inst::Cvt { dst, src, to_int } => Op::Cvt {
                        dst: *dst,
                        src: *src,
                        to_int: *to_int,
                    },
                    Inst::LeaGlobal { dst, global, off } => Op::LeaConst {
                        dst: *dst,
                        addr: prog.map.global_base[global.0 as usize].wrapping_add(*off as u64),
                    },
                    Inst::LeaFunc { dst, func } => Op::LeaConst {
                        dst: *dst,
                        addr: prog.map.func_base[func.0 as usize],
                    },
                    Inst::MovNullPtr { dst } => Op::MovNullPtr { dst: *dst },
                    Inst::PtrAdd { dst, base, off } => Op::PtrAdd {
                        dst: *dst,
                        base: *base,
                        off: *off,
                    },
                    Inst::PtrToInt { dst, src } => Op::PtrToInt {
                        dst: *dst,
                        src: *src,
                    },
                    Inst::LoadPtr { .. }
                    | Inst::StorePtr { .. }
                    | Inst::LoadPtrIdx { .. }
                    | Inst::StorePtrIdx { .. } => Op::BadGeneric,
                    Inst::LoadCapTable { dst, slot, off } => Op::LoadCapTable {
                        dst: *dst,
                        addr: prog.map.captable_base + u64::from(*slot) * 16,
                        off: *off,
                    },
                    Inst::Load {
                        dst,
                        base,
                        off,
                        size,
                        kind,
                        scaled,
                    } => {
                        let bytes = match kind {
                            LoadKind::Cap => 16,
                            _ => size.bytes(),
                        } as u8;
                        Op::Load {
                            dst: *dst,
                            base: *base,
                            off: decode_off(*off, *scaled),
                            kind: *kind,
                            bytes,
                        }
                    }
                    Inst::Store {
                        src,
                        base,
                        off,
                        size,
                        kind,
                        scaled,
                    } => {
                        let bytes = match kind {
                            LoadKind::Cap => 16,
                            _ => size.bytes(),
                        } as u8;
                        Op::Store {
                            src: *src,
                            base: *base,
                            off: decode_off(*off, *scaled),
                            kind: *kind,
                            bytes,
                        }
                    }
                    Inst::Jump { target } => {
                        let (t_ip, t_pc) = label(*target);
                        Op::Jump { t_ip, t_pc }
                    }
                    Inst::CondBr { cond, a, b, target } => {
                        let (t_ip, t_pc) = label(*target);
                        Op::CondBr {
                            cond: *cond,
                            a: *a,
                            b: *b,
                            t_ip,
                            t_pc,
                        }
                    }
                    Inst::Call { func, args, ret } => Op::Call {
                        callee: func.0,
                        args: intern(args),
                        ret: *ret,
                        pcc_change: prog.abi.capability_branches()
                            && prog.funcs[func.0 as usize].module != caller_module,
                    },
                    Inst::CallIndirect { target, args, ret } => Op::CallIndirect {
                        target: *target,
                        args: intern(args),
                        ret: *ret,
                    },
                    Inst::Ret { val } => Op::Ret { val: *val },
                    Inst::Malloc { dst, size } => Op::Malloc {
                        dst: *dst,
                        size: *size,
                    },
                    Inst::Free { ptr } => Op::Free { ptr: *ptr },
                    Inst::CapOp { op, dst, a, b } => Op::CapOp {
                        op: *op,
                        dst: *dst,
                        a: *a,
                        b: *b,
                    },
                    Inst::CapOp2 { op, a, auth, dst } => Op::CapOp2 {
                        op: *op,
                        a: *a,
                        auth: *auth,
                        dst: *dst,
                    },
                    Inst::Halt { code } => Op::Halt { code: *code },
                    Inst::Region { id } => Op::Region { id: *id },
                })
                .chain(std::iter::once(Op::FellOff))
                .collect();
            let (micros, blocks, block_idx, block_classes) = build_blocks(&ops, base_pc);
            let block_base = total_blocks;
            total_blocks += blocks.len() as u32;
            funcs.push(DecodedFunc {
                ops: ops.into_boxed_slice(),
                micros: micros.into_boxed_slice(),
                blocks: blocks.into_boxed_slice(),
                block_classes: block_classes.into_boxed_slice(),
                block_idx: block_idx.into_boxed_slice(),
                block_base,
                base_pc,
                frame_size: f.frame_size,
                params: f.params,
                vregs: f.vregs,
                module: f.module,
            });
        }
        DecodedProgram {
            funcs: funcs.into_boxed_slice(),
            args: pool.into_boxed_slice(),
            total_blocks,
        }
    }
}

fn decode_off(off: Operand, scaled: bool) -> Off {
    match off {
        Operand::Imm(i) => Off::Imm(i),
        Operand::Reg(r) if scaled => Off::RegScaled(r),
        Operand::Reg(r) => Off::Reg(r),
    }
}

// ---- Superblocks and packed micro-ops ------------------------------------
//
// The direct-threaded engine does not dispatch on the `Op` enum at all:
// decode additionally partitions each function into *superblocks* —
// single-entry straight-line runs whose interiors are ops that retire
// exactly one event, neither transfer control nor touch the runtime,
// and pack into a flat [`MicroOp`]. A block ends at a *terminator*
// (branch, call, return, allocator intrinsic, halt, region marker,
// `BadGeneric`, or the rare op whose operands do not fit the packed
// form); the terminator stays an `Op`. The engine's block loop runs
// `Jump`/`CondBr` inline and every other terminator through
// `FastMachine::step`. Interiors dispatch through a per-ABI fn-pointer
// table indexed by [`MicroOp::kind`], with the per-instruction
// bookkeeping (fuel check, retired count, `ClassCounts`) hoisted to
// block boundaries via the pre-summed [`DecodedFunc::block_classes`].
// Each function's trailing [`Op::FellOff`] sentinel forms a block of
// its own, so control past the last op needs no bounds check.

/// One packed interior micro-op: 32 bytes, flat fields, no nested
/// enums. `kind` indexes the dispatch table; the other fields are
/// kind-specific (see [`mk`] for the conventions).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MicroOp {
    /// Absolute pc of this op (`base_pc + ip * 4`).
    pub(crate) pc: u64,
    /// Immediate payload: integer/f64-bits immediates, absolute
    /// addresses, byte offsets.
    pub(crate) imm: u64,
    /// Secondary payload: `Madd`/`FMadd` third register, or the
    /// captable post-increment offset (as `i32`).
    pub(crate) aux: u32,
    /// Destination register (source register for stores).
    pub(crate) dst: u16,
    /// First source register (base register for memory ops).
    pub(crate) a: u16,
    /// Second source register (offset register for memory ops).
    pub(crate) b: u16,
    /// Dispatch-table index.
    pub(crate) kind: u8,
    /// Access width in bytes for memory ops; long-latency extra for
    /// int/float ALU ops; unused otherwise.
    pub(crate) sz: u8,
}

/// Micro-op kinds: the dispatch-table indices. One kind per (operation
/// × operand-form) so handlers are fully specialised — no inner operand
/// or size `match` survives on the interior path. `*_RR` reads its
/// second operand from register `b`, `*_RI` from `imm`. Memory-op
/// kinds come in `IMM`/`REG`/`SCL` offset-mode triples (immediate
/// offset in `imm`, register offset in `b`, width-scaled register
/// offset in `b`), and those triples must stay adjacent (`pack` relies
/// on `base + 1` / `base + 2`).
#[allow(missing_docs)]
pub(crate) mod mk {
    pub const MOV_IMM: u8 = 1;
    pub const MOV_F64: u8 = 2;
    pub const MOV: u8 = 3;
    pub const ADD_RR: u8 = 4;
    pub const ADD_RI: u8 = 5;
    pub const SUB_RR: u8 = 6;
    pub const SUB_RI: u8 = 7;
    pub const MUL_RR: u8 = 8;
    pub const MUL_RI: u8 = 9;
    pub const UDIV_RR: u8 = 10;
    pub const UDIV_RI: u8 = 11;
    pub const UREM_RR: u8 = 12;
    pub const UREM_RI: u8 = 13;
    pub const AND_RR: u8 = 14;
    pub const AND_RI: u8 = 15;
    pub const ORR_RR: u8 = 16;
    pub const ORR_RI: u8 = 17;
    pub const EOR_RR: u8 = 18;
    pub const EOR_RI: u8 = 19;
    pub const LSL_RR: u8 = 20;
    pub const LSL_RI: u8 = 21;
    pub const LSR_RR: u8 = 22;
    pub const LSR_RI: u8 = 23;
    pub const ASR_RR: u8 = 24;
    pub const ASR_RI: u8 = 25;
    pub const MADD: u8 = 26;
    pub const FADD: u8 = 27;
    pub const FSUB: u8 = 28;
    pub const FMUL: u8 = 29;
    pub const FDIV: u8 = 30;
    pub const FMIN: u8 = 31;
    pub const FMAX: u8 = 32;
    pub const FSQRT: u8 = 33;
    pub const FMADD: u8 = 34;
    pub const FCEQ: u8 = 35;
    pub const FCNE: u8 = 36;
    pub const FCLT: u8 = 37;
    pub const FCLE: u8 = 38;
    pub const FCGT: u8 = 39;
    pub const FCGE: u8 = 40;
    pub const VADD: u8 = 41;
    pub const VMUL: u8 = 42;
    pub const VFMA: u8 = 43;
    pub const VSAD: u8 = 44;
    pub const CVT_TO_INT: u8 = 45;
    pub const CVT_TO_F64: u8 = 46;
    pub const LEA: u8 = 47;
    pub const MOV_NULL: u8 = 48;
    pub const PTR_ADD_RR: u8 = 49;
    pub const PTR_ADD_RI: u8 = 50;
    pub const PTR_TO_INT: u8 = 51;
    pub const LOAD_CT: u8 = 52;
    pub const LD_U8_IMM: u8 = 53;
    pub const LD_U16_IMM: u8 = 56;
    pub const LD_U32_IMM: u8 = 59;
    pub const LD_U64_IMM: u8 = 62;
    pub const LD_F64_IMM: u8 = 65;
    pub const LD_CAP_IMM: u8 = 68;
    pub const ST_U8_IMM: u8 = 71;
    pub const ST_U16_IMM: u8 = 74;
    pub const ST_U32_IMM: u8 = 77;
    pub const ST_U64_IMM: u8 = 80;
    pub const ST_F64_IMM: u8 = 83;
    pub const ST_CAP_IMM: u8 = 86;
    pub const CINC_RR: u8 = 89;
    pub const CINC_RI: u8 = 90;
    pub const CSETADDR_RR: u8 = 91;
    pub const CSETADDR_RI: u8 = 92;
    pub const CSETB_RR: u8 = 93;
    pub const CSETB_RI: u8 = 94;
    pub const CSETBE_RR: u8 = 95;
    pub const CSETBE_RI: u8 = 96;
    pub const CANDP_RR: u8 = 97;
    pub const CANDP_RI: u8 = 98;
    pub const CGETADDR: u8 = 99;
    pub const CGETLEN: u8 = 100;
    pub const CGETBASE: u8 = 101;
    pub const CGETTAG: u8 = 102;
    pub const CSEALE: u8 = 103;
    pub const CCLEARTAG: u8 = 104;
    pub const CSEAL: u8 = 105;
    pub const CUNSEAL: u8 = 106;
    /// Offset-mode strides within a memory-kind triple.
    pub const OFF_REG: u8 = 1;
    pub const OFF_SCL: u8 = 2;
    /// Last kinds of the capability load and store triples.
    pub const LD_CAP_SCL: u8 = LD_CAP_IMM + OFF_SCL;
    pub const ST_CAP_SCL: u8 = ST_CAP_IMM + OFF_SCL;
}

/// The event class every micro-op of `kind` retires with. Interior
/// classes are payload-static (see [`pack`]), so the kind alone decides
/// it; the engine's per-op accounting uses this for blocks that do not
/// run whole (a trap or fuel death inside them).
pub(crate) fn kind_class(kind: u8) -> OpClass {
    match kind {
        mk::LOAD_CT | mk::LD_CAP_IMM..=mk::LD_CAP_SCL | mk::ST_CAP_IMM..=mk::ST_CAP_SCL => {
            OpClass::MemCap
        }
        mk::LD_U8_IMM..mk::LD_CAP_IMM | mk::ST_U8_IMM..mk::ST_CAP_IMM => OpClass::MemScalar,
        mk::CINC_RR..=mk::CUNSEAL => OpClass::CapManip,
        _ => OpClass::IntAlu,
    }
}

/// Whether `kind` is a data load or store: the ops the data-access
/// injection hook polls (the captable load is not one).
pub(crate) fn is_data_access(kind: u8) -> bool {
    (mk::LD_U8_IMM..=mk::ST_CAP_SCL).contains(&kind)
}

/// The offset mode of data-access kind `kind`: 0 (immediate),
/// [`mk::OFF_REG`] or [`mk::OFF_SCL`].
pub(crate) fn data_off_mode(kind: u8) -> u8 {
    debug_assert!(is_data_access(kind), "kind {kind} is no load or store");
    (kind - mk::LD_U8_IMM) % 3
}

// `data_off_mode` relies on the load and store triples sitting back to
// back from `LD_U8_IMM`.
const _: () = {
    let bases = [
        mk::LD_U8_IMM,
        mk::LD_U16_IMM,
        mk::LD_U32_IMM,
        mk::LD_U64_IMM,
        mk::LD_F64_IMM,
        mk::LD_CAP_IMM,
        mk::ST_U8_IMM,
        mk::ST_U16_IMM,
        mk::ST_U32_IMM,
        mk::ST_U64_IMM,
        mk::ST_F64_IMM,
        mk::ST_CAP_IMM,
    ];
    let mut i = 0;
    while i < bases.len() {
        assert!(bases[i] == mk::LD_U8_IMM + 3 * i as u8);
        i += 1;
    }
};

/// Sentinel `term` for a block that falls through into the next leader
/// without a terminator op (no control transfer happens at the seam, so
/// no event and no extra fuel check either).
pub(crate) const NO_TERM: u32 = u32::MAX;

/// One single-entry straight-line run of packed micro-ops.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Superblock {
    /// First op ip of the block (always a leader: every control
    /// transfer in the function lands on some block's `start_ip`).
    pub(crate) start_ip: u32,
    /// First interior micro-op in [`DecodedFunc::micros`].
    pub(crate) first: u32,
    /// Number of interior micro-ops. Each retires exactly one event,
    /// so `n` is also the block's interior fuel cost.
    pub(crate) n: u32,
    /// ip of the terminator `Op`, or [`NO_TERM`] for fallthrough.
    pub(crate) term: u32,
    /// Pre-resolved local block index of the terminator's branch target
    /// when the terminator is `Jump`/`CondBr`, else [`NO_TERM`]. Lets
    /// the dispatch loop chain block-to-block without re-deriving the
    /// block index from the target ip.
    pub(crate) t_blk: u32,
}

/// Packs one interior op into a [`MicroOp`] with its (payload-static)
/// event class, or `None` for terminators. Interior classes never
/// depend on the pc: application code lives at `pc >= CODE_BASE`, above
/// every runtime window, so `OpClass::of` is payload-only here (the
/// engine's debug asserts re-check every emitted event against a fresh
/// classification).
fn pack(op: &Op, pc: u64) -> Option<(MicroOp, OpClass)> {
    let mut mo = MicroOp {
        pc,
        imm: 0,
        aux: 0,
        dst: 0,
        a: 0,
        b: 0,
        kind: 0,
        sz: 0,
    };
    let class = match *op {
        Op::MovImm { dst, imm } => {
            mo.kind = mk::MOV_IMM;
            mo.dst = dst;
            mo.imm = imm;
            OpClass::IntAlu
        }
        Op::MovF64 { dst, imm } => {
            mo.kind = mk::MOV_F64;
            mo.dst = dst;
            mo.imm = imm.to_bits();
            OpClass::IntAlu
        }
        Op::Mov { dst, src } => {
            mo.kind = mk::MOV;
            mo.dst = dst;
            mo.a = src;
            OpClass::IntAlu
        }
        Op::IntAlu { op, dst, a, b, ll } => {
            // The long-latency extra rides in the (otherwise unused)
            // width byte; the handler rebuilds the exact event info.
            mo.sz = ll;
            let (rr, ri) = match op {
                IntOp::Add => (mk::ADD_RR, mk::ADD_RI),
                IntOp::Sub => (mk::SUB_RR, mk::SUB_RI),
                IntOp::Mul => (mk::MUL_RR, mk::MUL_RI),
                IntOp::UDiv => (mk::UDIV_RR, mk::UDIV_RI),
                IntOp::URem => (mk::UREM_RR, mk::UREM_RI),
                IntOp::And => (mk::AND_RR, mk::AND_RI),
                IntOp::Orr => (mk::ORR_RR, mk::ORR_RI),
                IntOp::Eor => (mk::EOR_RR, mk::EOR_RI),
                IntOp::Lsl => (mk::LSL_RR, mk::LSL_RI),
                IntOp::Lsr => (mk::LSR_RR, mk::LSR_RI),
                IntOp::Asr => (mk::ASR_RR, mk::ASR_RI),
            };
            mo.dst = dst;
            mo.a = a;
            match b {
                Operand::Reg(r) => {
                    mo.kind = rr;
                    mo.b = r;
                }
                Operand::Imm(i) => {
                    mo.kind = ri;
                    mo.imm = i as u64;
                }
            }
            OpClass::IntAlu
        }
        Op::Madd { dst, a, b, c } => {
            mo.kind = mk::MADD;
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
            mo.aux = u32::from(c);
            OpClass::IntAlu
        }
        Op::FloatAlu { op, dst, a, b, ll } => {
            mo.sz = ll;
            mo.kind = match op {
                FloatOp::FAdd => mk::FADD,
                FloatOp::FSub => mk::FSUB,
                FloatOp::FMul => mk::FMUL,
                FloatOp::FDiv => mk::FDIV,
                FloatOp::FMin => mk::FMIN,
                FloatOp::FMax => mk::FMAX,
                FloatOp::FSqrt => mk::FSQRT,
            };
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
            OpClass::IntAlu
        }
        Op::FMadd { dst, a, b, c } => {
            mo.kind = mk::FMADD;
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
            mo.aux = u32::from(c);
            OpClass::IntAlu
        }
        Op::FCmp { cond, dst, a, b } => {
            // Signed and unsigned orderings coincide on f64 compares,
            // exactly as the reference arm folds them.
            mo.kind = match cond {
                Cond::Eq => mk::FCEQ,
                Cond::Ne => mk::FCNE,
                Cond::Ltu | Cond::Lts => mk::FCLT,
                Cond::Leu => mk::FCLE,
                Cond::Gtu | Cond::Gts => mk::FCGT,
                Cond::Geu => mk::FCGE,
            };
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
            OpClass::IntAlu
        }
        Op::Vec { op, dst, a, b } => {
            mo.kind = match op {
                VecKind::VAdd => mk::VADD,
                VecKind::VMul => mk::VMUL,
                VecKind::VFma => mk::VFMA,
                VecKind::VSad => mk::VSAD,
            };
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
            OpClass::IntAlu
        }
        Op::Cvt { dst, src, to_int } => {
            mo.kind = if to_int {
                mk::CVT_TO_INT
            } else {
                mk::CVT_TO_F64
            };
            mo.dst = dst;
            mo.a = src;
            OpClass::IntAlu
        }
        Op::LeaConst { dst, addr } => {
            mo.kind = mk::LEA;
            mo.dst = dst;
            mo.imm = addr;
            OpClass::IntAlu
        }
        Op::MovNullPtr { dst } => {
            mo.kind = mk::MOV_NULL;
            mo.dst = dst;
            OpClass::IntAlu
        }
        Op::PtrAdd { dst, base, off } => {
            mo.dst = dst;
            mo.a = base;
            match off {
                Operand::Reg(r) => {
                    mo.kind = mk::PTR_ADD_RR;
                    mo.b = r;
                }
                Operand::Imm(i) => {
                    mo.kind = mk::PTR_ADD_RI;
                    mo.imm = i as u64;
                }
            }
            OpClass::IntAlu
        }
        Op::PtrToInt { dst, src } => {
            mo.kind = mk::PTR_TO_INT;
            mo.dst = dst;
            mo.a = src;
            OpClass::IntAlu
        }
        Op::LoadCapTable { dst, addr, off } => {
            // The post-increment must fit `aux`; a wider one demotes
            // the op to a terminator, which `FastMachine::step` runs.
            let off32 = i32::try_from(off).ok()?;
            mo.kind = mk::LOAD_CT;
            mo.dst = dst;
            mo.imm = addr;
            mo.aux = off32 as u32;
            OpClass::MemCap
        }
        Op::Load {
            dst,
            base,
            off,
            kind,
            bytes,
        } => {
            let col = match kind {
                LoadKind::Int => match bytes {
                    1 => mk::LD_U8_IMM,
                    2 => mk::LD_U16_IMM,
                    4 => mk::LD_U32_IMM,
                    _ => mk::LD_U64_IMM,
                },
                LoadKind::F64 => mk::LD_F64_IMM,
                LoadKind::Cap => mk::LD_CAP_IMM,
            };
            mo.dst = dst;
            mo.a = base;
            mo.sz = bytes;
            pack_off(&mut mo, col, off);
            if matches!(kind, LoadKind::Cap) {
                OpClass::MemCap
            } else {
                OpClass::MemScalar
            }
        }
        Op::Store {
            src,
            base,
            off,
            kind,
            bytes,
        } => {
            let col = match kind {
                LoadKind::Int => match bytes {
                    1 => mk::ST_U8_IMM,
                    2 => mk::ST_U16_IMM,
                    4 => mk::ST_U32_IMM,
                    _ => mk::ST_U64_IMM,
                },
                LoadKind::F64 => mk::ST_F64_IMM,
                LoadKind::Cap => mk::ST_CAP_IMM,
            };
            mo.dst = src;
            mo.a = base;
            mo.sz = bytes;
            pack_off(&mut mo, col, off);
            if matches!(kind, LoadKind::Cap) {
                OpClass::MemCap
            } else {
                OpClass::MemScalar
            }
        }
        Op::CapOp { op, dst, a, b } => {
            mo.dst = dst;
            mo.a = a;
            mo.kind = match op {
                CapOpKind::IncOffset
                | CapOpKind::SetAddr
                | CapOpKind::SetBounds
                | CapOpKind::SetBoundsExact
                | CapOpKind::AndPerm => {
                    let (rr, ri) = match op {
                        CapOpKind::IncOffset => (mk::CINC_RR, mk::CINC_RI),
                        CapOpKind::SetAddr => (mk::CSETADDR_RR, mk::CSETADDR_RI),
                        CapOpKind::SetBounds => (mk::CSETB_RR, mk::CSETB_RI),
                        CapOpKind::SetBoundsExact => (mk::CSETBE_RR, mk::CSETBE_RI),
                        _ => (mk::CANDP_RR, mk::CANDP_RI),
                    };
                    match b {
                        Operand::Reg(r) => {
                            mo.b = r;
                            rr
                        }
                        Operand::Imm(i) => {
                            mo.imm = i as u64;
                            ri
                        }
                    }
                }
                CapOpKind::GetAddr => mk::CGETADDR,
                CapOpKind::GetLen => mk::CGETLEN,
                CapOpKind::GetBase => mk::CGETBASE,
                CapOpKind::GetTag => mk::CGETTAG,
                CapOpKind::SealEntry => mk::CSEALE,
                CapOpKind::ClearTag => mk::CCLEARTAG,
            };
            OpClass::CapManip
        }
        Op::CapOp2 { op, a, auth, dst } => {
            mo.kind = match op {
                CapOp2Kind::Seal => mk::CSEAL,
                CapOp2Kind::Unseal => mk::CUNSEAL,
            };
            mo.dst = dst;
            mo.a = a;
            mo.b = auth;
            OpClass::CapManip
        }
        // Terminators: control transfers, runtime intrinsics, region
        // markers, halt, and the lowering-reject and fall-off sentinels.
        Op::Jump { .. }
        | Op::CondBr { .. }
        | Op::Call { .. }
        | Op::CallIndirect { .. }
        | Op::Ret { .. }
        | Op::Malloc { .. }
        | Op::Free { .. }
        | Op::Halt { .. }
        | Op::Region { .. }
        | Op::BadGeneric
        | Op::FellOff => return None,
    };
    Some((mo, class))
}

/// Applies the offset mode to a memory-kind triple base (`IMM` base,
/// `+1` register, `+2` scaled register).
fn pack_off(mo: &mut MicroOp, col: u8, off: Off) {
    match off {
        Off::Imm(i) => {
            mo.kind = col;
            mo.imm = i as u64;
        }
        Off::Reg(r) => {
            mo.kind = col + mk::OFF_REG;
            mo.b = r;
        }
        Off::RegScaled(r) => {
            mo.kind = col + mk::OFF_SCL;
            mo.b = r;
        }
    }
}

/// Partitions one function into superblocks. Leaders are ip 0, every
/// in-function branch target, the op after every terminator, and the
/// trailing [`Op::FellOff`] sentinel; blocks run from a leader to the
/// next terminator (inclusive, as `term`) or fall through at the next
/// leader ([`NO_TERM`]). The sentinel is always the last block, with no
/// interiors.
fn build_blocks(
    ops: &[Op],
    base_pc: u64,
) -> (Vec<MicroOp>, Vec<Superblock>, Vec<u32>, Vec<ClassCounts>) {
    let len = ops.len();
    let packed: Vec<Option<(MicroOp, OpClass)>> = ops
        .iter()
        .enumerate()
        .map(|(ip, op)| pack(op, base_pc + ip as u64 * 4))
        .collect();
    // `leader` has one extra slot so the sentinel, itself a terminator,
    // needs no bounds special-casing.
    let mut leader = vec![false; len + 1];
    leader[0] = true;
    for (ip, op) in ops.iter().enumerate() {
        match *op {
            Op::Jump { t_ip, .. } => leader[t_ip as usize] = true,
            Op::CondBr { t_ip, .. } => leader[t_ip as usize] = true,
            Op::FellOff => leader[ip] = true,
            _ => {}
        }
        if packed[ip].is_none() {
            leader[ip + 1] = true;
        }
    }
    let mut micros = Vec::new();
    let mut blocks = Vec::new();
    let mut block_idx = vec![0u32; len];
    let mut block_classes = Vec::new();
    let mut ip = 0usize;
    while ip < len {
        let start = ip;
        let first = micros.len() as u32;
        let mut classes = ClassCounts::new();
        let mut term = NO_TERM;
        loop {
            match packed[ip] {
                Some((mo, class)) => {
                    debug_assert_eq!(kind_class(mo.kind), class, "kind_class disagrees with pack");
                    micros.push(mo);
                    classes.bump(class);
                    ip += 1;
                    if ip == len || leader[ip] {
                        break;
                    }
                }
                None => {
                    term = ip as u32;
                    ip += 1;
                    break;
                }
            }
        }
        let b = blocks.len() as u32;
        for slot in &mut block_idx[start..ip] {
            *slot = b;
        }
        blocks.push(Superblock {
            start_ip: start as u32,
            first,
            n: micros.len() as u32 - first,
            term,
            t_blk: NO_TERM,
        });
        block_classes.push(classes);
    }
    // Resolve branch-terminator targets to block indices now that the
    // whole partition exists.
    for blk in &mut blocks {
        if blk.term != NO_TERM {
            match ops[blk.term as usize] {
                Op::Jump { t_ip, .. } | Op::CondBr { t_ip, .. } => {
                    blk.t_blk = block_idx[t_ip as usize];
                }
                _ => {}
            }
        }
    }
    (micros, blocks, block_idx, block_classes)
}

/// Superblock-shape statistics for one program — the observability
/// counterpart of the direct-threaded engine (reported by the speed
/// bench as the schema-v2 block-size histogram).
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct SuperblockStats {
    /// Total superblocks across all functions.
    pub blocks: u64,
    /// Total packed interior micro-ops (fast-path dispatched).
    pub interior_ops: u64,
    /// Ops kept as terminators: `Jump`/`CondBr`, run inline by the
    /// block loop, and every op the engine's `step` runs.
    pub terminators: u64,
    /// Blocks that fall through without a terminator.
    pub fallthrough_blocks: u64,
    /// `size_hist[k]` = blocks with `k` interior ops; the final bucket
    /// aggregates every larger block.
    pub size_hist: Vec<u64>,
}

/// Buckets in [`SuperblockStats::size_hist`] (0..=30 exact, 31 = "31+").
const SIZE_HIST_BUCKETS: usize = 32;

/// Decodes `prog` and folds its superblock partition into
/// [`SuperblockStats`]. Pure observability — the result has no effect
/// on execution.
pub fn superblock_stats(prog: &Program) -> SuperblockStats {
    let dec = DecodedProgram::decode(prog);
    let mut s = SuperblockStats {
        size_hist: vec![0; SIZE_HIST_BUCKETS],
        ..SuperblockStats::default()
    };
    for f in dec.funcs.iter() {
        // The trailing fall-off sentinel block is not program code.
        let (_sentinel, blocks) = f.blocks.split_last().expect("sentinel block");
        for b in blocks {
            s.blocks += 1;
            s.interior_ops += u64::from(b.n);
            if b.term == NO_TERM {
                s.fallthrough_blocks += 1;
            } else {
                s.terminators += 1;
            }
            let bucket = (b.n as usize).min(SIZE_HIST_BUCKETS - 1);
            s.size_hist[bucket] += 1;
        }
    }
    s
}
