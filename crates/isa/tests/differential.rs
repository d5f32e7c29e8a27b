//! The differential-testing harness locking the pre-decoded fast
//! engine against the reference executor.
//!
//! [`Interp::run`] dispatches through the decoded-arena fast path
//! (`fastexec`); [`Interp::run_reference`] walks the original
//! per-instruction decode `match` (`refexec`). The two must be
//! *observationally identical*: the same retired-event stream (payloads
//! **and** the decode-time [`OpClass`] hints), the same region
//! crossings, the same [`RunResult`] down to every architectural
//! statistic, and the same [`InterpError`] on every failing program.
//!
//! Coverage:
//!
//! * every registry workload × every supported ABI at test scale
//!   (22 workloads, 66 cells);
//! * ≥1000 proptest-generated random programs (350 specs × 3 ABIs);
//! * the superblock edge cases (`superblock_*`);
//! * the error paths: fuel exhaustion, unrepresentable-bounds traps,
//!   sealed-entry violations, and control falling off a function;
//! * armed fault injection (`armed_*`): [`Interp::run_with_faults`]
//!   against [`Interp::run_reference_with_faults`] under a scripted
//!   injector, with identical hook-call logs, on every ABI and under
//!   every recovery policy.
//!
//! CI runs the whole harness in both debug and release builds: release
//! drops the engines' `debug_assert`s, so only it shows what a user
//! build does.

use cheri_isa::{
    lower, Abi, CapOpKind, Cond, EventSink, FaultInjector, FuncId, FunctionBuilder, GlobalDef,
    InjectionKind, Interp, InterpConfig, InterpError, MemSize, OpClass, Program, ProgramBuilder,
    PtrInit, RecoveryPolicy, RetiredEvent, RetiredInfo, RunResult,
};
use cheri_workloads::{registry, Scale};
use proptest::prelude::*;

/// One observable emission from a run: a retired event with its class
/// hint, or a region-marker crossing.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Obs {
    Retire(RetiredEvent, OpClass),
    Region(u32),
}

/// Records the full observation stream. The plain [`retire`] entry
/// point (used by the reference engine) recomputes the class from the
/// event, while [`retire_classified`] (used by the fast engine) records
/// the decode-time hint — so stream equality also proves every
/// pre-computed class matches a fresh classification.
#[derive(Default)]
struct Recorder {
    obs: Vec<Obs>,
}

impl EventSink for Recorder {
    fn retire(&mut self, ev: RetiredEvent) {
        self.obs.push(Obs::Retire(ev, OpClass::of(ev.pc, &ev.info)));
    }
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        self.obs.push(Obs::Retire(ev, class));
    }
    fn region(&mut self, id: u32) {
        self.obs.push(Obs::Region(id));
    }
}

fn assert_streams_eq(reference: &[Obs], fast: &[Obs], ctx: &str) {
    for (i, (r, f)) in reference.iter().zip(fast.iter()).enumerate() {
        assert_eq!(
            r, f,
            "{ctx}: first event-stream divergence at index {i}: reference {r:?} vs fast {f:?}"
        );
    }
    assert_eq!(
        reference.len(),
        fast.len(),
        "{ctx}: event-stream lengths differ (reference {} vs fast {})",
        reference.len(),
        fast.len()
    );
}

/// Runs `prog` on both engines and asserts observational identity;
/// returns the (shared) outcome so callers can make further
/// per-scenario assertions.
fn diff_run(prog: &Program, cfg: InterpConfig, ctx: &str) -> Result<RunResult, InterpError> {
    let interp = Interp::new(cfg);
    let mut ref_sink = Recorder::default();
    let ref_out = interp.run_reference(prog, &mut ref_sink);
    let mut fast_sink = Recorder::default();
    let fast_out = interp.run(prog, &mut fast_sink);

    assert_streams_eq(&ref_sink.obs, &fast_sink.obs, ctx);
    match (&ref_out, &fast_out) {
        (Ok(r), Ok(f)) => {
            // RunResult aggregates every architectural statistic
            // (retired, exit code, class counts, memory/heap stats,
            // footprint); the Debug form covers all fields.
            assert_eq!(
                format!("{r:?}"),
                format!("{f:?}"),
                "{ctx}: architectural results differ"
            );
        }
        (Err(r), Err(f)) => {
            assert_eq!(r, f, "{ctx}: engines fail with different errors");
        }
        _ => {
            panic!("{ctx}: engines disagree on success: reference {ref_out:?} vs fast {fast_out:?}")
        }
    }
    fast_out
}

/// Every workload in the registry, on every ABI it supports, produces a
/// bit-identical run on both engines.
#[test]
fn all_workloads_and_abis_are_bit_identical() {
    let workloads = registry();
    assert_eq!(workloads.len(), 22, "full registry coverage expected");
    let mut cells = 0;
    for w in &workloads {
        for abi in Abi::ALL {
            if !w.supports(abi) {
                continue;
            }
            let prog = lower(&w.build(abi, Scale::Test));
            let out = diff_run(&prog, InterpConfig::default(), &format!("{}/{abi}", w.key));
            let res = out.expect("registry workloads complete");
            assert_eq!(
                res.classes.total(),
                res.retired,
                "{}/{abi}: classes partition retired",
                w.key
            );
            cells += 1;
        }
    }
    assert!(cells >= 60, "expected the full matrix, ran {cells} cells");
}

/// A compact random-program specification, realised per-ABI through the
/// builder (the same technique as `proptest_lowering.rs`, with heavier
/// emphasis on control flow and allocator traffic — the paths the
/// decoded arena rewrites most).
#[derive(Clone, Debug)]
enum Op {
    AddConst(u8),
    Mix,
    StoreSlot(u8),
    LoadSlot(u8),
    AllocTouch(u16),
    AllocHold(u16),
    LoopAccum(u8),
    CallHelper,
    BranchOnBit(u8),
    PtrWalk(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::AddConst),
        Just(Op::Mix),
        (0u8..16).prop_map(Op::StoreSlot),
        (0u8..16).prop_map(Op::LoadSlot),
        (16u16..2000).prop_map(Op::AllocTouch),
        (16u16..512).prop_map(Op::AllocHold),
        (1u8..24).prop_map(Op::LoopAccum),
        Just(Op::CallHelper),
        (0u8..8).prop_map(Op::BranchOnBit),
        (1u8..6).prop_map(Op::PtrWalk),
    ]
}

fn realise(ops: &[Op], abi: Abi) -> Program {
    let mut b = ProgramBuilder::new("diff", abi);
    let g = b.global_zero("scratch", 256);
    let helper = b.function("helper", 1, |f| {
        let r = f.vreg();
        f.eor(r, f.arg(0), 0x5a5ai64);
        f.lsr(r, r, 1);
        f.ret(Some(r));
    });
    let ops = ops.to_vec();
    let main = b.function("main", 0, |f| {
        let acc = f.vreg();
        f.mov_imm(acc, 0x1234);
        let base = f.vreg();
        f.lea_global(base, g, 0);
        let held = f.vreg();
        f.malloc(held, 64);
        for op in &ops {
            match op {
                Op::AddConst(k) => f.add(acc, acc, *k as i64),
                Op::Mix => {
                    f.eor(acc, acc, 0x9e37i64);
                    f.lsr(acc, acc, 1);
                    f.add(acc, acc, 3);
                }
                Op::StoreSlot(s) => f.store_int(acc, base, (*s as i64) * 8, MemSize::S8),
                Op::LoadSlot(s) => {
                    let v = f.vreg();
                    f.load_int(v, base, (*s as i64) * 8, MemSize::S8);
                    f.add(acc, acc, v);
                }
                Op::AllocTouch(sz) => {
                    let p = f.vreg();
                    f.malloc(p, *sz as u64);
                    f.store_int(acc, p, 0, MemSize::S8);
                    let v = f.vreg();
                    f.load_int(v, p, 0, MemSize::S8);
                    f.eor(acc, acc, v);
                    f.free(p);
                }
                Op::AllocHold(sz) => {
                    // Replace the held allocation without freeing the
                    // old one: leaks exercise end-of-run heap stats.
                    f.malloc(held, *sz as u64);
                    f.store_int(acc, held, 8, MemSize::S8);
                }
                Op::LoopAccum(n) => {
                    let lim = f.vreg();
                    f.mov_imm(lim, *n as u64);
                    f.for_loop(0, lim, 1, |f, i| {
                        f.add(acc, acc, i);
                    });
                }
                Op::CallHelper => {
                    let r = f.vreg();
                    f.call(helper, &[acc], Some(r));
                    f.add(acc, acc, r);
                }
                Op::BranchOnBit(bit) => {
                    let t = f.vreg();
                    f.lsr(t, acc, *bit as i64);
                    f.and(t, t, 1);
                    let skip = f.label();
                    f.br(Cond::Eq, t, 0, skip);
                    f.eor(acc, acc, 0xffi64);
                    f.bind(skip);
                }
                Op::PtrWalk(n) => {
                    // A short pointer-chase through the held block to
                    // exercise dependent-load tracking in both engines.
                    f.store_ptr(held, held, 0);
                    let p = f.vreg();
                    f.mov(p, held);
                    for _ in 0..*n {
                        f.load_ptr(p, p, 0);
                    }
                    let a = f.vreg();
                    f.ptr_to_int(a, p);
                    f.and(a, a, 0xff);
                    f.add(acc, acc, a);
                }
            }
        }
        f.and(acc, acc, 0xFFFF_FFFFi64);
        f.halt_code(acc);
    });
    b.set_entry(main);
    lower(&b.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(350))]

    /// 350 random specs × 3 ABIs = 1050 generated programs, each run on
    /// both engines and required to match event-for-event.
    #[test]
    fn random_programs_are_bit_identical(ops in proptest::collection::vec(op_strategy(), 1..32)) {
        for abi in Abi::ALL {
            let prog = realise(&ops, abi);
            diff_run(&prog, InterpConfig::default(), &format!("random/{abi}"))
                .expect("generated programs are valid");
        }
    }
}

// ---- Superblock edge cases -------------------------------------------------
//
// Named with a `superblock_` prefix so the group can be run on its own
// (`cargo test --test differential superblock_`): they pin the
// partition-boundary behaviours of the direct-threaded engine — branch
// targets splitting straight-line runs, the fuel cutoff landing inside
// a block's interior, a fault at a block's final interior op, control
// falling off a function's end, and the demoted wide-offset captable
// load.

/// A backward branch into the middle of what would otherwise be one
/// straight-line run: the target must be a block leader, and chaining
/// to it (rather than falling through) must match the reference
/// event-for-event.
#[test]
fn superblock_branch_into_former_interior_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("midblock", abi);
        let main = b.function("main", 0, |f| {
            let acc = f.vreg();
            let n = f.vreg();
            f.mov_imm(acc, 7);
            f.mov_imm(n, 3);
            // Straight-line prefix; `mid` splits it into two blocks.
            f.add(acc, acc, 11);
            f.eor(acc, acc, 0x3c3ci64);
            let mid = f.here();
            f.add(acc, acc, 5);
            f.lsr(acc, acc, 1);
            f.eor(acc, acc, 0x55i64);
            f.sub(n, n, 1u64);
            f.br(Cond::Ne, n, 0u64, mid);
            f.and(acc, acc, 0xFFFFi64);
            f.halt_code(acc);
        });
        b.set_entry(main);
        let prog = b.lower();
        let res = diff_run(&prog, InterpConfig::default(), &format!("midblock/{abi}"))
            .expect("program completes");
        assert_eq!(res.classes.total(), res.retired);
    }
}

/// The program shapes [`superblock_fuel_exhaustion_mid_block_is_identical`]
/// sweeps. Each puts one long straight-line block of adds in `main`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum FuelShape {
    /// The block alone.
    Plain,
    /// An out-of-bounds load in the middle of the block: under the
    /// capability ABIs some budgets cut before the fault, some after.
    FaultMidBlock,
    /// A `malloc` right before the block: the runtime's events push
    /// `retired` past the budget before the block's margin check, so
    /// no interior op of the block may run.
    MallocBefore,
}

/// Sweeps the fuel limit across every position of a long straight-line
/// block so the cutoff lands before, inside (every interior offset),
/// and after it. When fuel dies inside a block, the fast engine must
/// run exactly the affordable prefix of the block and report the
/// identical truncated stream and `FuelExhausted { retired }` (or the
/// identical fault, when the fault comes first) as the reference.
#[test]
fn superblock_fuel_exhaustion_mid_block_is_identical() {
    for shape in [
        FuelShape::Plain,
        FuelShape::FaultMidBlock,
        FuelShape::MallocBefore,
    ] {
        for abi in Abi::ALL {
            let mut b = ProgramBuilder::new("fuelmid", abi);
            let g = b.global_zero("small", 16);
            let main = b.function("main", 0, |f| {
                let acc = f.vreg();
                let p = f.vreg();
                if shape == FuelShape::MallocBefore {
                    f.malloc(p, 16);
                }
                f.mov_imm(acc, 1);
                if shape == FuelShape::FaultMidBlock {
                    f.lea_global(p, g, 0);
                }
                for k in 0..24 {
                    f.add(acc, acc, k + 1);
                    if k == 12 && shape == FuelShape::FaultMidBlock {
                        // Offset 64 of a 16-byte global: a bounds fault
                        // under the capability ABIs.
                        f.load_int(acc, p, 64, MemSize::S8);
                    }
                }
                f.halt_code(acc);
            });
            b.set_entry(main);
            let prog = b.lower();
            let (mut exhausted, mut faulted, mut overshot) = (0, 0, 0);
            for max in 1..120u64 {
                let cfg = InterpConfig {
                    max_insts: max,
                    ..InterpConfig::default()
                };
                let ctx = format!("fuelmid/{shape:?}/{abi}/max{max}");
                match diff_run(&prog, cfg, &ctx) {
                    Ok(_) => {}
                    Err(InterpError::FuelExhausted { retired }) => {
                        // The entry prologue and runtime bodies retire
                        // between fuel checks, so the cutoff count can
                        // exceed the budget; it can never undershoot it.
                        assert!(retired >= max, "{ctx}: cutoff {retired} undershoots");
                        exhausted += 1;
                        if retired > max + 10 {
                            overshot += 1;
                        }
                    }
                    Err(InterpError::Fault { .. }) if shape == FuelShape::FaultMidBlock => {
                        faulted += 1;
                    }
                    Err(other) => panic!("{ctx}: unexpected error {other:?}"),
                }
            }
            // A fault inside the block ends the run of cutoffs early.
            let min_cutoffs = if faulted > 0 { 10 } else { 20 };
            assert!(
                exhausted > min_cutoffs,
                "{shape:?}/{abi}: the sweep must cross the block interior ({exhausted} cutoffs)"
            );
            if shape == FuelShape::FaultMidBlock && abi.is_capability() {
                assert!(faulted > 0, "{abi}: no budget reached the fault");
            }
            if shape == FuelShape::MallocBefore {
                assert!(overshot > 0, "{abi}: no budget ran out inside malloc");
            }
        }
    }
}

/// A bounds fault raised by the *last* interior op of a block (with a
/// terminator behind it that never runs): the fast engine must stop at
/// the same op, with the same truncated stream and the same fault.
#[test]
fn superblock_fault_at_block_last_op_is_identical() {
    let mut b = ProgramBuilder::new("lastop", Abi::Purecap);
    let main = b.function("main", 0, |f| {
        let p = f.vreg();
        f.malloc(p, 16);
        let acc = f.vreg();
        f.mov_imm(acc, 2);
        f.add(acc, acc, 40);
        // Out of bounds: offset 64 in a 16-byte allocation. This is the
        // block's final interior op; the following halt never retires.
        let v = f.vreg();
        f.load_int(v, p, 64, MemSize::S8);
        f.halt_code(v);
    });
    b.set_entry(main);
    let prog = b.lower();
    let err = diff_run(&prog, InterpConfig::default(), "lastop/purecap")
        .expect_err("the out-of-bounds load must fault");
    match err {
        InterpError::Fault { fault, .. } => {
            assert_eq!(fault.kind, cheri_cap::FaultKind::BoundsViolation)
        }
        other => panic!("expected bounds fault, got {other:?}"),
    }
}

/// Control that moves past a function's last op fails with the same
/// `BadProgram` on both engines instead of panicking: a fallthrough
/// block at the end, every terminator whose successor is the end, a
/// jump to a label bound after the last op, and a callee that falls
/// off (the error names the function).
#[test]
fn superblock_fall_off_function_end_is_identical() {
    // `main`'s body, given a helper that returns and a leaf that falls
    // off.
    type MainBody = fn(&mut FunctionBuilder, FuncId, FuncId);
    let shapes: [(&str, &str, MainBody); 8] = [
        ("fallthrough", "main", |f, _, _| {
            let v = f.vreg();
            f.mov_imm(v, 7);
        }),
        ("condbr_not_taken", "main", |f, _, _| {
            let v = f.vreg();
            let top = f.here();
            f.mov_imm(v, 0);
            f.br(Cond::Ne, v, 0u64, top);
        }),
        ("jump_to_end", "main", |f, _, _| {
            let end = f.label();
            f.jump(end);
            f.bind(end);
        }),
        ("call", "main", |f, helper, _| f.call(helper, &[], None)),
        ("malloc", "main", |f, _, _| {
            let p = f.vreg();
            f.malloc(p, 32);
        }),
        ("free", "main", |f, _, _| {
            let p = f.vreg();
            f.malloc(p, 32);
            f.free(p);
        }),
        ("region", "main", |f, _, _| f.region(0)),
        ("callee", "leaf", |f, _, leaf| {
            f.call(leaf, &[], None);
            f.halt();
        }),
    ];
    for (name, func, body) in shapes {
        for abi in Abi::ALL {
            let mut b = ProgramBuilder::new("falloff", abi);
            b.region("r");
            let helper = b.function("helper", 0, |f| f.ret(None));
            let leaf = b.function("leaf", 0, |f| {
                let v = f.vreg();
                f.mov_imm(v, 3);
            });
            let main = b.function("main", 0, |f| body(f, helper, leaf));
            b.set_entry(main);
            let prog = b.lower();
            let ctx = format!("falloff/{name}/{abi}");
            let err = diff_run(&prog, InterpConfig::default(), &ctx)
                .expect_err("falling off a function must fail");
            assert_eq!(
                err,
                InterpError::BadProgram {
                    msg: format!("control fell off the end of `{func}`"),
                },
                "{ctx}"
            );
        }
    }
}

/// A `lea_global` whose offset does not fit `i32` lowers, under the
/// capability ABIs, to a captable load that decode cannot pack and
/// demotes to a terminator. It must match the reference at every fuel
/// cutoff across it, positive and negative offsets alike.
#[test]
fn superblock_wide_captable_offset_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("wide_ct", abi);
        let g = b.global_zero("g", 64);
        let main = b.function("main", 0, |f| {
            let acc = f.vreg();
            let p = f.vreg();
            f.mov_imm(acc, 5);
            f.lea_global(p, g, 1 << 33);
            f.add(acc, acc, 1);
            f.lea_global(p, g, -(1 << 33));
            f.add(acc, acc, 2);
            let a = f.vreg();
            f.ptr_to_int(a, p);
            f.eor(acc, acc, a);
            f.halt_code(acc);
        });
        b.set_entry(main);
        let prog = b.lower();
        let stats = cheri_isa::superblock_stats(&prog);
        let demoted = if abi.is_capability() { 2 } else { 0 };
        assert_eq!(stats.terminators, 1 + demoted, "{abi}: {stats:?}");
        let full = diff_run(&prog, InterpConfig::default(), &format!("wide_ct/{abi}"))
            .expect("program completes");
        // A budget of `full.retired` completes: the final halt passes
        // its fuel check with one instruction to spare.
        for max in 1..full.retired {
            let cfg = InterpConfig {
                max_insts: max,
                ..InterpConfig::default()
            };
            let ctx = format!("wide_ct/{abi}/max{max}");
            match diff_run(&prog, cfg, &ctx) {
                Err(InterpError::FuelExhausted { retired }) => assert!(retired >= max, "{ctx}"),
                other => panic!("{ctx}: expected fuel exhaustion, got {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// The engine's per-block class pre-sums, folded by execution
    /// count at run end, must equal a per-op accumulation over the
    /// actual emitted event stream — checked directly against the
    /// recorded events, independent of the reference engine.
    #[test]
    fn superblock_class_presums_match_per_op_accumulation(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        for abi in Abi::ALL {
            let prog = realise(&ops, abi);
            let mut sink = Recorder::default();
            let res = Interp::new(InterpConfig::default())
                .run(&prog, &mut sink)
                .expect("generated programs are valid");
            let mut per_op = cheri_isa::ClassCounts::new();
            for o in &sink.obs {
                if let Obs::Retire(ev, _) = o {
                    per_op.bump(OpClass::of(ev.pc, &ev.info));
                }
            }
            prop_assert_eq!(res.classes, per_op, "{}: pre-summed fold != per-op accumulation", abi);
            prop_assert_eq!(res.classes.total(), res.retired);
        }
    }
}

/// Fuel exhaustion is reported identically: same error variant, same
/// retired count at the cutoff, same (truncated) event stream.
#[test]
fn fuel_exhaustion_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("fuel", abi);
        let main = b.function("main", 0, |f| {
            let acc = f.vreg();
            f.mov_imm(acc, 1);
            let l = f.here();
            f.add(acc, acc, 1);
            f.jump(l);
            f.halt();
        });
        b.set_entry(main);
        let prog = b.lower();
        let err = diff_run(
            &prog,
            InterpConfig {
                max_insts: 1000,
                ..InterpConfig::default()
            },
            &format!("fuel/{abi}"),
        )
        .expect_err("the loop must exhaust its budget");
        assert!(
            matches!(err, InterpError::FuelExhausted { retired } if retired >= 1000),
            "{abi}: {err:?}"
        );
    }
}

/// An exact-bounds request on a misaligned, too-large region is not
/// representable in the compressed encoding; both engines must raise
/// the same `RepresentabilityLoss` fault at the same pc.
#[test]
fn unrepresentable_bounds_trap_is_identical() {
    let mut b = ProgramBuilder::new("repr", Abi::Purecap);
    let main = b.function("main", 0, |f| {
        let p = f.vreg();
        f.malloc(p, 4 << 20);
        let off = f.vreg();
        f.cap_op(CapOpKind::IncOffset, off, p, 1);
        let narrowed = f.vreg();
        f.cap_op(CapOpKind::SetBoundsExact, narrowed, off, (1i64 << 20) + 1);
        f.halt();
    });
    b.set_entry(main);
    let prog = b.lower();
    let err = diff_run(&prog, InterpConfig::default(), "repr/purecap")
        .expect_err("exact bounds on a misaligned megabyte must trap");
    match err {
        InterpError::Fault { fault, .. } => {
            assert_eq!(fault.kind, cheri_cap::FaultKind::RepresentabilityLoss)
        }
        other => panic!("expected representability fault, got {other:?}"),
    }
}

/// Dereferencing a sealed capability (a sealed-entry handle used as a
/// data pointer) faults identically on both engines.
#[test]
fn sealed_entry_violation_is_identical() {
    let mut b = ProgramBuilder::new("sealed", Abi::Purecap);
    let g_auth = b.add_global(GlobalDef {
        name: "root".into(),
        size: 16,
        init: Vec::new(),
        ptr_inits: vec![(0, PtrInit::SealRoot(42))],
        is_const: false,
        align: 16,
    });
    let main = b.function("main", 0, |f| {
        let obj = f.vreg();
        f.malloc(obj, 32);
        let ap = f.vreg();
        f.lea_global(ap, g_auth, 0);
        let auth = f.vreg();
        f.load_ptr(auth, ap, 0);
        let sealed = f.vreg();
        f.seal(sealed, obj, auth);
        let r = f.vreg();
        f.load_int(r, sealed, 0, MemSize::S8);
        f.halt_code(r);
    });
    b.set_entry(main);
    let prog = cheri_isa::lower(&b.build());
    let err = diff_run(&prog, InterpConfig::default(), "sealed/purecap")
        .expect_err("loading through a sealed capability must trap");
    match err {
        InterpError::Fault { fault, .. } => {
            assert_eq!(fault.kind, cheri_cap::FaultKind::SealViolation)
        }
        other => panic!("expected seal violation, got {other:?}"),
    }
}

// ---- Armed fault injection --------------------------------------------------
//
// Named with an `armed_` prefix so the group can be run on its own
// (`cargo test --test differential armed_`). Each case runs the fast
// engine (`run_with_faults`) against the reference
// (`run_reference_with_faults`) under a scripted injector that logs its
// hook calls, on every ABI and under every recovery policy, and asserts
// identical event streams, results, errors and hook logs. Every case
// runs twice: once with the injector reporting its next firing point
// through `quiet_until` (the fast engine then skips the polls of quiet
// blocks, so the log keeps only hooks that fire, plus traps and
// unwinds) and once with `quiet_until` at 0 (both engines poll
// everywhere, and every poll is logged with its arguments).

/// Where a scripted shot fires.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Site {
    /// At the first eligible poll once this many instructions retired.
    At(u64),
    /// At the first eligible poll whose pc lies in `[lo, hi)`.
    Pc(u64, u64),
    /// At the first data access whose address lies in `[lo, hi)`.
    Addr(u64, u64),
}

/// One scripted injection: fetch-stage (`kind == None`, a PCC
/// corruption) or data-access (`Some(kind)`).
#[derive(Clone, Copy, Debug)]
struct Shot {
    site: Site,
    kind: Option<InjectionKind>,
}

/// One logged hook call.
#[derive(Clone, Debug, PartialEq)]
enum Hook {
    Pcc {
        retired: u64,
        pc: u64,
        fired: bool,
    },
    Mem {
        retired: u64,
        pc: u64,
        ea: u64,
        is_store: bool,
        fired: Option<InjectionKind>,
    },
    Trapped(u64),
    Unwound(u64),
}

/// A scripted injector: the first armed shot (in script order) whose
/// site matches a poll fires and disarms, like `FaultSession`.
#[derive(Clone, Debug)]
struct Script {
    shots: Vec<Shot>,
    armed: Vec<bool>,
    policy: RecoveryPolicy,
    /// Report the next firing point through `quiet_until`; otherwise
    /// `quiet_until` is 0 and every poll is logged.
    bounded: bool,
    log: Vec<Hook>,
}

impl Script {
    fn new(shots: &[Shot], policy: RecoveryPolicy, bounded: bool) -> Script {
        Script {
            shots: shots.to_vec(),
            armed: vec![true; shots.len()],
            policy,
            bounded,
            log: Vec::new(),
        }
    }

    /// Fires the first armed shot `hit` accepts.
    fn fire(&mut self, hit: impl Fn(&Shot) -> bool) -> Option<Shot> {
        let i = (0..self.shots.len()).find(|&i| self.armed[i] && hit(&self.shots[i]))?;
        self.armed[i] = false;
        Some(self.shots[i])
    }

    fn log_poll(&mut self, hook: Hook, fired: bool) {
        if fired || !self.bounded {
            self.log.push(hook);
        }
    }
}

impl FaultInjector for Script {
    fn active(&self) -> bool {
        self.armed.iter().any(|&a| a)
    }

    fn quiet_until(&self) -> u64 {
        if !self.bounded {
            return 0;
        }
        let mut next = u64::MAX;
        for (s, _) in self.shots.iter().zip(&self.armed).filter(|(_, &a)| a) {
            match s.site {
                Site::At(n) => next = next.min(n),
                Site::Pc(..) | Site::Addr(..) => return 0,
            }
        }
        next
    }

    fn poll_pcc(&mut self, retired: u64, pc: u64) -> bool {
        let fired = self
            .fire(|s| {
                s.kind.is_none()
                    && match s.site {
                        Site::At(n) => retired >= n,
                        Site::Pc(lo, hi) => lo <= pc && pc < hi,
                        Site::Addr(..) => false,
                    }
            })
            .is_some();
        self.log_poll(Hook::Pcc { retired, pc, fired }, fired);
        fired
    }

    fn poll_mem(
        &mut self,
        retired: u64,
        pc: u64,
        ea: u64,
        is_store: bool,
    ) -> Option<InjectionKind> {
        let fired = self
            .fire(|s| {
                s.kind.is_some()
                    && match s.site {
                        Site::At(n) => retired >= n,
                        Site::Pc(lo, hi) => lo <= pc && pc < hi,
                        Site::Addr(lo, hi) => lo <= ea && ea < hi,
                    }
            })
            .and_then(|s| s.kind);
        let hook = Hook::Mem {
            retired,
            pc,
            ea,
            is_store,
            fired,
        };
        self.log_poll(hook, fired.is_some());
        fired
    }

    fn trapped(&mut self, pc: u64) {
        self.log.push(Hook::Trapped(pc));
    }

    fn unwound(&mut self, pc: u64) {
        self.log.push(Hook::Unwound(pc));
    }

    fn policy(&self) -> RecoveryPolicy {
        self.policy
    }
}

/// A [`Recorder`] that asks for superblock-batched delivery, so the
/// fast engine's buffered-event path is checked too.
#[derive(Default)]
struct BatchRecorder(Recorder);

impl EventSink for BatchRecorder {
    const WANTS_BLOCK_EVENTS: bool = true;

    fn retire(&mut self, ev: RetiredEvent) {
        self.0.retire(ev);
    }
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        self.0.retire_classified(ev, class);
    }
    fn region(&mut self, id: u32) {
        self.0.region(id);
    }
}

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Abort,
    RecoveryPolicy::SkipFaultingOp,
    RecoveryPolicy::UnwindToCheckpoint,
];

fn assert_same_outcome(
    r: &Result<RunResult, InterpError>,
    f: &Result<RunResult, InterpError>,
    ctx: &str,
) {
    match (r, f) {
        (Ok(r), Ok(f)) => assert_eq!(
            format!("{r:?}"),
            format!("{f:?}"),
            "{ctx}: architectural results differ"
        ),
        (Err(r), Err(f)) => assert_eq!(r, f, "{ctx}: engines fail with different errors"),
        _ => panic!("{ctx}: engines disagree on success: reference {r:?} vs fast {f:?}"),
    }
}

/// Runs `prog` under `shots` and `policy` on both engines, in both
/// injector modes, and asserts identical streams, outcomes and hook
/// logs (the fast engine runs with a per-op and with a batching sink).
/// Returns the outcome and the bounded-mode (firing hooks only) log.
fn diff_armed(
    prog: &Program,
    cfg: InterpConfig,
    shots: &[Shot],
    policy: RecoveryPolicy,
    ctx: &str,
) -> (Result<RunResult, InterpError>, Vec<Hook>) {
    let interp = Interp::new(cfg);
    let mut fired_log = Vec::new();
    let mut outcome = None;
    for bounded in [true, false] {
        let ctx = format!("{ctx}/{}", if bounded { "bounded" } else { "every-poll" });
        let mut ref_sink = Recorder::default();
        let mut ref_inj = Script::new(shots, policy, bounded);
        let ref_out = interp.run_reference_with_faults(prog, &mut ref_sink, &mut ref_inj);

        let mut fast_sink = Recorder::default();
        let mut fast_inj = Script::new(shots, policy, bounded);
        let fast_out = interp.run_with_faults(prog, &mut fast_sink, &mut fast_inj);
        assert_streams_eq(&ref_sink.obs, &fast_sink.obs, &ctx);
        assert_same_outcome(&ref_out, &fast_out, &ctx);
        assert_eq!(ref_inj.log, fast_inj.log, "{ctx}: hook logs differ");

        let mut batch_sink = BatchRecorder::default();
        let mut batch_inj = Script::new(shots, policy, bounded);
        let batch_out = interp.run_with_faults(prog, &mut batch_sink, &mut batch_inj);
        let ctx = format!("{ctx}/batched");
        assert_streams_eq(&ref_sink.obs, &batch_sink.0.obs, &ctx);
        assert_same_outcome(&ref_out, &batch_out, &ctx);
        assert_eq!(ref_inj.log, batch_inj.log, "{ctx}: hook logs differ");

        if bounded {
            fired_log = ref_inj.log;
            outcome = Some(fast_out);
        }
    }
    (outcome.expect("bounded mode ran"), fired_log)
}

/// A program touching every kind of fetch and data-access site: a
/// region marker, immediate/register/scaled-offset loads and stores,
/// capability loads and stores, a direct and an indirect call, a
/// conditional branch, a loop (its back-edge jump) inside a callee, and
/// the allocator intrinsics.
fn armed_program(abi: Abi) -> Program {
    let mut b = ProgramBuilder::new("armed", abi);
    let hot = b.region("hot");
    let g = b.global_zero("buf", 256);
    let helper = b.function("helper", 1, |f| {
        let r = f.vreg();
        f.eor(r, f.arg(0), 0x5a5ai64);
        f.lsr(r, r, 1);
        f.ret(Some(r));
    });
    let walker = b.function("walker", 1, |f| {
        let p = f.vreg();
        f.lea_global(p, g, 0);
        let acc = f.vreg();
        f.mov_imm(acc, 3);
        f.for_loop(0, f.arg(0), 1, |f, i| {
            let v = f.vreg();
            f.load_int_idx(v, p, i, MemSize::S8);
            f.add(v, v, i);
            f.store_int_idx(v, p, i, MemSize::S8);
            f.add(acc, acc, v);
        });
        f.ret(Some(acc));
    });
    let main = b.function("main", 0, |f| {
        let acc = f.vreg();
        f.mov_imm(acc, 1);
        let base = f.vreg();
        f.lea_global(base, g, 0);
        let held = f.vreg();
        f.malloc(held, 64);
        f.region(hot);
        f.store_int(acc, base, 8, MemSize::S8);
        let off = f.vreg();
        f.mov_imm(off, 16);
        let v = f.vreg();
        f.load_int(v, base, off, MemSize::S8);
        f.add(acc, acc, v);
        let r = f.vreg();
        f.call(helper, &[acc], Some(r));
        f.add(acc, acc, r);
        let t = f.vreg();
        f.and(t, acc, 1);
        let skip = f.label();
        f.br(Cond::Eq, t, 0, skip);
        f.eor(acc, acc, 0xffi64);
        f.bind(skip);
        f.store_ptr(held, base, 32);
        let q = f.vreg();
        f.load_ptr(q, base, 32);
        f.store_int(acc, q, 0, MemSize::S8);
        let n = f.vreg();
        f.mov_imm(n, 6);
        let w = f.vreg();
        f.mov_imm(w, 77);
        f.call(walker, &[n], Some(w));
        f.add(acc, acc, w);
        let fp = f.vreg();
        f.lea_func(fp, helper);
        let r2 = f.vreg();
        f.call_indirect(fp, &[acc], Some(r2));
        f.add(acc, acc, r2);
        f.region_end();
        f.free(held);
        f.and(acc, acc, 0xFFFFi64);
        f.halt_code(acc);
    });
    b.set_entry(main);
    b.lower()
}

/// What a clean run touches.
struct CleanSites {
    /// Program pcs (as opposed to runtime-body pcs) of retired events.
    pcs: Vec<u64>,
    /// Pcs of the first event after a region marker: that op is fetched
    /// at the marker's retired count, so a retired-count trigger always
    /// fires at the marker first.
    after_region: Vec<u64>,
    /// Load and store data addresses.
    addrs: Vec<u64>,
    retired: u64,
}

fn clean_sites(prog: &Program) -> CleanSites {
    let mut sink = Recorder::default();
    let res = Interp::new(InterpConfig::default())
        .run_reference(prog, &mut sink)
        .expect("the clean run completes");
    let mut pcs = Vec::new();
    let mut after_region = Vec::new();
    let mut addrs = Vec::new();
    let mut region_seen = false;
    for o in &sink.obs {
        let ev = match o {
            Obs::Region(_) => {
                region_seen = true;
                continue;
            }
            Obs::Retire(ev, _) => ev,
        };
        if std::mem::take(&mut region_seen) {
            after_region.push(ev.pc);
        }
        if prog.map.func_at(ev.pc).is_none() {
            continue;
        }
        pcs.push(ev.pc);
        if let RetiredInfo::Load { addr, .. } | RetiredInfo::Store { addr, .. } = ev.info {
            addrs.push(addr);
        }
    }
    pcs.sort_unstable();
    pcs.dedup();
    addrs.sort_unstable();
    addrs.dedup();
    CleanSites {
        pcs,
        after_region,
        addrs,
        retired: res.retired,
    }
}

const DATA_KINDS: [InjectionKind; 3] = [
    InjectionKind::TagClear,
    InjectionKind::BoundsNudge { delta: 24 },
    InjectionKind::PermDrop,
];

/// A fetch trigger and a data trigger at every retired count of the
/// clean run: every op's fetch poll (a block's first op, interiors, the
/// last op before each block boundary, and `Jump`/`CondBr`/call/return
/// terminators) and every load and store fires once across the sweep.
#[test]
fn armed_triggers_at_every_retired_count_are_identical() {
    for abi in Abi::ALL {
        let prog = armed_program(abi);
        let sites = clean_sites(&prog);
        for policy in POLICIES {
            let mut pcc_hit = Vec::new();
            let mut data_hits = 0;
            for at in 0..=sites.retired + 1 {
                let ctx = format!("every/{abi}/{policy:?}/at{at}");
                let pcc = [Shot {
                    site: Site::At(at),
                    kind: None,
                }];
                let (_, log) = diff_armed(&prog, InterpConfig::default(), &pcc, policy, &ctx);
                for h in &log {
                    if let Hook::Pcc {
                        pc, fired: true, ..
                    } = h
                    {
                        pcc_hit.push(*pc);
                    }
                }
                let data = [Shot {
                    site: Site::At(at),
                    kind: Some(DATA_KINDS[at as usize % 3]),
                }];
                let (_, log) = diff_armed(&prog, InterpConfig::default(), &data, policy, &ctx);
                data_hits += log.iter().filter(|h| matches!(h, Hook::Mem { .. })).count();
            }
            // Until the shot fires, every run is the clean run, so the
            // sweep reaches every retiring program op's fetch.
            for pc in sites
                .pcs
                .iter()
                .filter(|pc| !sites.after_region.contains(pc))
            {
                assert!(
                    pcc_hit.contains(pc),
                    "{abi}/{policy:?}: no fetch trigger fired at pc {pc:#x}"
                );
            }
            assert!(data_hits > 10, "{abi}/{policy:?}: data triggers fired");
        }
    }
}

/// `PcRange` triggers on every program pc (fetch and data) and
/// `AddrRange` triggers on every data address.
#[test]
fn armed_pc_and_addr_range_sites_are_identical() {
    for abi in Abi::ALL {
        let prog = armed_program(abi);
        let sites = clean_sites(&prog);
        for policy in POLICIES {
            for (i, &pc) in sites.pcs.iter().enumerate() {
                let ctx = format!("pc-range/{abi}/{policy:?}/{pc:#x}");
                let shots = [
                    Shot {
                        site: Site::Pc(pc, pc + 4),
                        kind: None,
                    },
                    Shot {
                        site: Site::Pc(pc, pc + 4),
                        kind: Some(DATA_KINDS[i % 3]),
                    },
                ];
                let (_, log) = diff_armed(&prog, InterpConfig::default(), &shots, policy, &ctx);
                assert!(
                    matches!(log.first(), Some(Hook::Pcc { pc: p, fired: true, .. }) if *p == pc),
                    "{ctx}: the fetch trigger must fire first, at its pc"
                );
            }
            // Frame save/restore traffic retires loads and stores but is
            // not a data access the hook polls, so not every address
            // fires; program loads and stores do.
            let mut fired = 0;
            for (i, &addr) in sites.addrs.iter().enumerate() {
                let ctx = format!("addr-range/{abi}/{policy:?}/{addr:#x}");
                let shots = [Shot {
                    site: Site::Addr(addr, addr + 1),
                    kind: Some(DATA_KINDS[i % 3]),
                }];
                let (_, log) = diff_armed(&prog, InterpConfig::default(), &shots, policy, &ctx);
                fired += usize::from(log.iter().any(|h| matches!(h, Hook::Mem { .. })));
            }
            // Seven distinct program data addresses: `buf` at 0..=40
            // and the heap block.
            assert!(
                fired >= 7,
                "{abi}/{policy:?}: only {fired} address triggers fired"
            );
        }
    }
}

/// A load whose offset register holds a float: the reference evaluates
/// the offset before the data-access poll, so a due trigger is not
/// polled there and the run fails with the type confusion.
#[test]
fn armed_bad_offset_register_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("badoff", abi);
        let g = b.global_zero("buf", 64);
        let main = b.function("main", 0, |f| {
            let p = f.vreg();
            f.lea_global(p, g, 0);
            let off = f.vreg();
            f.mov_f64(off, 1.5);
            let v = f.vreg();
            f.load_int(v, p, off, MemSize::S8);
            f.halt_code(v);
        });
        b.set_entry(main);
        let prog = b.lower();
        for policy in POLICIES {
            for at in 0..12 {
                let ctx = format!("badoff/{abi}/{policy:?}/at{at}");
                let shots = [Shot {
                    site: Site::At(at),
                    kind: Some(InjectionKind::TagClear),
                }];
                let (out, _) = diff_armed(&prog, InterpConfig::default(), &shots, policy, &ctx);
                assert!(
                    matches!(out, Err(InterpError::TypeConfusion { .. })),
                    "{ctx}: expected the type confusion, got {out:?}"
                );
            }
        }
    }
}

/// Fuel running out inside a block that runs per op because a trigger
/// is due in it, swept across every budget through the block.
#[test]
fn armed_fuel_exhaustion_in_due_block_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("fuelarmed", abi);
        let g = b.global_zero("buf", 64);
        let main = b.function("main", 0, |f| {
            let acc = f.vreg();
            f.mov_imm(acc, 1);
            let p = f.vreg();
            f.lea_global(p, g, 0);
            for k in 0..24 {
                f.add(acc, acc, k + 1);
                if k % 6 == 5 {
                    f.store_int(acc, p, 8 * (k / 6), MemSize::S8);
                }
            }
            f.halt_code(acc);
        });
        b.set_entry(main);
        let prog = b.lower();
        let mut exhausted = 0;
        for policy in POLICIES {
            for at in [6u64, 12, 20] {
                for max in 1..40u64 {
                    let cfg = InterpConfig {
                        max_insts: max,
                        ..InterpConfig::default()
                    };
                    for kind in [None, Some(InjectionKind::PermDrop)] {
                        let ctx = format!("fuelarmed/{abi}/{policy:?}/at{at}/max{max}/{kind:?}");
                        let shots = [Shot {
                            site: Site::At(at),
                            kind,
                        }];
                        let (out, _) = diff_armed(&prog, cfg, &shots, policy, &ctx);
                        if let Err(InterpError::FuelExhausted { retired }) = out {
                            assert!(retired >= max, "{ctx}: cutoff undershoots");
                            exhausted += 1;
                        }
                    }
                }
            }
        }
        assert!(exhausted > 100, "{abi}: the sweep must cross the block");
    }
}

/// A tag clear on a loop's pointer: under skip recovery every later
/// load through it faults again (a SIGPROT storm), under unwind the
/// loop's frame is abandoned, and hybrid's nudged pointer never traps.
#[test]
fn armed_skip_storm_in_loop_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("storm", abi);
        let g = b.global_zero("buf", 512);
        let looper = b.function("looper", 1, |f| {
            let p = f.vreg();
            f.lea_global(p, g, 0);
            let acc = f.vreg();
            f.mov_imm(acc, 0);
            f.for_loop(0, f.arg(0), 1, |f, i| {
                let v = f.vreg();
                f.and(v, i, 31);
                f.load_int_idx(v, p, v, MemSize::S8);
                f.add(acc, acc, v);
                f.store_int(acc, p, 256, MemSize::S8);
            });
            f.ret(Some(acc));
        });
        let main = b.function("main", 0, |f| {
            let n = f.vreg();
            f.mov_imm(n, 200);
            let r = f.vreg();
            f.call(looper, &[n], Some(r));
            // A live value in the return register: unwinding must
            // overwrite it with zero.
            let r2 = f.vreg();
            f.mov_imm(r2, 77);
            f.call(looper, &[n], Some(r2));
            f.add(r, r, r2);
            f.halt_code(r);
        });
        b.set_entry(main);
        let prog = b.lower();
        for policy in POLICIES {
            for at in [20u64, 400, 1500] {
                let ctx = format!("storm/{abi}/{policy:?}/at{at}");
                let shots = [Shot {
                    site: Site::At(at),
                    kind: Some(InjectionKind::TagClear),
                }];
                let (out, log) = diff_armed(&prog, InterpConfig::default(), &shots, policy, &ctx);
                let traps = log.iter().filter(|h| matches!(h, Hook::Trapped(_))).count();
                match (abi.is_capability(), policy) {
                    (false, _) => assert_eq!(traps, 0, "{ctx}: hybrid never traps"),
                    (true, RecoveryPolicy::SkipFaultingOp) => {
                        assert!(traps > 100, "{ctx}: expected a storm, got {traps} traps");
                        assert!(out.is_ok(), "{ctx}: skip survives the storm");
                    }
                    (true, RecoveryPolicy::UnwindToCheckpoint) => {
                        assert!(log.iter().any(|h| matches!(h, Hook::Unwound(_))), "{ctx}");
                        assert!(out.is_ok(), "{ctx}: unwinding returns to main");
                    }
                    (true, RecoveryPolicy::Abort) => assert!(
                        matches!(out, Err(InterpError::Fault { .. })),
                        "{ctx}: abort ends the run on the first trap"
                    ),
                }
            }
        }
    }
}

/// Control falling off a function's end while fetch triggers fire:
/// skipping the faulting fetch at the end moves on past it, where the
/// reference polls each next fetch until one does not fire and then
/// fails with "fell off"; unwinding returns to the caller instead.
#[test]
fn armed_fall_off_function_end_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("falloff", abi);
        let tail = b.function("tail", 0, |f| {
            let v = f.vreg();
            f.mov_imm(v, 3);
            f.add(v, v, 4);
        });
        let main = b.function("main", 0, |f| {
            let r = f.vreg();
            f.mov_imm(r, 9);
            f.call(tail, &[], Some(r));
            f.halt_code(r);
        });
        b.set_entry(main);
        let prog = b.lower();
        let retired = clean_retired_before_error(&prog);
        for policy in POLICIES {
            for at in 0..=retired + 1 {
                for shots in 1..=3 {
                    let ctx = format!("falloff/{abi}/{policy:?}/at{at}/x{shots}");
                    let script = vec![
                        Shot {
                            site: Site::At(at),
                            kind: None,
                        };
                        shots
                    ];
                    let _ = diff_armed(&prog, InterpConfig::default(), &script, policy, &ctx);
                }
            }
        }
    }
}

/// Organic faults with no trigger at all: an indirect call through an
/// untagged function capability (a terminator) and a store through it
/// (an interior), under every policy, with an empty script and with a
/// fetch trigger on top. Skip resumes after the call, unwind abandons
/// the calling frame.
#[test]
fn armed_organic_faults_in_terminators_and_interiors_are_identical() {
    for abi in [Abi::Benchmark, Abi::Purecap] {
        let mut b = ProgramBuilder::new("organic", abi);
        let helper = b.function("helper", 1, |f| {
            let r = f.vreg();
            f.add(r, f.arg(0), 1);
            f.ret(Some(r));
        });
        let caller = b.function("caller", 0, |f| {
            let fp = f.vreg();
            f.lea_func(fp, helper);
            let bad = f.vreg();
            f.cap_op(CapOpKind::ClearTag, bad, fp, 0);
            let x = f.vreg();
            f.mov_imm(x, 40);
            let r = f.vreg();
            f.mov_imm(r, 7);
            f.call_indirect(bad, &[x], Some(r));
            f.add(r, r, 2);
            f.store_int(x, bad, 0, MemSize::S8);
            f.add(r, r, 3);
            f.ret(Some(r));
        });
        let main = b.function("main", 0, |f| {
            let r = f.vreg();
            f.mov_imm(r, 5);
            f.call(caller, &[], Some(r));
            f.add(r, r, 100);
            f.halt_code(r);
        });
        b.set_entry(main);
        let prog = b.lower();
        for policy in POLICIES {
            for shots in [
                Vec::new(),
                vec![Shot {
                    site: Site::At(0),
                    kind: None,
                }],
            ] {
                let ctx = format!("organic/{abi}/{policy:?}/{} shots", shots.len());
                let (out, log) = diff_armed(&prog, InterpConfig::default(), &shots, policy, &ctx);
                let traps = log.iter().filter(|h| matches!(h, Hook::Trapped(_))).count();
                assert!(traps >= 1, "{ctx}: the bad call traps");
                if !shots.is_empty() {
                    // The fetch trigger traps first, at `main`'s entry.
                    continue;
                }
                match policy {
                    RecoveryPolicy::Abort => assert!(
                        matches!(out, Err(InterpError::Fault { .. })),
                        "{ctx}: {out:?}"
                    ),
                    // Call and store both skipped: 7 + 2 + 3, plus 100.
                    RecoveryPolicy::SkipFaultingOp => {
                        assert_eq!(out.expect("survives").exit_code, 112, "{ctx}")
                    }
                    // `caller` abandoned: its result reads 0.
                    RecoveryPolicy::UnwindToCheckpoint => {
                        assert_eq!(out.expect("survives").exit_code, 100, "{ctx}")
                    }
                }
            }
        }
    }
}

/// Events a run that ends in an error retires before it.
fn clean_retired_before_error(prog: &Program) -> u64 {
    let mut sink = Recorder::default();
    let _ = Interp::new(InterpConfig::default()).run_reference(prog, &mut sink);
    sink.obs
        .iter()
        .filter(|o| matches!(o, Obs::Retire(..)))
        .count() as u64
}

/// A random script of up to five shots over the three site families.
fn shot_strategy() -> impl Strategy<Value = (u8, u64, u8)> {
    (0u8..6, any::<u64>(), 0u8..4)
}

fn realise_shot((family, x, kind): (u8, u64, u8), sites: &CleanSites) -> Shot {
    let (pcs, addrs, horizon) = (&sites.pcs, &sites.addrs, sites.retired);
    let kind = match kind {
        0 => None,
        k => Some(DATA_KINDS[k as usize - 1]),
    };
    let site = match family {
        0..=3 => Site::At(x % (horizon + 2)),
        4 => {
            let pc = pcs[x as usize % pcs.len()];
            Site::Pc(pc, pc + 4 * (1 + x % 3))
        }
        _ if addrs.is_empty() => Site::At(x % (horizon + 2)),
        _ => {
            let a = addrs[x as usize % addrs.len()];
            Site::Addr(a, a + 8)
        }
    };
    Shot { site, kind }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Random programs under random scripts, sites unsorted.
    #[test]
    fn armed_random_plans_are_identical(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        raw in proptest::collection::vec(shot_strategy(), 1..6),
        pi in 0usize..3,
    ) {
        for abi in Abi::ALL {
            let prog = realise(&ops, abi);
            let sites = clean_sites(&prog);
            let shots: Vec<Shot> = raw
                .iter()
                .map(|&r| realise_shot(r, &sites))
                .collect();
            let cfg = InterpConfig {
                max_insts: sites.retired * 4 + 1000,
                ..InterpConfig::default()
            };
            let _ = diff_armed(&prog, cfg, &shots, POLICIES[pi], &format!("random-armed/{abi}"));
        }
    }
}
