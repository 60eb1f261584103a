//! CFG recovery and fixpoint abstract interpretation.
//!
//! Basic blocks are discovered from a static pre-scan (branch/jump targets,
//! call return sites, address-taken text constants) and refined dynamically:
//! when the interpretation resolves an indirect jump to a constant landing
//! mid-block, the containing block is split and re-queued. Indirect jumps
//! whose target value has been widened fan out to **every** instruction
//! address — a computed jump (`jr base+4*i`) can land mid-block at a pc no
//! narrower heuristic (return sites, function entries) anticipates, and an
//! unjoined landing point would let downstream sites be proven clean
//! against a path that taints them. Fanning out to all pcs keeps the
//! analysis sound at the price of precision around unresolved computed
//! jumps.

use std::collections::{BTreeMap, BTreeSet};

use ptaint_isa::{
    BranchCond, BranchZCond, DecodedInsn, IAluOp, Instr, MemWidth, RAluOp, Reg, ShiftOp, PAGE_SIZE,
};
use ptaint_os::Sys;

use crate::domain::{AbsVal, Region, Taint, Value};
use crate::state::{Ctx, State};

/// Total instruction-transfer budget for the fixpoint; exceeding it marks
/// the analysis degraded (no elision candidates). Generous: the testbed
/// images are a few hundred instructions and converge within thousands.
pub const STEP_BUDGET: usize = 2_000_000;

/// Cap (in bytes) on precise tainting of a `read`/`recv` destination
/// buffer; larger or unknown lengths degrade to a region havoc.
const MAX_SEED_BYTES: u32 = 4096;

/// How a block's control continues after its last transferred instruction.
enum Flow {
    /// Fall through to `pc + 4`.
    Fall,
    /// Conditional branch: either arm may be statically excluded.
    Cond {
        target: u32,
        taken: bool,
        fall: bool,
    },
    /// Unconditional direct jump (no link).
    Jump(u32),
    /// A call: `jal`, or `jalr` whose target set resolved to constants.
    /// The link register is *not* written by the transfer — the
    /// interprocedural edge installs an opaque [`Value::RetAddr`] in the
    /// callee context and substitutes the concrete return pc when the
    /// callee's exit summary flows back to the return site.
    Call { targets: Vec<u32>, link: Reg },
    /// `jr`/`jalr` through the current invocation's opaque return address:
    /// a structural function return.
    Return,
    /// Register-indirect jump with a resolved (constant) target set.
    Targets(Vec<u32>),
    /// Register-indirect jump whose target value was widened: control can
    /// continue at *any* instruction address. The driver folds the
    /// out-state into a single accumulator joined at every pc instead of
    /// materializing one edge per instruction.
    Anywhere,
    /// Execution cannot continue past this instruction (exit, break,
    /// undecodable word, jump out of text).
    Halt,
}

/// Facts accumulated across the whole analysis, independent of any one
/// abstract state.
#[derive(Debug, Default)]
pub struct Effects {
    /// Text pages targeted by statically visible stores — their
    /// instructions are never proven clean (self-modifying code).
    pub smc_pages: BTreeSet<u32>,
}

/// Static pre-scan products: the initial block leaders and the function
/// entries used for report partitioning.
pub struct Prescan {
    /// Initial basic-block leaders (includes `jal`/`jalr` return sites).
    pub leaders: BTreeSet<u32>,
    /// Function entries: image entry, `jal` targets, address-taken text
    /// constants, and the exit stub.
    pub fn_entries: BTreeSet<u32>,
}

/// Scans the text (and data words) once, before interpretation, collecting
/// leaders, function entries, return sites and address-taken constants.
#[must_use]
pub fn prescan(ctx: &Ctx) -> Prescan {
    let mut leaders = BTreeSet::new();
    let mut fn_entries = BTreeSet::new();
    let mut return_sites = BTreeSet::new();

    let add_leader = |set: &mut BTreeSet<u32>, addr: u32| {
        if ctx.in_text(addr) {
            set.insert(addr);
        }
    };
    add_leader(&mut leaders, ctx.entry);
    add_leader(&mut leaders, ctx.stub);
    fn_entries.insert(ctx.entry);
    fn_entries.insert(ctx.stub);

    // `la fn` compiles to an adjacent lui/ori pair; track the last `lui`
    // constant per register so address-taken functions reachable only
    // through register-indirect calls still become entries/leaders.
    let mut lui_val: [Option<u32>; 32] = [None; 32];

    for (i, &word) in ctx.words.iter().enumerate() {
        let pc = ctx.text_base + 4 * i as u32;
        let Ok(d) = DecodedInsn::predecode(pc, word) else {
            // Undecodable word: whatever follows starts fresh.
            add_leader(&mut leaders, pc + 4);
            lui_val = [None; 32];
            continue;
        };
        match d.instr {
            Instr::Branch { .. } | Instr::BranchZ { .. } => {
                add_leader(&mut leaders, d.target);
            }
            Instr::Jump { link, .. } => {
                add_leader(&mut leaders, d.target);
                if link {
                    fn_entries.insert(d.target);
                    return_sites.insert(pc + 4);
                }
            }
            Instr::JumpAndLinkReg { .. } => {
                return_sites.insert(pc + 4);
            }
            Instr::Lui { rt, .. } => {
                lui_val[rt.number() as usize] = Some(d.imm);
            }
            Instr::IAlu {
                op: IAluOp::Ori,
                rt,
                rs,
                ..
            } => {
                if let Some(hi) = lui_val[rs.number() as usize] {
                    let addr = hi | d.imm;
                    if addr.is_multiple_of(4) && ctx.in_text(addr) {
                        fn_entries.insert(addr);
                        add_leader(&mut leaders, addr);
                    }
                }
                lui_val[rt.number() as usize] = None;
            }
            _ => {}
        }
        if d.instr.ends_basic_block() {
            add_leader(&mut leaders, pc + 4);
        }
        // Any other definition invalidates a pending lui half.
        if let Some(rd) = written_reg(&d.instr) {
            if !matches!(d.instr, Instr::Lui { .. }) {
                lui_val[rd.number() as usize] = None;
            }
        }
    }

    // Address-taken text constants stored in initialized data (function
    // pointer tables).
    let mut off = 0usize;
    while off + 4 <= ctx.data.len() {
        let w = u32::from_le_bytes(ctx.data[off..off + 4].try_into().unwrap());
        if w.is_multiple_of(4) && ctx.in_text(w) {
            fn_entries.insert(w);
            leaders.insert(w);
        }
        off += 4;
    }

    // Return sites are jump targets too.
    for &rs in &return_sites {
        leaders.insert(rs);
    }
    Prescan {
        leaders,
        fn_entries,
    }
}

/// The general-purpose register an instruction writes, if any (used only to
/// invalidate pending `lui` halves in the pre-scan).
fn written_reg(i: &Instr) -> Option<Reg> {
    match *i {
        Instr::Shift { rd, .. }
        | Instr::ShiftV { rd, .. }
        | Instr::RAlu { rd, .. }
        | Instr::MoveFromHi { rd }
        | Instr::MoveFromLo { rd }
        | Instr::JumpAndLinkReg { rd, .. } => Some(rd),
        Instr::IAlu { rt, .. } | Instr::Lui { rt, .. } | Instr::Load { rt, .. } => Some(rt),
        Instr::Jump { link: true, .. } => Some(Reg::RA),
        _ => None,
    }
}

/// Evaluates one instruction against the abstract state, returning how
/// control continues. Mirrors the dynamic Table-1 propagation from above:
/// every rule here is an upper bound on the taint the CPU can produce.
#[allow(clippy::too_many_lines)]
fn transfer(ctx: &Ctx, st: &mut State, pc: u32, d: &DecodedInsn, fx: &mut Effects) -> Flow {
    let lay = &ctx.layout;
    match d.instr {
        Instr::Shift { op, rd, rt, shamt } => {
            let a = st.get(rt);
            let value = a.value.map(lay, |v| shift(op, v, u32::from(shamt)));
            st.set(
                rd,
                AbsVal {
                    taint: a.taint,
                    value,
                },
            );
            Flow::Fall
        }
        Instr::ShiftV { op, rd, rt, rs } => {
            let a = st.get(rt);
            let b = st.get(rs);
            let value = a.value.binop(&b.value, lay, |v, s| shift(op, v, s & 31));
            st.set(
                rd,
                AbsVal {
                    taint: a.taint.join(b.taint),
                    value,
                },
            );
            Flow::Fall
        }
        Instr::RAlu { op, rd, rs, rt } => {
            let a = st.get(rs);
            let b = st.get(rt);
            let out = match op {
                RAluOp::Slt | RAluOp::Sltu => {
                    // Compare: clean result, operands untainted (Table 1).
                    st.untaint(rs);
                    st.untaint(rt);
                    let value = a.value.binop(&b.value, lay, |x, y| match op {
                        RAluOp::Slt => u32::from((x as i32) < (y as i32)),
                        _ => u32::from(x < y),
                    });
                    AbsVal {
                        taint: Taint::Clean,
                        value,
                    }
                }
                RAluOp::Add | RAluOp::Addu => AbsVal {
                    taint: a.taint.join(b.taint),
                    value: a.value.add(&b.value, lay),
                },
                RAluOp::Sub | RAluOp::Subu => AbsVal {
                    taint: a.taint.join(b.taint),
                    value: a.value.sub(&b.value, lay),
                },
                RAluOp::Xor if rs == rt => AbsVal::clean_const(0),
                RAluOp::Or if b.value.singleton() == Some(0) => AbsVal {
                    taint: a.taint.join(b.taint),
                    value: a.value,
                },
                RAluOp::Or if a.value.singleton() == Some(0) => AbsVal {
                    taint: a.taint.join(b.taint),
                    value: b.value,
                },
                RAluOp::And | RAluOp::Or | RAluOp::Xor | RAluOp::Nor => AbsVal {
                    taint: a.taint.join(b.taint),
                    value: a.value.binop(&b.value, lay, |x, y| match op {
                        RAluOp::And => x & y,
                        RAluOp::Or => x | y,
                        RAluOp::Xor => x ^ y,
                        _ => !(x | y),
                    }),
                },
            };
            st.set(rd, out);
            Flow::Fall
        }
        Instr::MulDiv { rs, rt, .. } => {
            let t = st.get(rs).taint.join(st.get(rt).taint);
            st.set_hilo(AbsVal::opaque(t), AbsVal::opaque(t));
            Flow::Fall
        }
        Instr::MoveFromHi { rd } => {
            let v = st.hi();
            st.set(rd, v);
            Flow::Fall
        }
        Instr::MoveFromLo { rd } => {
            let v = st.lo();
            st.set(rd, v);
            Flow::Fall
        }
        Instr::MoveToHi { rs } => {
            let v = st.get(rs);
            let lo = st.lo();
            st.set_hilo(v, lo);
            Flow::Fall
        }
        Instr::MoveToLo { rs } => {
            let v = st.get(rs);
            let hi = st.hi();
            st.set_hilo(hi, v);
            Flow::Fall
        }
        Instr::IAlu { op, rt, rs, .. } => {
            let a = st.get(rs);
            let imm = Value::constant(d.imm);
            let out = match op {
                IAluOp::Addi | IAluOp::Addiu => AbsVal {
                    taint: a.taint,
                    value: a.value.add(&imm, lay),
                },
                IAluOp::Slti | IAluOp::Sltiu => {
                    st.untaint(rs);
                    let value = a.value.map(lay, |v| match op {
                        IAluOp::Slti => u32::from((v as i32) < (d.imm as i32)),
                        _ => u32::from(v < d.imm),
                    });
                    AbsVal {
                        taint: Taint::Clean,
                        value,
                    }
                }
                IAluOp::Andi | IAluOp::Ori | IAluOp::Xori => AbsVal {
                    taint: a.taint,
                    value: a.value.map(lay, |v| match op {
                        IAluOp::Andi => v & d.imm,
                        IAluOp::Ori => v | d.imm,
                        _ => v ^ d.imm,
                    }),
                },
            };
            st.set(rt, out);
            Flow::Fall
        }
        Instr::Lui { rt, .. } => {
            st.set(rt, AbsVal::clean_const(d.imm));
            Flow::Fall
        }
        Instr::Load {
            width,
            signed,
            rt,
            base,
            ..
        } => {
            let b = st.get(base);
            // Check refinement: under the pointer-taintedness policy (the
            // only configuration the proven set is installed for), a run
            // survives this instruction only if the base register was
            // clean — the dynamic check alerts otherwise. Post-states may
            // therefore assume it clean, like the compare untaint.
            // Extraction grades the site from the *pre*-state, so the lint
            // still sees the unrefined taint.
            st.untaint(base);
            let addr = b.value.add(&Value::constant(d.imm), lay);
            st.set(rt, load(ctx, st, &addr, width, signed));
            Flow::Fall
        }
        Instr::Store {
            width, rt, base, ..
        } => {
            let v = st.get(rt);
            let b = st.get(base);
            // Check refinement (see the Load arm).
            st.untaint(base);
            let addr = b.value.add(&Value::constant(d.imm), lay);
            store(ctx, st, &addr, width, &v, fx);
            Flow::Fall
        }
        Instr::Branch { cond, rs, rt, .. } => {
            let known = match (st.get(rs).value.singleton(), st.get(rt).value.singleton()) {
                (Some(a), Some(b)) => Some(a == b),
                _ if rs == rt => Some(true),
                _ => None,
            };
            st.untaint(rs);
            st.untaint(rt);
            let eq = matches!(cond, BranchCond::Eq);
            let (taken, fall) = match known {
                Some(same) => (same == eq, same != eq),
                None => (true, true),
            };
            Flow::Cond {
                target: d.target,
                taken,
                fall,
            }
        }
        Instr::BranchZ { cond, rs, .. } => {
            let known = st.get(rs).value.singleton().map(|v| {
                let v = v as i32;
                match cond {
                    BranchZCond::Lez => v <= 0,
                    BranchZCond::Gtz => v > 0,
                    BranchZCond::Ltz => v < 0,
                    BranchZCond::Gez => v >= 0,
                }
            });
            st.untaint(rs);
            let (taken, fall) = match known {
                Some(t) => (t, !t),
                None => (true, true),
            };
            Flow::Cond {
                target: d.target,
                taken,
                fall,
            }
        }
        Instr::Jump { link, .. } => {
            if !ctx.in_text(d.target) {
                return Flow::Halt;
            }
            if link {
                Flow::Call {
                    targets: vec![d.target],
                    link: Reg::RA,
                }
            } else {
                Flow::Jump(d.target)
            }
        }
        Instr::JumpReg { rs } => {
            let v = st.get(rs);
            // Check refinement (see the Load arm) — the post-state flowing
            // to every successor has a clean jump register.
            st.untaint(rs);
            match v.value {
                Value::RetAddr(0) => Flow::Return,
                _ => resolve_indirect(ctx, &v.value),
            }
        }
        Instr::JumpAndLinkReg { rd, rs } => {
            let v = st.get(rs);
            st.untaint(rs);
            match v.value {
                // `jalr` through the invocation's own return address: a
                // (degenerate) structural return that also links.
                Value::RetAddr(0) => {
                    st.set(rd, AbsVal::clean_const(pc + 4));
                    Flow::Return
                }
                Value::Consts(ref ts) => {
                    let targets: Vec<u32> =
                        ts.iter().copied().filter(|&t| ctx.in_text(t)).collect();
                    if targets.is_empty() {
                        Flow::Halt
                    } else {
                        Flow::Call { targets, link: rd }
                    }
                }
                _ => Flow::Anywhere,
            }
        }
        Instr::Syscall => syscall(ctx, st),
        Instr::Break { .. } => Flow::Halt,
    }
}

/// Successors of a register-indirect jump: exact for constant sets
/// (dropping non-text targets — the machine cannot execute them); a
/// widened target fans out to **every** instruction address, including the
/// exit stub's. A computed jump can land mid-block at a pc that appears in
/// no static successor heuristic, so anything narrower would leave the
/// landing point's in-state unjoined and could unsoundly prove downstream
/// sites clean (see the module doc).
fn resolve_indirect(ctx: &Ctx, v: &Value) -> Flow {
    match v.consts() {
        Some(ts) => Flow::Targets(ts.iter().copied().filter(|&t| ctx.in_text(t)).collect()),
        None => Flow::Anywhere,
    }
}

/// Constant shift evaluation.
fn shift(op: ShiftOp, v: u32, s: u32) -> u32 {
    match op {
        ShiftOp::Sll => v << s,
        ShiftOp::Srl => v >> s,
        ShiftOp::Sra => ((v as i32) >> s) as u32,
    }
}

/// Abstract memory load through `addr`.
fn load(ctx: &Ctx, st: &State, addr: &Value, width: MemWidth, signed: bool) -> AbsVal {
    let lay = &ctx.layout;
    match addr {
        Value::Consts(addrs) => {
            let mut out: Option<AbsVal> = None;
            for &a in addrs {
                let slot = st.read_slot(ctx, a);
                let one = if width == MemWidth::Word && a.is_multiple_of(4) {
                    slot
                } else {
                    // Sub-word (or misaligned, which the CPU faults on):
                    // keep the word's taint bound, extract a constant when
                    // the slot value and alignment allow it.
                    let value = if width == MemWidth::Word {
                        Value::Unknown
                    } else {
                        slot.value
                            .map(lay, |w| extract_subword(w, a, width, signed))
                    };
                    AbsVal {
                        taint: slot.taint,
                        value,
                    }
                };
                out = Some(match out {
                    None => one,
                    Some(acc) => acc.join(&one, lay),
                });
            }
            out.unwrap_or_else(|| AbsVal::opaque(Taint::Unknown))
        }
        // The argv/envp pointer arrays hold clean words pointing at the
        // (tainted) string bytes; `Unknown` rather than `Clean` because the
        // band also holds the string bytes themselves (no elision there).
        Value::InRegion(Region::ArgPtrs) => AbsVal {
            taint: Taint::Unknown,
            value: Value::InRegion(Region::ArgStrings),
        },
        Value::InRegion(r) => AbsVal::opaque(st.region_taint(*r)),
        // A load through a completely widened pointer *could* read the
        // tainted argv band, so the result is never Clean; beyond that it
        // carries whatever taint the path has written anywhere (see
        // [`State::anywhere_taint`]): `Unknown` until tainted input has
        // actually landed in memory, `Tainted` after — the heap-unlink and
        // `%n`-target dereferences the dynamic detector alerts on surface
        // as findings through exactly this rule. An opaque return address
        // or saved frame pointer used as a data pointer is treated the
        // same way (the concrete address is only known per call site).
        Value::Unknown | Value::RetAddr(_) | Value::FrameBase(_) => {
            AbsVal::opaque(st.anywhere_taint())
        }
    }
}

/// Little-endian sub-word extraction from a known word.
fn extract_subword(word: u32, addr: u32, width: MemWidth, signed: bool) -> u32 {
    match width {
        MemWidth::Byte => {
            let b = (word >> (8 * (addr & 3))) & 0xff;
            if signed {
                b as u8 as i8 as i32 as u32
            } else {
                b
            }
        }
        MemWidth::Half => {
            let h = (word >> (8 * (addr & 2))) & 0xffff;
            if signed {
                h as u16 as i16 as i32 as u32
            } else {
                h
            }
        }
        MemWidth::Word => word,
    }
}

/// Abstract memory store of `v` through `addr`.
fn store(ctx: &Ctx, st: &mut State, addr: &Value, width: MemWidth, v: &AbsVal, fx: &mut Effects) {
    match addr {
        Value::Consts(addrs) => {
            for &a in addrs {
                if ctx.in_text(a & !3) {
                    fx.smc_pages.insert(a / PAGE_SIZE);
                }
            }
            if let (&[a], MemWidth::Word) = (addrs.as_slice(), width) {
                if a.is_multiple_of(4) {
                    st.write_slot(ctx, a, *v);
                    return;
                }
            }
            // Weak update: join into each possibly-written word; sub-word
            // stores lose the word's value but keep a taint bound.
            let stored = AbsVal {
                taint: v.taint,
                value: if width == MemWidth::Word {
                    v.value
                } else {
                    Value::Unknown
                },
            };
            for &a in addrs {
                st.weak_write_slot(ctx, a, &stored);
            }
        }
        Value::InRegion(r) => st.havoc_region(ctx, *r, v.taint),
        Value::Unknown | Value::RetAddr(_) | Value::FrameBase(_) => st.havoc_all(v.taint),
    }
}

/// Abstract syscall: the kernel writes only `$v0` (clean) back to the
/// register file; `read`/`recv` additionally taint the destination buffer,
/// `brk` returns a heap pointer, `exit` never returns.
fn syscall(ctx: &Ctx, st: &mut State) -> Flow {
    let v0 = st.get(Reg::V0);
    let Some(num) = v0.value.singleton() else {
        // Unknown syscall number: assume the worst (an unknown read
        // destination) and keep going.
        st.havoc_all(Taint::Tainted);
        st.set(Reg::V0, AbsVal::opaque(Taint::Clean));
        return Flow::Fall;
    };
    match Sys::from_number(num) {
        Some(Sys::Exit) => Flow::Halt,
        Some(Sys::Read | Sys::Recv) => {
            let buf = st.get(Reg::A1);
            let len = st.get(Reg::A2);
            seed_buffer(ctx, st, &buf.value, &len.value);
            st.set(Reg::V0, AbsVal::opaque(Taint::Clean));
            Flow::Fall
        }
        Some(Sys::Brk) => {
            st.set(
                Reg::V0,
                AbsVal {
                    taint: Taint::Clean,
                    value: Value::InRegion(Region::Heap),
                },
            );
            Flow::Fall
        }
        _ => {
            // Remaining syscalls (write/open/close/socket/…) read guest
            // memory but never write it.
            st.set(Reg::V0, AbsVal::opaque(Taint::Clean));
            Flow::Fall
        }
    }
}

/// Taints the destination buffer of a `read`/`recv`: precisely when base
/// and length are known and small, by region havoc otherwise. This is the
/// static mirror of the kernel's tainted delivery (paper §4.4).
///
/// The kernel writes `[base, base + n)` byte-wise, so the delivery can
/// cross region boundaries (a buffer in the last data page can spill
/// tainted bytes into the heap). The imprecise paths therefore havoc
/// *every* region the possible span reaches — not just the base's region —
/// with the span end taken as the address-space top when the length is
/// statically unbounded.
fn seed_buffer(ctx: &Ctx, st: &mut State, buf: &Value, len: &Value) {
    let lay = ctx.layout;
    // Largest statically known delivery length, if any.
    let max_len = len.consts().and_then(|ls| ls.iter().copied().max());
    let havoc_span = |st: &mut State, lo: u32, hi: u32| {
        for r in lay.span_regions(lo, hi) {
            st.havoc_region(ctx, r, Taint::Tainted);
        }
    };
    match buf {
        Value::Consts(bases) => match max_len {
            Some(n) if n <= MAX_SEED_BYTES => {
                let tainted = AbsVal::opaque(Taint::Tainted);
                for &base in bases {
                    let mut a = base & !3;
                    while a < base + n {
                        st.weak_write_slot(ctx, a, &tainted);
                        a += 4;
                    }
                }
            }
            Some(n) => {
                for &base in bases {
                    havoc_span(st, base, base.saturating_add(n - 1));
                }
            }
            None => {
                for &base in bases {
                    havoc_span(st, base, u32::MAX);
                }
            }
        },
        Value::InRegion(r) => {
            let (lo, hi) = lay.region_span(*r).unwrap_or((0, u32::MAX));
            let hi = match max_len {
                Some(n) => hi.saturating_add(n.saturating_sub(1)),
                None => u32::MAX,
            };
            havoc_span(st, lo, hi);
        }
        Value::Unknown | Value::RetAddr(_) | Value::FrameBase(_) => st.havoc_all(Taint::Tainted),
    }
}

/// A pointer-checked site and the strongest taint its address register can
/// carry there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Instruction address.
    pub pc: u32,
    /// The instruction (for rendering).
    pub instr: Instr,
    /// Whether this is a load/store or a register jump.
    pub is_jump: bool,
    /// Taint bound of the address register at this site, joined over all
    /// abstract visits.
    pub taint: Taint,
}

/// Sees `(pc, insn, pre-state)` for every instruction walked — the
/// extraction pass uses it to grade pointer-checked sites and collect
/// call edges.
pub type WalkRecorder<'a> = &'a mut dyn FnMut(u32, &DecodedInsn, &State);

/// The address range `[lo, hi)` of the function a block walk runs inside;
/// control leaving it becomes an interprocedural edge.
#[derive(Debug, Clone, Copy)]
pub struct FnView {
    /// The function's entry address.
    pub lo: u32,
    /// One past the function's last instruction (the next function entry,
    /// or the end of text + stub).
    pub hi: u32,
}

impl FnView {
    /// Whether `pc` lies inside the function's range.
    #[must_use]
    pub fn contains(&self, pc: u32) -> bool {
        (self.lo..self.hi).contains(&pc)
    }
}

/// One typed out-edge of a basic block.
pub enum BlockEdge {
    /// Intra-function edge. The target may be a new mid-block pc — the
    /// per-function fixpoint splits the containing block dynamically.
    Local(u32, State),
    /// A call discovered at `site` (return site `site + 4`): the callee
    /// context is this state translated into callee frame coordinates with
    /// `link := RetAddr(0)`, and the callee's exit summary (translated
    /// back) feeds the return site.
    Call {
        /// The calling instruction's address.
        site: u32,
        /// Resolved callee entry (may be mid-function: the driver then
        /// promotes it to a new function entry).
        callee: u32,
        /// Register receiving the return address.
        link: Reg,
        /// Caller state at the call.
        state: State,
    },
    /// Control transfers out of the function without pushing a frame
    /// (cross-function jump/branch/fall-through or constant `jr`): the
    /// target function continues on this invocation's caller chain, and
    /// its exits become this function's exits.
    Tail {
        /// The transferring instruction's address.
        site: u32,
        /// Target address (promoted to a function entry if mid-function).
        target: u32,
        /// State at the transfer.
        state: State,
    },
    /// Structural function return (`jr` through `RetAddr(0)`).
    Return(State),
}

/// Everything one block walk produces.
pub struct BlockWalk {
    /// Typed out-edges.
    pub edges: Vec<BlockEdge>,
    /// Out-state of a widened indirect jump terminating the block: control
    /// can land at *any* instruction address, so the driver joins this
    /// into its global accumulator rather than into one edge per pc.
    pub anywhere: Option<State>,
    /// Instructions transferred.
    pub steps: usize,
}

/// Walks one basic block from `leader` with the given in-state, stopping
/// at the next local leader in `leaders` or at any control transfer, and
/// returning the typed out-edges.
pub fn walk_block(
    ctx: &Ctx,
    leaders: &BTreeSet<u32>,
    view: FnView,
    leader: u32,
    mut st: State,
    fx: &mut Effects,
    mut recorder: Option<WalkRecorder<'_>>,
) -> BlockWalk {
    let mut pc = leader;
    let mut edges = Vec::new();
    let mut anywhere = None;
    let mut steps = 0usize;
    // An in-range target is a local edge; anything else leaves the
    // function on the same logical frame (a tail transfer).
    let classify = |site: u32, target: u32, state: State| -> BlockEdge {
        if view.contains(target) {
            BlockEdge::Local(target, state)
        } else {
            BlockEdge::Tail {
                site,
                target,
                state,
            }
        }
    };
    while let Some(word) = ctx.word_at(pc) {
        if pc >= view.hi {
            // Fell across the function boundary (the boundary pc itself is
            // handled below, so this only guards pathological views).
            break;
        }
        let Ok(d) = DecodedInsn::predecode(pc, word) else {
            break;
        };
        if let Some(rec) = recorder.as_mut() {
            rec(pc, &d, &st);
        }
        let flow = transfer(ctx, &mut st, pc, &d, fx);
        steps += 1;
        match flow {
            Flow::Fall => {
                let next = pc + 4;
                if !view.contains(next) {
                    if ctx.in_text(next) {
                        edges.push(BlockEdge::Tail {
                            site: pc,
                            target: next,
                            state: st,
                        });
                    }
                    break;
                }
                if leaders.contains(&next) {
                    edges.push(BlockEdge::Local(next, st));
                    break;
                }
                pc = next;
            }
            Flow::Cond {
                target,
                taken,
                fall,
            } => {
                if taken && ctx.in_text(target) {
                    edges.push(classify(pc, target, st.clone()));
                }
                if fall && ctx.in_text(pc + 4) {
                    edges.push(classify(pc, pc + 4, st));
                }
                break;
            }
            Flow::Jump(target) => {
                edges.push(classify(pc, target, st));
                break;
            }
            Flow::Call { targets, link } => {
                for &callee in &targets {
                    edges.push(BlockEdge::Call {
                        site: pc,
                        callee,
                        link,
                        state: st.clone(),
                    });
                }
                break;
            }
            Flow::Return => {
                edges.push(BlockEdge::Return(st));
                break;
            }
            Flow::Targets(targets) => {
                for t in targets {
                    edges.push(classify(pc, t, st.clone()));
                }
                break;
            }
            Flow::Anywhere => {
                anywhere = Some(st);
                break;
            }
            Flow::Halt => break,
        }
    }
    BlockWalk {
        edges,
        anywhere,
        steps,
    }
}

/// Grades the pointer-checked site at `pc` (if the instruction is one)
/// from its pre-state, joining into `sites` — shared by the extraction
/// replay in `summary.rs`.
pub fn grade_site(sites: &mut BTreeMap<u32, Site>, pc: u32, d: &DecodedInsn, pre_state: &State) {
    let graded = match d.instr {
        Instr::Load { base, .. } | Instr::Store { base, .. } => {
            Some((pre_state.get(base).taint, false))
        }
        Instr::JumpReg { rs } => Some((pre_state.get(rs).taint, true)),
        Instr::JumpAndLinkReg { rs, .. } => Some((pre_state.get(rs).taint, true)),
        _ => None,
    };
    if let Some((taint, is_jump)) = graded {
        sites
            .entry(pc)
            .and_modify(|s| s.taint = s.taint.join(taint))
            .or_insert(Site {
                pc,
                instr: d.instr,
                is_jump,
                taint,
            });
    }
}
