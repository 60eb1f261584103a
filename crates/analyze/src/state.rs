//! The abstract machine state: registers, tracked memory slots, and
//! per-region summaries.
//!
//! Memory is modelled lazily: a word-aligned slot enters the tracked map
//! only once the program writes it through a known-constant address.
//! Everything else reads its *loader-initial* contents (image bytes for
//! text/data, zeros elsewhere, tainted-unknown for argv/envp strings) —
//! unless the containing region has been **havocked** by a store through a
//! widened pointer, after which the region's defaults lose their values and
//! absorb the stored taint.

use std::collections::{BTreeMap, BTreeSet};

use ptaint_asm::Image;
use ptaint_isa::{Reg, TEXT_BASE, WORD_BYTES};

use crate::domain::{AbsVal, MemLayout, Region, Taint, Value};

/// Upper bound on tracked memory slots per abstract state; beyond it new
/// constant-address stores degrade to region havocs so states stay small
/// and joins stay cheap.
const MAX_TRACKED_SLOTS: usize = 8192;

/// Canonical entry stack pointer: every function is analyzed as if it were
/// entered with `$sp` here, and states are rebased by an affine shift when
/// they cross a call or return edge. Mid-band (not `STACK_TOP - 64`) so
/// that rebasing ancestor frames *upward* across deep call chains cannot
/// leave the stack region.
pub const CANON_SP: u32 = 0x7000_0000;

/// Window of canonically-addressed stack slots kept tracked across an
/// edge translation: `[CANON_SP - STACK_FOLD_BELOW, CANON_SP +
/// STACK_FOLD_ABOVE)`. Slots shifted outside it (dead frames far below,
/// ancestor frames far above — only reachable under deep recursion) fold
/// into the stack havoc summary, which bounds state size and guarantees
/// convergence on recursive call graphs.
const STACK_FOLD_BELOW: u32 = 8192;
/// See [`STACK_FOLD_BELOW`].
const STACK_FOLD_ABOVE: u32 = 8192;

/// How many tracked stack slots survive a [`State::translate`].
#[derive(Debug, Clone, Copy)]
pub enum StackFold {
    /// Ordinary edge: keep slots inside the 8 KiB window either side of
    /// [`CANON_SP`] (`STACK_FOLD_BELOW`/`STACK_FOLD_ABOVE`).
    Window,
    /// Recursive (intra-SCC) edge: fold *every* tracked stack slot into
    /// the stack havoc summary. On such an edge each translation shifts
    /// the surviving slots to fresh addresses, so keeping the window would
    /// crawl toward the fixpoint one frame size per wave — hundreds of
    /// re-runs for a deep window. Folding eagerly is the bounded forget
    /// the window fold already performs, just applied in one step: the
    /// recursive context/exit stabilizes immediately, at the cost of
    /// region-granular (instead of slot-granular) taint for frames that
    /// cross a recursive edge.
    All,
}

/// How a [`State::translate`] maps [`Value::RetAddr`] depths across an
/// interprocedural edge.
#[derive(Debug, Clone, Copy)]
pub enum RetXfer {
    /// Call edge: every caller frame moves one deeper
    /// (`RetAddr(k) → RetAddr(k + 1)`, capped at
    /// [`crate::domain::MAX_RET_DEPTH`]).
    Deepen,
    /// Return edge at a known return site: `RetAddr(0)` becomes that
    /// concrete pc; deeper frames pop one level.
    Pop(u32),
    /// Tail-call edge: the logical caller chain is unchanged.
    Keep,
}

/// Immutable per-image context shared by every transfer function: the text
/// (plus exit stub) words, initial data bytes, and derived layout.
#[derive(Debug)]
pub struct Ctx {
    /// Text words including the synthesized exit stub.
    pub words: Vec<u32>,
    /// Base address of `words` (the image's text base).
    pub text_base: u32,
    /// Address of the loader's exit stub (== the image's `text_end`).
    pub stub: u32,
    /// Initial data bytes at `data_base`.
    pub data: Vec<u8>,
    /// Base address of the data segment.
    pub data_base: u32,
    /// Entry point.
    pub entry: u32,
    /// Region geometry derived from the image.
    pub layout: MemLayout,
}

impl Ctx {
    /// Builds the context for an image, synthesizing the same exit stub the
    /// loader appends after text (`move $a0,$v0; li $v0,1; syscall; break`).
    #[must_use]
    pub fn new(image: &Image) -> Ctx {
        let mut words = image.text.clone();
        words.extend(stub_words());
        let stub = image.text_end();
        let text_limit = stub + (stub_words().len() as u32) * WORD_BYTES;
        let brk0 = image.data_end().div_ceil(ptaint_isa::PAGE_SIZE) * ptaint_isa::PAGE_SIZE;
        Ctx {
            words,
            text_base: image.text_base,
            stub,
            data: image.data.clone(),
            data_base: image.data_base,
            entry: image.entry,
            layout: MemLayout { text_limit, brk0 },
        }
    }

    /// The word at a text (or stub) address, if in range and aligned.
    #[must_use]
    pub fn word_at(&self, addr: u32) -> Option<u32> {
        if addr < self.text_base || !addr.is_multiple_of(WORD_BYTES) {
            return None;
        }
        self.words
            .get(((addr - self.text_base) / WORD_BYTES) as usize)
            .copied()
    }

    /// Whether `addr` is a valid (aligned, in-range) instruction address.
    #[must_use]
    pub fn in_text(&self, addr: u32) -> bool {
        self.word_at(addr).is_some()
    }

    /// The little-endian data word at a (word-aligned) address, reading
    /// past the initialized bytes as zero.
    #[must_use]
    fn data_word(&self, addr: u32) -> u32 {
        let mut w = 0u32;
        for i in 0..4 {
            let off = (addr + i).wrapping_sub(self.data_base) as usize;
            let byte = self.data.get(off).copied().unwrap_or(0);
            w |= u32::from(byte) << (8 * i);
        }
        w
    }

    /// The loader-initial contents of the word-aligned slot at `addr`
    /// (before any havoc): what the program would read if it never wrote
    /// there.
    #[must_use]
    pub fn initial_slot(&self, addr: u32) -> AbsVal {
        match self.layout.classify(addr) {
            Region::Text => AbsVal::clean_const(self.word_at(addr).unwrap_or(0)),
            Region::Data => AbsVal::clean_const(self.data_word(addr)),
            Region::Heap | Region::Stack | Region::Other => AbsVal::clean_const(0),
            Region::ArgStrings | Region::ArgPtrs => AbsVal::opaque(Taint::Tainted),
        }
    }
}

/// The exit stub the loader appends after text, in encoded form. The
/// loader's [`ptaint_os::exit_stub`] is the single source of truth, so the
/// analyzed program and the running program can never disagree about these
/// words.
#[must_use]
pub fn stub_words() -> [u32; 4] {
    ptaint_os::exit_stub().map(|i| i.encode())
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    regs: [AbsVal; 32],
    hi: AbsVal,
    lo: AbsVal,
    /// Tracked word-aligned memory slots (written via constant addresses).
    mem: BTreeMap<u32, AbsVal>,
    /// Per-region havoc level: `Some(t)` once a store through a widened
    /// pointer may have hit the region, carrying taint at most `t`.
    havoc: [Option<Taint>; Region::COUNT],
    /// Monotone join over the taints ever written to tracked slots of each
    /// region — the region-granular bound used by widened loads.
    agg: [Taint; Region::COUNT],
    /// Function-local effect log: word-aligned slot addresses written since
    /// the current function's entry (cleared when a state crosses into a
    /// callee). At a return edge, [`State::apply_return`] replays exactly
    /// these writes onto the caller's state — the MOD part of the callee's
    /// summary — so caller-frame slots the callee never touched keep their
    /// call-site contents instead of absorbing the join of every other
    /// caller's frame.
    written: BTreeSet<u32>,
    /// Function-local havoc events per region: `Some(t)` once *this
    /// function's* run (not an inherited context) havocked the region with
    /// taint at most `t`. The may-write-anywhere half of the MOD summary:
    /// at a return edge these degrade the caller's kept slots of the
    /// region.
    events: [Option<Taint>; Region::COUNT],
}

impl State {
    /// The state the loader establishes at the entry point.
    #[must_use]
    pub fn entry(ctx: &Ctx) -> State {
        let zero = AbsVal::clean_const(0);
        let mut st = State {
            regs: std::array::from_fn(|_| zero.clone()),
            hi: zero.clone(),
            lo: zero,
            mem: BTreeMap::new(),
            havoc: [None; Region::COUNT],
            agg: [Taint::Clean; Region::COUNT],
            written: BTreeSet::new(),
            events: [None; Region::COUNT],
        };
        // argc is world-dependent; argv/envp point at the kernel-built
        // pointer arrays above the stack.
        st.set(Reg::A0, AbsVal::opaque(Taint::Clean));
        let arg_array = AbsVal {
            taint: Taint::Clean,
            value: Value::InRegion(Region::ArgPtrs),
        };
        st.set(Reg::A1, arg_array.clone());
        st.set(Reg::A2, arg_array);
        // The loader really sets `$sp = STACK_TOP - 64`, but the analysis
        // works in canonical frame coordinates (see [`CANON_SP`]): taint
        // grades are translation-invariant, and nothing below the entry
        // frame is populated, so the proven set is unaffected.
        st.set(Reg::SP, AbsVal::clean_const(CANON_SP));
        st.set(Reg::FP, AbsVal::clean_const(CANON_SP));
        st.set(Reg::GP, AbsVal::clean_const(ctx.data_base + 0x8000));
        st.set(Reg::RA, AbsVal::clean_const(ctx.stub));
        debug_assert_eq!(ctx.text_base, TEXT_BASE);
        st
    }

    /// Reads a register (`$zero` is always clean zero).
    #[must_use]
    pub fn get(&self, r: Reg) -> AbsVal {
        self.regs[r.number() as usize].clone()
    }

    /// Writes a register (writes to `$zero` are discarded).
    pub fn set(&mut self, r: Reg, v: AbsVal) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize] = v;
        }
    }

    /// Forces a register's taint to `Clean`, keeping its value — the
    /// Table-1 compare/branch operand untaint.
    pub fn untaint(&mut self, r: Reg) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize].taint = Taint::Clean;
        }
    }

    /// `HI` accessor.
    #[must_use]
    pub fn hi(&self) -> AbsVal {
        self.hi.clone()
    }

    /// `LO` accessor.
    #[must_use]
    pub fn lo(&self) -> AbsVal {
        self.lo.clone()
    }

    /// Writes `HI` and `LO`.
    pub fn set_hilo(&mut self, hi: AbsVal, lo: AbsVal) {
        self.hi = hi;
        self.lo = lo;
    }

    /// What a read of the word-aligned slot at `addr` observes if the slot
    /// is untracked: loader-initial contents, degraded by any havoc of the
    /// containing region.
    #[must_use]
    fn default_slot(&self, ctx: &Ctx, addr: u32) -> AbsVal {
        let r = ctx.layout.classify(addr);
        let init = ctx.initial_slot(addr);
        match self.havoc[r.index()] {
            Some(t) => AbsVal::opaque(init.taint.join(t)),
            None => init,
        }
    }

    /// The abstract contents of the word-aligned slot containing `addr`.
    #[must_use]
    pub fn read_slot(&self, ctx: &Ctx, addr: u32) -> AbsVal {
        let wa = addr & !3;
        self.mem
            .get(&wa)
            .cloned()
            .unwrap_or_else(|| self.default_slot(ctx, wa))
    }

    /// Region-granular taint bound for loads through a widened pointer
    /// into `r`: initial region taint, joined with havoc and with every
    /// taint ever written to a tracked slot of the region.
    #[must_use]
    pub fn region_taint(&self, r: Region) -> Taint {
        r.initial_taint()
            .join(self.havoc[r.index()].unwrap_or(Taint::Clean))
            .join(self.agg[r.index()])
    }

    /// Taint bound for a load through a completely widened pointer, which
    /// could read *any* address: `Unknown` floored (the always-tainted
    /// argv band is reachable, so never `Clean`), raised to the join of
    /// every taint the program has written anywhere — havoc and tracked
    /// writes alike — on this path. An input-free program therefore keeps
    /// such loads at `Unknown` (armed but not flagged), while a path that
    /// has delivered tainted input somewhere grades them `Tainted`: that
    /// is what lets an attack that corrupts a pointer *in memory* (heap
    /// unlink, `%n` targets) surface as a lint finding instead of hiding
    /// behind the widened pointer. Monotone over [`Taint::Unknown`], so
    /// the `Clean`/proven verdicts — the elision contract — are untouched.
    #[must_use]
    pub fn anywhere_taint(&self) -> Taint {
        let mut t = Taint::Unknown;
        for i in 0..Region::COUNT {
            t = t
                .join(self.havoc[i].unwrap_or(Taint::Clean))
                .join(self.agg[i]);
        }
        t
    }

    /// Strongly updates the word-aligned slot at `addr` (a single known
    /// address, full-word store). Falls back to a region havoc when the
    /// tracked map is full.
    pub fn write_slot(&mut self, ctx: &Ctx, addr: u32, v: AbsVal) {
        let wa = addr & !3;
        if self.mem.len() >= MAX_TRACKED_SLOTS && !self.mem.contains_key(&wa) {
            self.havoc_region(ctx, ctx.layout.classify(wa), v.taint);
            return;
        }
        let r = ctx.layout.classify(wa);
        self.agg[r.index()] = self.agg[r.index()].join(v.taint);
        self.written.insert(wa);
        self.mem.insert(wa, v);
    }

    /// Weakly updates the slot at `addr`: joins `v` into the current
    /// contents (used for multi-address and sub-word stores).
    pub fn weak_write_slot(&mut self, ctx: &Ctx, addr: u32, v: &AbsVal) {
        let old = self.read_slot(ctx, addr);
        self.write_slot(ctx, addr, old.join(v, &ctx.layout));
    }

    /// A store through a pointer only known to lie in `r` may have hit any
    /// slot of the region: every tracked slot absorbs the stored taint and
    /// loses its value, and the region's defaults degrade likewise. The
    /// two virtual argument regions alias the same physical band, so
    /// havocking one havocs both.
    pub fn havoc_region(&mut self, ctx: &Ctx, r: Region, taint: Taint) {
        self.havoc_one(ctx, r, taint);
        match r {
            Region::ArgStrings => self.havoc_one(ctx, Region::ArgPtrs, taint),
            Region::ArgPtrs => self.havoc_one(ctx, Region::ArgStrings, taint),
            _ => {}
        }
    }

    fn havoc_one(&mut self, ctx: &Ctx, r: Region, taint: Taint) {
        let i = r.index();
        self.havoc[i] = Some(self.havoc[i].unwrap_or(Taint::Clean).join(taint));
        self.agg[i] = self.agg[i].join(taint);
        self.events[i] = Some(self.events[i].unwrap_or(Taint::Clean).join(taint));
        for (&addr, slot) in self.mem.iter_mut() {
            if ctx.layout.classify(addr) == r {
                slot.taint = slot.taint.join(taint);
                slot.value = havocked_value(&slot.value);
            }
        }
    }

    /// A store through a completely unknown pointer: havoc every region.
    pub fn havoc_all(&mut self, taint: Taint) {
        for h in &mut self.havoc {
            *h = Some(h.unwrap_or(Taint::Clean).join(taint));
        }
        for e in &mut self.events {
            *e = Some(e.unwrap_or(Taint::Clean).join(taint));
        }
        for a in &mut self.agg {
            *a = a.join(taint);
        }
        for slot in self.mem.values_mut() {
            slot.taint = slot.taint.join(taint);
            slot.value = havocked_value(&slot.value);
        }
    }

    /// Joins `other` into `self`; returns whether `self` changed (the
    /// fixpoint driver's convergence signal).
    pub fn join_into(&mut self, other: &State, ctx: &Ctx) -> bool {
        let lay = &ctx.layout;
        let mut changed = false;
        for i in 0..32 {
            let j = self.regs[i].join(&other.regs[i], lay);
            if j != self.regs[i] {
                self.regs[i] = j;
                changed = true;
            }
        }
        let hi = self.hi.join(&other.hi, lay);
        if hi != self.hi {
            self.hi = hi;
            changed = true;
        }
        let lo = self.lo.join(&other.lo, lay);
        if lo != self.lo {
            self.lo = lo;
            changed = true;
        }
        // Memory: keys missing on one side read that side's default.
        let keys: Vec<u32> = self.mem.keys().chain(other.mem.keys()).copied().collect();
        for addr in keys {
            let a = self.read_slot(ctx, addr);
            let b = other.read_slot(ctx, addr);
            let j = a.join(&b, lay);
            if self.mem.get(&addr) != Some(&j) {
                self.mem.insert(addr, j);
                changed = true;
            }
        }
        for i in 0..Region::COUNT {
            let h = match (self.havoc[i], other.havoc[i]) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or(Taint::Clean).join(b.unwrap_or(Taint::Clean))),
            };
            if h != self.havoc[i] {
                self.havoc[i] = h;
                changed = true;
            }
            let g = self.agg[i].join(other.agg[i]);
            if g != self.agg[i] {
                self.agg[i] = g;
                changed = true;
            }
            let e = match (self.events[i], other.events[i]) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or(Taint::Clean).join(b.unwrap_or(Taint::Clean))),
            };
            if e != self.events[i] {
                self.events[i] = e;
                changed = true;
            }
        }
        for &w in &other.written {
            if self.written.insert(w) {
                changed = true;
            }
        }
        changed
    }

    /// Translates this state across an interprocedural edge.
    ///
    /// `delta` is the affine shift applied to stack-region addresses
    /// (`canonical-callee = caller + delta` on a call edge with a known
    /// caller `$sp`); `None` means the shift is unknown (widened `$sp`),
    /// in which case every stack coordinate is forgotten. `ret` maps
    /// [`Value::RetAddr`] depths (see [`RetXfer`]).
    ///
    /// Tracked stack slots whose translated address leaves the fold window
    /// around [`CANON_SP`] (or the stack band entirely) are dropped, with
    /// their joined taint recorded in the stack havoc summary — the
    /// bounded forget that keeps recursive call chains convergent. The
    /// havoc is recorded *without* smearing surviving tracked slots:
    /// forgetting one slot says nothing about the others. `fold` selects
    /// the keep-window: [`StackFold::All`] (recursive edges) keeps
    /// nothing, so the translated state is already a translation fixpoint.
    #[must_use]
    pub fn translate(&self, ctx: &Ctx, delta: Option<i64>, ret: RetXfer, fold: StackFold) -> State {
        let xv = |v: &Value| translate_value(v, ctx, delta, ret);
        let xa = |a: &AbsVal| AbsVal {
            taint: a.taint,
            value: xv(&a.value),
        };
        let mut out = State {
            regs: std::array::from_fn(|i| xa(&self.regs[i])),
            hi: xa(&self.hi),
            lo: xa(&self.lo),
            mem: BTreeMap::new(),
            havoc: self.havoc,
            agg: self.agg,
            written: BTreeSet::new(),
            events: self.events,
        };
        let mut folded: Option<Taint> = None;
        let (lo_keep, hi_keep) = match fold {
            StackFold::Window => (CANON_SP - STACK_FOLD_BELOW, CANON_SP + STACK_FOLD_ABOVE),
            // Empty keep-range: every stack slot folds.
            StackFold::All => (CANON_SP, CANON_SP),
        };
        for (&addr, slot) in &self.mem {
            if ctx.layout.classify(addr) != Region::Stack {
                out.mem.insert(addr, xa(slot));
                continue;
            }
            let kept = delta.and_then(|d| {
                let shifted = i64::from(addr) + d;
                let s = u32::try_from(shifted).ok()?;
                (ctx.layout.classify(s) == Region::Stack && (lo_keep..hi_keep).contains(&s))
                    .then_some(s)
            });
            match kept {
                Some(s) => {
                    out.mem.insert(s, xa(slot));
                }
                None => {
                    folded = Some(folded.unwrap_or(Taint::Clean).join(slot.taint));
                }
            }
        }
        if let Some(t) = folded {
            let i = Region::Stack.index();
            out.havoc[i] = Some(out.havoc[i].unwrap_or(Taint::Clean).join(t));
            out.agg[i] = out.agg[i].join(t);
        }
        for &addr in &self.written {
            if ctx.layout.classify(addr) != Region::Stack {
                out.written.insert(addr);
                continue;
            }
            let kept = delta.and_then(|d| {
                let s = u32::try_from(i64::from(addr) + d).ok()?;
                (ctx.layout.classify(s) == Region::Stack && (lo_keep..hi_keep).contains(&s))
                    .then_some(s)
            });
            match kept {
                Some(s) => {
                    out.written.insert(s);
                }
                None => {
                    // A write whose coordinate is lost can no longer be
                    // replayed slot-by-slot at a return edge: it degrades
                    // to a stack havoc *event* so callers still see it.
                    let t = self
                        .mem
                        .get(&addr)
                        .map_or(Taint::Tainted, |slot| slot.taint);
                    let i = Region::Stack.index();
                    out.events[i] = Some(out.events[i].unwrap_or(Taint::Clean).join(t));
                    out.havoc[i] = Some(out.havoc[i].unwrap_or(Taint::Clean).join(t));
                    out.agg[i] = out.agg[i].join(t);
                }
            }
        }
        out
    }

    /// Applies a callee's translated exit state `t` to this call-site
    /// state — the return-edge composition. Registers (and `HI`/`LO`) come
    /// from the callee wholesale; memory is this state's, with exactly the
    /// callee's recorded effects replayed on top:
    ///
    /// * every region the callee havocked (`t.events`) degrades this
    ///   state's kept slots of that region (taint joined, non-[`Value::RetAddr`]
    ///   values forgotten), and
    /// * every slot the callee wrote (`t.written`) joins the callee's exit
    ///   contents into this state's.
    ///
    /// Slots the callee never touched keep their call-site contents. This
    /// is what makes the joined-context scheme precise: the callee's
    /// *context* is the join of every caller's frame (mutually garbled),
    /// but what flows back to each caller is only the callee's MOD
    /// summary, applied to that caller's own frame.
    ///
    /// The callee's effect log also accumulates into this state's, so
    /// effects stay transitive across nested returns.
    ///
    /// `pop` distinguishes a call return (the callee ran one frame deeper:
    /// its [`Value::FrameBase`]`(0)` is *this* state's `$fp`, and deeper
    /// tokens shift down one level) from a tail composition (the target
    /// ran on this very invocation, so its depths are already ours).
    #[must_use]
    pub fn apply_return(&self, t: &State, ctx: &Ctx, pop: bool) -> State {
        let my_fp = self.get(Reg::FP).value;
        let subst = |v: &Value| -> Value {
            if !pop {
                return v.clone();
            }
            match v {
                Value::FrameBase(0) => my_fp.clone(),
                Value::FrameBase(k) => Value::FrameBase(k - 1),
                other => other.clone(),
            }
        };
        let subst_a = |a: &AbsVal| AbsVal {
            taint: a.taint,
            value: subst(&a.value),
        };
        let mut out = self.clone();
        out.regs = std::array::from_fn(|i| subst_a(&t.regs[i]));
        out.hi = subst_a(&t.hi);
        out.lo = subst_a(&t.lo);
        for i in 0..Region::COUNT {
            out.havoc[i] = match (out.havoc[i], t.havoc[i]) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or(Taint::Clean).join(b.unwrap_or(Taint::Clean))),
            };
            out.agg[i] = out.agg[i].join(t.agg[i]);
            out.events[i] = match (out.events[i], t.events[i]) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or(Taint::Clean).join(b.unwrap_or(Taint::Clean))),
            };
        }
        for (&addr, slot) in &mut out.mem {
            if let Some(h) = t.events[ctx.layout.classify(addr).index()] {
                slot.taint = slot.taint.join(h);
                slot.value = havocked_value(&slot.value);
            }
        }
        for &addr in &t.written {
            let mine = out.read_slot(ctx, addr);
            let theirs = subst_a(&t.read_slot(ctx, addr));
            out.mem.insert(addr, mine.join(&theirs, &ctx.layout));
            out.written.insert(addr);
        }
        out
    }

    /// Clears the function-local effect log — applied to a state crossing
    /// into a callee, whose own run starts with nothing written yet.
    pub fn reset_effects(&mut self) {
        self.written.clear();
        self.events = [None; Region::COUNT];
    }

    /// Folds this state into the coordinate-free form joined by the
    /// Anywhere accumulator. A widened indirect jump can land in *any*
    /// function, i.e. under any frame shift, so everything that is only
    /// meaningful relative to the current canonical frame is degraded:
    /// stack constants widen to [`Value::InRegion`]`(Stack)` (their
    /// physical addresses do lie in the band), opaque return addresses to
    /// [`Value::Unknown`], and tracked stack slots into the stack havoc
    /// summary. Register *taints* — the part the soundness of site grading
    /// depends on — are preserved exactly.
    #[must_use]
    pub fn fold_for_anywhere(&self, ctx: &Ctx) -> State {
        let xv = |v: &Value| match v {
            Value::Consts(cs) if cs.iter().any(|&c| ctx.layout.classify(c) == Region::Stack) => {
                if cs.iter().all(|&c| ctx.layout.classify(c) == Region::Stack) {
                    Value::InRegion(Region::Stack)
                } else {
                    Value::Unknown
                }
            }
            Value::RetAddr(_) | Value::FrameBase(_) => Value::Unknown,
            other => other.clone(),
        };
        let xa = |a: &AbsVal| AbsVal {
            taint: a.taint,
            value: xv(&a.value),
        };
        let mut out = State {
            regs: std::array::from_fn(|i| xa(&self.regs[i])),
            hi: xa(&self.hi),
            lo: xa(&self.lo),
            mem: BTreeMap::new(),
            havoc: self.havoc,
            agg: self.agg,
            written: BTreeSet::new(),
            events: self.events,
        };
        let mut folded: Option<Taint> = None;
        for (&addr, slot) in &self.mem {
            if ctx.layout.classify(addr) == Region::Stack {
                folded = Some(folded.unwrap_or(Taint::Clean).join(slot.taint));
            } else {
                out.mem.insert(addr, xa(slot));
            }
        }
        if let Some(t) = folded {
            let i = Region::Stack.index();
            out.havoc[i] = Some(out.havoc[i].unwrap_or(Taint::Clean).join(t));
            out.agg[i] = out.agg[i].join(t);
        }
        for &addr in &self.written {
            if ctx.layout.classify(addr) == Region::Stack {
                let t = self
                    .mem
                    .get(&addr)
                    .map_or(Taint::Tainted, |slot| slot.taint);
                let i = Region::Stack.index();
                out.events[i] = Some(out.events[i].unwrap_or(Taint::Clean).join(t));
            } else {
                out.written.insert(addr);
            }
        }
        out
    }
}

/// What a havoc leaves of a tracked slot's value.
///
/// An opaque return address survives a havoc; everything else degrades to
/// [`Value::Unknown`]. Two arguments cover the two havoc flavours:
///
/// * **Tainted havoc** (e.g. `read()` with imprecise bounds smearing the
///   stack): every byte it may have written is tainted, so an execution
///   that later passes the pointer-taintedness check on the slot's
///   contents — the only way its value reaches a `jr` — must have read
///   the *original* return address. This is the same check refinement the
///   Load/Store transfer applies, and it is unconditional.
/// * **Clean havoc** (a store of constant data through a widened pointer,
///   e.g. a scanner nul-terminating through an advancing buffer cursor):
///   here we lean on the paper's threat model — memory-corruption payloads
///   are *input-derived*, hence tainted. A program overwriting a saved
///   return address with untainted constants is corruption the dynamic
///   taintedness check cannot observe either, so preserving the opaque
///   value loses nothing relative to the detector the analysis mirrors.
///
/// The slot's *taint* still absorbs the havoc, so a `jr` through a
/// possibly-overwritten slot is still flagged/unresolved; only control
/// flow stays structural instead of widening to Anywhere. Preserving the
/// value is safe precisely because [`Value::RetAddr`] exposes no
/// constants: it cannot steer branch pruning or address arithmetic, so a
/// stale value can never exclude a concrete path.
///
/// [`Value::FrameBase`] — the saved frame pointer — survives for exactly
/// the same two reasons: its consumers are pointer-checked (frame-relative
/// loads and stores), and it too exposes no constants.
fn havocked_value(v: &Value) -> Value {
    match v {
        Value::RetAddr(k) => Value::RetAddr(*k),
        Value::FrameBase(k) => Value::FrameBase(*k),
        _ => Value::Unknown,
    }
}

/// Value part of [`State::translate`]: shifts stack-region constants by
/// `delta` (degrading to [`Value::Unknown`] when the shift is unknown or
/// the result escapes the stack band) and maps return-address depths.
fn translate_value(v: &Value, ctx: &Ctx, delta: Option<i64>, ret: RetXfer) -> Value {
    match v {
        Value::Consts(cs) => {
            let mut out = Vec::with_capacity(cs.len());
            for &c in cs {
                if ctx.layout.classify(c) != Region::Stack {
                    out.push(c);
                    continue;
                }
                let Some(d) = delta else {
                    return Value::Unknown;
                };
                let Ok(s) = u32::try_from(i64::from(c) + d) else {
                    return Value::Unknown;
                };
                if ctx.layout.classify(s) != Region::Stack {
                    return Value::Unknown;
                }
                out.push(s);
            }
            Value::normalize(out, &ctx.layout)
        }
        Value::RetAddr(k) => match ret {
            RetXfer::Deepen => {
                if *k >= crate::domain::MAX_RET_DEPTH {
                    Value::Unknown
                } else {
                    Value::RetAddr(k + 1)
                }
            }
            RetXfer::Pop(pc) => {
                if *k == 0 {
                    Value::constant(pc)
                } else {
                    Value::RetAddr(k - 1)
                }
            }
            RetXfer::Keep => Value::RetAddr(*k),
        },
        // Saved-fp depths deepen with the return-address depths, but the
        // `Pop` substitution needs the *caller's* fp value, which only
        // [`State::apply_return`] knows — it maps the depths back down.
        Value::FrameBase(k) => match ret {
            RetXfer::Deepen => {
                if *k >= crate::domain::MAX_RET_DEPTH {
                    Value::Unknown
                } else {
                    Value::FrameBase(k + 1)
                }
            }
            RetXfer::Pop(_) | RetXfer::Keep => Value::FrameBase(*k),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_isa::{Instr, DATA_BASE, STACK_TOP};

    fn ctx() -> Ctx {
        let mut image = Image::new();
        image.text = vec![Instr::Syscall.encode()];
        image.data = vec![0x78, 0x56, 0x34, 0x12];
        Ctx::new(&image)
    }

    #[test]
    fn defaults_read_loader_contents() {
        let c = ctx();
        let st = State::entry(&c);
        assert_eq!(
            st.read_slot(&c, DATA_BASE),
            AbsVal::clean_const(0x1234_5678)
        );
        assert_eq!(st.read_slot(&c, STACK_TOP - 64), AbsVal::clean_const(0));
        assert_eq!(st.read_slot(&c, STACK_TOP).taint, Taint::Tainted);
    }

    #[test]
    fn havoc_taints_tracked_slots_and_defaults() {
        let c = ctx();
        let mut st = State::entry(&c);
        st.write_slot(&c, STACK_TOP - 100, AbsVal::clean_const(7));
        st.havoc_region(&c, Region::Stack, Taint::Tainted);
        assert_eq!(st.read_slot(&c, STACK_TOP - 100).taint, Taint::Tainted);
        assert_eq!(st.read_slot(&c, STACK_TOP - 100).value, Value::Unknown);
        // Untracked slots of the region degrade too.
        assert_eq!(st.read_slot(&c, STACK_TOP - 200).taint, Taint::Tainted);
        // Other regions are untouched.
        assert_eq!(
            st.read_slot(&c, DATA_BASE),
            AbsVal::clean_const(0x1234_5678)
        );
        assert_eq!(st.region_taint(Region::Stack), Taint::Tainted);
    }

    #[test]
    fn clean_havoc_destroys_values_not_taint() {
        let c = ctx();
        let mut st = State::entry(&c);
        st.write_slot(&c, STACK_TOP - 100, AbsVal::clean_const(7));
        st.havoc_region(&c, Region::Stack, Taint::Clean);
        let slot = st.read_slot(&c, STACK_TOP - 100);
        assert_eq!(slot.taint, Taint::Clean);
        assert_eq!(slot.value, Value::Unknown);
    }

    #[test]
    fn join_accounts_for_one_sided_havoc() {
        let c = ctx();
        let mut a = State::entry(&c);
        let mut b = State::entry(&c);
        // Path A tracks a clean slot; path B havocs the region tainted.
        a.write_slot(&c, STACK_TOP - 100, AbsVal::clean_const(7));
        b.havoc_region(&c, Region::Stack, Taint::Tainted);
        assert!(a.join_into(&b, &c));
        assert_eq!(a.read_slot(&c, STACK_TOP - 100).taint, Taint::Tainted);
        // Idempotent once converged.
        let snapshot = a.clone();
        assert!(!a.join_into(&b, &c));
        assert_eq!(a, snapshot);
    }

    #[test]
    fn argument_regions_alias_for_havoc() {
        let c = ctx();
        let mut st = State::entry(&c);
        st.havoc_region(&c, Region::ArgStrings, Taint::Tainted);
        assert_eq!(st.region_taint(Region::ArgPtrs), Taint::Tainted);
    }
}
