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
    /// Tracked word-aligned memory slots (written via constant addresses),
    /// sorted by address in one flat vector: copying a state is one
    /// allocation, and joins and translations are linear walks.
    mem: Vec<(u32, AbsVal)>,
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
    /// caller's frame. Sorted.
    written: Vec<u32>,
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
            regs: [zero; 32],
            hi: zero,
            lo: zero,
            mem: Vec::new(),
            havoc: [None; Region::COUNT],
            agg: [Taint::Clean; Region::COUNT],
            written: Vec::new(),
            events: [None; Region::COUNT],
        };
        // argc is world-dependent; argv/envp point at the kernel-built
        // pointer arrays above the stack.
        st.set(Reg::A0, AbsVal::opaque(Taint::Clean));
        let arg_array = AbsVal {
            taint: Taint::Clean,
            value: Value::InRegion(Region::ArgPtrs),
        };
        st.set(Reg::A1, arg_array);
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
        self.regs[r.number() as usize]
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
        self.hi
    }

    /// `LO` accessor.
    #[must_use]
    pub fn lo(&self) -> AbsVal {
        self.lo
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
        default_under(&self.havoc, ctx, addr)
    }

    /// The abstract contents of the word-aligned slot containing `addr`.
    #[must_use]
    pub fn read_slot(&self, ctx: &Ctx, addr: u32) -> AbsVal {
        let wa = addr & !3;
        match find(&self.mem, wa) {
            Ok(i) => self.mem[i].1,
            Err(_) => self.default_slot(ctx, wa),
        }
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
        let at = find(&self.mem, wa);
        if self.mem.len() >= MAX_TRACKED_SLOTS && at.is_err() {
            self.havoc_region(ctx, ctx.layout.classify(wa), v.taint);
            return;
        }
        let r = ctx.layout.classify(wa);
        self.agg[r.index()] = self.agg[r.index()].join(v.taint);
        mark(&mut self.written, wa);
        match at {
            Ok(i) => self.mem[i].1 = v,
            Err(i) => self.mem.insert(i, (wa, v)),
        }
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
        raise(&mut self.havoc[i], taint);
        self.agg[i] = self.agg[i].join(taint);
        raise(&mut self.events[i], taint);
        for (addr, slot) in &mut self.mem {
            if ctx.layout.classify(*addr) == r {
                slot.taint = slot.taint.join(taint);
                slot.value = havocked_value(slot.value);
            }
        }
    }

    /// A store through a completely unknown pointer: havoc every region.
    pub fn havoc_all(&mut self, taint: Taint) {
        for level in self.havoc.iter_mut().chain(&mut self.events) {
            raise(level, taint);
        }
        for a in &mut self.agg {
            *a = a.join(taint);
        }
        for (_, slot) in &mut self.mem {
            slot.taint = slot.taint.join(taint);
            slot.value = havocked_value(slot.value);
        }
    }

    /// Joins `other` into `self`; returns whether `self` changed (the
    /// fixpoint driver's convergence signal).
    ///
    /// Memory is one merge walk over the two sorted slot vectors: a slot
    /// tracked on one side only joins the other side's default (read
    /// under that side's havoc before this join), and only the slots whose
    /// contents grow are written. A slot tracked by `other` alone is
    /// always added, materialized, and counts as a change.
    pub fn join_into(&mut self, other: &State, ctx: &Ctx) -> bool {
        let lay = &ctx.layout;
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(&other.regs) {
            changed |= join_cell(mine, theirs, lay);
        }
        changed |= join_cell(&mut self.hi, &other.hi, lay);
        changed |= join_cell(&mut self.lo, &other.lo, lay);
        let my_havoc = self.havoc;
        let mut theirs = other.mem.iter().peekable();
        let mut added = Vec::new();
        for &mut (addr, ref mut mine) in &mut self.mem {
            while let Some(&(k, b)) = theirs.next_if(|&&(k, _)| k < addr) {
                added.push((k, default_under(&my_havoc, ctx, k).join(&b, lay)));
            }
            let b = match theirs.next_if(|&&(k, _)| k == addr) {
                Some(&(_, b)) => b,
                None => default_under(&other.havoc, ctx, addr),
            };
            changed |= join_cell(mine, &b, lay);
        }
        for &(k, b) in theirs {
            added.push((k, default_under(&my_havoc, ctx, k).join(&b, lay)));
        }
        if !added.is_empty() {
            changed = true;
            // Two sorted runs: the stable sort merges them in one pass.
            self.mem.extend(added);
            self.mem.sort_by_key(|&(a, _)| a);
        }
        for i in 0..Region::COUNT {
            changed |= join_level(&mut self.havoc[i], other.havoc[i]);
            let g = self.agg[i].join(other.agg[i]);
            changed |= g != self.agg[i];
            self.agg[i] = g;
            changed |= join_level(&mut self.events[i], other.events[i]);
        }
        let mut at = 0;
        let mut new = Vec::new();
        for &w in &other.written {
            while self.written.get(at).is_some_and(|&m| m < w) {
                at += 1;
            }
            if self.written.get(at) != Some(&w) {
                new.push(w);
            }
        }
        if !new.is_empty() {
            changed = true;
            self.written.extend(new);
            self.written.sort_unstable();
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
        let xa = |a: &AbsVal| AbsVal {
            taint: a.taint,
            value: translate_value(a.value, ctx, delta, ret),
        };
        let (lo_keep, hi_keep) = match fold {
            StackFold::Window => (CANON_SP - STACK_FOLD_BELOW, CANON_SP + STACK_FOLD_ABOVE),
            // Empty keep-range: every stack slot folds.
            StackFold::All => (CANON_SP, CANON_SP),
        };
        // Where a slot lands: non-stack slots stay put, stack slots shift
        // by `delta` or are lost (`None`). The shift is one affine offset
        // and kept slots stay inside the stack band, so ascending input
        // gives ascending output: the translated vectors stay sorted.
        let land = |addr: u32| -> Option<u32> {
            if ctx.layout.classify(addr) != Region::Stack {
                return Some(addr);
            }
            let s = u32::try_from(i64::from(addr) + delta?).ok()?;
            (ctx.layout.classify(s) == Region::Stack && (lo_keep..hi_keep).contains(&s))
                .then_some(s)
        };
        let mut out = State {
            regs: self.regs.each_ref().map(xa),
            hi: xa(&self.hi),
            lo: xa(&self.lo),
            mem: Vec::new(),
            havoc: self.havoc,
            agg: self.agg,
            written: Vec::new(),
            events: self.events,
        };
        let mut folded: Option<Taint> = None;
        let mut mem = Vec::with_capacity(self.mem.len());
        for &(addr, ref slot) in &self.mem {
            match land(addr) {
                Some(s) => mem.push((s, xa(slot))),
                None => folded = Some(folded.unwrap_or(Taint::Clean).join(slot.taint)),
            }
        }
        debug_assert!(mem.is_sorted_by_key(|&(a, _)| a));
        out.mem = mem;
        let stack = Region::Stack.index();
        if let Some(t) = folded {
            raise(&mut out.havoc[stack], t);
            out.agg[stack] = out.agg[stack].join(t);
        }
        let mut written = Vec::with_capacity(self.written.len());
        for &addr in &self.written {
            match land(addr) {
                Some(s) => written.push(s),
                None => {
                    // A write whose coordinate is lost can no longer be
                    // replayed slot-by-slot at a return edge: it degrades
                    // to a stack havoc *event* so callers still see it.
                    let t = find(&self.mem, addr).map_or(Taint::Tainted, |i| self.mem[i].1.taint);
                    raise(&mut out.events[stack], t);
                    raise(&mut out.havoc[stack], t);
                    out.agg[stack] = out.agg[stack].join(t);
                }
            }
        }
        debug_assert!(written.is_sorted());
        out.written = written;
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
    pub fn apply_return(mut self, t: &State, ctx: &Ctx, pop: bool) -> State {
        let my_fp = self.get(Reg::FP).value;
        let subst = |a: &AbsVal| AbsVal {
            taint: a.taint,
            value: match a.value {
                Value::FrameBase(0) if pop => my_fp,
                Value::FrameBase(k) if pop => Value::FrameBase(k - 1),
                v => v,
            },
        };
        self.regs = t.regs.each_ref().map(subst);
        self.hi = subst(&t.hi);
        self.lo = subst(&t.lo);
        for i in 0..Region::COUNT {
            join_level(&mut self.havoc[i], t.havoc[i]);
            self.agg[i] = self.agg[i].join(t.agg[i]);
            join_level(&mut self.events[i], t.events[i]);
        }
        if t.events.iter().any(Option::is_some) {
            for (addr, slot) in &mut self.mem {
                if let Some(h) = t.events[ctx.layout.classify(*addr).index()] {
                    slot.taint = slot.taint.join(h);
                    slot.value = havocked_value(slot.value);
                }
            }
        }
        for &addr in &t.written {
            let mine = self.read_slot(ctx, addr);
            let theirs = subst(&t.read_slot(ctx, addr));
            let j = mine.join(&theirs, &ctx.layout);
            match find(&self.mem, addr) {
                Ok(i) => self.mem[i].1 = j,
                Err(i) => self.mem.insert(i, (addr, j)),
            }
            mark(&mut self.written, addr);
        }
        self
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
        let xa = |a: &AbsVal| AbsVal {
            taint: a.taint,
            value: match a.value {
                Value::Consts(cs)
                    if cs.iter().any(|&c| ctx.layout.classify(c) == Region::Stack) =>
                {
                    if cs.iter().all(|&c| ctx.layout.classify(c) == Region::Stack) {
                        Value::InRegion(Region::Stack)
                    } else {
                        Value::Unknown
                    }
                }
                Value::RetAddr(_) | Value::FrameBase(_) => Value::Unknown,
                other => other,
            },
        };
        let is_stack = |addr: &u32| ctx.layout.classify(*addr) == Region::Stack;
        let mut out = State {
            regs: self.regs.each_ref().map(xa),
            hi: xa(&self.hi),
            lo: xa(&self.lo),
            mem: self
                .mem
                .iter()
                .filter(|(a, _)| !is_stack(a))
                .map(|(a, slot)| (*a, xa(slot)))
                .collect(),
            havoc: self.havoc,
            agg: self.agg,
            written: self
                .written
                .iter()
                .copied()
                .filter(|a| !is_stack(a))
                .collect(),
            events: self.events,
        };
        let stack = Region::Stack.index();
        let folded = self
            .mem
            .iter()
            .filter(|(a, _)| is_stack(a))
            .map(|(_, slot)| slot.taint)
            .reduce(Taint::join);
        if let Some(t) = folded {
            raise(&mut out.havoc[stack], t);
            out.agg[stack] = out.agg[stack].join(t);
        }
        for addr in self.written.iter().filter(|a| is_stack(a)) {
            let t = find(&self.mem, *addr).map_or(Taint::Tainted, |i| self.mem[i].1.taint);
            raise(&mut out.events[stack], t);
        }
        out
    }
}

/// Where the slot `wa` is, or would be inserted, in a sorted slot vector.
fn find(mem: &[(u32, AbsVal)], wa: u32) -> Result<usize, usize> {
    mem.binary_search_by_key(&wa, |&(a, _)| a)
}

/// Adds `wa` to a sorted write log.
fn mark(written: &mut Vec<u32>, wa: u32) {
    if let Err(i) = written.binary_search(&wa) {
        written.insert(i, wa);
    }
}

/// Joins `theirs` into `mine`; returns whether `mine` grew.
fn join_cell(mine: &mut AbsVal, theirs: &AbsVal, lay: &MemLayout) -> bool {
    if mine == theirs {
        return false;
    }
    let j = mine.join(theirs, lay);
    let grew = j != *mine;
    *mine = j;
    grew
}

/// Raises a havoc or event level to include `t` (`None` is below every
/// taint: nothing was havocked).
fn raise(level: &mut Option<Taint>, t: Taint) {
    *level = Some(level.unwrap_or(Taint::Clean).join(t));
}

/// Joins two havoc or event levels into `mine`; returns whether it grew.
fn join_level(mine: &mut Option<Taint>, theirs: Option<Taint>) -> bool {
    let Some(t) = theirs else {
        return false;
    };
    let old = *mine;
    raise(mine, t);
    *mine != old
}

/// What a read of the word-aligned slot at `addr` observes when no state
/// tracks it, under the given per-region havoc levels: loader-initial
/// contents, degraded by any havoc of the containing region.
fn default_under(havoc: &[Option<Taint>; Region::COUNT], ctx: &Ctx, addr: u32) -> AbsVal {
    let init = ctx.initial_slot(addr);
    match havoc[ctx.layout.classify(addr).index()] {
        Some(t) => AbsVal::opaque(init.taint.join(t)),
        None => init,
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
fn havocked_value(v: Value) -> Value {
    match v {
        Value::RetAddr(_) | Value::FrameBase(_) => v,
        _ => Value::Unknown,
    }
}

/// Value part of [`State::translate`]: shifts stack-region constants by
/// `delta` (degrading to [`Value::Unknown`] when the shift is unknown or
/// the result escapes the stack band) and maps return-address depths.
fn translate_value(v: Value, ctx: &Ctx, delta: Option<i64>, ret: RetXfer) -> Value {
    match v {
        Value::Consts(cs) => {
            let mut out = [0u32; crate::domain::MAX_CONSTS];
            for (o, &c) in out.iter_mut().zip(cs.iter()) {
                *o = if ctx.layout.classify(c) == Region::Stack {
                    let Some(d) = delta else {
                        return Value::Unknown;
                    };
                    let Ok(s) = u32::try_from(i64::from(c) + d) else {
                        return Value::Unknown;
                    };
                    if ctx.layout.classify(s) != Region::Stack {
                        return Value::Unknown;
                    }
                    s
                } else {
                    c
                };
            }
            Value::normalize(&mut out[..cs.len()], &ctx.layout)
        }
        Value::RetAddr(k) => match ret {
            RetXfer::Deepen => {
                if k >= crate::domain::MAX_RET_DEPTH {
                    Value::Unknown
                } else {
                    Value::RetAddr(k + 1)
                }
            }
            RetXfer::Pop(pc) => {
                if k == 0 {
                    Value::constant(pc)
                } else {
                    Value::RetAddr(k - 1)
                }
            }
            RetXfer::Keep => Value::RetAddr(k),
        },
        // Saved-fp depths deepen with the return-address depths, but the
        // `Pop` substitution needs the *caller's* fp value, which only
        // [`State::apply_return`] knows — it maps the depths back down.
        Value::FrameBase(k) => match ret {
            RetXfer::Deepen => {
                if k >= crate::domain::MAX_RET_DEPTH {
                    Value::Unknown
                } else {
                    Value::FrameBase(k + 1)
                }
            }
            RetXfer::Pop(_) | RetXfer::Keep => Value::FrameBase(k),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::tests::{sample_value, REGIONS};
    use proptest::prelude::*;
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

    /// The per-key join that [`State::join_into`] replaced, kept as its
    /// reference: it collects both sides' keys, duplicates included, and
    /// joins each through two `read_slot` searches.
    fn join_per_key(this: &mut State, other: &State, ctx: &Ctx) -> bool {
        let lay = &ctx.layout;
        let mut changed = false;
        for i in 0..32 {
            let j = this.regs[i].join(&other.regs[i], lay);
            if j != this.regs[i] {
                this.regs[i] = j;
                changed = true;
            }
        }
        let hi = this.hi.join(&other.hi, lay);
        if hi != this.hi {
            this.hi = hi;
            changed = true;
        }
        let lo = this.lo.join(&other.lo, lay);
        if lo != this.lo {
            this.lo = lo;
            changed = true;
        }
        // Memory: keys missing on one side read that side's default.
        let keys: Vec<u32> = this.mem.iter().chain(&other.mem).map(|&(a, _)| a).collect();
        for addr in keys {
            let a = this.read_slot(ctx, addr);
            let b = other.read_slot(ctx, addr);
            let j = a.join(&b, lay);
            match find(&this.mem, addr) {
                Ok(i) if this.mem[i].1 == j => {}
                Ok(i) => {
                    this.mem[i].1 = j;
                    changed = true;
                }
                Err(i) => {
                    this.mem.insert(i, (addr, j));
                    changed = true;
                }
            }
        }
        for i in 0..Region::COUNT {
            let h = match (this.havoc[i], other.havoc[i]) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or(Taint::Clean).join(b.unwrap_or(Taint::Clean))),
            };
            if h != this.havoc[i] {
                this.havoc[i] = h;
                changed = true;
            }
            let g = this.agg[i].join(other.agg[i]);
            if g != this.agg[i] {
                this.agg[i] = g;
                changed = true;
            }
            let e = match (this.events[i], other.events[i]) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or(Taint::Clean).join(b.unwrap_or(Taint::Clean))),
            };
            if e != this.events[i] {
                this.events[i] = e;
                changed = true;
            }
        }
        for &w in &other.written {
            if let Err(i) = this.written.binary_search(&w) {
                this.written.insert(i, w);
                changed = true;
            }
        }
        changed
    }

    /// Applies generated operations to a state. Each is a kind and one
    /// random word: register and `HI`/`LO` writes, strong and weak slot
    /// writes over a shared pool of addresses in every region, region and
    /// global havocs, untaints and effect-log resets.
    fn apply(c: &Ctx, st: &mut State, ops: &[(u8, u64)]) {
        let slots = [
            DATA_BASE,
            DATA_BASE + 4,
            DATA_BASE + 10,
            c.layout.brk0 + 16,
            CANON_SP - 8,
            CANON_SP - 4,
            CANON_SP,
            CANON_SP + 12,
            STACK_TOP + 8,
            TEXT_BASE,
            0x100,
        ];
        let taint = |w: u64| [Taint::Clean, Taint::Unknown, Taint::Tainted][(w % 3) as usize];
        for &(kind, w) in ops {
            let v = AbsVal {
                taint: taint(w >> 40),
                value: sample_value(&c.layout, w),
            };
            let reg = Reg::new(((w >> 50) % 32) as u8);
            let addr = slots[((w >> 50) % slots.len() as u64) as usize];
            let region = REGIONS[((w >> 44) % 7) as usize];
            match kind {
                0 | 1 => st.set(reg, v),
                2 => st.set_hilo(v, AbsVal::opaque(taint(w >> 56))),
                3 | 4 => st.write_slot(c, addr, v),
                5 => st.weak_write_slot(c, addr, &v),
                6 => st.havoc_region(c, region, v.taint),
                7 => st.havoc_all(v.taint),
                8 => st.reset_effects(),
                _ => st.untaint(reg),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The merge-walk join returns the same state and the same
        /// `changed` flag as the per-key join, on pairs of states grown
        /// from a shared prefix of operations; and a repeated join
        /// changes nothing.
        #[test]
        fn merge_walk_join_matches_the_per_key_join(
            shared in proptest::collection::vec((0u8..10, any::<u64>()), 0..16),
            left in proptest::collection::vec((0u8..10, any::<u64>()), 0..10),
            right in proptest::collection::vec((0u8..10, any::<u64>()), 0..10)
        ) {
            let c = ctx();
            let mut a = State::entry(&c);
            apply(&c, &mut a, &shared);
            let mut b = a.clone();
            apply(&c, &mut a, &left);
            apply(&c, &mut b, &right);
            for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
                let mut walked = x.clone();
                let mut per_key = x.clone();
                let grew = walked.join_into(y, &c);
                prop_assert_eq!(grew, join_per_key(&mut per_key, y, &c));
                prop_assert_eq!(&walked, &per_key);
                prop_assert!(!walked.join_into(y, &c));
                prop_assert_eq!(&walked, &per_key);
            }
        }
    }

    #[test]
    fn argument_regions_alias_for_havoc() {
        let c = ctx();
        let mut st = State::entry(&c);
        st.havoc_region(&c, Region::ArgStrings, Taint::Tainted);
        assert_eq!(st.region_taint(Region::ArgPtrs), Taint::Tainted);
    }
}
