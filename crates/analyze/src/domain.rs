//! Abstract domains of the static analysis.
//!
//! The analysis runs over two coupled lattices:
//!
//! * a three-value **taint lattice** ([`Taint`]: `Clean < Unknown < Tainted`)
//!   abstracting the per-byte taint words of the dynamic detector — `Clean`
//!   means *no concrete execution can see taint here*, `Tainted` means *some
//!   path provably propagates external input here*, and `Unknown` is the
//!   honest middle;
//! * a small **value lattice** ([`Value`]) tracking pointer-sized constants
//!   precisely (up to [`MAX_CONSTS`] per cell) and widening larger sets to
//!   the memory [`Region`] they point into, which is what keeps stores
//!   through strided pointers (`strcpy` loops and friends) sound without
//!   giving up on the rest of the address space.

use ptaint_isa::{ARG_BASE, DATA_BASE, STACK_TOP, TEXT_BASE};

/// Three-value taint abstraction, ordered `Clean < Unknown < Tainted`.
///
/// `join` is `max`: a cell is `Clean` only when *every* path leaves it clean,
/// and `Tainted` when *some* path taints it. Lint findings report `Tainted`
/// sites; check elision requires `Clean`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Taint {
    /// No execution reaching this point can carry taint here.
    Clean,
    /// The analysis cannot decide; the runtime check stays armed.
    Unknown,
    /// Some feasible abstract path propagates external input here.
    Tainted,
}

impl Taint {
    /// Least upper bound (`max` under the total order).
    #[must_use]
    pub fn join(self, other: Taint) -> Taint {
        self.max(other)
    }
}

/// Coarse partition of the 32-bit address space, mirroring how the loader
/// and kernel populate it.
///
/// `ArgPtrs` and `ArgStrings` are *virtual* regions: the loader interleaves
/// the argv/envp pointer arrays and string bytes in the same physical band
/// `[STACK_TOP, ARG_BASE)`, so the two views are linked — havocking either
/// havocs both (see `State::havoc_region`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// Program text plus the loader's exit stub.
    Text,
    /// Initialized data up to the initial program break.
    Data,
    /// `[brk0, 0x4000_0000)` — memory obtained by growing the break.
    Heap,
    /// `[0x4000_0000, STACK_TOP)` — the downward-growing stack.
    Stack,
    /// The argv/envp *string bytes* (external input: default-tainted).
    ArgStrings,
    /// The kernel-built argv/envp *pointer arrays* (clean words whose
    /// values point into [`Region::ArgStrings`]).
    ArgPtrs,
    /// Everything else (demand-zero, never populated by the loader).
    Other,
}

impl Region {
    /// Number of regions (for fixed-size per-region tables).
    pub const COUNT: usize = 7;

    /// Dense index for per-region tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Region::Text => 0,
            Region::Data => 1,
            Region::Heap => 2,
            Region::Stack => 3,
            Region::ArgStrings => 4,
            Region::ArgPtrs => 5,
            Region::Other => 6,
        }
    }

    /// Taint of region bytes the program never wrote: only the argv/envp
    /// string bytes start life tainted (paper §4.4); everything else the
    /// loader touches is program-trusted, and untouched pages are
    /// demand-zero.
    #[must_use]
    pub fn initial_taint(self) -> Taint {
        match self {
            Region::ArgStrings => Taint::Tainted,
            _ => Taint::Clean,
        }
    }
}

/// Address-space geometry of one loaded image: everything [`Value`]
/// classification needs beyond the global layout constants.
#[derive(Debug, Clone, Copy)]
pub struct MemLayout {
    /// One past the end of text *including* the loader's exit stub.
    pub text_limit: u32,
    /// Initial program break: the first page boundary after the data
    /// segment (heap starts here).
    pub brk0: u32,
}

/// Boundary between the (huge) heap region and the stack region. Nothing in
/// the testbed allocates anywhere near it; it only decides which region a
/// widened constant set belongs to.
const HEAP_STACK_SPLIT: u32 = 0x4000_0000;

impl MemLayout {
    /// The contiguous segments of the address space in ascending order,
    /// with *inclusive* bounds and the owning region. [`Region::Other`]
    /// appears several times (below text, between text and data, above the
    /// argument band); a segment whose region is empty for this image
    /// (e.g. `Data` when there is no data) has `start > end` and must be
    /// skipped.
    fn segments(&self) -> [(u32, u32, Region); 8] {
        [
            (0, TEXT_BASE - 1, Region::Other),
            (TEXT_BASE, self.text_limit - 1, Region::Text),
            (self.text_limit, DATA_BASE - 1, Region::Other),
            (DATA_BASE, self.brk0.wrapping_sub(1), Region::Data),
            (self.brk0, HEAP_STACK_SPLIT - 1, Region::Heap),
            (HEAP_STACK_SPLIT, STACK_TOP - 1, Region::Stack),
            (STACK_TOP, ARG_BASE - 1, Region::ArgStrings),
            (ARG_BASE, u32::MAX, Region::Other),
        ]
    }

    /// The regions overlapping the inclusive byte span `[lo, hi]` — i.e.
    /// every region a linear byte write covering the span can touch.
    /// Kernel buffer copies (`read`/`recv`) do not stop at region
    /// boundaries, so an imprecisely-bounded delivery must havoc all of
    /// these, not just the region containing its base.
    #[must_use]
    pub fn span_regions(&self, lo: u32, hi: u32) -> Vec<Region> {
        let mut out = Vec::new();
        for (s, e, r) in self.segments() {
            if s > e || e < lo || s > hi {
                continue;
            }
            if !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }

    /// Inclusive address bounds of a region's single contiguous extent;
    /// `None` for [`Region::Other`], which is scattered across the space.
    /// The two virtual argument regions share the same physical band.
    #[must_use]
    pub fn region_span(&self, r: Region) -> Option<(u32, u32)> {
        match r {
            Region::Text => Some((TEXT_BASE, self.text_limit - 1)),
            Region::Data => Some((DATA_BASE, self.brk0.wrapping_sub(1))),
            Region::Heap => Some((self.brk0, HEAP_STACK_SPLIT - 1)),
            Region::Stack => Some((HEAP_STACK_SPLIT, STACK_TOP - 1)),
            Region::ArgStrings | Region::ArgPtrs => Some((STACK_TOP, ARG_BASE - 1)),
            Region::Other => None,
        }
    }

    /// Total classification of an address into its region.
    #[must_use]
    pub fn classify(&self, addr: u32) -> Region {
        if (TEXT_BASE..self.text_limit).contains(&addr) {
            Region::Text
        } else if (DATA_BASE..self.brk0).contains(&addr) {
            Region::Data
        } else if (self.brk0..HEAP_STACK_SPLIT).contains(&addr) {
            Region::Heap
        } else if (HEAP_STACK_SPLIT..STACK_TOP).contains(&addr) {
            Region::Stack
        } else if (STACK_TOP..ARG_BASE).contains(&addr) {
            // Pointer arrays and string bytes share this band; constants
            // conflate to the tainted view (sound: Tainted is top).
            Region::ArgStrings
        } else {
            Region::Other
        }
    }
}

/// Maximum number of constants tracked per cell before widening to a
/// region. Large enough for small switch tables and a few call depths,
/// small enough that loops converge after a handful of iterations.
pub const MAX_CONSTS: usize = 8;

/// Deepest caller whose return address [`Value::RetAddr`] still tracks;
/// values escaping past this many nested frames degrade to
/// [`Value::Unknown`]. Compiled code only ever holds the *current* frame's
/// return address in a register (depth 0); deeper depths arise from saved
/// slots of enclosing frames seen across call edges.
pub const MAX_RET_DEPTH: u8 = 3;

/// Cap on the cartesian blow-up when combining two constant sets.
const MAX_PAIRS: usize = 64;

/// A non-empty, sorted, deduplicated set of at most [`MAX_CONSTS`]
/// constants, stored inline: no constant set ever allocates, so [`Value`]
/// and [`AbsVal`] are `Copy`. Slots past `len` are zero and never read.
#[derive(Clone, Copy)]
pub struct ConstSet {
    len: u8,
    vals: [u32; MAX_CONSTS],
}

impl ConstSet {
    /// The singleton set.
    #[must_use]
    pub fn one(v: u32) -> ConstSet {
        let mut vals = [0; MAX_CONSTS];
        vals[0] = v;
        ConstSet { len: 1, vals }
    }

    /// The set of an already sorted, deduplicated, non-empty slice of at
    /// most [`MAX_CONSTS`] constants.
    fn from_sorted(vs: &[u32]) -> ConstSet {
        debug_assert!(!vs.is_empty() && vs.len() <= MAX_CONSTS);
        debug_assert!(vs.windows(2).all(|w| w[0] < w[1]));
        let mut vals = [0; MAX_CONSTS];
        vals[..vs.len()].copy_from_slice(vs);
        ConstSet {
            len: vs.len() as u8,
            vals,
        }
    }

    /// The constants in ascending order.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.vals[..usize::from(self.len)]
    }
}

impl std::ops::Deref for ConstSet {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a ConstSet {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for ConstSet {
    fn eq(&self, other: &ConstSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ConstSet {}

impl std::fmt::Debug for ConstSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Abstract 32-bit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// One of finitely many known constants (at most [`MAX_CONSTS`]).
    Consts(ConstSet),
    /// Some address within the given region (magnitude unknown).
    InRegion(Region),
    /// The return address of the `k`-th enclosing caller of the function
    /// under analysis (`0` = the pc this invocation must return to). The
    /// interprocedural engine analyzes every function against an opaque
    /// return address so that `jr $ra` resolves *structurally* — the
    /// concrete pc is substituted only when a summary is applied at a
    /// specific call site. Depths above [`MAX_RET_DEPTH`] are not tracked.
    RetAddr(u8),
    /// The saved frame pointer of the `k`-th enclosing caller of the
    /// function under analysis. The counterpart of [`Value::RetAddr`] for
    /// `$fp`: every call edge passes the caller's frame pointer as this
    /// opaque token, so the callee's joined context holds *one* value no
    /// matter how many callers (with however many distinct frame layouts)
    /// it has, and the callee's spill/restore round-trips it unchanged.
    /// The concrete (per-caller) value is substituted back when the exit
    /// summary is applied at a specific call site
    /// ([`crate::state::State::apply_return`]).
    FrameBase(u8),
    /// No information.
    Unknown,
}

impl Value {
    /// The singleton constant.
    #[must_use]
    pub fn constant(v: u32) -> Value {
        Value::Consts(ConstSet::one(v))
    }

    /// The constants, if this value is a known set.
    #[must_use]
    pub fn consts(&self) -> Option<&[u32]> {
        match self {
            Value::Consts(vs) => Some(vs.as_slice()),
            _ => None,
        }
    }

    /// The constant, if this value is a known singleton.
    #[must_use]
    pub fn singleton(&self) -> Option<u32> {
        match self.consts() {
            Some([v]) => Some(*v),
            _ => None,
        }
    }

    /// Canonicalizes a raw constant list in place: sort, dedup, and widen
    /// to [`Value::InRegion`] (all constants in one region) or
    /// [`Value::Unknown`] once the set exceeds [`MAX_CONSTS`].
    #[must_use]
    pub fn normalize(vs: &mut [u32], lay: &MemLayout) -> Value {
        vs.sort_unstable();
        let mut n = 0;
        for i in 0..vs.len() {
            if n == 0 || vs[i] != vs[n - 1] {
                vs[n] = vs[i];
                n += 1;
            }
        }
        Value::from_sorted(&vs[..n], lay)
    }

    /// [`Value::normalize`] of an already sorted, deduplicated list.
    fn from_sorted(vs: &[u32], lay: &MemLayout) -> Value {
        if vs.is_empty() {
            Value::Unknown
        } else if vs.len() <= MAX_CONSTS {
            Value::Consts(ConstSet::from_sorted(vs))
        } else {
            Value::consts_region(vs, lay).map_or(Value::Unknown, Value::InRegion)
        }
    }

    /// Least upper bound of two abstract values.
    #[must_use]
    pub fn join(&self, other: &Value, lay: &MemLayout) -> Value {
        match (self, other) {
            (Value::Consts(a), Value::Consts(b)) => {
                if a == b {
                    return *self;
                }
                // Sorted merge of the two sets, deduplicated on the fly.
                let mut buf = [0u32; 2 * MAX_CONSTS];
                let (mut i, mut j, mut n) = (0, 0, 0);
                while i < a.len() || j < b.len() {
                    let v = if j == b.len() || (i < a.len() && a[i] <= b[j]) {
                        i += 1;
                        a[i - 1]
                    } else {
                        j += 1;
                        b[j - 1]
                    };
                    if n == 0 || buf[n - 1] != v {
                        buf[n] = v;
                        n += 1;
                    }
                }
                Value::from_sorted(&buf[..n], lay)
            }
            (Value::Consts(cs), Value::InRegion(r)) | (Value::InRegion(r), Value::Consts(cs)) => {
                if cs.iter().all(|&v| lay.classify(v) == *r) {
                    Value::InRegion(*r)
                } else {
                    Value::Unknown
                }
            }
            (Value::InRegion(a), Value::InRegion(b)) if a == b => Value::InRegion(*a),
            (Value::RetAddr(a), Value::RetAddr(b)) if a == b => Value::RetAddr(*a),
            (Value::FrameBase(a), Value::FrameBase(b)) if a == b => Value::FrameBase(*a),
            _ => Value::Unknown,
        }
    }

    /// Applies a unary arithmetic function to a constant set; anything
    /// else degrades to [`Value::Unknown`].
    #[must_use]
    pub fn map(&self, lay: &MemLayout, f: impl Fn(u32) -> u32) -> Value {
        match self.consts() {
            Some(vs) => {
                let mut buf = [0u32; MAX_CONSTS];
                for (o, &v) in buf.iter_mut().zip(vs) {
                    *o = f(v);
                }
                Value::normalize(&mut buf[..vs.len()], lay)
            }
            None => Value::Unknown,
        }
    }

    /// Applies a binary arithmetic function over the cartesian product of
    /// two constant sets (bounded by an internal pair cap).
    #[must_use]
    pub fn binop(&self, other: &Value, lay: &MemLayout, f: impl Fn(u32, u32) -> u32) -> Value {
        match (self.consts(), other.consts()) {
            (Some(a), Some(b)) if a.len() * b.len() <= MAX_PAIRS => {
                let mut buf = [0u32; MAX_PAIRS];
                let mut n = 0;
                for &x in a {
                    for &y in b {
                        buf[n] = f(x, y);
                        n += 1;
                    }
                }
                Value::normalize(&mut buf[..n], lay)
            }
            _ => Value::Unknown,
        }
    }

    /// Whether this value is a widened *integer* rather than a pointer:
    /// [`Region::Other`] is the band the loader never populates (small
    /// magnitudes below text, and everything above the argument band), so a
    /// constant set that widened there is a loop counter or arithmetic
    /// residue, not an address. Pointer arithmetic against it keeps the
    /// pointer operand's region.
    fn is_widened_int(&self) -> bool {
        matches!(self, Value::InRegion(Region::Other))
    }

    /// The single region containing every constant of the set, if any.
    fn consts_region(cs: &[u32], lay: &MemLayout) -> Option<Region> {
        let r = lay.classify(cs[0]);
        cs.iter().all(|&v| lay.classify(v) == r).then_some(r)
    }

    /// Addition with pointer-arithmetic awareness: region + constant stays
    /// in the region, and pointer + widened integer index (a loop counter
    /// that outgrew [`MAX_CONSTS`]) stays in the pointer's region — the
    /// `s[i]` idiom of every libc string loop (the analysis does not model
    /// objects crossing a region boundary; see DESIGN.md for why that is
    /// acceptable here).
    #[must_use]
    pub fn add(&self, other: &Value, lay: &MemLayout) -> Value {
        match (self, other) {
            (Value::Consts(_), Value::Consts(_)) => {
                self.binop(other, lay, |a, b| a.wrapping_add(b))
            }
            (Value::Consts(cs), w) | (w, Value::Consts(cs)) if w.is_widened_int() => {
                Value::consts_region(cs, lay).map_or(Value::Unknown, Value::InRegion)
            }
            (Value::InRegion(r), w) | (w, Value::InRegion(r)) if w.is_widened_int() => {
                Value::InRegion(*r)
            }
            (Value::InRegion(r), Value::Consts(_)) | (Value::Consts(_), Value::InRegion(r)) => {
                Value::InRegion(*r)
            }
            // `move` lowered to `addu rd, rs, $0` / `addiu rd, rs, 0` must
            // preserve the opaque return address, or the epilogue's
            // restored `$ra` would widen and the return would not resolve.
            (Value::RetAddr(k), v) | (v, Value::RetAddr(k)) if v.singleton() == Some(0) => {
                Value::RetAddr(*k)
            }
            (Value::FrameBase(k), v) | (v, Value::FrameBase(k)) if v.singleton() == Some(0) => {
                Value::FrameBase(*k)
            }
            _ => Value::Unknown,
        }
    }

    /// Subtraction: region − constant stays in the region; everything else
    /// involving a region is an integer difference we do not track.
    #[must_use]
    pub fn sub(&self, other: &Value, lay: &MemLayout) -> Value {
        match (self, other) {
            (Value::Consts(_), Value::Consts(_)) => {
                self.binop(other, lay, |a, b| a.wrapping_sub(b))
            }
            (Value::Consts(cs), w) if w.is_widened_int() => {
                Value::consts_region(cs, lay).map_or(Value::Unknown, Value::InRegion)
            }
            (Value::InRegion(r), w) if w.is_widened_int() => Value::InRegion(*r),
            (Value::InRegion(r), Value::Consts(_)) => Value::InRegion(*r),
            (Value::RetAddr(k), v) if v.singleton() == Some(0) => Value::RetAddr(*k),
            (Value::FrameBase(k), v) if v.singleton() == Some(0) => Value::FrameBase(*k),
            _ => Value::Unknown,
        }
    }
}

/// One abstract cell: a taint bound plus a value bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Taint bound of the cell.
    pub taint: Taint,
    /// Value bound of the cell.
    pub value: Value,
}

impl AbsVal {
    /// An untainted known constant (program literals, `lui` results, …).
    #[must_use]
    pub fn clean_const(v: u32) -> AbsVal {
        AbsVal {
            taint: Taint::Clean,
            value: Value::constant(v),
        }
    }

    /// A cell about which nothing is known except its taint bound.
    #[must_use]
    pub fn opaque(taint: Taint) -> AbsVal {
        AbsVal {
            taint,
            value: Value::Unknown,
        }
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(&self, other: &AbsVal, lay: &MemLayout) -> AbsVal {
        AbsVal {
            taint: self.taint.join(other.taint),
            value: self.value.join(&other.value, lay),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptaint_isa::PAGE_SIZE;

    /// Every region, in index order.
    pub(crate) const REGIONS: [Region; Region::COUNT] = [
        Region::Text,
        Region::Data,
        Region::Heap,
        Region::Stack,
        Region::ArgStrings,
        Region::ArgPtrs,
        Region::Other,
    ];

    /// A pseudo-random abstract value drawn from one word. Constant sets
    /// take 1 to 11 members from a pool of twelve stack words and six
    /// words elsewhere, so joins stay within [`MAX_CONSTS`], widen to a
    /// region, or widen to `Unknown`.
    pub(crate) fn sample_value(lay: &MemLayout, w: u64) -> Value {
        let mut pool: Vec<u32> = (0..12).map(|i| STACK_TOP - 256 - 4 * i).collect();
        pool.extend([0, 1, 7, DATA_BASE, DATA_BASE + 4, TEXT_BASE]);
        match w % 6 {
            0 | 1 => {
                // Half the sets draw from the stack words only.
                let span = if (w >> 3) & 1 == 0 {
                    12
                } else {
                    pool.len() as u64
                };
                let n = 1 + (w >> 4) % 11;
                let mut x = w | 1;
                let mut vs: Vec<u32> = (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        pool[(x % span) as usize]
                    })
                    .collect();
                Value::normalize(&mut vs, lay)
            }
            2 => Value::InRegion(REGIONS[((w >> 3) % 7) as usize]),
            3 => Value::RetAddr(((w >> 3) % 3) as u8),
            4 => Value::FrameBase(((w >> 3) % 3) as u8),
            _ => Value::Unknown,
        }
    }

    fn lay() -> MemLayout {
        MemLayout {
            text_limit: TEXT_BASE + 0x100,
            brk0: DATA_BASE + PAGE_SIZE,
        }
    }

    #[test]
    fn taint_join_is_max() {
        assert_eq!(Taint::Clean.join(Taint::Tainted), Taint::Tainted);
        assert_eq!(Taint::Clean.join(Taint::Unknown), Taint::Unknown);
        assert_eq!(Taint::Clean.join(Taint::Clean), Taint::Clean);
    }

    #[test]
    fn classification_covers_the_address_space() {
        let l = lay();
        assert_eq!(l.classify(TEXT_BASE), Region::Text);
        assert_eq!(l.classify(TEXT_BASE + 0x100), Region::Other);
        assert_eq!(l.classify(DATA_BASE), Region::Data);
        assert_eq!(l.classify(DATA_BASE + PAGE_SIZE), Region::Heap);
        assert_eq!(l.classify(STACK_TOP - 4), Region::Stack);
        assert_eq!(l.classify(STACK_TOP), Region::ArgStrings);
        assert_eq!(l.classify(ARG_BASE), Region::Other);
        assert_eq!(l.classify(0), Region::Other);
    }

    #[test]
    fn span_regions_walks_every_band_the_span_touches() {
        let l = lay();
        // Entirely inside one region.
        assert_eq!(
            l.span_regions(DATA_BASE, DATA_BASE + 16),
            vec![Region::Data]
        );
        // A delivery starting in the last data page and running past the
        // initial break reaches the heap too (the REVIEW.md seed fix).
        assert_eq!(
            l.span_regions(DATA_BASE, DATA_BASE + PAGE_SIZE + 4),
            vec![Region::Data, Region::Heap]
        );
        // Statically unbounded span: every band from data upward.
        assert_eq!(
            l.span_regions(DATA_BASE, u32::MAX),
            vec![
                Region::Data,
                Region::Heap,
                Region::Stack,
                Region::ArgStrings,
                Region::Other
            ]
        );
    }

    #[test]
    fn empty_data_segment_is_skipped_in_spans() {
        // brk0 == DATA_BASE (no .data): the degenerate data segment must
        // not swallow addresses that belong to the heap.
        let l = MemLayout {
            text_limit: TEXT_BASE + 0x100,
            brk0: DATA_BASE,
        };
        assert_eq!(l.span_regions(DATA_BASE, DATA_BASE + 8), vec![Region::Heap]);
    }

    #[test]
    fn region_span_matches_classify_at_the_edges() {
        let l = lay();
        for r in [Region::Text, Region::Data, Region::Heap, Region::Stack] {
            let (lo, hi) = l.region_span(r).unwrap();
            assert_eq!(l.classify(lo), r, "{r:?} low edge");
            assert_eq!(l.classify(hi), r, "{r:?} high edge");
        }
        // The two virtual argument regions share one physical band.
        assert_eq!(
            l.region_span(Region::ArgPtrs),
            l.region_span(Region::ArgStrings)
        );
        assert_eq!(l.region_span(Region::Other), None);
    }

    #[test]
    fn const_sets_widen_to_their_region() {
        let l = lay();
        let mut stack: Vec<u32> = (0..(MAX_CONSTS as u32 + 1))
            .map(|i| STACK_TOP - 64 - 4 * i)
            .collect();
        assert_eq!(
            Value::normalize(&mut stack, &l),
            Value::InRegion(Region::Stack)
        );
        let mut mixed: Vec<u32> = (0..(MAX_CONSTS as u32 + 1))
            .map(|i| {
                if i == 0 {
                    DATA_BASE
                } else {
                    STACK_TOP - 64 - i
                }
            })
            .collect();
        assert_eq!(Value::normalize(&mut mixed, &l), Value::Unknown);
    }

    #[test]
    fn pointer_arithmetic_stays_in_region() {
        let l = lay();
        let p = Value::InRegion(Region::Stack);
        assert_eq!(
            p.add(&Value::constant(8), &l),
            Value::InRegion(Region::Stack)
        );
        assert_eq!(
            p.sub(&Value::constant(8), &l),
            Value::InRegion(Region::Stack)
        );
        assert_eq!(Value::constant(8).sub(&p, &l), Value::Unknown);
    }

    #[test]
    fn indexed_pointer_arithmetic_keeps_the_base_region() {
        // A loop counter that outgrew MAX_CONSTS widens to
        // InRegion(Other); `base + i` must keep the base's region, or a
        // `s[i]` string loop forgets what band it walks (and an unbounded
        // copy havocs the wrong region).
        let l = lay();
        let i = Value::normalize(&mut (0..=MAX_CONSTS as u32).collect::<Vec<_>>(), &l);
        assert_eq!(i, Value::InRegion(Region::Other));
        let base = Value::constant(DATA_BASE + 16);
        assert_eq!(base.add(&i, &l), Value::InRegion(Region::Data));
        assert_eq!(i.add(&base, &l), Value::InRegion(Region::Data));
        assert_eq!(base.sub(&i, &l), Value::InRegion(Region::Data));
        let widened = Value::InRegion(Region::Stack);
        assert_eq!(widened.add(&i, &l), Value::InRegion(Region::Stack));
        assert_eq!(i.add(&widened, &l), Value::InRegion(Region::Stack));
        assert_eq!(widened.sub(&i, &l), Value::InRegion(Region::Stack));
        // int - const stays an integer (the pre-existing region arm).
        assert_eq!(i.sub(&base, &l), Value::InRegion(Region::Other));
        // int + int stays an integer.
        assert_eq!(i.add(&i, &l), Value::InRegion(Region::Other));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `Value::join` is a semilattice join on random values, constant
        /// sets past `MAX_CONSTS` included: commutative, associative and
        /// idempotent.
        #[test]
        fn value_join_is_commutative_associative_and_idempotent(
            ws in (any::<u64>(), any::<u64>(), any::<u64>())
        ) {
            let l = lay();
            let (a, b, c) = (
                sample_value(&l, ws.0),
                sample_value(&l, ws.1),
                sample_value(&l, ws.2),
            );
            prop_assert_eq!(a.join(&b, &l), b.join(&a, &l), "{:?} vs {:?}", a, b);
            prop_assert_eq!(
                a.join(&b, &l).join(&c, &l),
                a.join(&b.join(&c, &l), &l),
                "{:?}, {:?}, {:?}",
                a,
                b,
                c
            );
            prop_assert_eq!(a.join(&a, &l), a);
        }
    }

    #[test]
    fn joins_are_commutative_on_samples() {
        let l = lay();
        let samples = [
            Value::constant(3),
            Value::normalize(&mut [2, 1], &l),
            Value::InRegion(Region::Data),
            Value::InRegion(Region::Stack),
            Value::Unknown,
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.join(b, &l), b.join(a, &l), "{a:?} vs {b:?}");
            }
        }
    }
}
