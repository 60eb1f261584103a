//! Shadow call stack folded into a call-path tree.

use crate::symbols::SymbolTable;

/// Guards runaway recursion: beyond this depth calls are counted but not
/// materialized as tree nodes (returns stay balanced via the overflow
/// counter, so the cursor recovers exactly).
const DEPTH_CAP: usize = 256;

#[derive(Debug)]
struct Node {
    /// Callee entry pc (`u32::MAX` until the root sees its first retire).
    entry: u32,
    /// Instructions retired while this frame was on top (exclusive count).
    retired: u64,
    /// Child node indices, in first-call order.
    children: Vec<usize>,
}

/// A tree of observed call paths with exclusive retire counts per frame.
///
/// Driven by the retired instruction stream: `jal`/`jalr` push the callee
/// entry, `jr $ra` pops. The guest is not obligated to keep a disciplined
/// stack — returns past the root are dropped (counted), depth beyond 256
/// frames (`DEPTH_CAP`) collapses into the top frame (counted), so the tree
/// is a faithful *model*, never a panic source.
#[derive(Debug)]
pub struct CallTree {
    nodes: Vec<Node>,
    /// Cursor path; `stack[0]` is always the root node.
    stack: Vec<usize>,
    /// Call depth beyond `DEPTH_CAP` (balances the matching returns).
    overflow: u64,
    /// Returns seen with only the root frame on the stack.
    underflow: u64,
}

impl Default for CallTree {
    fn default() -> CallTree {
        CallTree {
            nodes: vec![Node {
                entry: u32::MAX,
                retired: 0,
                children: Vec::new(),
            }],
            stack: vec![0],
            overflow: 0,
            underflow: 0,
        }
    }
}

impl CallTree {
    /// A fresh tree holding only the root frame.
    #[must_use]
    pub fn new() -> CallTree {
        CallTree::default()
    }

    /// One instruction retired at `pc` in the current frame.
    #[inline]
    pub fn on_retire(&mut self, pc: u32) {
        let cur = *self.stack.last().expect("root frame always present");
        let node = &mut self.nodes[cur];
        if node.entry == u32::MAX {
            node.entry = pc; // root frame starts at the program entry
        }
        node.retired += 1;
    }

    /// A call retired; the callee starts at `entry`.
    #[inline]
    pub fn on_call(&mut self, entry: u32) {
        if self.stack.len() >= DEPTH_CAP {
            self.overflow += 1;
            return;
        }
        let cur = *self.stack.last().expect("root frame always present");
        let child = self.nodes[cur]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].entry == entry);
        let child = match child {
            Some(c) => c,
            None => {
                let c = self.nodes.len();
                self.nodes.push(Node {
                    entry,
                    retired: 0,
                    children: Vec::new(),
                });
                self.nodes[cur].children.push(c);
                c
            }
        };
        self.stack.push(child);
    }

    /// A `jr $ra` retired: pop the current frame.
    #[inline]
    pub fn on_ret(&mut self) {
        if self.overflow > 0 {
            self.overflow -= 1;
        } else if self.stack.len() > 1 {
            self.stack.pop();
        } else {
            self.underflow += 1;
        }
    }

    /// Current shadow-stack depth (root frame included).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Returns observed while only the root frame was live.
    #[must_use]
    pub fn underflows(&self) -> u64 {
        self.underflow
    }

    /// Collapsed-stack lines (`a;b;c <count>` semantics): every frame with a
    /// non-zero exclusive retire count becomes one `(path, count)` pair,
    /// path frames joined with `;`, sorted lexicographically by path. The
    /// format is what flamegraph tooling ingests, and sorting makes it
    /// byte-deterministic regardless of call discovery order.
    #[must_use]
    pub fn collapsed(&self, symbols: &SymbolTable) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut path: Vec<String> = Vec::new();
        self.walk(0, symbols, &mut path, &mut out);
        out.sort();
        out
    }

    fn walk(
        &self,
        node: usize,
        symbols: &SymbolTable,
        path: &mut Vec<String>,
        out: &mut Vec<(String, u64)>,
    ) {
        let n = &self.nodes[node];
        let frame = if n.entry == u32::MAX {
            "<never-ran>".to_string()
        } else {
            symbols.name(n.entry)
        };
        path.push(frame);
        if n.retired > 0 {
            out.push((path.join(";"), n.retired));
        }
        for &child in &n.children {
            self.walk(child, symbols, path, out);
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symtab() -> SymbolTable {
        SymbolTable::build(
            [
                ("main".to_string(), 0x40_0000),
                ("handle".to_string(), 0x40_0100),
                ("log_request".to_string(), 0x40_0200),
            ],
            0x40_0000,
            0x40_1000,
        )
    }

    #[test]
    fn nested_calls_produce_collapsed_paths() {
        let mut t = CallTree::new();
        t.on_retire(0x40_0000);
        t.on_call(0x40_0100);
        t.on_retire(0x40_0100);
        t.on_call(0x40_0200);
        t.on_retire(0x40_0200);
        t.on_retire(0x40_0204);
        t.on_ret();
        t.on_retire(0x40_0104);
        t.on_ret();
        t.on_retire(0x40_0004);
        let collapsed = t.collapsed(&symtab());
        assert_eq!(
            collapsed,
            vec![
                ("main".to_string(), 2),
                ("main;handle".to_string(), 2),
                ("main;handle;log_request".to_string(), 2),
            ]
        );
    }

    #[test]
    fn unbalanced_returns_never_pop_the_root() {
        let mut t = CallTree::new();
        t.on_retire(0x40_0000);
        t.on_ret();
        t.on_ret();
        t.on_retire(0x40_0004);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.underflows(), 2);
        assert_eq!(t.collapsed(&symtab()), vec![("main".to_string(), 2)]);
    }

    #[test]
    fn depth_cap_keeps_call_and_return_balanced() {
        let mut t = CallTree::new();
        for i in 0..DEPTH_CAP + 10 {
            t.on_call(0x40_0000 + (i as u32) * 4);
        }
        assert_eq!(t.depth(), DEPTH_CAP);
        for _ in 0..DEPTH_CAP + 10 {
            t.on_ret();
        }
        // DEPTH_CAP-1 pushes + 11 overflowed calls; the same 266 returns
        // drain the overflow first, then the stack, and nothing underflows.
        assert_eq!(t.depth(), 1);
        assert_eq!(t.underflows(), 0);
    }
}
