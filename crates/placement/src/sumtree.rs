//! Set-pure incremental slot sums: the structure behind [`AggregateLoad`].
//!
//! [`AggregateLoad`](crate::AggregateLoad) must satisfy a hard invariant:
//! the aggregate of a member *set* is **bit-identical** no matter what
//! admit/depart history produced the set, so an incremental
//! [`EngineSession`](crate::EngineSession) replays byte-equal to a cold
//! re-plan. Plain `sums += column` / `sums -= column` cannot deliver that
//! — floating-point addition is not associative and subtraction leaves
//! drift (`(a+b)-b ≠ a` in general).
//!
//! [`SumTree`] solves it structurally. It is a treap over the member set:
//! a binary search tree on workload *name* that is simultaneously a
//! max-heap on a deterministic per-name hash priority. Given the keys,
//! that shape is **unique** — it does not depend on insertion order. Every
//! node stores the slot-wise sum of its subtree, combined child-by-child
//! in one fixed order, so the root total is evaluated through a fixed
//! expression tree determined only by the member set. Consequences:
//!
//! * adding or removing one workload touches the O(log n) expected nodes
//!   on its root path (plus rotations), each an O(slots) kernel pass —
//!   instead of re-summing every member on the server;
//! * nothing is ever subtracted, so there is no drift to reconcile: an
//!   incrementally maintained root is bit-identical to a cold
//!   [`SumTree::build`] of the same set, which the aggregate's
//!   debug/periodic reconciliation asserts;
//! * equal-key priorities tie-break by name, keeping the shape a pure
//!   function of the set even under hash collisions. (Duplicate *names*
//!   have no such order; [`AggregateLoad`](crate::AggregateLoad) falls
//!   back to cold rebuilds for that degenerate case.)
//!
//! A translated member holds no class columns: its demand is split as it
//! is summed, both classes in one pass (DESIGN.md §5k).
//!
//! Node sum buffers are recycled through a [`SlotArena`], so steady-state
//! mutation — and the `FitEngine`'s transient per-candidate aggregates —
//! reuse warm allocations instead of hitting the allocator.
//!
//! When every member's CoS1 trace is bitwise `+0.0` (every app translated
//! with breakpoint `p = 0`), the CoS1 sums are skipped altogether: each
//! one would be exactly `+0.0` per slot, so [`SumTree::keeps_cos1`] reports
//! `false` and the owner adds the CoS2 root to `+0.0` itself. Sets with any
//! other member — including `-0.0` samples — keep the full CoS1 sums.
//! Inserting such a member into a skipping tree materializes them; a
//! removal never drops them, which is still exact (a full CoS1 sum of
//! `+0.0` members is itself `+0.0` per slot) until the owner's next cold
//! rebuild re-derives the mode from the set.

use std::mem::take;

use ropus_trace::kernels::{self, Columns};

use crate::workload::Workload;

/// A pool of recycled slot buffers (`Vec<f64>`), shared across transient
/// aggregates so hot placement loops stop allocating.
///
/// Buffers returned by [`SlotArena::take`] keep their capacity when
/// recycled with [`SlotArena::give`]; after warm-up a fit-evaluation loop
/// runs entirely on pooled storage.
#[derive(Debug, Clone, Default)]
pub struct SlotArena {
    pool: Vec<Vec<f64>>,
}

impl SlotArena {
    /// An empty arena.
    pub fn new() -> Self {
        SlotArena::default()
    }

    /// A cleared buffer from the pool, or a fresh one when empty.
    pub fn take(&mut self) -> Vec<f64> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// A node's CoS1 and CoS2 sum buffers of `len` slots with unspecified
    /// contents, for a combine that overwrites every slot: a recycled
    /// buffer of that length skips the zero fill. CoS1 stays empty unless
    /// `with_cos1`.
    fn take_classes(&mut self, len: usize, with_cos1: bool) -> (Vec<f64>, Vec<f64>) {
        let mut sized = || {
            let mut buf = self.pool.pop().unwrap_or_default();
            buf.resize(len, 0.0);
            buf
        };
        let cos1 = if with_cos1 { sized() } else { Vec::new() };
        (cos1, sized())
    }

    /// Returns a buffer to the pool for reuse (an unallocated one is
    /// dropped: it has nothing to lend).
    pub fn give(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Number of pooled buffers (diagnostic).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// FNV-1a hash of a workload name: the deterministic treap priority.
///
/// Any fixed, platform-independent hash works; FNV-1a is dependency-free
/// and mixes short ASCII names well.
fn priority(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fixed class-sum association: the first present contributor
/// written over `cos1`/`cos2` (buffers of the slot count), the rest added
/// slot-wise (CoS2 only unless `with_cos1`). Shared by the dense per-node
/// recompute and the lazy root evaluation so both produce the same bits;
/// a split contributor is split as it is summed.
fn combine_classes(
    cos1: &mut [f64],
    cos2: &mut [f64],
    with_cos1: bool,
    parts: [Option<Columns<'_>>; 3],
) {
    let present: Vec<Columns<'_>> = parts.into_iter().flatten().collect();
    kernels::sum_classes(cos1, cos2, with_cos1, true, &present);
}

/// The memory-sum association: the same left-self-right order, first
/// present contributor copied.
fn combine_memory(out: &mut Vec<f64>, parts: [Option<&[f64]>; 3]) {
    let mut first = true;
    for part in parts.into_iter().flatten() {
        if first {
            out.extend_from_slice(part);
            first = false;
        } else {
            kernels::add_assign(out, part);
        }
    }
}

/// Per-node subtree sums; present iff the node has at least one child
/// (a leaf's "sums" are its workload's own [`Columns`]).
#[derive(Debug, Clone)]
struct NodeSums {
    /// Left empty while the tree skips CoS1 (see the module docs).
    cos1: Vec<f64>,
    cos2: Vec<f64>,
    /// `Some` iff some member of the subtree carries a memory trace.
    memory: Option<Vec<f64>>,
}

/// A child's contribution during the lazy build: its transient sums, or
/// its workload's own columns when it is a leaf.
fn sums_or_leaf<'a>(nodes: &'a [Node], idx: u32, sums: &'a Option<NodeSums>) -> Columns<'a> {
    match sums {
        Some(s) => Columns::Slices {
            cos1: &s.cos1,
            cos2: &s.cos2,
        },
        None => nodes[idx as usize].workload.columns(),
    }
}

#[derive(Debug, Clone)]
struct Node {
    workload: Workload,
    prio: u64,
    left: Option<u32>,
    right: Option<u32>,
    /// Members of this subtree that carry a memory trace.
    mem_count: u32,
    sums: Option<NodeSums>,
}

/// The treap of per-subtree slot sums; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct SumTree {
    nodes: Vec<Node>,
    root: Option<u32>,
    /// Arena slots of removed nodes, reused by the next insert.
    free: Vec<u32>,
    /// Recycled sum buffers from rotations and removals.
    spare: SlotArena,
    /// Whether every internal node's sums are materialized. A cold
    /// [`SumTree::build`] computes *root* sums only — the lazy walk writes
    /// into O(depth) warm buffers instead of faulting O(members) cold
    /// ones, which dominates cost at fleet scale — and the first mutation
    /// densifies the interior via [`SumTree::densify`].
    dense: bool,
    /// Whether every member's CoS1 is bitwise `+0.0`, so no CoS1 sums are
    /// kept (see the module docs).
    cos1_zero: bool,
}

impl SumTree {
    /// A tree with no members (and no pooled buffers).
    pub(crate) fn empty() -> SumTree {
        SumTree {
            nodes: Vec::new(),
            root: None,
            free: Vec::new(),
            spare: SlotArena::new(),
            dense: true,
            cos1_zero: true,
        }
    }

    /// Cold build over canonically ordered (name-sorted) members, pulling
    /// buffers from `arena`. The result is the unique treap of the set —
    /// bit-identical to any insert/remove history reaching the same set.
    ///
    /// Only the root's sums are materialized; the lazy evaluation walks
    /// the same fixed combine expression as the dense interior, so the
    /// root is bit-identical to a fully dense build while the build's
    /// working set stays O(depth) buffers.
    pub(crate) fn build(members: &[Workload], arena: &mut SlotArena) -> SumTree {
        let mut tree = SumTree {
            nodes: Vec::with_capacity(members.len()),
            root: None,
            free: Vec::new(),
            spare: std::mem::take(arena),
            dense: members.len() <= 1,
            cos1_zero: members.iter().all(Workload::cos1_is_zero),
        };
        // Cartesian-tree construction along the rightmost spine: members
        // arrive in ascending key order, so each new node displaces the
        // spine suffix of lower priority and adopts it as its left child.
        let mut spine: Vec<u32> = Vec::new();
        for w in members {
            let idx = tree.new_node(w.clone());
            let mut displaced: Option<u32> = None;
            while let Some(&top) = spine.last() {
                if tree.outranks(idx, top) {
                    displaced = spine.pop();
                } else {
                    break;
                }
            }
            tree.nodes[idx as usize].left = displaced;
            if let Some(&top) = spine.last() {
                tree.nodes[top as usize].right = Some(idx);
            }
            spine.push(idx);
        }
        tree.root = spine.first().copied();
        if let Some(root) = tree.root {
            tree.build_root_sums(root);
        }
        tree
    }

    /// Materializes every interior node's sums (iterative post-order).
    /// Incremental `insert`/`remove` needs current sums along the whole
    /// mutation path, so the first mutation after a lazy build pays the
    /// dense pass once.
    fn densify(&mut self) {
        if self.dense {
            return;
        }
        if let Some(root) = self.root {
            self.recompute_postorder(root);
        }
        self.dense = true;
    }

    /// Computes the root's subtree sums without materializing the
    /// interior: an iterative post-order walk that accumulates each
    /// internal node's contribution in a transient buffer, consuming the
    /// children's buffers as it goes. The combine order per node — left,
    /// self, right; first contributor copied, the rest added — is exactly
    /// [`SumTree::recompute`]'s, so the stored root sums are bit-identical
    /// to a dense build's.
    fn build_root_sums(&mut self, root: u32) {
        let mut contrib: Vec<Option<NodeSums>> = vec![None; self.nodes.len()];
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((idx, children_done)) = stack.pop() {
            let (left, right) = {
                let node = &self.nodes[idx as usize];
                (node.left, node.right)
            };
            if !children_done {
                stack.push((idx, true));
                if let Some(l) = left {
                    stack.push((l, false));
                }
                if let Some(r) = right {
                    stack.push((r, false));
                }
                continue;
            }
            let own_mem = u32::from(self.nodes[idx as usize].workload.memory().is_some());
            let mem_count = own_mem
                + left.map_or(0, |c| self.nodes[c as usize].mem_count)
                + right.map_or(0, |c| self.nodes[c as usize].mem_count);
            self.nodes[idx as usize].mem_count = mem_count;
            if left.is_none() && right.is_none() {
                continue; // leaf: parents read its columns directly
            }
            let mut left_sums = left.and_then(|l| contrib[l as usize].take());
            let mut right_sums = right.and_then(|r| contrib[r as usize].take());
            let with_cos1 = !self.cos1_zero;
            let own = self.nodes[idx as usize].workload.columns();
            // A child's transient sums are spent once read, so when they
            // open the combine they accumulate the rest in place instead
            // of being copied. `S + R` is `R + S` bit for bit, so a right
            // child without a left sibling opens it too.
            let spent = if let Some(s) = left_sums.as_mut() {
                Some((take(&mut s.cos1), take(&mut s.cos2), right))
            } else if let (None, Some(s)) = (left, right_sums.as_mut()) {
                Some((take(&mut s.cos1), take(&mut s.cos2), None))
            } else {
                None
            };
            let (cos1, cos2) = match spent {
                Some((mut cos1, mut cos2, rest)) => {
                    let rest = rest.map(|r| sums_or_leaf(&self.nodes, r, &right_sums));
                    let parts: Vec<Columns<'_>> = std::iter::once(own).chain(rest).collect();
                    kernels::sum_classes(&mut cos1, &mut cos2, with_cos1, false, &parts);
                    (cos1, cos2)
                }
                None => {
                    let (mut cos1, mut cos2) = self.spare.take_classes(own.len(), with_cos1);
                    combine_classes(
                        &mut cos1,
                        &mut cos2,
                        with_cos1,
                        [
                            left.map(|l| sums_or_leaf(&self.nodes, l, &left_sums)),
                            Some(own),
                            right.map(|r| sums_or_leaf(&self.nodes, r, &right_sums)),
                        ],
                    );
                    (cos1, cos2)
                }
            };
            let memory = if mem_count == 0 {
                None
            } else {
                let mut mem = self.spare.take();
                combine_memory(
                    &mut mem,
                    [
                        left.and_then(|l| match &left_sums {
                            Some(s) => s.memory.as_deref(),
                            None => self.nodes[l as usize]
                                .workload
                                .memory()
                                .map(|m| m.samples()),
                        }),
                        self.nodes[idx as usize]
                            .workload
                            .memory()
                            .map(|m| m.samples()),
                        right.and_then(|r| match &right_sums {
                            Some(s) => s.memory.as_deref(),
                            None => self.nodes[r as usize]
                                .workload
                                .memory()
                                .map(|m| m.samples()),
                        }),
                    ],
                );
                Some(mem)
            };
            // The children's transient buffers are spent; recycle them.
            for sums in [left_sums, right_sums].into_iter().flatten() {
                self.spare.give(sums.cos1);
                self.spare.give(sums.cos2);
                if let Some(mem) = sums.memory {
                    self.spare.give(mem);
                }
            }
            contrib[idx as usize] = Some(NodeSums { cos1, cos2, memory });
        }
        self.nodes[root as usize].sums = contrib[root as usize].take();
    }

    /// A recycled buffer from the tree's internal pool, for the owner's
    /// own materialized vectors.
    pub(crate) fn take_buf(&mut self) -> Vec<f64> {
        self.spare.take()
    }

    /// Consumes the tree, returning every sum buffer to `arena` so the
    /// next transient aggregate allocates nothing.
    pub(crate) fn recycle_into(mut self, arena: &mut SlotArena) {
        for node in &mut self.nodes {
            if let Some(sums) = node.sums.take() {
                arena.give(sums.cos1);
                arena.give(sums.cos2);
                if let Some(mem) = sums.memory {
                    arena.give(mem);
                }
            }
        }
        let spare = std::mem::take(&mut self.spare);
        arena.pool.extend(spare.pool);
    }

    /// Inserts one workload (unique names assumed; see the module docs).
    pub(crate) fn insert(&mut self, workload: Workload) {
        if self.cos1_zero && !workload.cos1_is_zero() {
            // The set gains CoS1 load: materialize every CoS1 sum through
            // the dense recompute, exactly as a cold build of it would.
            self.cos1_zero = false;
            self.dense = false;
        }
        self.densify();
        let idx = self.new_node(workload);
        self.root = Some(self.insert_at(self.root, idx));
    }

    /// Removes the topmost node named `name`, returning its workload.
    pub(crate) fn remove(&mut self, name: &str) -> Option<Workload> {
        self.densify();
        let (root, removed) = self.remove_at(self.root, name);
        self.root = root;
        let removed = removed?;
        self.free.push(removed);
        let node = &mut self.nodes[removed as usize];
        node.left = None;
        node.right = None;
        if let Some(sums) = node.sums.take() {
            self.spare.give(sums.cos1);
            self.spare.give(sums.cos2);
            if let Some(mem) = sums.memory {
                self.spare.give(mem);
            }
        }
        // The workload stays in the freed arena slot (cheap `Arc` handles)
        // until the slot is reused; cloning it out keeps `remove` total.
        Some(self.nodes[removed as usize].workload.clone())
    }

    /// The whole set's class sums; `None` for an empty tree. A one-member
    /// tree's root is that member's own [`Columns`].
    pub(crate) fn root(&self) -> Option<Columns<'_>> {
        self.root.map(|r| self.subtree(r))
    }

    /// Whether the tree keeps CoS1 sums. `false` while every member's
    /// CoS1 is bitwise `+0.0`: the CoS1 sum would be `+0.0` at every slot,
    /// so the root's CoS1 column is then meaningless.
    pub(crate) fn keeps_cos1(&self) -> bool {
        !self.cos1_zero
    }

    /// Slot-wise memory sum, `None` when no member carries memory.
    pub(crate) fn root_memory(&self) -> Option<&[f64]> {
        self.root.and_then(|r| self.subtree_memory(r))
    }

    fn new_node(&mut self, workload: Workload) -> u32 {
        let prio = priority(workload.name());
        let mem_count = u32::from(workload.memory().is_some());
        let node = Node {
            workload,
            prio,
            left: None,
            right: None,
            mem_count,
            sums: None,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(node);
            idx
        }
    }

    /// Whether node `a` outranks node `b` in the heap order: higher
    /// priority wins, name order breaks priority ties deterministically.
    fn outranks(&self, a: u32, b: u32) -> bool {
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        na.prio > nb.prio || (na.prio == nb.prio && na.workload.name() < nb.workload.name())
    }

    fn insert_at(&mut self, at: Option<u32>, new: u32) -> u32 {
        let Some(cur) = at else {
            return new;
        };
        let go_left =
            self.nodes[new as usize].workload.name() < self.nodes[cur as usize].workload.name();
        if go_left {
            let child = self.insert_at(self.nodes[cur as usize].left, new);
            self.nodes[cur as usize].left = Some(child);
            if self.outranks(child, cur) {
                return self.rotate_right(cur);
            }
        } else {
            let child = self.insert_at(self.nodes[cur as usize].right, new);
            self.nodes[cur as usize].right = Some(child);
            if self.outranks(child, cur) {
                return self.rotate_left(cur);
            }
        }
        self.recompute(cur);
        cur
    }

    fn remove_at(&mut self, at: Option<u32>, name: &str) -> (Option<u32>, Option<u32>) {
        let Some(cur) = at else {
            return (None, None);
        };
        let cur_name = self.nodes[cur as usize].workload.name();
        if name == cur_name {
            let merged = self.merge(
                self.nodes[cur as usize].left,
                self.nodes[cur as usize].right,
            );
            return (merged, Some(cur));
        }
        if name < cur_name {
            let (child, removed) = self.remove_at(self.nodes[cur as usize].left, name);
            if removed.is_none() {
                return (Some(cur), None);
            }
            self.nodes[cur as usize].left = child;
            self.recompute(cur);
            (Some(cur), removed)
        } else {
            let (child, removed) = self.remove_at(self.nodes[cur as usize].right, name);
            if removed.is_none() {
                return (Some(cur), None);
            }
            self.nodes[cur as usize].right = child;
            self.recompute(cur);
            (Some(cur), removed)
        }
    }

    /// Merges two treaps where every key in `left` precedes every key in
    /// `right`, recomputing sums along the merge path.
    fn merge(&mut self, left: Option<u32>, right: Option<u32>) -> Option<u32> {
        match (left, right) {
            (None, r) => r,
            (l, None) => l,
            (Some(l), Some(r)) => {
                if self.outranks(l, r) {
                    let merged = self.merge(self.nodes[l as usize].right, Some(r));
                    self.nodes[l as usize].right = merged;
                    self.recompute(l);
                    Some(l)
                } else {
                    let merged = self.merge(Some(l), self.nodes[r as usize].left);
                    self.nodes[r as usize].left = merged;
                    self.recompute(r);
                    Some(r)
                }
            }
        }
    }

    /// Right rotation at `y` (left child `x` rises); recomputes both
    /// changed nodes and returns the new subtree root.
    fn rotate_right(&mut self, y: u32) -> u32 {
        let x = self.nodes[y as usize].left.unwrap_or(y); // unreachable fallback: callers rotate only with a riser child
        self.nodes[y as usize].left = self.nodes[x as usize].right;
        self.nodes[x as usize].right = Some(y);
        self.recompute(y);
        self.recompute(x);
        x
    }

    /// Left rotation at `y` (right child `x` rises).
    fn rotate_left(&mut self, y: u32) -> u32 {
        let x = self.nodes[y as usize].right.unwrap_or(y); // unreachable fallback: callers rotate only with a riser child
        self.nodes[y as usize].right = self.nodes[x as usize].left;
        self.nodes[x as usize].left = Some(y);
        self.recompute(y);
        self.recompute(x);
        x
    }

    fn subtree(&self, idx: u32) -> Columns<'_> {
        let node = &self.nodes[idx as usize];
        match &node.sums {
            Some(s) => Columns::Slices {
                cos1: &s.cos1,
                cos2: &s.cos2,
            },
            None => node.workload.columns(),
        }
    }

    fn subtree_memory(&self, idx: u32) -> Option<&[f64]> {
        let node = &self.nodes[idx as usize];
        if node.mem_count == 0 {
            return None;
        }
        match &node.sums {
            Some(s) => s.memory.as_deref(),
            None => node.workload.memory().map(|m| m.samples()),
        }
    }

    /// Recomputes `idx`'s subtree sums from its (already current)
    /// children. The combine order — left, self, right — is the fixed
    /// association that makes the root a pure function of the set.
    fn recompute(&mut self, idx: u32) {
        let (left, right) = {
            let node = &self.nodes[idx as usize];
            (node.left, node.right)
        };
        // Reclaim the node's buffers first so a node that became a leaf
        // returns them to the pool.
        if let Some(sums) = self.nodes[idx as usize].sums.take() {
            self.spare.give(sums.cos1);
            self.spare.give(sums.cos2);
            if let Some(mem) = sums.memory {
                self.spare.give(mem);
            }
        }
        let own_mem = u32::from(self.nodes[idx as usize].workload.memory().is_some());
        let mem_count = own_mem
            + left.map_or(0, |c| self.nodes[c as usize].mem_count)
            + right.map_or(0, |c| self.nodes[c as usize].mem_count);
        self.nodes[idx as usize].mem_count = mem_count;
        if left.is_none() && right.is_none() {
            return; // leaf: its sums are its own columns
        }
        let len = self.nodes[idx as usize].workload.len();
        let (mut cos1, mut cos2) = self.spare.take_classes(len, !self.cos1_zero);
        combine_classes(
            &mut cos1,
            &mut cos2,
            !self.cos1_zero,
            [
                left.map(|c| self.subtree(c)),
                Some(self.nodes[idx as usize].workload.columns()),
                right.map(|c| self.subtree(c)),
            ],
        );
        let memory = if self.nodes[idx as usize].mem_count == 0 {
            None
        } else {
            let mut mem = self.spare.take();
            combine_memory(
                &mut mem,
                [
                    left.and_then(|c| self.subtree_memory(c)),
                    self.nodes[idx as usize]
                        .workload
                        .memory()
                        .map(|m| m.samples()),
                    right.and_then(|c| self.subtree_memory(c)),
                ],
            );
            Some(mem)
        };
        self.nodes[idx as usize].sums = Some(NodeSums { cos1, cos2, memory });
    }

    /// Iterative post-order sum computation over `root`'s subtree —
    /// explicit stack, so adversarially deep shapes cannot overflow the
    /// call stack during a cold bulk build.
    fn recompute_postorder(&mut self, root: u32) {
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((idx, children_done)) = stack.pop() {
            if children_done {
                self.recompute(idx);
            } else {
                stack.push((idx, true));
                let node = &self.nodes[idx as usize];
                if let Some(l) = node.left {
                    stack.push((l, false));
                }
                if let Some(r) = node.right {
                    stack.push((r, false));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::AggregateLoad;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use ropus_trace::{Calendar, Trace};

    fn wl(name: &str, base: f64) -> Workload {
        let len = Calendar::five_minute().slots_per_week();
        let samples: Vec<f64> = (0..len).map(|i| base + (i % 13) as f64 * 0.1).collect();
        Workload::new(
            name,
            Trace::from_samples(Calendar::five_minute(), samples.clone()).unwrap(),
            Trace::from_samples(Calendar::five_minute(), samples).unwrap(),
        )
        .unwrap()
    }

    /// The root's CoS1 and CoS2 sums as bits (CoS1 empty when skipped).
    fn root_bits(tree: &SumTree) -> (Vec<u64>, Vec<u64>) {
        let len = tree.nodes[0].workload.len();
        let mut cos1 = vec![0.0; if tree.keeps_cos1() { len } else { 0 }];
        let mut cos2 = vec![0.0; len];
        let root = tree.root().unwrap();
        kernels::sum_classes(&mut cos1, &mut cos2, tree.keeps_cos1(), true, &[root]);
        (bits(&cos1), bits(&cos2))
    }

    fn sorted_members(mut members: Vec<Workload>) -> Vec<Workload> {
        members.sort_by(|a, b| a.name().cmp(b.name()));
        members
    }

    #[test]
    fn incremental_insert_matches_cold_build_bitwise() {
        let members: Vec<Workload> = (0..17)
            .map(|i| wl(&format!("app-{i:02}"), i as f64))
            .collect();
        let cold = SumTree::build(&sorted_members(members.clone()), &mut SlotArena::new());
        // Insert in a scrambled order.
        let mut tree = SumTree::empty();
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.reverse();
        order.swap(0, 7);
        order.swap(3, 11);
        for i in order {
            tree.insert(members[i].clone());
        }
        assert_eq!(root_bits(&cold), root_bits(&tree));
    }

    #[test]
    fn remove_then_reinsert_round_trips_bitwise() {
        let members: Vec<Workload> = (0..9).map(|i| wl(&format!("w{i}"), i as f64)).collect();
        let mut tree = SumTree::build(&sorted_members(members.clone()), &mut SlotArena::new());
        let reference = root_bits(&tree);
        let removed = tree.remove("w4").unwrap();
        assert_eq!(removed.name(), "w4");
        assert!(tree.remove("w4").is_none());
        tree.insert(removed);
        assert_eq!(reference, root_bits(&tree));
    }

    #[test]
    fn memory_sums_track_members_that_carry_memory() {
        let len = Calendar::five_minute().slots_per_week();
        let with_mem = wl("m", 1.0)
            .with_memory(Trace::constant(Calendar::five_minute(), 8.0, len).unwrap())
            .unwrap();
        let plain = wl("p", 2.0);
        let mut tree = SumTree::build(
            &sorted_members(vec![with_mem, plain]),
            &mut SlotArena::new(),
        );
        assert_eq!(tree.root_memory().unwrap()[0], 8.0);
        let _ = tree.remove("m").unwrap();
        assert!(tree.root_memory().is_none());
    }

    #[test]
    fn lazy_root_matches_densified_root_bitwise() {
        let members = sorted_members(
            (0..23)
                .map(|i| wl(&format!("lz-{i:02}"), i as f64 * 0.3))
                .collect(),
        );
        let mut tree = SumTree::build(&members, &mut SlotArena::new());
        let lazy = root_bits(&tree);
        tree.densify();
        assert_eq!(lazy, root_bits(&tree));
    }

    #[test]
    fn recycling_returns_buffers_to_the_arena() {
        let members = sorted_members((0..8).map(|i| wl(&format!("r{i}"), 1.0)).collect());
        let mut arena = SlotArena::new();
        let tree = SumTree::build(&members, &mut arena);
        assert_eq!(arena.pooled(), 0);
        tree.recycle_into(&mut arena);
        assert!(arena.pooled() > 0);
        // A rebuild from the warm arena reuses the pooled buffers.
        let before = arena.pooled();
        let tree = SumTree::build(&members, &mut arena);
        tree.recycle_into(&mut arena);
        assert_eq!(arena.pooled(), before);
    }

    /// The totals the aggregate computed before the zero-CoS1 fast path:
    /// every CoS1 sum materialized, the CoS2 root added onto the CoS1 root.
    fn tree_path_totals(members: &[Workload]) -> Vec<f64> {
        let mut tree = SumTree::build(&sorted_members(members.to_vec()), &mut SlotArena::new());
        tree.cos1_zero = false;
        tree.dense = false;
        tree.densify();
        let mut totals = Vec::new();
        tree.root().unwrap().totals_into(&mut totals, true);
        totals
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A one-week hourly workload whose CoS1 is all `+0.0` (`kind` 0),
    /// `+0.0` with scattered `-0.0` samples (1), or small and non-zero (2).
    /// CoS2 mixes both zero signs with arbitrary floats, so a wrong zero
    /// sign on either side would show in the totals.
    fn signed_zero_workload(rng: &mut TestRng, name: &str, kind: u64) -> Workload {
        let calendar = Calendar::new(60).unwrap();
        let len = calendar.slots_per_week();
        let cos1: Vec<f64> = (0..len)
            .map(|_| match (kind, rng.next_below(4)) {
                (1, 0) => -0.0,
                (2, _) => 0.5 * rng.next_f64(),
                _ => 0.0,
            })
            .collect();
        let cos2: Vec<f64> = (0..len)
            .map(|_| match rng.next_below(4) {
                0 => 0.0,
                1 => -0.0,
                _ => 8.0 * rng.next_f64(),
            })
            .collect();
        Workload::new(
            name,
            Trace::from_samples(calendar, cos1).unwrap(),
            Trace::from_samples(calendar, cos2).unwrap(),
        )
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn zero_cos1_totals_are_bit_identical_to_the_tree_path(
            seed in 0u64..u64::MAX,
            members in 1usize..=6,
            mixed in 0u64..3,
        ) {
            let mut rng = TestRng::from_seed(seed);
            // `mixed` 0: every member all-zero; otherwise one in three
            // members is drawn from the `-0.0` / non-zero kinds.
            let pool: Vec<Workload> = (0..members + 2)
                .map(|i| {
                    let kind = if mixed == 0 || rng.next_below(3) > 0 {
                        0
                    } else {
                        mixed
                    };
                    signed_zero_workload(&mut rng, &format!("m{i}"), kind)
                })
                .collect();
            for w in &pool {
                let zero = w.cos1().iter().all(|a| a.to_bits() == 0);
                prop_assert_eq!(w.cos1_is_zero(), zero);
            }
            let set: Vec<&Workload> = pool.iter().take(members).collect();
            let cold = AggregateLoad::of(&set).unwrap();
            let owned: Vec<Workload> = set.iter().map(|w| (*w).clone()).collect();
            prop_assert_eq!(bits(cold.totals()), bits(&tree_path_totals(&owned)));

            // Incremental histories cross the mode boundary both ways.
            let mut load = cold;
            for w in pool.iter().skip(members) {
                load.add(w).unwrap();
                prop_assert_eq!(bits(load.totals()), bits(&tree_path_totals(load.members())));
            }
            for w in pool.iter().take(members) {
                load.remove(w.name()).unwrap();
                prop_assert_eq!(bits(load.totals()), bits(&tree_path_totals(load.members())));
            }
        }
    }
}
