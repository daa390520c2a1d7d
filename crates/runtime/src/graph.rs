//! Block-level dependency graphs for barrier-free kernel execution.
//!
//! The paper's GPU model launches one kernel per job layer with a global
//! barrier between layers.  On the CPU stand-in that barrier is a pool-wide
//! rendezvous per layer, even though a block may start the moment the blocks
//! producing its operands have retired.  A [`TaskGraph`] captures exactly
//! those producer/consumer edges so the executor
//! ([`WorkerPool::launch_graph_indexed_cancellable`](crate::WorkerPool::launch_graph_indexed_cancellable))
//! can release each block as its last predecessor retires — one rendezvous
//! per *evaluation* instead of one per *layer*.
//!
//! Graphs are built with a [`TaskGraphBuilder`] by declaring, for every
//! block in the layered reference order, which data slots it reads and which
//! it writes.  The builder derives every hazard edge:
//!
//! * **read-after-write** — a block depends on the last writer of each slot
//!   it reads;
//! * **write-after-write** — a block depends on the previous writer of each
//!   slot it overwrites;
//! * **write-after-read** — a block depends on every reader of a slot since
//!   its last write (so in-place updates wait for earlier readers).
//!
//! Because edges always point from an earlier block to a later one in the
//! declaration order, the graph is acyclic by construction, and any
//! execution respecting the edges performs, per slot, the same operations in
//! the same order as the layered schedule — results are bitwise identical.

use std::collections::HashMap;

/// An immutable block-level dependency DAG.
///
/// Node ids are the declaration order of [`TaskGraphBuilder::add_task`];
/// every edge points from a lower id to a higher id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskGraph {
    /// Successors per node (sorted, deduplicated).
    successors: Vec<Vec<u32>>,
    /// Number of predecessors per node.
    in_degree: Vec<u32>,
    /// Total number of edges.
    edges: usize,
}

impl TaskGraph {
    /// Number of nodes (blocks).
    pub fn len(&self) -> usize {
        self.successors.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.successors.is_empty()
    }

    /// Total number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// The successors of a node.
    pub fn successors(&self, node: usize) -> &[u32] {
        &self.successors[node]
    }

    /// The number of predecessors of a node.
    pub fn in_degree(&self, node: usize) -> u32 {
        self.in_degree[node]
    }

    /// Nodes with no predecessors (ready at launch).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&n| self.in_degree[n] == 0)
            .collect()
    }

    /// The length of the longest dependency chain (the graph-mode critical
    /// path, measured in blocks).  The layered schedule executes at least
    /// this many barriers' worth of latency; the graph executor pays it once.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        let mut max = 0usize;
        for n in 0..self.len() {
            let d = depth[n] + 1;
            max = max.max(d);
            for &s in &self.successors[n] {
                depth[s as usize] = depth[s as usize].max(d);
            }
        }
        max
    }

    /// Executes every block of `instances` independent copies of this graph
    /// on the calling thread, in a dependency-respecting order, without
    /// waking any pool — the inline counterpart of
    /// [`WorkerPool::launch_graph_indexed_cancellable`](crate::WorkerPool::launch_graph_indexed_cancellable)
    /// for zero-worker pools and sequential evaluation.
    ///
    /// Block `b` runs node `b % len()` of instance `b / len()`.  The pending
    /// counters and the ready stack live in the caller-provided
    /// [`InlineGraphScratch`], so a warm scratch makes repeated runs
    /// **allocation-free** (the zero-allocation steady-state contract of the
    /// evaluation workspaces rests on this).
    ///
    /// The run polls `cancel` before each block body: once the token trips,
    /// remaining blocks are skipped — they still release their successors
    /// and retire, so the drain completes (the cycle assertion holds) at
    /// pointer speed with no further evaluation work.  Returns `true` when
    /// every block ran, `false` when at least one was skipped and the output
    /// is partial.
    ///
    /// # Panics
    ///
    /// Panics (after draining nothing further) when the graph is cyclic —
    /// impossible for builder-produced graphs, whose edges always point
    /// forward.
    pub fn run_inline_cancellable(
        &self,
        instances: usize,
        scratch: &mut InlineGraphScratch,
        cancel: Option<&crate::CancelToken>,
        mut body: impl FnMut(usize),
    ) -> bool {
        let nodes = self.len();
        let total = instances * nodes;
        if total == 0 {
            return true;
        }
        scratch.pending.clear();
        scratch.pending.reserve(total);
        scratch.ready.clear();
        for instance in 0..instances {
            let base = instance * nodes;
            for n in 0..nodes {
                let deg = self.in_degree(n);
                scratch.pending.push(deg);
                if deg == 0 {
                    scratch.ready.push(base + n);
                }
            }
        }
        let mut retired = 0usize;
        let mut abandoned = false;
        while let Some(block) = scratch.ready.pop() {
            if !abandoned && cancel.is_some_and(crate::CancelToken::is_cancelled) {
                abandoned = true;
            }
            if !abandoned {
                body(block);
            }
            retired += 1;
            let node = block % nodes;
            let base = block - node;
            for &s in self.successors(node) {
                let succ = base + s as usize;
                scratch.pending[succ] -= 1;
                if scratch.pending[succ] == 0 {
                    scratch.ready.push(succ);
                }
            }
        }
        assert_eq!(retired, total, "dependency graph did not drain (cycle?)");
        !abandoned
    }

    /// Checks the structural invariants: every edge points forward (lower id
    /// to higher id, hence acyclic) and the stored in-degrees match the
    /// edges.  Returns a description of the first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        let mut indeg = vec![0u32; self.len()];
        for (n, succ) in self.successors.iter().enumerate() {
            for &s in succ {
                if (s as usize) <= n {
                    return Err(format!("edge {n} -> {s} does not point forward"));
                }
                if (s as usize) >= self.len() {
                    return Err(format!("edge {n} -> {s} leaves the graph"));
                }
                indeg[s as usize] += 1;
            }
        }
        if indeg != self.in_degree {
            return Err("stored in-degrees do not match the edges".to_string());
        }
        Ok(())
    }
}

/// Reusable scratch of [`TaskGraph::run_inline_cancellable`]: the
/// per-block pending counters and the ready stack.  Owned by long-lived evaluation workspaces
/// so that steady-state inline graph execution allocates nothing.
#[derive(Debug, Default)]
pub struct InlineGraphScratch {
    /// Remaining-predecessor count per block.
    pending: Vec<u32>,
    /// Blocks whose predecessors have all retired.
    ready: Vec<usize>,
}

impl InlineGraphScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the buffers for graphs of up to `blocks` total blocks, so
    /// the first run is allocation-free too.
    pub fn with_capacity(blocks: usize) -> Self {
        let mut scratch = Self::default();
        scratch.reserve(blocks);
        scratch
    }

    /// Grows the buffers **in place** to hold graphs of up to `blocks`
    /// total blocks (no-op, and no shrinking, when they are already large
    /// enough) — the re-warm path of a long-lived workspace.
    pub fn reserve(&mut self, blocks: usize) {
        self.pending
            .reserve(blocks.saturating_sub(self.pending.len()));
        self.ready.reserve(blocks.saturating_sub(self.ready.len()));
    }
}

/// Builds a [`TaskGraph`] from per-block read/write slot declarations.
///
/// Blocks must be declared in the layered reference order (layer by layer,
/// jobs within a layer in schedule order); the builder tracks, per slot, the
/// last writer and the readers since that write, and derives every hazard
/// edge from them.
#[derive(Debug, Default)]
pub struct TaskGraphBuilder {
    successors: Vec<Vec<u32>>,
    in_degree: Vec<u32>,
    edges: usize,
    last_writer: HashMap<usize, u32>,
    readers_since_write: HashMap<usize, Vec<u32>>,
}

impl TaskGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the next block with the data slots it reads and writes,
    /// returning its node id (ids are consecutive from zero).  A slot may
    /// appear in both lists (in-place updates).
    pub fn add_task(&mut self, reads: &[usize], writes: &[usize]) -> usize {
        let id = u32::try_from(self.successors.len()).expect("more than u32::MAX blocks");
        self.successors.push(Vec::new());
        self.in_degree.push(0);
        let mut preds: Vec<u32> = Vec::new();
        for &slot in reads {
            if let Some(&w) = self.last_writer.get(&slot) {
                preds.push(w);
            }
        }
        for &slot in writes {
            if let Some(&w) = self.last_writer.get(&slot) {
                preds.push(w);
            }
            if let Some(rs) = self.readers_since_write.get(&slot) {
                preds.extend_from_slice(rs);
            }
        }
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != id);
        for p in preds {
            self.successors[p as usize].push(id);
            self.in_degree[id as usize] += 1;
            self.edges += 1;
        }
        for &slot in reads {
            self.readers_since_write.entry(slot).or_default().push(id);
        }
        for &slot in writes {
            self.last_writer.insert(slot, id);
            // Future writers get their edge to this block via `last_writer`;
            // earlier readers have been consumed above.
            self.readers_since_write.insert(slot, Vec::new());
        }
        id as usize
    }

    /// Finalizes the graph.
    pub fn build(self) -> TaskGraph {
        let graph = TaskGraph {
            successors: self.successors,
            in_degree: self.in_degree,
            edges: self.edges,
        };
        debug_assert!(graph.validate().is_ok());
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_edges_chain_a_pipeline() {
        // 0 writes slot 10, 1 reads 10 writes 11, 2 reads 11 writes 12.
        let mut b = TaskGraphBuilder::new();
        b.add_task(&[0], &[10]);
        b.add_task(&[10], &[11]);
        b.add_task(&[11], &[12]);
        let g = b.build();
        assert_eq!(g.len(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.successors(1), &[2]);
        assert_eq!(g.roots(), vec![0]);
        assert_eq!(g.critical_path_len(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn war_edge_makes_inplace_update_wait_for_readers() {
        // 0 writes slot 5; 1 reads 5 (writes elsewhere); 2 updates 5 in
        // place.  2 must wait for both the writer (WAW) and the reader (WAR).
        let mut b = TaskGraphBuilder::new();
        b.add_task(&[0], &[5]);
        b.add_task(&[5], &[6]);
        b.add_task(&[5, 7], &[5]);
        let g = b.build();
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.successors(1), &[2]);
        assert_eq!(g.in_degree(2), 2);
    }

    #[test]
    fn waw_edges_serialize_accumulation_into_one_slot() {
        // Three `dst += src` jobs into slot 9 must run in declaration order:
        // each reads and writes 9, chaining RAW edges.
        let mut b = TaskGraphBuilder::new();
        b.add_task(&[1, 9], &[9]);
        b.add_task(&[2, 9], &[9]);
        b.add_task(&[3, 9], &[9]);
        let g = b.build();
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.successors(1), &[2]);
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn independent_tasks_share_no_edges() {
        let mut b = TaskGraphBuilder::new();
        for i in 0..8 {
            b.add_task(&[100 + i], &[200 + i]);
        }
        let g = b.build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.roots().len(), 8);
        assert_eq!(g.critical_path_len(), 1);
    }

    #[test]
    fn duplicate_hazards_produce_one_edge() {
        // 1 reads slot 4 twice and overwrites it: one edge from the writer.
        let mut b = TaskGraphBuilder::new();
        b.add_task(&[], &[4]);
        b.add_task(&[4, 4], &[4]);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = TaskGraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.roots(), Vec::<usize>::new());
        assert_eq!(g.critical_path_len(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn run_inline_respects_dependency_order_across_instances() {
        // Diamond 0 -> {1, 2} -> 3, three instances.
        let mut b = TaskGraphBuilder::new();
        b.add_task(&[], &[0]);
        b.add_task(&[0], &[1]);
        b.add_task(&[0], &[2]);
        b.add_task(&[1, 2], &[3]);
        let g = b.build();
        let instances = 3;
        let mut scratch = InlineGraphScratch::new();
        let mut order = vec![usize::MAX; 4 * instances];
        let mut stamp = 0usize;
        g.run_inline_cancellable(instances, &mut scratch, None, |block| {
            order[block] = stamp;
            stamp += 1;
        });
        assert_eq!(stamp, 4 * instances);
        for i in 0..instances {
            let at = |n: usize| order[i * 4 + n];
            assert!(at(0) < at(1));
            assert!(at(0) < at(2));
            assert!(at(1) < at(3));
            assert!(at(2) < at(3));
        }
        // A warm scratch is reused without shrinking.
        let cap = scratch.pending.capacity();
        g.run_inline_cancellable(instances, &mut scratch, None, |_| {});
        assert_eq!(scratch.pending.capacity(), cap);
    }

    #[test]
    fn run_inline_handles_empty_graphs_and_zero_instances() {
        let empty = TaskGraphBuilder::new().build();
        let mut scratch = InlineGraphScratch::with_capacity(8);
        let mut hits = 0usize;
        empty.run_inline_cancellable(4, &mut scratch, None, |_| hits += 1);
        let mut b = TaskGraphBuilder::new();
        b.add_task(&[], &[0]);
        let g = b.build();
        g.run_inline_cancellable(0, &mut scratch, None, |_| hits += 1);
        assert_eq!(hits, 0);
        g.run_inline_cancellable(2, &mut scratch, None, |_| hits += 1);
        assert_eq!(hits, 2);
    }

    #[test]
    fn validate_rejects_backward_edges() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(&[], &[0]);
        b.add_task(&[0], &[1]);
        let mut g = b.build();
        g.successors[1].push(0);
        assert!(g.validate().is_err());
    }
}
