//! Query graphs — DAGs of operators connected by buffers (paper §3).
//!
//! Nodes are query operators; directed arcs are [`Buffer`]s: the upstream
//! operator produces into the tail, the downstream operator consumes from
//! the front. The graph additionally has **source nodes** (input buffers
//! filled by external wrappers — here, by the simulation driver or the
//! real-time feeder) and **sink nodes** (operators with no outputs that
//! deliver to output wrappers).
//!
//! [`GraphBuilder`] validates structure at build time: arity, single
//! producer/consumer per buffer, acyclicity.

use std::cell::RefCell;
use std::sync::Arc;

use millstream_buffer::{
    Buffer, CheckMode, OccupancyTracker, OrderPolicy, OrderSentinel, PunctuationPolicy,
    SentinelStats,
};
use millstream_ops::Operator;
use millstream_types::{Error, Result, Schema, Timestamp, TimestampKind};

/// How tuples of one stream are partitioned across shards of an exchange
/// edge (intra-component data parallelism).
///
/// Routing must be a pure function of the tuple's *values* — never of
/// arrival order or wall-clock — so that every shard count yields a
/// deterministic, replayable partition of the same stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKey {
    /// Hash every column. Correct for stateless paths, reorder, and union
    /// (any partition preserves per-shard timestamp order and the merged
    /// output set).
    WholeRow,
    /// Hash one column — required when downstream state is keyed (join
    /// equi-key, GROUP BY column) so all tuples of one key group land on
    /// the same shard.
    Column(usize),
}

/// Seed folded into [`route_shard`] hashes so shard assignment is not
/// accidentally correlated with any other hash of the same values.
pub const SHARD_HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

fn fnv1a_value(mut h: u64, v: &millstream_types::Value) -> u64 {
    use millstream_types::Value;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    };
    match v {
        Value::Null => eat(0),
        Value::Bool(b) => {
            eat(1);
            eat(u8::from(*b));
        }
        Value::Int(i) => {
            eat(2);
            for b in i.to_le_bytes() {
                eat(b);
            }
        }
        Value::Float(f) => {
            eat(3);
            for b in f.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        Value::Str(s) => {
            eat(4);
            for &b in s.as_bytes() {
                eat(b);
            }
        }
    }
    h
}

/// Deterministic, seeded key-partition hash: which of `shards` shards a
/// data tuple belongs to. Same values + same seed + same shard count →
/// same shard, across runs and platforms (FNV-1a over a stable value
/// encoding; no `RandomState`).
pub fn route_shard(values: &[millstream_types::Value], key: ShardKey, shards: usize) -> usize {
    debug_assert!(shards > 0);
    if shards <= 1 {
        return 0;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ SHARD_HASH_SEED;
    match key {
        ShardKey::WholeRow => {
            for v in values {
                h = fnv1a_value(h, v);
            }
        }
        ShardKey::Column(c) => {
            // A missing column routes to shard 0 rather than panicking;
            // planners validate indices before choosing `Column`.
            match values.get(c) {
                Some(v) => h = fnv1a_value(h, v),
                None => return 0,
            }
        }
    }
    // Multiply-shift spreads the low-entropy FNV tail across the range.
    (((h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd) >> 33) % shards as u64) as usize
}

/// Identifies an operator node in a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's position in the graph's node list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies a source node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub(crate) usize);

impl SourceId {
    /// The source's position in the graph's source list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies a buffer (arc).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// Where an operator input is fed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Fed by a source node's input buffer.
    Source(SourceId),
    /// Fed by another operator's (only) output — shorthand for
    /// `OpPort(node, 0)`.
    Op(NodeId),
    /// Fed by a specific output port of a multi-output operator
    /// (e.g. [`millstream_ops::Split`]).
    OpPort(NodeId, usize),
}

/// The predecessor on one input of an operator — the backtracking target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// An upstream operator.
    Op(NodeId),
    /// A source node: backtracking here triggers ETS generation (§4).
    Source(SourceId),
}

/// Per-source bookkeeping used by ETS policies (§5).
#[derive(Debug)]
pub struct SourceState {
    /// Source name.
    pub name: String,
    /// Stream schema.
    pub schema: Schema,
    /// Timestamp discipline of this stream.
    pub kind: TimestampKind,
    /// The source's input buffer.
    pub buffer: BufferId,
    /// The operator consuming this source.
    pub consumer: NodeId,
    /// Timestamp of the last *data* tuple ingested.
    pub last_data_ts: Option<Timestamp>,
    /// Clock reading when the last data tuple was ingested.
    pub last_data_arrival: Option<Timestamp>,
    /// Highest ETS ever generated for this source (monotonization floor).
    pub ets_high_water: Option<Timestamp>,
    /// Whether the on-demand budget for the current activation was used
    /// (reset whenever fresh data arrives anywhere).
    pub ets_budget_used: bool,
    /// Whether this source's downstream path contains an operator that
    /// benefits from ETS punctuation (an IWP operator or a time-driven
    /// windowed aggregate). Sources feeding only stateless paths never
    /// answer ETS requests — punctuation there would be pure overhead.
    pub serves_ets: bool,
    /// Lifetime count of on-demand ETS generated here.
    pub ets_generated: u64,
    /// Lifetime count of data tuples ingested here.
    pub ingested: u64,
    /// Whether end-of-stream was declared (see `Executor::close_source`).
    pub closed: bool,
}

pub(crate) struct OpNode {
    pub op: Box<dyn Operator>,
    pub name: String,
    pub inputs: Vec<BufferId>,
    pub outputs: Vec<BufferId>,
    pub preds: Vec<Pred>,
    /// The consumer of each output port (Forward targets).
    pub succs: Vec<NodeId>,
}

impl OpNode {
    /// The Forward target for simple single-output chains (test helper).
    #[cfg(test)]
    pub fn succ(&self) -> Option<NodeId> {
        self.succs.first().copied()
    }
}

/// A validated, executable query graph.
pub struct QueryGraph {
    pub(crate) ops: Vec<OpNode>,
    pub(crate) buffers: Vec<RefCell<Buffer>>,
    pub(crate) sources: Vec<SourceState>,
    pub(crate) tracker: Arc<OccupancyTracker>,
}

impl QueryGraph {
    /// Number of operator nodes.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of source nodes.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// The shared occupancy tracker (Fig. 8's peak-queue metric).
    pub fn tracker(&self) -> &Arc<OccupancyTracker> {
        &self.tracker
    }

    /// Source state by id.
    pub fn source(&self, id: SourceId) -> &SourceState {
        &self.sources[id.0]
    }

    /// Operator name by node id.
    pub fn op_name(&self, id: NodeId) -> &str {
        &self.ops[id.0].name
    }

    /// Whether the node is an IWP operator.
    pub fn is_iwp(&self, id: NodeId) -> bool {
        self.ops[id.0].op.is_iwp()
    }

    /// Ids of all source nodes.
    pub fn source_ids(&self) -> impl Iterator<Item = SourceId> {
        (0..self.sources.len()).map(SourceId)
    }

    /// Finds a node by its operator name.
    pub fn find_op(&self, name: &str) -> Option<NodeId> {
        self.ops.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Finds a source by name.
    pub fn find_source(&self, name: &str) -> Option<SourceId> {
        self.sources
            .iter()
            .position(|s| s.name == name)
            .map(SourceId)
    }

    /// Total tuples currently queued in all buffers.
    pub fn total_queued(&self) -> usize {
        self.tracker.total()
    }

    /// The largest summed input-buffer length of any one operator — the
    /// deepest backlog waiting in front of a single node (0 when idle).
    pub fn max_input_backlog(&self) -> usize {
        self.ops
            .iter()
            .map(|n| {
                n.inputs
                    .iter()
                    .map(|b| self.buffers[b.0].borrow().len())
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    /// Attaches (mode enabled) or clears (mode off) an ordering-contract
    /// sentinel on every buffer. Each sentinel is labelled with the node
    /// producing into its buffer — the source for a source buffer, the
    /// operator for an output buffer — so violations name their culprit.
    pub(crate) fn set_check_mode(&mut self, mode: CheckMode, stats: &Arc<SentinelStats>) {
        for s in &self.sources {
            let sentinel = mode
                .is_enabled()
                .then(|| OrderSentinel::new(mode, format!("source {}", s.name), stats.clone()));
            self.buffers[s.buffer.0].borrow_mut().set_sentinel(sentinel);
        }
        for n in &self.ops {
            for b in &n.outputs {
                let sentinel = mode
                    .is_enabled()
                    .then(|| OrderSentinel::new(mode, n.name.clone(), stats.clone()));
                self.buffers[b.0].borrow_mut().set_sentinel(sentinel);
            }
        }
    }

    /// Assigns every operator and source to a connected component of the
    /// undirected arc structure. Returns `(op_component, source_component,
    /// component_count)`. Components are numbered in order of their
    /// smallest operator node id, so the assignment is deterministic for a
    /// given graph.
    pub(crate) fn component_assignment(&self) -> (Vec<usize>, Vec<usize>, usize) {
        // Union-find over operator nodes; every arc is either op→op
        // (union the endpoints) or source→op (the source adopts its
        // consumer's component).
        let mut parent: Vec<usize> = (0..self.ops.len()).collect();
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]]; // path halving
                i = parent[i];
            }
            i
        }
        for (i, n) in self.ops.iter().enumerate() {
            for pred in &n.preds {
                if let Pred::Op(p) = pred {
                    let (a, b) = (root(&mut parent, i), root(&mut parent, p.0));
                    if a != b {
                        // Attach the larger root under the smaller so the
                        // representative is the smallest node id.
                        parent[a.max(b)] = a.min(b);
                    }
                }
            }
        }
        let mut next = 0usize;
        let mut comp_of_root: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let op_comp: Vec<usize> = (0..self.ops.len())
            .map(|i| {
                let r = root(&mut parent, i);
                *comp_of_root.entry(r).or_insert_with(|| {
                    let c = next;
                    next += 1;
                    c
                })
            })
            .collect();
        let source_comp: Vec<usize> = self.sources.iter().map(|s| op_comp[s.consumer.0]).collect();
        (op_comp, source_comp, next)
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.component_assignment().2
    }

    /// Splits the graph into its connected components, producing one
    /// self-contained [`QueryGraph`] per component plus the id remapping
    /// between the whole graph and each sub-graph.
    ///
    /// Invariants:
    /// - every node, source, and buffer lands in exactly one component;
    /// - the relative order of nodes within a component is preserved, so
    ///   sub-graphs stay bottom-up (arcs point from lower to higher local
    ///   ids) exactly like builder output;
    /// - components are numbered by their smallest global operator id, so
    ///   partitioning is deterministic;
    /// - each sub-graph gets a **private** [`OccupancyTracker`]; tuples
    ///   already queued in moved buffers are re-registered on it.
    pub fn partition_components(self) -> ComponentPartition {
        let (op_comp, source_comp, count) = self.component_assignment();

        // Buffers: a source buffer follows its source, an operator output
        // buffer follows its producing operator.
        let mut buffer_comp: Vec<usize> = vec![0; self.buffers.len()];
        for (s, state) in self.sources.iter().enumerate() {
            buffer_comp[state.buffer.0] = source_comp[s];
        }
        for (i, n) in self.ops.iter().enumerate() {
            for b in &n.outputs {
                buffer_comp[b.0] = op_comp[i];
            }
        }

        // Local ids, assigned in ascending global order per component.
        let mut node_local: Vec<usize> = vec![0; self.ops.len()];
        let mut source_local: Vec<usize> = vec![0; self.sources.len()];
        let mut buffer_local: Vec<usize> = vec![0; self.buffers.len()];
        let mut nodes_of: Vec<Vec<NodeId>> = vec![Vec::new(); count];
        let mut sources_of: Vec<Vec<SourceId>> = vec![Vec::new(); count];
        let mut buffers_of: Vec<Vec<BufferId>> = vec![Vec::new(); count];
        for (i, &c) in op_comp.iter().enumerate() {
            node_local[i] = nodes_of[c].len();
            nodes_of[c].push(NodeId(i));
        }
        for (s, &c) in source_comp.iter().enumerate() {
            source_local[s] = sources_of[c].len();
            sources_of[c].push(SourceId(s));
        }
        for (b, &c) in buffer_comp.iter().enumerate() {
            buffer_local[b] = buffers_of[c].len();
            buffers_of[c].push(BufferId(b));
        }

        // Distribute the owned pieces.
        let mut ops_parts: Vec<Vec<OpNode>> = (0..count).map(|_| Vec::new()).collect();
        for (i, mut node) in self.ops.into_iter().enumerate() {
            let c = op_comp[i];
            for b in node.inputs.iter_mut().chain(node.outputs.iter_mut()) {
                *b = BufferId(buffer_local[b.0]);
            }
            for pred in node.preds.iter_mut() {
                *pred = match *pred {
                    Pred::Op(n) => Pred::Op(NodeId(node_local[n.0])),
                    Pred::Source(s) => Pred::Source(SourceId(source_local[s.0])),
                };
            }
            for succ in node.succs.iter_mut() {
                *succ = NodeId(node_local[succ.0]);
            }
            ops_parts[c].push(node);
        }
        let mut source_parts: Vec<Vec<SourceState>> = (0..count).map(|_| Vec::new()).collect();
        let mut source_map: Vec<(usize, SourceId)> = Vec::with_capacity(self.sources.len());
        for (s, mut state) in self.sources.into_iter().enumerate() {
            let c = source_comp[s];
            state.buffer = BufferId(buffer_local[state.buffer.0]);
            state.consumer = NodeId(node_local[state.consumer.0]);
            source_map.push((c, SourceId(source_local[s])));
            source_parts[c].push(state);
        }
        let trackers: Vec<Arc<OccupancyTracker>> =
            (0..count).map(|_| OccupancyTracker::shared()).collect();
        let mut buffer_parts: Vec<Vec<RefCell<Buffer>>> = (0..count).map(|_| Vec::new()).collect();
        for (b, cell) in self.buffers.into_iter().enumerate() {
            let c = buffer_comp[b];
            cell.borrow_mut().set_tracker(trackers[c].clone());
            buffer_parts[c].push(cell);
        }

        let mut components = Vec::with_capacity(count);
        let mut ops_parts = ops_parts.into_iter();
        let mut source_parts = source_parts.into_iter();
        let mut buffer_parts = buffer_parts.into_iter();
        for c in 0..count {
            components.push(ComponentGraph {
                graph: QueryGraph {
                    ops: ops_parts.next().expect("count"),
                    buffers: buffer_parts.next().expect("count"),
                    sources: source_parts.next().expect("count"),
                    tracker: trackers[c].clone(),
                },
                nodes: std::mem::take(&mut nodes_of[c]),
                sources: std::mem::take(&mut sources_of[c]),
                buffers: std::mem::take(&mut buffers_of[c]),
            });
        }
        ComponentPartition {
            components,
            source_map,
        }
    }

    /// Whether the source's stream contract is ordered (its input buffer
    /// rejects timestamp regressions). Unordered sources admit regressions
    /// and are order-restored downstream by a `Reorder`.
    pub fn source_is_ordered(&self, id: SourceId) -> bool {
        self.buffers[self.sources[id.0].buffer.0]
            .borrow()
            .order_policy()
            != OrderPolicy::Accept
    }

    /// The smallest timestamp currently queued in any buffer, or `None`
    /// when every buffer is empty. One of the three terms of a shard's
    /// frontier floor: queued tuples are future output, so the floor can
    /// never pass them.
    pub fn min_front_ts(&self) -> Option<Timestamp> {
        self.buffers
            .iter()
            .filter_map(|b| b.borrow().front_ts())
            .min()
    }

    /// The smallest [`Operator::frontier_hold`] across all operators, or
    /// `None` when no operator holds back the frontier. The second floor
    /// term: state parked inside operators (reorder heaps, open windows)
    /// is future output below any queued tuple.
    pub fn min_frontier_hold(&self) -> Option<Timestamp> {
        self.ops.iter().filter_map(|n| n.op.frontier_hold()).min()
    }

    /// Renders a sharded execution plan as Graphviz DOT: the per-shard
    /// replica of this (single-component) graph, exchange nodes routing
    /// each source across `shards` shards, and the order-preserving merge
    /// stage. `keys[s]` labels the partition key of source `s`.
    pub fn to_dot_sharded(&self, shards: usize, keys: &[ShardKey]) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph millstream_sharded {\n  rankdir=LR;\n");
        for (i, s) in self.sources.iter().enumerate() {
            let key = match keys.get(i) {
                Some(ShardKey::Column(c)) => format!("key=col {c}"),
                _ => "key=whole-row".to_string(),
            };
            let _ = writeln!(
                out,
                "  src{i} [shape=cds, label=\"{} ({:?})\"];\n  \
                 xchg{i} [shape=trapezium, label=\"exchange ×{shards}\\n{key}\"];\n  \
                 src{i} -> xchg{i};",
                s.name, s.kind
            );
        }
        for shard in 0..shards {
            let _ = writeln!(out, "  subgraph cluster_shard{shard} {{");
            let _ = writeln!(out, "    label=\"shard {shard}\";");
            for (i, n) in self.ops.iter().enumerate() {
                let shape = if n.outputs.is_empty() {
                    "doublecircle"
                } else if n.op.is_iwp() {
                    "diamond"
                } else {
                    "box"
                };
                let _ = writeln!(
                    out,
                    "    s{shard}op{i} [shape={shape}, label=\"{}\"];",
                    n.name.replace('"', "'")
                );
            }
            out.push_str("  }\n");
            for (i, s) in self.sources.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  xchg{i} -> s{shard}op{} [style=dashed];",
                    s.consumer.0
                );
            }
            for (i, n) in self.ops.iter().enumerate() {
                for succ in &n.succs {
                    let _ = writeln!(out, "  s{shard}op{i} -> s{shard}op{};", succ.0);
                }
            }
        }
        out.push_str("  merge [shape=invtrapezium, label=\"ts-merge\\n(frontier summaries)\"];\n");
        for shard in 0..shards {
            for (i, n) in self.ops.iter().enumerate() {
                if n.outputs.is_empty() {
                    let _ = writeln!(out, "  s{shard}op{i} -> merge [style=dashed];");
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders the graph as Graphviz DOT for visualization
    /// (`dot -Tpng graph.dot -o graph.png`). Multi-component graphs render
    /// each connected component as a labelled `subgraph cluster_N`.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let (op_comp, source_comp, count) = self.component_assignment();
        let mut out = String::from("digraph millstream {\n  rankdir=LR;\n");
        for c in 0..count {
            let (indent, close) = if count > 1 {
                let _ = writeln!(out, "  subgraph cluster_{c} {{");
                let _ = writeln!(out, "    label=\"component {c}\";");
                ("    ", true)
            } else {
                ("  ", false)
            };
            for (i, s) in self.sources.iter().enumerate() {
                if source_comp[i] != c {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{indent}src{i} [shape=cds, label=\"{} ({:?})\"];",
                    s.name, s.kind
                );
            }
            for (i, n) in self.ops.iter().enumerate() {
                if op_comp[i] != c {
                    continue;
                }
                let shape = if n.outputs.is_empty() {
                    "doublecircle"
                } else if n.op.is_iwp() {
                    "diamond"
                } else {
                    "box"
                };
                let _ = writeln!(
                    out,
                    "{indent}op{i} [shape={shape}, label=\"{}\"];",
                    n.name.replace('"', "'")
                );
            }
            if close {
                out.push_str("  }\n");
            }
        }
        for (i, s) in self.sources.iter().enumerate() {
            let _ = writeln!(out, "  src{i} -> op{};", s.consumer.0);
        }
        for (i, n) in self.ops.iter().enumerate() {
            for succ in &n.succs {
                let _ = writeln!(out, "  op{i} -> op{};", succ.0);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders the graph topology for diagnostics.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in &self.sources {
            let _ = writeln!(
                out,
                "source {} {:?} -> {}",
                s.name, s.kind, self.ops[s.consumer.0].name
            );
        }
        for (i, n) in self.ops.iter().enumerate() {
            let succ = if n.succs.is_empty() {
                "(sink)".to_string()
            } else {
                n.succs
                    .iter()
                    .map(|s| self.ops[s.0].name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                out,
                "op #{i} {} [{} in, {} out] -> {succ}",
                n.name,
                n.inputs.len(),
                n.outputs.len()
            );
        }
        out
    }
}

/// The result of [`QueryGraph::partition_components`]: one self-contained
/// sub-graph per connected component plus the global→local id remapping.
pub struct ComponentPartition {
    /// The component sub-graphs, ordered by smallest global operator id.
    pub components: Vec<ComponentGraph>,
    /// Global source id → (component index, local source id). This is the
    /// routing table for ingest under parallel execution.
    pub source_map: Vec<(usize, SourceId)>,
}

impl ComponentPartition {
    /// The component index and local source id for a global source.
    pub fn route(&self, global: SourceId) -> (usize, SourceId) {
        self.source_map[global.0]
    }
}

/// One connected component of a partitioned graph, with the mapping from
/// local ids back to the ids of the whole graph.
pub struct ComponentGraph {
    /// The component as a standalone, executable graph.
    pub graph: QueryGraph,
    /// Local node index → global [`NodeId`].
    pub nodes: Vec<NodeId>,
    /// Local source index → global [`SourceId`].
    pub sources: Vec<SourceId>,
    /// Local buffer index → global [`BufferId`].
    pub buffers: Vec<BufferId>,
}

/// Builds and validates a [`QueryGraph`].
pub struct GraphBuilder {
    ops: Vec<PendingOp>,
    sources: Vec<PendingSource>,
    punctuation_policy: PunctuationPolicy,
    order_policy: OrderPolicy,
}

struct PendingSource {
    name: String,
    schema: Schema,
    kind: TimestampKind,
    unordered: bool,
}

struct PendingOp {
    op: Box<dyn Operator>,
    inputs: Vec<Input>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// An empty builder with default buffer policies.
    pub fn new() -> Self {
        GraphBuilder {
            ops: Vec::new(),
            sources: Vec::new(),
            punctuation_policy: PunctuationPolicy::KeepAll,
            order_policy: OrderPolicy::Reject,
        }
    }

    /// Sets the punctuation policy applied to every buffer.
    pub fn with_punctuation_policy(mut self, policy: PunctuationPolicy) -> Self {
        self.punctuation_policy = policy;
        self
    }

    /// Sets the out-of-order policy applied to every buffer.
    pub fn with_order_policy(mut self, policy: OrderPolicy) -> Self {
        self.order_policy = policy;
        self
    }

    /// Declares a source node.
    pub fn source(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        kind: TimestampKind,
    ) -> SourceId {
        self.sources.push(PendingSource {
            name: name.into(),
            schema,
            kind,
            unordered: false,
        });
        SourceId(self.sources.len() - 1)
    }

    /// Declares a source whose stream may arrive out of order (bounded
    /// disorder). Its buffer accepts regressions, and build-time validation
    /// requires its consumer to be an order-restoring operator (`Reorder`).
    pub fn unordered_source(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        kind: TimestampKind,
    ) -> SourceId {
        self.sources.push(PendingSource {
            name: name.into(),
            schema,
            kind,
            unordered: true,
        });
        SourceId(self.sources.len() - 1)
    }

    /// Adds an operator fed by the given inputs, in input order.
    pub fn operator(&mut self, op: Box<dyn Operator>, inputs: Vec<Input>) -> Result<NodeId> {
        if op.num_inputs() != inputs.len() {
            return Err(Error::graph(format!(
                "operator `{}` declares {} inputs but {} were wired",
                op.name(),
                op.num_inputs(),
                inputs.len()
            )));
        }
        for input in &inputs {
            match input {
                Input::Source(s) if s.0 >= self.sources.len() => {
                    return Err(Error::graph(format!("unknown source id {}", s.0)));
                }
                Input::Op(n) | Input::OpPort(n, _) if n.0 >= self.ops.len() => {
                    return Err(Error::graph(format!(
                        "operator input references later/unknown node {}; add operators bottom-up",
                        n.0
                    )));
                }
                Input::OpPort(n, port) if *port >= self.ops[n.0].op.num_outputs() => {
                    return Err(Error::graph(format!(
                        "node {} has {} outputs; port {} does not exist",
                        n.0,
                        self.ops[n.0].op.num_outputs(),
                        port
                    )));
                }
                _ => {}
            }
        }
        self.ops.push(PendingOp { op, inputs });
        Ok(NodeId(self.ops.len() - 1))
    }

    /// Validates and assembles the graph.
    pub fn build(self) -> Result<QueryGraph> {
        let tracker = OccupancyTracker::shared();
        let punctuation_policy = self.punctuation_policy;
        let order_policy = self.order_policy;
        let mut buffers: Vec<RefCell<Buffer>> = Vec::new();

        // One buffer per source, one per operator output. Unordered
        // sources get an Accept-policy buffer regardless of the default.
        let mut source_buffers = Vec::with_capacity(self.sources.len());
        for src in &self.sources {
            let order = if src.unordered {
                OrderPolicy::Accept
            } else {
                order_policy
            };
            let buffer = Buffer::new(format!("src:{}", src.name))
                .with_tracker(tracker.clone())
                .with_punctuation_policy(punctuation_policy)
                .with_order_policy(order);
            buffers.push(RefCell::new(buffer));
            source_buffers.push(BufferId(buffers.len() - 1));
        }

        let mut new_buffer = |name: String| -> BufferId {
            let buffer = Buffer::new(name)
                .with_tracker(tracker.clone())
                .with_punctuation_policy(punctuation_policy)
                .with_order_policy(order_policy);
            buffers.push(RefCell::new(buffer));
            BufferId(buffers.len() - 1)
        };
        let mut out_buffers: Vec<Vec<BufferId>> = Vec::with_capacity(self.ops.len());
        for (i, p) in self.ops.iter().enumerate() {
            let bufs = (0..p.op.num_outputs())
                .map(|port| new_buffer(format!("out:{}#{i}.{port}", p.op.name())))
                .collect();
            out_buffers.push(bufs);
        }

        // Wire inputs, recording predecessors and checking one consumer per
        // output port.
        let mut source_consumer: Vec<Option<NodeId>> = vec![None; self.sources.len()];
        let mut op_consumer: Vec<Vec<Option<NodeId>>> = out_buffers
            .iter()
            .map(|bufs| vec![None; bufs.len()])
            .collect();
        let mut nodes: Vec<OpNode> = Vec::with_capacity(self.ops.len());
        for (i, p) in self.ops.into_iter().enumerate() {
            let me = NodeId(i);
            let mut inputs = Vec::with_capacity(p.inputs.len());
            let mut preds = Vec::with_capacity(p.inputs.len());
            for input in &p.inputs {
                match *input {
                    Input::Source(s) => {
                        if let Some(prev) = source_consumer[s.0] {
                            return Err(Error::graph(format!(
                                "source {} consumed by both node {} and node {}",
                                s.0, prev.0, i
                            )));
                        }
                        source_consumer[s.0] = Some(me);
                        inputs.push(source_buffers[s.0]);
                        preds.push(Pred::Source(s));
                    }
                    Input::Op(n) | Input::OpPort(n, _) => {
                        let port = match *input {
                            Input::OpPort(_, p) => p,
                            _ => 0,
                        };
                        let Some(&buf) = out_buffers[n.0].get(port) else {
                            return Err(Error::graph(format!(
                                "node {} (`{}`) has no output port {port}",
                                n.0, nodes[n.0].name
                            )));
                        };
                        if let Some(prev) = op_consumer[n.0][port] {
                            return Err(Error::graph(format!(
                                "output {port} of node {} consumed by both node {} and node {}",
                                n.0, prev.0, i
                            )));
                        }
                        op_consumer[n.0][port] = Some(me);
                        inputs.push(buf);
                        preds.push(Pred::Op(n));
                    }
                }
            }
            let name = p.op.name().to_string();
            nodes.push(OpNode {
                op: p.op,
                name,
                inputs,
                outputs: out_buffers[i].clone(),
                preds,
                succs: Vec::new(), // filled below
            });
        }
        for (i, consumers) in op_consumer.iter().enumerate() {
            let mut succs = Vec::with_capacity(consumers.len());
            for (port, consumer) in consumers.iter().enumerate() {
                let Some(c) = consumer else {
                    return Err(Error::graph(format!(
                        "output {port} of node {} (`{}`) is not consumed",
                        i, nodes[i].name
                    )));
                };
                succs.push(*c);
            }
            nodes[i].succs = succs;
        }
        // Every source must be consumed; unordered sources must feed an
        // order-restoring operator.
        for (s, consumer) in source_consumer.iter().enumerate() {
            match consumer {
                None => {
                    return Err(Error::graph(format!(
                        "source {} (`{}`) is not consumed by any operator",
                        s, self.sources[s].name
                    )));
                }
                Some(c) if self.sources[s].unordered && !nodes[c.0].op.accepts_disorder() => {
                    return Err(Error::graph(format!(
                            "unordered source `{}` must feed an order-restoring                              operator (Reorder), not `{}`",
                            self.sources[s].name, nodes[c.0].name
                        )));
                }
                _ => {}
            }
        }
        // Acyclicity holds by construction: `operator()` only accepts
        // references to earlier nodes, so arcs always point forward.

        // Does each source's downstream subgraph reach an ETS consumer (an
        // IWP or time-driven operator)? Multi-output operators fan out, so
        // walk depth-first over all successor ports.
        let serves_ets: Vec<bool> = source_consumer
            .iter()
            .map(|consumer| {
                let mut stack: Vec<NodeId> = consumer.iter().copied().collect();
                while let Some(n) = stack.pop() {
                    let op = &nodes[n.0].op;
                    if op.is_iwp() || op.is_time_driven() {
                        return true;
                    }
                    stack.extend(nodes[n.0].succs.iter().copied());
                }
                false
            })
            .collect();

        let sources = self
            .sources
            .into_iter()
            .enumerate()
            .map(|(i, src)| SourceState {
                name: src.name,
                schema: src.schema,
                kind: src.kind,
                buffer: source_buffers[i],
                consumer: source_consumer[i].expect("checked above"),
                last_data_ts: None,
                last_data_arrival: None,
                ets_high_water: None,
                ets_budget_used: false,
                serves_ets: serves_ets[i],
                ets_generated: 0,
                ingested: 0,
                closed: false,
            })
            .collect();

        Ok(QueryGraph {
            ops: nodes,
            buffers,
            sources,
            tracker,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_ops::{Filter, Sink, Union, VecCollector};
    use millstream_types::{DataType, Expr, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("v", DataType::Int)])
    }

    fn filter(name: &str) -> Box<dyn Operator> {
        Box::new(Filter::new(name, schema(), Expr::lit(true)))
    }

    /// Shard routing is a function of the values' contents: these
    /// placements (and, at `usize::MAX` shards, the 31-bit mixed hash
    /// itself) for a row with a `STRING` column are pinned so a change to
    /// the string representation cannot move a tuple to another shard.
    #[test]
    fn string_row_route_hash_is_pinned() {
        use millstream_types::Value;
        let row = [
            Value::Int(7),
            Value::str("host-17.example"),
            Value::Float(2.5),
        ];
        let pinned = [
            (ShardKey::WholeRow, [0, 1, 0, 5, 1_745_244_100]),
            (ShardKey::Column(1), [1, 1, 1, 0, 1_865_515_057]),
        ];
        for (key, want) in pinned {
            for (shards, want) in [2, 3, 4, 7, usize::MAX].into_iter().zip(want) {
                assert_eq!(route_shard(&row, key, shards), want, "{key:?} at {shards}");
            }
        }
        let uninterned = [
            Value::Int(7),
            Value::str_uninterned("host-17.example"),
            Value::Float(2.5),
        ];
        assert_eq!(
            route_shard(&uninterned, ShardKey::WholeRow, usize::MAX),
            1_745_244_100
        );
    }

    #[test]
    fn builds_fig4_union_graph() {
        // The paper's Fig. 4: two sources → σ each → ∪ → sink.
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let s2 = b.source("S2", schema(), TimestampKind::Internal);
        let f1 = b.operator(filter("σ1"), vec![Input::Source(s1)]).unwrap();
        let f2 = b.operator(filter("σ2"), vec![Input::Source(s2)]).unwrap();
        let u = b
            .operator(
                Box::new(Union::new("∪", schema(), 2)),
                vec![Input::Op(f1), Input::Op(f2)],
            )
            .unwrap();
        let k = b
            .operator(
                Box::new(Sink::new("sink", schema(), VecCollector::default())),
                vec![Input::Op(u)],
            )
            .unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_ops(), 4);
        assert_eq!(g.num_sources(), 2);
        assert_eq!(g.ops[u.0].succ(), Some(k));
        assert_eq!(g.ops[f1.0].succ(), Some(u));
        assert_eq!(g.ops[k.0].succ(), None);
        assert_eq!(g.ops[u.0].preds, vec![Pred::Op(f1), Pred::Op(f2)]);
        assert_eq!(g.source(s1).consumer, f1);
        assert!(g.is_iwp(u));
        assert!(!g.is_iwp(f1));
        assert!(g.describe().contains("∪"));
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph millstream {"));
        assert!(dot.contains("shape=diamond"), "IWP ops are diamonds: {dot}");
        assert!(
            dot.contains("shape=doublecircle"),
            "sinks are marked: {dot}"
        );
        assert!(dot.contains("src0 -> op0;"));
        assert!(dot.contains("op2 -> op3;"));
        assert_eq!(g.find_op("∪"), Some(u));
        assert_eq!(g.find_source("S2"), Some(s2));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let err = b
            .operator(
                Box::new(Union::new("∪", schema(), 2)),
                vec![Input::Source(s1)],
            )
            .unwrap_err();
        assert!(matches!(err, Error::Graph(_)));
    }

    #[test]
    fn rejects_double_consumption() {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let s2 = b.source("S2", schema(), TimestampKind::Internal);
        let f = b.operator(filter("σ"), vec![Input::Source(s1)]).unwrap();
        let _u = b
            .operator(
                Box::new(Union::new("∪", schema(), 2)),
                vec![Input::Op(f), Input::Op(f)],
            )
            .unwrap();
        let _ = s2;
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_unconsumed_output() {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let _f = b.operator(filter("σ"), vec![Input::Source(s1)]).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_unconsumed_source() {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let _s2 = b.source("S2", schema(), TimestampKind::Internal);
        let f = b.operator(filter("σ"), vec![Input::Source(s1)]).unwrap();
        let _k = b
            .operator(
                Box::new(Sink::new("sink", schema(), VecCollector::default())),
                vec![Input::Op(f)],
            )
            .unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn unordered_source_requires_reorder_consumer() {
        use millstream_ops::Reorder;
        use millstream_types::TimeDelta;

        // Feeding a filter directly: rejected.
        let mut b = GraphBuilder::new();
        let s1 = b.unordered_source("S1", schema(), TimestampKind::External);
        let f = b.operator(filter("σ"), vec![Input::Source(s1)]).unwrap();
        let _k = b
            .operator(
                Box::new(Sink::new("sink", schema(), VecCollector::default())),
                vec![Input::Op(f)],
            )
            .unwrap();
        let err = b.build().err().expect("must reject");
        assert!(err.to_string().contains("order-restoring"), "{err}");

        // Feeding a Reorder: accepted, and the source buffer accepts
        // regressions.
        let mut b = GraphBuilder::new();
        let s1 = b.unordered_source("S1", schema(), TimestampKind::External);
        let r = b
            .operator(
                Box::new(Reorder::new("↻", schema(), TimeDelta::from_millis(10))),
                vec![Input::Source(s1)],
            )
            .unwrap();
        let _k = b
            .operator(
                Box::new(Sink::new("sink", schema(), VecCollector::default())),
                vec![Input::Op(r)],
            )
            .unwrap();
        let g = b.build().unwrap();
        let buf = g.source(s1).buffer;
        use millstream_types::{Timestamp, Tuple, Value};
        g.buffers[buf.0]
            .borrow_mut()
            .push(Tuple::data(Timestamp::from_micros(10), vec![Value::Int(1)]))
            .unwrap();
        g.buffers[buf.0]
            .borrow_mut()
            .push(Tuple::data(Timestamp::from_micros(5), vec![Value::Int(2)]))
            .expect("unordered source accepts regressions");
    }

    /// Two components: S1→σa→sink_a and (S2,S3)→σb,σc→∪→sink_u.
    fn two_component_graph() -> (QueryGraph, [SourceId; 3]) {
        let mut b = GraphBuilder::new();
        let s1 = b.source("S1", schema(), TimestampKind::Internal);
        let s2 = b.source("S2", schema(), TimestampKind::Internal);
        let s3 = b.source("S3", schema(), TimestampKind::Internal);
        let fa = b.operator(filter("σa"), vec![Input::Source(s1)]).unwrap();
        let _ka = b
            .operator(
                Box::new(Sink::new("sink_a", schema(), VecCollector::default())),
                vec![Input::Op(fa)],
            )
            .unwrap();
        let fb = b.operator(filter("σb"), vec![Input::Source(s2)]).unwrap();
        let fc = b.operator(filter("σc"), vec![Input::Source(s3)]).unwrap();
        let u = b
            .operator(
                Box::new(Union::new("∪", schema(), 2)),
                vec![Input::Op(fb), Input::Op(fc)],
            )
            .unwrap();
        let _ku = b
            .operator(
                Box::new(Sink::new("sink_u", schema(), VecCollector::default())),
                vec![Input::Op(u)],
            )
            .unwrap();
        (b.build().unwrap(), [s1, s2, s3])
    }

    #[test]
    fn component_assignment_is_by_smallest_node_id() {
        let (g, _) = two_component_graph();
        assert_eq!(g.num_components(), 2);
        let (op_comp, source_comp, count) = g.component_assignment();
        assert_eq!(count, 2);
        // σa (node 0) anchors component 0; σb (node 2) anchors component 1.
        assert_eq!(op_comp, vec![0, 0, 1, 1, 1, 1]);
        assert_eq!(source_comp, vec![0, 1, 1]);
    }

    #[test]
    fn partition_produces_self_contained_subgraphs() {
        let (g, [s1, s2, s3]) = two_component_graph();
        let total_ops = g.num_ops();
        let total_sources = g.num_sources();
        let total_buffers = g.buffers.len();
        let part = g.partition_components();
        assert_eq!(part.components.len(), 2);
        assert_eq!(
            part.components
                .iter()
                .map(|c| c.graph.num_ops())
                .sum::<usize>(),
            total_ops
        );
        assert_eq!(
            part.components
                .iter()
                .map(|c| c.graph.num_sources())
                .sum::<usize>(),
            total_sources
        );
        assert_eq!(
            part.components
                .iter()
                .map(|c| c.graph.buffers.len())
                .sum::<usize>(),
            total_buffers
        );
        // Routing: S1 → component 0; S2, S3 → component 1.
        assert_eq!(part.route(s1).0, 0);
        assert_eq!(part.route(s2).0, 1);
        assert_eq!(part.route(s3).0, 1);
        // Local wiring is internally consistent: every source's consumer
        // exists and its buffer is in range.
        for comp in &part.components {
            let g = &comp.graph;
            for s in g.source_ids() {
                let state = g.source(s);
                assert!(state.consumer.0 < g.num_ops());
                assert!(state.buffer.0 < g.buffers.len());
                assert_eq!(g.ops[state.consumer.0].preds[0], Pred::Source(s));
            }
            // Bottom-up: arcs point from lower to higher local ids.
            for (i, n) in g.ops.iter().enumerate() {
                for succ in &n.succs {
                    assert!(succ.0 > i, "partitioned graph must stay bottom-up");
                }
            }
        }
        // The union component kept its shape under remapping.
        let cu = &part.components[1];
        let u = cu.graph.find_op("∪").unwrap();
        assert!(cu.graph.is_iwp(u));
        assert_eq!(cu.graph.ops[u.0].preds.len(), 2);
    }

    #[test]
    fn partition_reregisters_queued_tuples_on_private_trackers() {
        use millstream_types::{Timestamp, Tuple, Value};
        let (g, [s1, _, _]) = two_component_graph();
        let buf = g.source(s1).buffer;
        g.buffers[buf.0]
            .borrow_mut()
            .push(Tuple::data(Timestamp::from_micros(1), vec![Value::Int(1)]))
            .unwrap();
        let part = g.partition_components();
        assert_eq!(part.components[0].graph.total_queued(), 1);
        assert_eq!(part.components[1].graph.total_queued(), 0);
    }

    #[test]
    fn multi_component_dot_renders_clusters() {
        let (g, _) = two_component_graph();
        let dot = g.to_dot();
        assert!(dot.contains("subgraph cluster_0 {"), "{dot}");
        assert!(dot.contains("subgraph cluster_1 {"), "{dot}");
        assert!(dot.contains("label=\"component 1\";"), "{dot}");
        // Single-component graphs render without clusters.
        let mut b = GraphBuilder::new();
        let s = b.source("S", schema(), TimestampKind::Internal);
        let f = b.operator(filter("σ"), vec![Input::Source(s)]).unwrap();
        b.operator(
            Box::new(Sink::new("sink", schema(), VecCollector::default())),
            vec![Input::Op(f)],
        )
        .unwrap();
        assert!(!b.build().unwrap().to_dot().contains("subgraph"));
    }

    #[test]
    fn rejects_forward_reference() {
        let mut b = GraphBuilder::new();
        let _s1 = b.source("S1", schema(), TimestampKind::Internal);
        let err = b
            .operator(filter("σ"), vec![Input::Op(NodeId(5))])
            .unwrap_err();
        assert!(matches!(err, Error::Graph(_)));
    }
}
