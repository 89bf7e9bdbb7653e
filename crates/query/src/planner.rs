//! Semantic analysis and planning: AST → executable [`QueryGraph`].
//!
//! Planning follows the paper's graph shapes: per-branch selections are
//! placed *before* the merging union (Fig. 4), joins consume their sources
//! directly with the `WHERE` residual applied after (Fig. 1 semantics), and
//! grouped aggregation becomes a windowed [`SlidingAggregate`] (tumbling
//! when the window equals its period).

use std::collections::HashMap;

use millstream_exec::{GraphBuilder, Input, NodeId, QueryGraph, ShardKey, SourceId};
use millstream_ops::{
    AggExpr, AggFunc, Filter, MultiWindowJoin, Operator, Project, Reorder, Sink, SinkCollector,
    SlidingAggregate, Split, Union,
};
use millstream_types::{
    BinOp, DataType, Error, Expr, Result, Schema, TimeDelta, TimestampKind, Value,
};

use crate::ast::{AstAgg, AstExpr, Projection, Query, SelectStmt, Stmt, TableRef};

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct StreamDef {
    /// Row schema.
    pub schema: Schema,
    /// Timestamp discipline.
    pub kind: TimestampKind,
    /// Bounded-disorder slack; when set the planner inserts a `Reorder`
    /// stage right after the source.
    pub slack: Option<TimeDelta>,
}

/// The stream catalog: every `CREATE STREAM` in scope.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    streams: HashMap<String, StreamDef>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a stream definition.
    pub fn define(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        kind: TimestampKind,
    ) -> Result<()> {
        self.define_with_slack(name, schema, kind, None)
    }

    /// Registers a stream that may arrive out of order within `slack`.
    pub fn define_with_slack(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        kind: TimestampKind,
        slack: Option<TimeDelta>,
    ) -> Result<()> {
        let name = name.into();
        if self.streams.contains_key(&name) {
            return Err(Error::plan(format!("stream `{name}` already defined")));
        }
        self.streams.insert(
            name,
            StreamDef {
                schema,
                kind,
                slack,
            },
        );
        Ok(())
    }

    /// Looks a stream up.
    pub fn get(&self, name: &str) -> Result<&StreamDef> {
        self.streams
            .get(name)
            .ok_or_else(|| Error::plan(format!("unknown stream `{name}`")))
    }

    /// Number of defined streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True iff no streams are defined.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Folds the DDL statements of a program into the catalog, returning
    /// the queries.
    pub fn apply(&mut self, stmts: Vec<Stmt>) -> Result<Vec<Query>> {
        let mut queries = Vec::new();
        for s in stmts {
            match s {
                Stmt::CreateStream {
                    name,
                    fields,
                    kind,
                    slack,
                } => {
                    let schema = fields
                        .into_iter()
                        .map(|(n, t)| millstream_types::Field::new(n, t))
                        .collect();
                    self.define_with_slack(name, schema, kind, slack)?;
                }
                Stmt::Query(q) => queries.push(q),
            }
        }
        Ok(queries)
    }
}

/// One planned source: which graph source corresponds to which stream.
#[derive(Debug, Clone)]
pub struct PlannedSource {
    /// Graph source id.
    pub id: SourceId,
    /// Catalog stream name.
    pub stream: String,
    /// Stream schema.
    pub schema: Schema,
    /// Timestamp discipline.
    pub kind: TimestampKind,
}

/// The output of planning one query.
///
/// Not `Debug`: the graph holds trait objects. Use
/// [`QueryGraph::describe`](millstream_exec::QueryGraph::describe) instead.
pub struct PlannedQuery {
    /// The executable graph (sink already attached).
    pub graph: QueryGraph,
    /// Sources in declaration order, for wiring workloads.
    pub sources: Vec<PlannedSource>,
    /// The topmost IWP operator (union or join), for idle monitoring.
    pub monitor: Option<NodeId>,
    /// Schema of the delivered stream.
    pub output_schema: Schema,
}

impl std::fmt::Debug for PlannedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannedQuery")
            .field("sources", &self.sources)
            .field("monitor", &self.monitor)
            .field("output_schema", &self.output_schema)
            .field("ops", &self.graph.num_ops())
            .finish()
    }
}

/// Plans a full program text: DDL statements populate a catalog, and the
/// single query becomes a graph delivering to `collector`.
pub fn plan_program<C>(text: &str, collector: C) -> Result<PlannedQuery>
where
    C: SinkCollector + 'static,
{
    let stmts = crate::parser::parse_program(text)?;
    let mut catalog = Catalog::new();
    let mut queries = catalog.apply(stmts)?;
    match queries.len() {
        1 => plan_query(&catalog, &queries.pop().expect("len checked"), collector),
        0 => Err(Error::plan("program contains no query")),
        n => Err(Error::plan(format!(
            "program contains {n} queries; plan one at a time"
        ))),
    }
}

/// Plans one parsed query against a catalog.
pub fn plan_query<C>(catalog: &Catalog, query: &Query, collector: C) -> Result<PlannedQuery>
where
    C: SinkCollector + 'static,
{
    // Streams referenced by several branches are planned once and fanned
    // out through a Split, sharing the source-side work.
    let mut reference_counts: HashMap<String, usize> = HashMap::new();
    for b in &query.branches {
        *reference_counts.entry(b.from.stream.clone()).or_default() += 1;
        for j in &b.joins {
            *reference_counts.entry(j.table.stream.clone()).or_default() += 1;
        }
    }

    let mut ctx = PlanCtx {
        catalog,
        builder: GraphBuilder::new(),
        sources: Vec::new(),
        reference_counts,
        shared: HashMap::new(),
        op_seq: 0,
    };

    let mut branch_outputs: Vec<PlannedBranch> = Vec::new();
    for branch in &query.branches {
        branch_outputs.push(ctx.plan_branch(branch)?);
    }

    // Merge branches with a union if needed.
    let (top_input, output_schema, monitor) = if branch_outputs.len() == 1 {
        let b = branch_outputs.pop().expect("one branch");
        (b.input, b.schema, b.iwp_node)
    } else {
        let first_schema = branch_outputs[0].schema.clone();
        for (i, b) in branch_outputs.iter().enumerate().skip(1) {
            if !schemas_union_compatible(&first_schema, &b.schema) {
                return Err(Error::plan(format!(
                    "UNION branch {} has schema {}, incompatible with {first_schema}",
                    i + 1,
                    b.schema
                )));
            }
        }
        let all_latent = branch_outputs
            .iter()
            .all(|b| b.kind == TimestampKind::Latent);
        let n = branch_outputs.len();
        let union = if all_latent {
            Union::latent("∪", first_schema.clone(), n)
        } else {
            Union::new("∪", first_schema.clone(), n)
        };
        let inputs: Vec<Input> = branch_outputs.iter().map(|b| b.input).collect();
        let u = ctx.builder.operator(Box::new(union), inputs)?;
        (Input::Op(u), first_schema, Some(u))
    };

    let sink = Sink::new("sink", output_schema.clone(), collector);
    let top = match top_input {
        Input::Op(n) | Input::OpPort(n, _) => n,
        Input::Source(_) => {
            // A bare `SELECT * FROM s` plans no operator; insert an identity
            // projection so the sink has an operator predecessor.
            let identity = Project::new(
                "π_id",
                output_schema.clone(),
                (0..output_schema.len()).map(Expr::col).collect(),
            );
            ctx.builder.operator(Box::new(identity), vec![top_input])?
        }
    };
    ctx.builder.operator(Box::new(sink), vec![Input::Op(top)])?;

    Ok(PlannedQuery {
        graph: ctx.builder.build()?,
        sources: ctx.sources,
        monitor,
        output_schema,
    })
}

/// Derives per-source exchange partition keys for intra-component data
/// parallelism, or `None` when the query cannot be sharded safely.
///
/// A key assignment is safe iff routing on it keeps every unit of
/// operator state whole on one shard:
///
/// * **window join** — both sides route on the equi-join key columns, so
///   matching pairs meet on the same shard. A join without a cross-side
///   equality key (a window cross product) is unshardable: pairs would be
///   lost across shards.
/// * **GROUP BY** — the source routes on any one grouping column that is
///   a plain source column (same key value ⇒ same group shard, so no
///   partial aggregates). Grouping only by computed expressions is
///   unshardable. After a join, a grouping column must coincide with the
///   join key (which already determines the shard).
/// * **stateless branches** (filter/project/reorder/union) — any
///   partition works: [`ShardKey::WholeRow`].
/// * **latent streams** are unshardable: their timestamps are assigned
///   from the executing replica's clock, which is not key-deterministic.
///
/// Constraints merge across branches (a shared stream must agree):
/// `WholeRow` yields to any column constraint; two different column
/// constraints conflict → `None`.
///
/// Keys are returned in planned-source order — the order of
/// [`PlannedQuery::sources`].
pub fn shard_keys(catalog: &Catalog, query: &Query) -> Result<Option<Vec<ShardKey>>> {
    // Stream → index into `order`; constraint `None` = WholeRow so far.
    let mut order: Vec<String> = Vec::new();
    let mut constraints: HashMap<String, Option<usize>> = HashMap::new();
    let mut note = |stream: &str, col: Option<usize>| -> bool {
        if !constraints.contains_key(stream) {
            order.push(stream.to_string());
        }
        let slot = constraints.entry(stream.to_string()).or_insert(None);
        match (*slot, col) {
            (Some(a), Some(b)) if a != b => false, // conflicting keys
            (None, Some(b)) => {
                *slot = Some(b);
                true
            }
            _ => true,
        }
    };

    for b in &query.branches {
        let from_def = catalog.get(&b.from.stream)?;
        if from_def.kind == TimestampKind::Latent {
            return Ok(None);
        }
        // FROM plus every joined stream, with their bindings.
        let mut bindings: Vec<(String, Schema)> =
            vec![(b.from.binding().to_string(), from_def.schema.clone())];
        for join in &b.joins {
            let def = catalog.get(&join.table.stream)?;
            if def.kind == TimestampKind::Latent {
                return Ok(None);
            }
            bindings.push((join.table.binding().to_string(), def.schema.clone()));
        }

        // One cross-input equi-key column per input routes every matching
        // combination to one shard; a join chain without such a class is a
        // (partial) window cross product and unshardable. Key columns are
        // absolute in the concatenated row.
        let join_key: Option<Vec<usize>> = if b.joins.is_empty() {
            None
        } else {
            let mut conjuncts = Vec::new();
            for (i, join) in b.joins.iter().enumerate() {
                let prefix = Scope::nary(&bindings[..i + 2]);
                let Ok(on) = resolve_expr(&join.on, &prefix) else {
                    return Ok(None);
                };
                flatten_and(on, &mut conjuncts);
            }
            let (offsets, types) = concat_layout(&bindings);
            let Some(keys) = extract_equi_keys(&conjuncts, &offsets, &types) else {
                return Ok(None);
            };
            for (i, (&abs, &off)) in keys.iter().zip(&offsets).enumerate() {
                let stream = if i == 0 {
                    &b.from.stream
                } else {
                    &b.joins[i - 1].table.stream
                };
                if !note(stream, Some(abs - off)) {
                    return Ok(None);
                }
            }
            Some(keys)
        };

        let has_aggregates = match &b.projection {
            Projection::Star => false,
            Projection::Items(items) => items.iter().any(|i| i.expr.contains_aggregate()),
        };
        if let Some(group) = &b.group_by {
            let scope = Scope::nary(&bindings);
            let group_cols: Vec<usize> = group
                .keys
                .iter()
                .filter_map(|k| match resolve_expr(k, &scope) {
                    Ok(Expr::Column(c)) => Some(c),
                    _ => None,
                })
                .collect();
            match &join_key {
                // Joined + grouped: the shard is already fixed by the join
                // keys, so a grouping column must coincide with one.
                Some(keys) => {
                    if !group_cols.iter().any(|c| keys.contains(c)) {
                        return Ok(None);
                    }
                }
                None => {
                    let Some(&c) = group_cols.first() else {
                        return Ok(None); // only computed grouping keys
                    };
                    if !note(&b.from.stream, Some(c)) {
                        return Ok(None);
                    }
                }
            }
        } else if has_aggregates {
            return Ok(None); // bare aggregate: one global accumulator
        } else if b.joins.is_empty() && !note(&b.from.stream, None) {
            return Ok(None);
        }
    }

    Ok(Some(
        order
            .iter()
            .map(|s| match constraints[s] {
                Some(c) => ShardKey::Column(c),
                None => ShardKey::WholeRow,
            })
            .collect(),
    ))
}

/// The planned output of one SELECT branch.
struct PlannedBranch {
    input: Input,
    schema: Schema,
    kind: TimestampKind,
    /// The branch's window join, if any (monitored when it is the top op).
    iwp_node: Option<NodeId>,
}

struct PlanCtx<'a> {
    catalog: &'a Catalog,
    builder: GraphBuilder,
    sources: Vec<PlannedSource>,
    /// How many times each stream is referenced across branches.
    reference_counts: HashMap<String, usize>,
    /// Remaining Split ports for multiply-referenced streams.
    shared: HashMap<String, Vec<Input>>,
    op_seq: usize,
}

/// A name scope: bindings to (schema, column offset) in the current row.
struct Scope {
    bindings: Vec<(String, Schema, usize)>,
}

impl Scope {
    fn single(binding: &str, schema: &Schema) -> Scope {
        Scope {
            bindings: vec![(binding.to_string(), schema.clone(), 0)],
        }
    }

    /// A scope over any number of inputs concatenated in order. Passing a
    /// prefix of the join chain gives SQL `ON` visibility: clause `i` sees
    /// `FROM` plus the first `i + 1` joined streams, and because offsets
    /// accumulate left-to-right the resolved column indexes are already
    /// absolute in the full concatenated row.
    fn nary(bindings: &[(String, Schema)]) -> Scope {
        let mut out = Vec::with_capacity(bindings.len());
        let mut offset = 0;
        for (b, s) in bindings {
            out.push((b.clone(), s.clone(), offset));
            offset += s.len();
        }
        Scope { bindings: out }
    }

    fn resolve_column(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        match qualifier {
            Some(q) => {
                let (_, schema, offset) = self
                    .bindings
                    .iter()
                    .find(|(b, _, _)| b == q)
                    .ok_or_else(|| Error::plan(format!("unknown table alias `{q}`")))?;
                Ok(offset + schema.index_of(name)?)
            }
            None => {
                let mut hit = None;
                for (b, schema, offset) in &self.bindings {
                    if let Ok(i) = schema.index_of(name) {
                        if hit.is_some() {
                            return Err(Error::plan(format!(
                                "column `{name}` is ambiguous; qualify it (e.g. `{b}.{name}`)"
                            )));
                        }
                        hit = Some(offset + i);
                    }
                }
                hit.ok_or_else(|| Error::UnknownColumn(name.to_string()))
            }
        }
    }
}

impl PlanCtx<'_> {
    fn next_name(&mut self, base: &str) -> String {
        self.op_seq += 1;
        format!("{base}#{}", self.op_seq)
    }

    /// Acquires one use of a stream: plans its source (with the
    /// order-restoring `Reorder` for slack-declared streams) on first use
    /// and, for streams referenced by several branches, a `Split` whose
    /// ports are handed out one per reference.
    fn add_source(&mut self, table: &TableRef) -> Result<(Input, SourceId, Schema, TimestampKind)> {
        let def = self.catalog.get(&table.stream)?.clone();
        let (schema, kind) = (def.schema, def.kind);

        // A port reserved by an earlier reference?
        if let Some(ports) = self.shared.get_mut(&table.stream) {
            let Some(input) = ports.pop() else {
                return Err(Error::plan(format!(
                    "stream `{}` referenced more often than planned",
                    table.stream
                )));
            };
            let id = self
                .sources
                .iter()
                .find(|s| s.stream == table.stream)
                .map(|s| s.id)
                .expect("shared stream was planned");
            return Ok((input, id, schema, kind));
        }

        let (id, mut input) = match def.slack {
            None => {
                let id = self
                    .builder
                    .source(table.stream.clone(), schema.clone(), kind);
                (id, Input::Source(id))
            }
            Some(slack) => {
                let id = self
                    .builder
                    .unordered_source(table.stream.clone(), schema.clone(), kind);
                let name = self.next_name("↻");
                let r = self.builder.operator(
                    Box::new(Reorder::new(name, schema.clone(), slack)),
                    vec![Input::Source(id)],
                )?;
                (id, Input::Op(r))
            }
        };
        self.sources.push(PlannedSource {
            id,
            stream: table.stream.clone(),
            schema: schema.clone(),
            kind,
        });

        let uses = self
            .reference_counts
            .get(&table.stream)
            .copied()
            .unwrap_or(1);
        if uses > 1 {
            if kind == TimestampKind::Latent {
                return Err(Error::plan(format!(
                    "latent stream `{}` cannot be shared across branches",
                    table.stream
                )));
            }
            let name = self.next_name("⋔");
            let split = self.builder.operator(
                Box::new(Split::new(name, schema.clone(), uses)),
                vec![input],
            )?;
            let mut ports: Vec<Input> = (0..uses).map(|p| Input::OpPort(split, p)).collect();
            input = ports.pop().expect("uses >= 2");
            self.shared.insert(table.stream.clone(), ports);
        }
        Ok((input, id, schema, kind))
    }

    /// Plans one SELECT branch.
    fn plan_branch(&mut self, b: &SelectStmt) -> Result<PlannedBranch> {
        let (src_input, _src, src_schema, kind) = self.add_source(&b.from)?;
        let mut iwp_node = None;

        let (mut input, mut schema, scope) = match b.joins.len() {
            0 => {
                let scope = Scope::single(b.from.binding(), &src_schema);
                (src_input, src_schema.clone(), scope)
            }
            _ => {
                // One or more JOIN clauses: plan one MultiWindowJoin over
                // FROM plus every joined stream (a single JOIN is its
                // arity-2 case). Input 0 (FROM) has no WINDOW clause of its
                // own and shares the first join's.
                if kind == TimestampKind::Latent {
                    return Err(Error::plan(
                        "window joins require real timestamps; latent streams cannot be joined",
                    ));
                }
                let mut inputs = vec![src_input];
                let mut bindings: Vec<(String, Schema)> =
                    vec![(b.from.binding().to_string(), src_schema.clone())];
                let mut windows = vec![b.joins[0].window];
                for join in &b.joins {
                    let (in_n, _src_n, schema_n, kind_n) = self.add_source(&join.table)?;
                    if kind_n == TimestampKind::Latent {
                        return Err(Error::plan(
                            "window joins require real timestamps; latent streams cannot be joined",
                        ));
                    }
                    inputs.push(in_n);
                    bindings.push((join.table.binding().to_string(), schema_n));
                    windows.push(join.window);
                }
                // Each ON clause resolves against the prefix of streams
                // visible at that clause; the indexes come out absolute in
                // the concatenated row (see `Scope::nary`).
                let mut conjuncts = Vec::new();
                for (i, join) in b.joins.iter().enumerate() {
                    let prefix = Scope::nary(&bindings[..i + 2]);
                    let on = resolve_expr(&join.on, &prefix)?;
                    flatten_and(on, &mut conjuncts);
                }
                let (offsets, types) = concat_layout(&bindings);
                let keys_abs = extract_equi_keys(&conjuncts, &offsets, &types);
                // Conjuncts the hash keys enforce are dropped from the
                // residual condition; the rest are ANDed back together.
                let condition = conjuncts
                    .into_iter()
                    .filter(|c| !is_enforced_key_edge(c, keys_abs.as_deref()))
                    .reduce(Expr::and);
                let schemas: Vec<Schema> = bindings.iter().map(|(_, s)| s.clone()).collect();
                let joined = join_schemas(&bindings);
                let name = self.next_name("⋈");
                let mut op = MultiWindowJoin::new(name, &schemas, windows, condition);
                if let Some(keys) = &keys_abs {
                    // Absolute → input-relative key columns.
                    op = op.with_keys(keys.iter().zip(&offsets).map(|(k, o)| k - o).collect());
                }
                let op = op.with_tier(millstream_ops::TierConfig::from_env());
                let j = self.builder.operator(Box::new(op), inputs)?;
                iwp_node = Some(j);
                let scope = Scope::nary(&bindings);
                (Input::Op(j), joined, scope)
            }
        };

        if let Some(filter) = &b.filter {
            let predicate = resolve_expr(filter, &scope)?;
            if predicate.infer_type(&schema)? != DataType::Bool {
                return Err(Error::plan("WHERE predicate must be boolean"));
            }
            let name = self.next_name("σ");
            let f = self.builder.operator(
                Box::new(Filter::new(name, schema.clone(), predicate)),
                vec![input],
            )?;
            input = Input::Op(f);
        }

        // Projection / aggregation.
        let has_aggregates = match &b.projection {
            Projection::Star => false,
            Projection::Items(items) => items.iter().any(|i| i.expr.contains_aggregate()),
        };
        if b.group_by.is_some() || has_aggregates {
            let (node, out_schema) = self.plan_aggregate(b, input, &schema, &scope)?;
            input = Input::Op(node);
            schema = out_schema;
            if let Some(having) = &b.having {
                // HAVING resolves against the aggregate's *output* columns
                // (window_start, group keys, aggregate aliases).
                let having_scope = Scope::single("", &schema);
                let predicate = resolve_expr(having, &having_scope)?;
                if predicate.infer_type(&schema)? != DataType::Bool {
                    return Err(Error::plan("HAVING predicate must be boolean"));
                }
                let name = self.next_name("σH");
                let f = self.builder.operator(
                    Box::new(Filter::new(name, schema.clone(), predicate)),
                    vec![input],
                )?;
                input = Input::Op(f);
            }
        } else if b.having.is_some() {
            return Err(Error::plan("HAVING requires GROUP BY"));
        } else if let Projection::Items(items) = &b.projection {
            let mut exprs = Vec::with_capacity(items.len());
            let mut fields = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let e = resolve_expr(&item.expr, &scope)?;
                let ty = e.infer_type(&schema)?;
                let name = item
                    .alias
                    .clone()
                    .or_else(|| column_name(&item.expr))
                    .unwrap_or_else(|| format!("col{i}"));
                fields.push(millstream_types::Field::new(name, ty));
                exprs.push(e);
            }
            let out_schema: Schema = fields.into_iter().collect();
            let name = self.next_name("π");
            let p = self.builder.operator(
                Box::new(Project::new(name, out_schema.clone(), exprs)),
                vec![input],
            )?;
            input = Input::Op(p);
            schema = out_schema;
        }

        Ok(PlannedBranch {
            input,
            schema,
            kind,
            iwp_node,
        })
    }

    fn plan_aggregate(
        &mut self,
        b: &SelectStmt,
        input: Input,
        schema: &Schema,
        scope: &Scope,
    ) -> Result<(NodeId, Schema)> {
        let group = b.group_by.as_ref().ok_or_else(|| {
            Error::plan("aggregate functions require GROUP BY ... EVERY <window>")
        })?;
        let Projection::Items(items) = &b.projection else {
            return Err(Error::plan("SELECT * cannot be combined with GROUP BY"));
        };

        // Resolve group keys.
        let mut keys: Vec<(String, Expr)> = Vec::with_capacity(group.keys.len());
        for (i, k) in group.keys.iter().enumerate() {
            let e = resolve_expr(k, scope)?;
            let name = column_name(k).unwrap_or_else(|| format!("k{i}"));
            keys.push((name, e));
        }

        // Every item must be either a group key or an aggregate call.
        let mut aggs: Vec<AggExpr> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match &item.expr {
                AstExpr::Agg { func, arg } => {
                    let resolved = match arg {
                        Some(a) => resolve_expr(a, scope)?,
                        None => Expr::lit(Value::Int(1)),
                    };
                    let name = item.alias.clone().unwrap_or_else(|| {
                        format!("{}{}", agg_func(*func).name().to_lowercase(), i)
                    });
                    aggs.push(AggExpr {
                        func: agg_func(*func),
                        arg: resolved,
                        name,
                    });
                }
                other => {
                    let e = resolve_expr(other, scope)?;
                    if !keys.iter().any(|(_, k)| *k == e) {
                        return Err(Error::plan(format!(
                            "non-aggregate SELECT item {} must appear in GROUP BY",
                            i + 1
                        )));
                    }
                }
            }
        }
        let name = self.next_name("γ");
        // `GROUP BY … WINDOW w EVERY s` is a pane-based sliding window;
        // without the WINDOW clause the window tumbles with the period —
        // the one-pane case of the same operator.
        let window = group.window.unwrap_or(group.every);
        let agg = SlidingAggregate::new(name, schema, window, group.every, keys, aggs)?;
        let out_schema = agg.output_schema().clone();
        let node = self.builder.operator(Box::new(agg), vec![input])?;
        Ok((node, out_schema))
    }
}

fn agg_func(a: AstAgg) -> AggFunc {
    match a {
        AstAgg::Count => AggFunc::Count,
        AstAgg::Sum => AggFunc::Sum,
        AstAgg::Min => AggFunc::Min,
        AstAgg::Max => AggFunc::Max,
        AstAgg::Avg => AggFunc::Avg,
    }
}

/// A display name for simple column expressions.
fn column_name(e: &AstExpr) -> Option<String> {
    match e {
        AstExpr::Column { name, .. } => Some(name.clone()),
        _ => None,
    }
}

/// Resolves a surface expression against a scope into a physical [`Expr`].
fn resolve_expr(e: &AstExpr, scope: &Scope) -> Result<Expr> {
    Ok(match e {
        AstExpr::Column { qualifier, name } => {
            Expr::col(scope.resolve_column(qualifier.as_deref(), name)?)
        }
        AstExpr::Literal(v) => Expr::Literal(v.clone()),
        AstExpr::Not(inner) => Expr::Not(Box::new(resolve_expr(inner, scope)?)),
        AstExpr::Neg(inner) => Expr::Neg(Box::new(resolve_expr(inner, scope)?)),
        AstExpr::IsNull(inner) => Expr::IsNull(Box::new(resolve_expr(inner, scope)?)),
        AstExpr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(resolve_expr(left, scope)?),
            right: Box::new(resolve_expr(right, scope)?),
        },
        AstExpr::Agg { .. } => {
            return Err(Error::plan(
                "aggregate calls are only allowed in the SELECT list",
            ));
        }
    })
}

/// Column offsets and per-column data types of the concatenated n-ary
/// join row.
fn concat_layout(bindings: &[(String, Schema)]) -> (Vec<usize>, Vec<DataType>) {
    let mut offsets = Vec::with_capacity(bindings.len());
    let mut types = Vec::new();
    for (_, s) in bindings {
        offsets.push(types.len());
        types.extend(s.fields().iter().map(|f| f.data_type));
    }
    (offsets, types)
}

/// Concatenates the inputs' schemas in order, prefixing any column name
/// that also occurs in another input with its binding (the n-ary
/// generalization of [`Schema::join`]).
fn join_schemas(bindings: &[(String, Schema)]) -> Schema {
    let mut fields = Vec::new();
    for (i, (binding, schema)) in bindings.iter().enumerate() {
        for f in schema.fields() {
            let collides = bindings
                .iter()
                .enumerate()
                .any(|(j, (_, other))| j != i && other.index_of(&f.name).is_ok());
            let name = if collides {
                format!("{binding}.{}", f.name)
            } else {
                f.name.clone()
            };
            fields.push(millstream_types::Field::new(name, f.data_type));
        }
    }
    fields.into_iter().collect()
}

/// Finds one equality class of columns — linked by cross-input `=`
/// conjuncts — that covers every join input, and returns one key column
/// per input (the lowest-indexed member in each), absolute in the
/// concatenated row.
///
/// The n-ary join enforces key equality by a hash lookup of the key, so a class
/// is only usable when every chosen column has the same data type: within
/// one type `Value` equality is transitive, making hash-key equality
/// exactly equivalent to the conjunct chain it replaces. Mixed-type
/// chains (e.g. INT = FLOAT) stay residual predicates instead.
fn extract_equi_keys(
    conjuncts: &[Expr],
    offsets: &[usize],
    types: &[DataType],
) -> Option<Vec<usize>> {
    let input_of = |c: usize| offsets.partition_point(|&o| o <= c) - 1;
    let mut parent: Vec<usize> = (0..types.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        {
            if let (Expr::Column(i), Expr::Column(j)) = (left.as_ref(), right.as_ref()) {
                if input_of(*i) != input_of(*j) {
                    let (ri, rj) = (find(&mut parent, *i), find(&mut parent, *j));
                    parent[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    // Per class root, the lowest member column of each input.
    let mut classes: HashMap<usize, Vec<Option<usize>>> = HashMap::new();
    for c in 0..types.len() {
        let root = find(&mut parent, c);
        let members = classes
            .entry(root)
            .or_insert_with(|| vec![None; offsets.len()]);
        let slot = &mut members[input_of(c)];
        if slot.is_none() {
            *slot = Some(c);
        }
    }
    // Among classes covering every input with one shared type, pick the
    // one rooted at the lowest column (classes are disjoint, so this is
    // deterministic despite the map's iteration order).
    let mut best: Option<Vec<usize>> = None;
    for members in classes.into_values() {
        let Some(keys) = members.into_iter().collect::<Option<Vec<usize>>>() else {
            continue;
        };
        if keys.iter().any(|&k| types[k] != types[keys[0]]) {
            continue;
        }
        if best.as_ref().is_none_or(|b| keys[0] < b[0]) {
            best = Some(keys);
        }
    }
    best
}

/// True iff `c` is an equality between two *chosen key columns* of
/// different inputs — exactly the conjuncts the keyed hash probe already
/// enforces (equalities through non-key members of the class must stay in
/// the residual).
fn is_enforced_key_edge(c: &Expr, keys: Option<&[usize]>) -> bool {
    let Some(keys) = keys else { return false };
    if let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = c
    {
        if let (Expr::Column(i), Expr::Column(j)) = (left.as_ref(), right.as_ref()) {
            return i != j && keys.contains(i) && keys.contains(j);
        }
    }
    false
}

fn flatten_and(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            flatten_and(*left, out);
            flatten_and(*right, out);
        }
        other => out.push(other),
    }
}

/// Union compatibility: equal column types positionally (names may differ).
fn schemas_union_compatible(a: &Schema, b: &Schema) -> bool {
    a.len() == b.len()
        && a.fields()
            .iter()
            .zip(b.fields())
            .all(|(x, y)| x.data_type == y.data_type)
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_ops::VecCollector;

    const DDL: &str = "
        CREATE STREAM packets (src INT, len INT);
        CREATE STREAM flows (src INT, len INT);
        CREATE STREAM alerts (src INT, severity INT);
    ";

    fn plan(query: &str) -> Result<PlannedQuery> {
        plan_program(&format!("{DDL}{query};"), VecCollector::default())
    }

    #[test]
    fn plans_fig4_style_union() {
        let p = plan(
            "SELECT src, len FROM packets WHERE len > 100
             UNION
             SELECT src, len FROM flows WHERE len > 100",
        )
        .unwrap();
        assert_eq!(p.sources.len(), 2);
        assert!(p.monitor.is_some(), "the union is monitored");
        assert_eq!(p.output_schema.len(), 2);
        // σ and π per branch, plus ∪ and sink = 2·2 + 1 + 1 ops.
        assert_eq!(p.graph.num_ops(), 6);
        assert!(p.graph.is_iwp(p.monitor.unwrap()));
    }

    #[test]
    fn plans_select_star_passthrough() {
        let p = plan("SELECT * FROM packets").unwrap();
        assert_eq!(p.output_schema.len(), 2);
        assert!(p.monitor.is_none());
        // identity π + sink.
        assert_eq!(p.graph.num_ops(), 2);
    }

    #[test]
    fn plans_window_join_with_key_and_residual() {
        let p = plan(
            "SELECT a.src FROM packets AS a JOIN alerts AS b \
             ON a.src = b.src AND b.severity > 3 WINDOW 5 SECONDS",
        )
        .unwrap();
        assert_eq!(p.sources.len(), 2);
        assert!(p.monitor.is_some());
        // join, π, sink.
        assert_eq!(p.graph.num_ops(), 3);
        assert_eq!(p.output_schema.len(), 1);
    }

    #[test]
    fn plans_nary_join_with_equi_class_keys() {
        let p = plan(
            "SELECT a.src FROM packets AS a \
             JOIN flows AS b ON a.src = b.src WINDOW 5 SECONDS \
             JOIN alerts AS c ON b.src = c.src AND c.severity > 3 WINDOW 5 SECONDS",
        )
        .unwrap();
        assert_eq!(p.sources.len(), 3);
        assert!(p.monitor.is_some());
        // one n-ary join, π, sink.
        assert_eq!(p.graph.num_ops(), 3);
        assert!(p.graph.is_iwp(p.monitor.unwrap()));
        assert_eq!(p.output_schema.len(), 1);
    }

    #[test]
    fn single_join_star_names_columns_by_binding() {
        // One JOIN is the arity-2 case of the n-ary operator, whose own
        // positional `in0`/`in1` qualifiers must not reach the output.
        let p = plan(
            "SELECT * FROM packets AS l JOIN alerts AS r \
             ON l.src = r.src WINDOW 5 SECONDS",
        )
        .unwrap();
        let names: Vec<&str> = p
            .output_schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, ["l.src", "len", "r.src", "severity"]);
    }

    #[test]
    fn nary_join_schema_qualifies_collisions() {
        let p = plan(
            "SELECT * FROM packets AS a \
             JOIN flows AS b ON a.src = b.src WINDOW 5 SECONDS \
             JOIN alerts AS c ON b.src = c.src WINDOW 5 SECONDS",
        )
        .unwrap();
        // src collides across all three inputs; len across two; severity
        // is unique and keeps its bare name.
        assert_eq!(p.output_schema.len(), 6);
        assert!(p.output_schema.index_of("a.src").is_ok());
        assert!(p.output_schema.index_of("c.src").is_ok());
        assert!(p.output_schema.index_of("severity").is_ok());
    }

    #[test]
    fn plans_grouped_aggregate() {
        let p = plan(
            "SELECT src, COUNT(*) AS n, AVG(len) AS mean FROM packets \
             GROUP BY src EVERY 10 SECONDS",
        )
        .unwrap();
        // window_start + src + n + mean.
        assert_eq!(p.output_schema.len(), 4);
        assert_eq!(p.output_schema.field(2).unwrap().name, "n");
        assert_eq!(p.output_schema.field(3).unwrap().data_type, DataType::Float);
    }

    #[test]
    fn plans_having_as_post_aggregate_filter() {
        let p = plan(
            "SELECT src, COUNT(*) AS n FROM packets \
             GROUP BY src EVERY 10 SECONDS HAVING n > 5",
        )
        .unwrap();
        // σ + γ + σH + sink.
        assert_eq!(p.graph.num_ops(), 3);
        assert!(p.graph.describe().contains("σH"));
        // Unknown HAVING column is a plan error.
        assert!(plan(
            "SELECT src, COUNT(*) AS n FROM packets \
             GROUP BY src EVERY 10 SECONDS HAVING wat > 5",
        )
        .is_err());
    }

    #[test]
    fn rejects_unknown_stream_and_column() {
        assert!(matches!(plan("SELECT * FROM nope"), Err(Error::Plan(_))));
        assert!(plan("SELECT wat FROM packets").is_err());
    }

    #[test]
    fn rejects_ambiguous_column() {
        let err =
            plan("SELECT src FROM packets AS a JOIN flows AS b ON a.src = b.src WINDOW 1 SECONDS")
                .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn shared_stream_is_split_not_rejected() {
        // The same stream in two branches plans one source + a Split.
        let p = plan(
            "SELECT src FROM packets WHERE len > 100 \
             UNION SELECT len FROM packets WHERE src = 1",
        )
        .unwrap();
        assert_eq!(p.sources.len(), 1, "one physical source");
        assert!(p.graph.describe().contains("⋔"), "{}", p.graph.describe());
        // ⋔ + 2×(σ+π) + ∪ + sink.
        assert_eq!(p.graph.num_ops(), 7);
    }

    #[test]
    fn rejects_incompatible_union() {
        let err = plan("SELECT src FROM packets UNION SELECT * FROM flows").unwrap_err();
        assert!(err.to_string().contains("incompatible"), "{err}");
    }

    #[test]
    fn rejects_aggregate_in_where() {
        let err = plan("SELECT src FROM packets WHERE COUNT(*) > 3").unwrap_err();
        assert!(err.to_string().contains("SELECT list"), "{err}");
    }

    #[test]
    fn rejects_non_grouped_item() {
        let err = plan("SELECT len, COUNT(*) AS n FROM packets GROUP BY src EVERY 1 SECONDS")
            .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn rejects_bare_aggregate_without_group() {
        let err = plan("SELECT COUNT(*) AS n FROM packets").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn sliding_group_by_plans_pane_aggregate() {
        let p = plan(
            "SELECT src, COUNT(*) AS n FROM packets \
             GROUP BY src WINDOW 30 SECONDS EVERY 10 SECONDS",
        )
        .unwrap();
        assert_eq!(p.output_schema.field(0).unwrap().name, "window_start");
        assert_eq!(p.output_schema.len(), 3);
        // Window not a multiple of the slide is rejected at plan time.
        let err = plan(
            "SELECT src, COUNT(*) AS n FROM packets \
             GROUP BY src WINDOW 25 SECONDS EVERY 10 SECONDS",
        )
        .unwrap_err();
        assert!(err.to_string().contains("multiple"), "{err}");
    }

    #[test]
    fn slack_stream_gets_a_reorder_stage() {
        let p = plan_program(
            "CREATE STREAM feed (v INT) TIMESTAMP EXTERNAL SLACK 100 MILLISECONDS;
             SELECT v FROM feed WHERE v > 0;",
            VecCollector::default(),
        )
        .unwrap();
        // reorder + σ + π + sink.
        assert_eq!(p.graph.num_ops(), 4);
        assert!(p.graph.describe().contains("↻"));
    }

    #[test]
    fn catalog_rejects_duplicates() {
        let mut c = Catalog::new();
        c.define("s", Schema::empty(), TimestampKind::Internal)
            .unwrap();
        assert!(c
            .define("s", Schema::empty(), TimestampKind::Internal)
            .is_err());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    fn keys_for(query: &str) -> Result<Option<Vec<ShardKey>>> {
        let stmts = crate::parser::parse_program(&format!("{DDL}{query};"))?;
        let mut catalog = Catalog::new();
        let queries = catalog.apply(stmts)?;
        shard_keys(&catalog, &queries[0])
    }

    #[test]
    fn shard_keys_stateless_is_whole_row() {
        assert_eq!(
            keys_for("SELECT src FROM packets WHERE len > 100").unwrap(),
            Some(vec![ShardKey::WholeRow])
        );
        assert_eq!(
            keys_for("SELECT src FROM packets UNION SELECT src FROM flows").unwrap(),
            Some(vec![ShardKey::WholeRow, ShardKey::WholeRow])
        );
    }

    #[test]
    fn shard_keys_group_by_routes_on_group_column() {
        assert_eq!(
            keys_for(
                "SELECT src, COUNT(*) AS n FROM packets \
                 GROUP BY src EVERY 10 SECONDS"
            )
            .unwrap(),
            Some(vec![ShardKey::Column(0)])
        );
    }

    #[test]
    fn shard_keys_join_routes_on_equi_key() {
        assert_eq!(
            keys_for(
                "SELECT a.src FROM packets AS a JOIN alerts AS b \
                 ON a.src = b.src WINDOW 5 SECONDS"
            )
            .unwrap(),
            Some(vec![ShardKey::Column(0), ShardKey::Column(0)])
        );
        // Cross product: no equi key, unshardable.
        assert_eq!(
            keys_for(
                "SELECT a.src FROM packets AS a JOIN alerts AS b \
                 ON b.severity > 3 WINDOW 5 SECONDS"
            )
            .unwrap(),
            None
        );
    }

    #[test]
    fn shard_keys_nary_join_routes_on_equi_class() {
        assert_eq!(
            keys_for(
                "SELECT a.src FROM packets AS a \
                 JOIN flows AS b ON a.src = b.src WINDOW 5 SECONDS \
                 JOIN alerts AS c ON b.src = c.src WINDOW 5 SECONDS"
            )
            .unwrap(),
            Some(vec![
                ShardKey::Column(0),
                ShardKey::Column(0),
                ShardKey::Column(0)
            ])
        );
        // No equality class spans all three inputs → unshardable.
        assert_eq!(
            keys_for(
                "SELECT a.src FROM packets AS a \
                 JOIN flows AS b ON a.src = b.src WINDOW 5 SECONDS \
                 JOIN alerts AS c ON c.severity > 0 WINDOW 5 SECONDS"
            )
            .unwrap(),
            None
        );
    }

    #[test]
    fn shard_keys_conflicts_and_bare_aggregates_are_unshardable() {
        // Same stream needing two different keys across branches.
        assert_eq!(
            keys_for(
                "SELECT src, COUNT(*) AS n FROM packets GROUP BY src EVERY 1 SECONDS \
                 UNION \
                 SELECT len, COUNT(*) AS n FROM packets GROUP BY len EVERY 1 SECONDS"
            )
            .unwrap(),
            None
        );
        // WholeRow yields to a column constraint on a shared stream.
        assert_eq!(
            keys_for(
                "SELECT src, len FROM packets WHERE len > 0 \
                 UNION \
                 SELECT src, SUM(len) AS len FROM packets GROUP BY src EVERY 1 SECONDS"
            )
            .unwrap(),
            Some(vec![ShardKey::Column(0)])
        );
    }
}
