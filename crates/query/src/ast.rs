//! Abstract syntax of the millstream continuous-query language.

use millstream_types::{BinOp, DataType, TimeDelta, TimestampKind, Value};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `CREATE STREAM name (col TYPE, ...) TIMESTAMP INTERNAL [SLACK d];`
    CreateStream {
        /// Stream name.
        name: String,
        /// Column definitions.
        fields: Vec<(String, DataType)>,
        /// Timestamp discipline (defaults to internal).
        kind: TimestampKind,
        /// Bounded-disorder slack: when set, the stream may arrive out of
        /// order within this span and the planner inserts a `Reorder`
        /// stage after the source.
        slack: Option<TimeDelta>,
    },
    /// A (possibly unioned) continuous query.
    Query(Query),
}

/// A continuous query: one or more `SELECT` branches merged by `UNION`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The union branches, in source order.
    pub branches: Vec<SelectStmt>,
}

/// One `SELECT ... FROM ...` branch.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection list.
    pub projection: Projection,
    /// The primary stream.
    pub from: TableRef,
    /// Window joins with further streams, in clause order. Any number of
    /// clauses plans one `MultiWindowJoin` over `FROM` plus every joined
    /// stream.
    pub joins: Vec<JoinClause>,
    /// Optional `WHERE` predicate.
    pub filter: Option<AstExpr>,
    /// Optional grouped windowed aggregation.
    pub group_by: Option<GroupByClause>,
    /// Optional `HAVING` predicate, evaluated over the aggregate's output
    /// rows (window_start, group keys, aggregate columns).
    pub having: Option<AstExpr>,
}

/// The projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// Explicit items.
    Items(Vec<SelectItem>),
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression (may contain aggregate calls).
    pub expr: AstExpr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// A stream reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Stream name (must exist in the catalog).
    pub stream: String,
    /// Optional alias for qualification.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this reference is known by in the query (alias or stream).
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.stream)
    }
}

/// `JOIN s AS b ON <expr> WINDOW 5 SECONDS`
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined stream.
    pub table: TableRef,
    /// The join condition.
    pub on: AstExpr,
    /// The symmetric window length.
    pub window: TimeDelta,
}

/// `GROUP BY k1, k2 [WINDOW 30 SECONDS] EVERY 10 SECONDS`
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByClause {
    /// Grouping expressions.
    pub keys: Vec<AstExpr>,
    /// Sliding-window length; when set (and larger than `every`) the
    /// aggregate uses overlapping pane-based windows. `None` = tumbling.
    pub window: Option<TimeDelta>,
    /// Emission period (the slide; for tumbling windows also the length).
    pub every: TimeDelta,
}

/// Aggregate functions available in the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AstAgg {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// A surface-syntax expression (column names unresolved).
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// A possibly qualified column reference (`a.src` or `len`).
    Column {
        /// Optional table qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A literal.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<AstExpr>,
        /// Right operand.
        right: Box<AstExpr>,
    },
    /// `NOT e`
    Not(Box<AstExpr>),
    /// `-e`
    Neg(Box<AstExpr>),
    /// `e IS NULL` / `e IS NOT NULL` (the latter wrapped in Not).
    IsNull(Box<AstExpr>),
    /// Aggregate call, e.g. `COUNT(*)` or `SUM(len)`. `None` argument means
    /// `*` (COUNT only).
    Agg {
        /// The function.
        func: AstAgg,
        /// The argument, or `None` for `*`.
        arg: Option<Box<AstExpr>>,
    },
}

impl AstExpr {
    /// Convenience constructor for a bare column.
    pub fn column(name: impl Into<String>) -> AstExpr {
        AstExpr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// True iff the expression contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            AstExpr::Agg { .. } => true,
            AstExpr::Column { .. } | AstExpr::Literal(_) => false,
            AstExpr::Not(e) | AstExpr::Neg(e) | AstExpr::IsNull(e) => e.contains_aggregate(),
            AstExpr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_prefers_alias() {
        let t = TableRef {
            stream: "packets".into(),
            alias: Some("p".into()),
        };
        assert_eq!(t.binding(), "p");
        let t = TableRef {
            stream: "packets".into(),
            alias: None,
        };
        assert_eq!(t.binding(), "packets");
    }

    #[test]
    fn aggregate_detection() {
        let plain = AstExpr::column("x");
        assert!(!plain.contains_aggregate());
        let agg = AstExpr::Agg {
            func: AstAgg::Count,
            arg: None,
        };
        assert!(agg.contains_aggregate());
        let nested = AstExpr::Binary {
            op: BinOp::Add,
            left: Box::new(AstExpr::column("x")),
            right: Box::new(AstExpr::Agg {
                func: AstAgg::Sum,
                arg: Some(Box::new(AstExpr::column("y"))),
            }),
        };
        assert!(nested.contains_aggregate());
    }
}
