//! Aggregate functions and their running partial states, folded per group
//! by the windowed [`SlidingAggregate`](crate::SlidingAggregate).

use millstream_types::{DataType, Error, Expr, Result, Value};

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Number of input rows.
    Count,
    /// Sum of the argument.
    Sum,
    /// Minimum of the argument.
    Min,
    /// Maximum of the argument.
    Max,
    /// Arithmetic mean of the argument.
    Avg,
}

impl AggFunc {
    /// The name used in plans and the query language.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    /// Result type given the argument type.
    pub fn result_type(self, arg: DataType) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg,
        }
    }
}

/// One aggregate column: a function over an expression.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// The argument (ignored for COUNT).
    pub arg: Expr,
    /// Output column name.
    pub name: String,
}

/// Running state of one aggregate within one group. Crate-visible so the
/// pane-based sliding aggregate can reuse and merge partials.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    Sum(Value),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: i64 },
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(Value::Int(0)),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    pub(crate) fn update(&mut self, value: Value) -> Result<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(acc) => {
                if !value.is_null() {
                    *acc = acc.add(&value)?;
                }
            }
            AggState::Min(slot) => {
                if !value.is_null() {
                    *slot = Some(match slot.take() {
                        Some(v) => v.min(value),
                        None => value,
                    });
                }
            }
            AggState::Max(slot) => {
                if !value.is_null() {
                    *slot = Some(match slot.take() {
                        Some(v) => v.max(value),
                        None => value,
                    });
                }
            }
            AggState::Avg { sum, count } => {
                if !value.is_null() {
                    *sum += value.as_float()?;
                    *count += 1;
                }
            }
        }
        Ok(())
    }

    /// Combines another partial of the same function into this one —
    /// the pane-merge operation of the sliding aggregate.
    pub(crate) fn merge(&mut self, other: &AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a = a.add(b)?,
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    *a = Some(match a.take() {
                        Some(av) => av.min(bv.clone()),
                        None => bv.clone(),
                    });
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    *a = Some(match a.take() {
                        Some(av) => av.max(bv.clone()),
                        None => bv.clone(),
                    });
                }
            }
            (AggState::Avg { sum: sa, count: ca }, AggState::Avg { sum: sb, count: cb }) => {
                *sa += sb;
                *ca += cb;
            }
            _ => {
                return Err(Error::eval(
                    "cannot merge aggregate partials of different functions",
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(v) => v,
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
        }
    }
}
