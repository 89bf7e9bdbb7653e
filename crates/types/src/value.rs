//! Runtime values and their static types.
//!
//! millstream tuples are rows of dynamically tagged [`Value`]s described by a
//! [`DataType`]. The set of types is deliberately small — integers, floats,
//! booleans and interned strings — which is all the paper's workloads (and a
//! realistic network-monitoring DSMS) need.

use core::cmp::Ordering;
use core::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// Boolean.
    Bool,
    /// UTF-8 string (reference counted; cloning a tuple does not copy the
    /// bytes).
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Bool => "BOOL",
            DataType::Str => "STRING",
        };
        f.write_str(s)
    }
}

/// A dynamically tagged runtime value.
///
/// `Value` implements a *total* ordering (needed so operators can key and
/// sort on any column): values of the same type compare naturally, floats
/// compare with NaN greatest, and values of different types compare by a
/// fixed type rank. `Null` sorts before everything.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Shared UTF-8 string: a thin handle (one pointer) to reference
    /// counted bytes, so a string costs a `Value` no more than an `i64`
    /// does. Equality, order and hash are on the contents.
    Str(Arc<Box<str>>),
}

// Layout pin: `Str`'s thin handle keeps every value at a tag plus one
// word, the width of an `i64` payload.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Convenience constructor for string values. The payload is interned
    /// (see [`crate::intern`]): constructing the same string repeatedly
    /// returns clones of one shared allocation.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(crate::intern::intern(s.as_ref()))
    }

    /// Constructs a string value without interning — for payloads known
    /// to be unique (free-form text) where table lookups are waste.
    pub fn str_uninterned(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::new(Box::from(s.as_ref())))
    }

    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True iff the value conforms to `ty` (`Null` conforms to every type).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        self.data_type().is_none_or(|t| t == ty)
    }

    /// Extracts an `i64`, coercing from `Float`/`Bool` where lossless-ish.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => Err(Error::type_mismatch("INT", other.type_name())),
        }
    }

    /// Extracts an `f64`, coercing from `Int`.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(Error::type_mismatch("FLOAT", other.type_name())),
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::type_mismatch("BOOL", other.type_name())),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::type_mismatch("STRING", other.type_name())),
        }
    }

    /// Human-readable name of the dynamic type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Float(_) => "FLOAT",
            Value::Bool(_) => "BOOL",
            Value::Str(_) => "STRING",
        }
    }

    /// Rank used to order values of *different* types so that `Ord` is total.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Numeric addition with Int/Float promotion.
    pub fn add(&self, rhs: &Value) -> Result<Value> {
        numeric_binop(self, rhs, "+", |a, b| a.wrapping_add(b), |a, b| a + b)
    }

    /// Numeric subtraction with Int/Float promotion.
    pub fn sub(&self, rhs: &Value) -> Result<Value> {
        numeric_binop(self, rhs, "-", |a, b| a.wrapping_sub(b), |a, b| a - b)
    }

    /// Numeric multiplication with Int/Float promotion.
    pub fn mul(&self, rhs: &Value) -> Result<Value> {
        numeric_binop(self, rhs, "*", |a, b| a.wrapping_mul(b), |a, b| a * b)
    }

    /// Numeric division. Integer division by zero is an error; float
    /// division follows IEEE-754.
    pub fn div(&self, rhs: &Value) -> Result<Value> {
        match (self, rhs) {
            (Value::Int(_), Value::Int(0)) => Err(Error::eval("division by zero")),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_div(*b))),
            _ => {
                let a = self.as_float()?;
                let b = rhs.as_float()?;
                Ok(Value::Float(a / b))
            }
        }
    }

    /// Remainder, with the same zero-divisor rules as [`Value::div`].
    pub fn rem(&self, rhs: &Value) -> Result<Value> {
        match (self, rhs) {
            (Value::Int(_), Value::Int(0)) => Err(Error::eval("modulo by zero")),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_rem(*b))),
            _ => {
                let a = self.as_float()?;
                let b = rhs.as_float()?;
                Ok(Value::Float(a % b))
            }
        }
    }
}

fn numeric_binop(
    lhs: &Value,
    rhs: &Value,
    op: &'static str,
    int_op: fn(i64, i64) -> i64,
    float_op: fn(f64, f64) -> f64,
) -> Result<Value> {
    match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => Ok(Value::Int(int_op(*a, *b))),
        (Value::Float(_) | Value::Int(_), Value::Float(_) | Value::Int(_)) => {
            // At least one side is a float; promote both.
            Ok(Value::Float(float_op(lhs.as_float()?, rhs.as_float()?)))
        }
        _ => Err(Error::eval(format!(
            "cannot apply `{op}` to {} and {}",
            lhs.type_name(),
            rhs.type_name()
        ))),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_f64_cmp(*a, *b),
            // Mixed numeric types compare by numeric value so that
            // `Int(1) == Float(1.0)` — the behaviour users of a query
            // language expect.
            (Int(a), Float(b)) => total_f64_cmp(*a as f64, *b),
            (Float(a), Int(b)) => total_f64_cmp(*a, *b as f64),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl core::hash::Hash for Value {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and equal-valued floats must hash identically because
            // they compare equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                normalize_f64(*f).to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// Total order on f64 with NaN greatest and -0.0 == 0.0.
fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("non-NaN floats compare"),
    }
}

/// Collapses -0.0 to 0.0 and all NaNs to one canonical NaN for hashing.
fn normalize_f64(f: f64) -> f64 {
    if f.is_nan() {
        f64::NAN
    } else if f == 0.0 {
        0.0
    } else {
        f
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert_eq!(Value::Float(4.0).as_int().unwrap(), 4);
        assert!(Value::Float(4.5).as_int().is_err());
        assert_eq!(Value::Bool(true).as_int().unwrap(), 1);
        assert!(Value::str("x").as_int().is_err());
        assert_eq!(Value::str("abc").as_str().unwrap(), "abc");
    }

    #[test]
    fn arithmetic_promotes() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(Value::Int(7).rem(&Value::Int(3)).unwrap(), Value::Int(1));
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::str("a").add(&Value::Int(1)).is_err());
    }

    #[test]
    fn mixed_numeric_equality() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(h(&Value::Int(1)), h(&Value::Float(1.0)));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
    }

    #[test]
    fn nan_is_greatest_float() {
        assert!(Value::Float(f64::NAN) > Value::Float(f64::INFINITY));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
    }

    #[test]
    fn cross_type_order_is_stable() {
        let mut vals = [
            Value::str("z"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(*vals.last().unwrap(), Value::str("z"));
    }

    #[test]
    fn repeated_strings_share_one_allocation() {
        let (Value::Str(a), Value::Str(b)) = (
            Value::str("value-intern-test"),
            Value::str("value-intern-test"),
        ) else {
            panic!("string values expected")
        };
        assert!(Arc::ptr_eq(&a, &b), "repeated payloads must be interned");
        let Value::Str(c) = Value::str_uninterned("value-intern-test") else {
            panic!("string value expected")
        };
        assert!(
            !Arc::ptr_eq(&a, &c),
            "uninterned constructor must not share"
        );
        assert_eq!(a, c);
    }

    #[test]
    fn interned_and_uninterned_strings_are_the_same_value() {
        let interned = Value::str("value-thin-handle-test");
        let plain = Value::str_uninterned("value-thin-handle-test");
        assert_eq!(interned, plain);
        assert_eq!(interned.cmp(&plain), Ordering::Equal);
        assert_eq!(h(&interned), h(&plain));
        // Order is on the contents, not on the handle.
        assert!(Value::str_uninterned("a") < Value::str("b"));
        assert!(Value::str("b") > Value::str_uninterned("a"));
    }

    #[test]
    fn map_keyed_by_interned_string_finds_uninterned_key() {
        let mut m = std::collections::HashMap::new();
        m.insert(Value::str("value-map-key-test"), 1);
        m.insert(Value::Int(3), 2);
        assert_eq!(
            m.get(&Value::str_uninterned("value-map-key-test")),
            Some(&1)
        );
        assert_eq!(m.get(&Value::str_uninterned("value-map-key-tesT")), None);
    }

    #[test]
    fn conforms_to_type() {
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(!Value::Int(1).conforms_to(DataType::Str));
        assert!(Value::Null.conforms_to(DataType::Float));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(DataType::Str.to_string(), "STRING");
    }
}
