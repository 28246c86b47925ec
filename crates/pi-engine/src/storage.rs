//! Typed values and columnar tables.

use std::cmp::Ordering;
use std::fmt;

/// A single scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Numeric view of the value (ints widen, bools are 0/1, strings parse if possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.parse().ok(),
            Value::Null => None,
        }
    }

    /// True when the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness used by WHERE/HAVING evaluation (NULL counts as false).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Null => false,
        }
    }

    /// SQL comparison: numerics compare numerically, strings lexically; NULL is incomparable.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// SQL equality (used by predicates and grouping).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }

    /// A stable string used as a grouping key.
    pub fn group_key(&self) -> String {
        match self {
            Value::Int(i) => format!("i{i}"),
            Value::Float(f) => format!("f{f}"),
            Value::Str(s) => format!("s{s}"),
            Value::Bool(b) => format!("b{b}"),
            Value::Null => "null".to_string(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v:.4}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// A named column with an optional table/alias qualifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// The qualifier (table name or alias) the column belongs to, if any.
    pub qualifier: Option<String>,
    /// The column name.
    pub name: String,
}

impl Column {
    /// An unqualified column.
    pub fn new(name: &str) -> Self {
        Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// A qualified column.
    pub fn qualified(qualifier: &str, name: &str) -> Self {
        Column {
            qualifier: Some(qualifier.to_string()),
            name: name.to_string(),
        }
    }

    /// True when this column answers to the given reference.
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .map(|own| own.eq_ignore_ascii_case(q))
                .unwrap_or(false),
        }
    }

    /// Display name used in result headers.
    pub fn display(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// An in-memory table stored column-wise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    columns: Vec<Column>,
    data: Vec<Vec<Value>>, // one Vec<Value> per column
}

impl Table {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<Column>) -> Self {
        let data = columns.iter().map(|_| Vec::new()).collect();
        Table { columns, data }
    }

    /// Creates a table with unqualified column names.
    pub fn with_columns(names: &[&str]) -> Self {
        Table::new(names.iter().map(|n| Column::new(n)).collect())
    }

    /// The table's columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.data.first().map(Vec::len).unwrap_or(0)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Appends a row; panics if the arity does not match (an internal invariant).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (column, value) in self.data.iter_mut().zip(row) {
            column.push(value);
        }
    }

    /// The value at (row, column).
    pub fn value(&self, row: usize, column: usize) -> &Value {
        &self.data[column][row]
    }

    /// One row, materialised.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.data.iter().map(|col| col[row].clone()).collect()
    }

    /// Finds the index of the column answering to a reference; ambiguous unqualified
    /// references resolve to the first match (SQL engines error here; for the synthetic
    /// workloads first-match is sufficient and keeps the executor simple).
    pub fn column_index(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.matches(qualifier, name))
    }

    /// Builds a new table with the same columns containing only the selected rows.
    pub fn filter_rows(&self, keep: &[usize]) -> Table {
        let mut out = Table::new(self.columns.clone());
        for &row in keep {
            out.push_row(self.row(row));
        }
        out
    }

    /// Cartesian product of two tables (used by comma joins before the WHERE filter).
    pub fn cross_join(&self, other: &Table) -> Table {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        let mut out = Table::new(columns);
        for left in 0..self.num_rows() {
            for right in 0..other.num_rows() {
                let mut row = self.row(left);
                row.extend(other.row(right));
                out.push_row(row);
            }
        }
        out
    }

    /// Re-qualifies every column with the given alias (FROM-clause aliasing).
    pub fn with_qualifier(mut self, qualifier: &str) -> Table {
        for column in &mut self.columns {
            column.qualifier = Some(qualifier.to_string());
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let mut t = Table::with_columns(&["name", "age"]);
        t.push_row(vec![Value::Str("ada".into()), Value::Int(36)]);
        t.push_row(vec![Value::Str("bob".into()), Value::Int(29)]);
        t
    }

    #[test]
    fn value_comparisons_follow_sql_semantics() {
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
        assert_eq!(Value::Int(2).compare(&Value::Int(5)), Some(Ordering::Less));
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert!(!Value::Null.is_truthy());
        assert!(Value::Str("x".into()).is_truthy());
        assert_eq!(Value::Str("12".into()).as_f64(), Some(12.0));
    }

    #[test]
    fn display_formats_values() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn table_round_trips_rows() {
        let t = people();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.value(1, 0), &Value::Str("bob".into()));
        assert_eq!(t.row(0), vec![Value::Str("ada".into()), Value::Int(36)]);
    }

    #[test]
    fn column_lookup_respects_qualifiers() {
        let t = people().with_qualifier("p");
        assert!(t.column_index(None, "name").is_some());
        assert!(t.column_index(Some("p"), "AGE").is_some());
        assert!(t.column_index(Some("q"), "age").is_none());
        assert_eq!(t.columns()[0].display(), "p.name");
    }

    #[test]
    fn filter_and_cross_join() {
        let t = people();
        let only_ada = t.filter_rows(&[0]);
        assert_eq!(only_ada.num_rows(), 1);
        let joined = t.cross_join(&only_ada.with_qualifier("x"));
        assert_eq!(joined.num_rows(), 2);
        assert_eq!(joined.num_columns(), 4);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_is_a_bug() {
        let mut t = people();
        t.push_row(vec![Value::Int(1)]);
    }
}
