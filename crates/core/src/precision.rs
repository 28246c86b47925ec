//! Closure precision against a database schema (Appendix D).
//!
//! A purely syntactic interface can generate nonsensical queries: one widget may pick a table
//! while another picks a column that does not exist in that table.  Appendix D measures
//! *precision* — the fraction of queries in the interface's closure that do not violate the
//! schema — and shows that a simple column→table containment filter restores 100% precision.

use crate::interface::Interface;
use pi_ast::{Node, NodeKind};
use std::collections::{BTreeMap, BTreeSet};

/// A lightweight schema description: table → set of column names (all lower-cased).
///
/// This is intentionally independent of `pi-engine`'s full catalog so that precision can be
/// computed in settings where only the schema (not the data) is available; the engine's
/// catalog converts into this type.
#[derive(Debug, Clone, Default)]
pub struct SchemaMap {
    tables: BTreeMap<String, BTreeSet<String>>,
}

impl SchemaMap {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table with its columns.
    pub fn add_table<'a, I: IntoIterator<Item = &'a str>>(&mut self, table: &str, columns: I) {
        let entry = self.tables.entry(table.to_ascii_lowercase()).or_default();
        for column in columns {
            entry.insert(column.to_ascii_lowercase());
        }
    }

    /// True when the schema knows the table.
    pub fn has_table(&self, table: &str) -> bool {
        self.tables.contains_key(&table.to_ascii_lowercase())
    }

    /// True when the given table contains the given column.
    pub fn table_has_column(&self, table: &str, column: &str) -> bool {
        self.tables
            .get(&table.to_ascii_lowercase())
            .map(|cols| cols.contains(&column.to_ascii_lowercase()))
            .unwrap_or(false)
    }
}

/// Checks whether a query is consistent with the schema: every referenced table must exist,
/// and every referenced column must belong to at least one table referenced by the enclosing
/// query (the containment check of Appendix D — "verify that all column name node types have
/// the containing table name node in the tree").
pub fn query_is_schema_valid(query: &Node, schema: &SchemaMap) -> bool {
    // Collect every table referenced anywhere in the query (including subqueries).  Alias
    // resolution is not needed for the containment check: aliases only rename tables that are
    // present in the same tree.
    let mut tables: BTreeSet<String> = BTreeSet::new();
    let mut aliases: BTreeSet<String> = BTreeSet::new();
    let mut tables_ok = true;
    query.visit(&mut |node| {
        if node.kind_ref() == &NodeKind::TableRef {
            if let Some(name) = node.attr_str("name") {
                if schema.has_table(name) {
                    tables.insert(name.to_ascii_lowercase());
                } else {
                    tables_ok = false;
                }
            }
            if let Some(alias) = node.attr_str("alias") {
                aliases.insert(alias.to_ascii_lowercase());
            }
        }
        if node.kind_ref() == &NodeKind::TableFunc {
            if let Some(alias) = node.attr_str("alias") {
                aliases.insert(alias.to_ascii_lowercase());
            }
        }
    });
    if !tables_ok {
        return false;
    }

    // Every column must be contained in one of the referenced tables.  Columns qualified by a
    // table-function alias are outside the base schema and are accepted as-is.
    let mut columns_ok = true;
    query.visit(&mut |node| {
        if node.kind_ref() == &NodeKind::ColExpr {
            let Some(name) = node.attr_str("name") else {
                return;
            };
            if let Some(qualifier) = node.attr_str("table") {
                let qualifier = qualifier.to_ascii_lowercase();
                if aliases.contains(&qualifier) && !schema.has_table(&qualifier) {
                    return; // refers to a UDF/table-function alias; outside the base schema
                }
                if schema.has_table(&qualifier) {
                    if !schema.table_has_column(&qualifier, name) {
                        columns_ok = false;
                    }
                    return;
                }
            }
            if !tables
                .iter()
                .any(|table| schema.table_has_column(table, name))
            {
                columns_ok = false;
            }
        }
    });
    columns_ok
}

/// The precision of an interface's closure against a schema: the fraction of (up to `limit`)
/// closure queries that pass [`query_is_schema_valid`] — the "No Filter" series of Figure 15.
pub fn closure_precision(interface: &Interface, schema: &SchemaMap, limit: usize) -> f64 {
    let closure = interface.enumerate_closure(limit);
    if closure.is_empty() {
        return 1.0;
    }
    let valid = closure
        .iter()
        .filter(|q| query_is_schema_valid(q, schema))
        .count();
    valid as f64 / closure.len() as f64
}

/// The closure restricted to schema-valid queries — the "Filtered" condition of Figure 15
/// (whose precision is 1.0 by construction).
pub fn filtered_closure(interface: &Interface, schema: &SchemaMap, limit: usize) -> Vec<Node> {
    interface
        .enumerate_closure(limit)
        .into_iter()
        .filter(|q| query_is_schema_valid(q, schema))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrecisionInterfaces;
    use pi_ast::Frontend as _;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    fn sdss_schema() -> SchemaMap {
        let mut schema = SchemaMap::new();
        schema.add_table("SpecLineIndex", ["specObjId", "z", "ew"]);
        schema.add_table("XCRedshift", ["specObjId", "z", "tempNo"]);
        schema.add_table("Galaxy", ["objID", "ra", "dec"]);
        schema
    }

    #[test]
    fn valid_and_invalid_queries_are_classified() {
        let schema = sdss_schema();
        let ok = parse("SELECT z FROM SpecLineIndex WHERE specObjId = 0x400").unwrap();
        assert!(query_is_schema_valid(&ok, &schema));
        // tempNo lives in XCRedshift, not SpecLineIndex.
        let bad_col = parse("SELECT tempNo FROM SpecLineIndex WHERE specObjId = 0x400").unwrap();
        assert!(!query_is_schema_valid(&bad_col, &schema));
        let bad_table = parse("SELECT z FROM NoSuchTable").unwrap();
        assert!(!query_is_schema_valid(&bad_table, &schema));
    }

    #[test]
    fn qualified_columns_check_their_own_table() {
        let schema = sdss_schema();
        let ok = parse("SELECT g.objID FROM Galaxy AS g WHERE g.ra > 5").unwrap();
        assert!(query_is_schema_valid(&ok, &schema));
        let bad = parse("SELECT Galaxy.specObjId FROM Galaxy").unwrap();
        assert!(!query_is_schema_valid(&bad, &schema));
        // Columns qualified by a table-function alias are accepted (outside the base schema).
        let udf = parse(
            "SELECT g.objID FROM Galaxy AS g, dbo.fGetNearbyObjEq(1.0, 2.0, 3.0) AS d WHERE d.objID = g.objID",
        )
        .unwrap();
        assert!(query_is_schema_valid(&udf, &schema));
    }

    #[test]
    fn mixed_client_interfaces_lose_precision_and_the_filter_restores_it() {
        // A miniature version of Figure 15: interleave two "clients" that query different
        // tables with different columns; the cross-product closure mixes them up.
        let schema = sdss_schema();
        let log = "
            SELECT z FROM SpecLineIndex WHERE specObjId = 0x400;
            SELECT ew FROM SpecLineIndex WHERE specObjId = 0x401;
            SELECT ra FROM Galaxy WHERE objID = 0x10;
            SELECT dec FROM Galaxy WHERE objID = 0x11;
            SELECT z FROM SpecLineIndex WHERE specObjId = 0x402;
            SELECT ra FROM Galaxy WHERE objID = 0x12;
            SELECT ew FROM SpecLineIndex WHERE specObjId = 0x403;
            SELECT dec FROM Galaxy WHERE objID = 0x13;
            SELECT z FROM SpecLineIndex WHERE specObjId = 0x404;
            SELECT ra FROM Galaxy WHERE objID = 0x14;
            SELECT ew FROM SpecLineIndex WHERE specObjId = 0x405;
            SELECT dec FROM Galaxy WHERE objID = 0x15;
            SELECT z FROM SpecLineIndex WHERE specObjId = 0x406;
            SELECT ra FROM Galaxy WHERE objID = 0x16;
        ";
        let out = PrecisionInterfaces::default().from_sql_log(log).unwrap();
        let precision = closure_precision(&out.interface, &schema, 10_000);
        assert!(
            precision < 1.0,
            "mixing clients should produce schema-invalid closure queries:\n{}",
            out.interface.describe()
        );
        assert!(precision > 0.0);
        // The filter removes every invalid query.
        let filtered = filtered_closure(&out.interface, &schema, 10_000);
        assert!(!filtered.is_empty());
        assert!(filtered.iter().all(|q| query_is_schema_valid(q, &schema)));
    }

    #[test]
    fn single_analysis_interfaces_stay_precise() {
        let schema = sdss_schema();
        let log = "
            SELECT z FROM SpecLineIndex WHERE specObjId = 0x400;
            SELECT z FROM SpecLineIndex WHERE specObjId = 0x401;
            SELECT z FROM SpecLineIndex WHERE specObjId = 0x402;
        ";
        let out = PrecisionInterfaces::default().from_sql_log(log).unwrap();
        let precision = closure_precision(&out.interface, &schema, 10_000);
        assert!((precision - 1.0).abs() < f64::EPSILON);
    }
}
