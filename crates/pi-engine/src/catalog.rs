//! The catalog: named tables plus synthetic data for the paper's datasets.
//!
//! The paper's generated interfaces query the OnTime flight-delays dataset (Figure 1,
//! Listings 2–5) and the SDSS SkyServer tables (Listings 1 and 6).  Appendix D additionally
//! builds "a local database with a schema consistent with the tables and attributes found in
//! the queries" — this catalog plays that role, and also backs `exec()` so generated
//! interfaces can actually run their queries.

use crate::storage::{Column, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A named collection of in-memory tables.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table.
    pub fn register(&mut self, name: &str, table: Table) {
        self.tables.insert(name.to_ascii_lowercase(), table);
    }

    /// Looks up a table by name (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// `(table, columns)` pairs describing the schema — convertible into the schema map used
    /// by the precision experiment.
    pub fn schema(&self) -> Vec<(String, Vec<String>)> {
        self.tables
            .iter()
            .map(|(name, table)| {
                (
                    name.clone(),
                    table.columns().iter().map(|c| c.name.clone()).collect(),
                )
            })
            .collect()
    }

    /// A catalog pre-populated with synthetic OnTime, SDSS and example-listing tables.
    ///
    /// `seed` controls the synthetic data; sizes are kept small enough that closure
    /// enumeration and the user-study simulation run instantly.
    pub fn demo(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(0xca7a_0000 ^ seed);
        let mut catalog = Catalog::new();
        catalog.register("ontime", ontime_table(&mut rng, 600));
        catalog.register("Galaxy", galaxy_table(&mut rng, 300));
        catalog.register("PhotoObj", photoobj_table(&mut rng, 300));
        catalog.register("SpecObj", specobj_table(&mut rng, 300));
        catalog.register("SpecLineIndex", speclineindex_table(&mut rng, 300));
        catalog.register("XCRedshift", xcredshift_table(&mut rng, 300));
        // The paper's examples use both `T` (Listing 7) and `t` (Listing 4); table lookup is
        // case-insensitive, so one synthetic table carries the columns of both.
        catalog.register("t", sales_table(&mut rng, 120));
        catalog
    }
}

const STATES: &[&str] = &["CA", "NY", "TX", "WA", "IL", "GA", "FL", "CO"];
const CARRIERS: &[&str] = &["AA", "UA", "DL", "WN", "B6", "AS"];

fn ontime_table(rng: &mut StdRng, rows: usize) -> Table {
    let mut t = Table::with_columns(&[
        "Delay",
        "ArrDelay",
        "DepDelay",
        "Distance",
        "Flights",
        "DestState",
        "OriginState",
        "Carrier",
        "DayOfWeek",
        "DistanceGroup",
        "Month",
        "Day",
        "Year",
        "Cancelled",
        "carrier",
        "origin",
        "dest",
        "dayofweek",
        "deststate",
        "flights",
        "distance",
        "arrdelay",
        "depdelay",
        "cancelled",
        "uniquecarrier",
    ]);
    for _ in 0..rows {
        let carrier = CARRIERS[rng.gen_range(0..CARRIERS.len())];
        let dest = STATES[rng.gen_range(0..STATES.len())];
        let origin = STATES[rng.gen_range(0..STATES.len())];
        let delay = rng.gen_range(-10..240);
        let arr = rng.gen_range(-15..200);
        let dep = rng.gen_range(-5..180);
        let distance = rng.gen_range(100..3000);
        let flights = rng.gen_range(1..40);
        let dow = rng.gen_range(1..8);
        let month = rng.gen_range(1..13);
        let day = rng.gen_range(1..29);
        let year = rng.gen_range(1995..2009);
        let cancelled = i64::from(rng.gen_bool(0.08));
        t.push_row(vec![
            Value::Int(delay),
            Value::Int(arr),
            Value::Int(dep),
            Value::Int(distance),
            Value::Int(flights),
            Value::Str(dest.into()),
            Value::Str(origin.into()),
            Value::Str(carrier.into()),
            Value::Int(dow),
            Value::Int(distance / 500),
            Value::Int(month),
            Value::Int(day),
            Value::Int(year),
            Value::Int(cancelled),
            Value::Str(carrier.into()),
            Value::Str(origin.into()),
            Value::Str(dest.into()),
            Value::Int(dow),
            Value::Str(dest.into()),
            Value::Int(flights),
            Value::Int(distance),
            Value::Int(arr),
            Value::Int(dep),
            Value::Int(cancelled),
            Value::Str(carrier.into()),
        ]);
    }
    t
}

fn galaxy_table(rng: &mut StdRng, rows: usize) -> Table {
    let mut t = Table::with_columns(&["objID", "ra", "dec", "r", "g", "u", "petroRad_r"]);
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(0x1000 + i as i64),
            Value::Float(rng.gen_range(0.0..360.0)),
            Value::Float(rng.gen_range(-90.0..90.0)),
            Value::Float(rng.gen_range(12.0..24.0)),
            Value::Float(rng.gen_range(12.0..24.0)),
            Value::Float(rng.gen_range(12.0..24.0)),
            Value::Float(rng.gen_range(0.5..20.0)),
        ]);
    }
    t
}

fn photoobj_table(rng: &mut StdRng, rows: usize) -> Table {
    let mut t = Table::with_columns(&["objID", "ra", "dec", "u", "g", "r", "i", "modelMag_r"]);
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(0x8000 + i as i64),
            Value::Float(rng.gen_range(0.0..360.0)),
            Value::Float(rng.gen_range(-90.0..90.0)),
            Value::Float(rng.gen_range(12.0..24.0)),
            Value::Float(rng.gen_range(12.0..24.0)),
            Value::Float(rng.gen_range(12.0..24.0)),
            Value::Float(rng.gen_range(12.0..24.0)),
            Value::Float(rng.gen_range(8.0..22.0)),
        ]);
    }
    t
}

fn specobj_table(rng: &mut StdRng, rows: usize) -> Table {
    let mut t = Table::with_columns(&["specObjId", "z", "ra", "dec"]);
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(0x100 + i as i64),
            Value::Float(rng.gen_range(0.0..0.9)),
            Value::Float(rng.gen_range(0.0..360.0)),
            Value::Float(rng.gen_range(-90.0..90.0)),
        ]);
    }
    t
}

fn speclineindex_table(rng: &mut StdRng, rows: usize) -> Table {
    let mut t = Table::with_columns(&["specObjId", "plateId", "z", "ew"]);
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(0x100 + i as i64),
            Value::Int(rng.gen_range(200..900)),
            Value::Float(rng.gen_range(0.0..0.9)),
            Value::Float(rng.gen_range(-5.0..5.0)),
        ]);
    }
    t
}

fn xcredshift_table(rng: &mut StdRng, rows: usize) -> Table {
    let mut t = Table::with_columns(&["specObjId", "tempNo", "z"]);
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(0x100 + i as i64),
            Value::Int(rng.gen_range(1..32)),
            Value::Float(rng.gen_range(0.0..0.9)),
        ]);
    }
    t
}

fn sales_table(rng: &mut StdRng, rows: usize) -> Table {
    let customers = ["Alice", "Bob", "Carol", "Dave"];
    let countries = ["China", "USA", "EUR"];
    let mut t = Table::new(vec![
        Column::new("spec_ts"),
        Column::new("price"),
        Column::new("action"),
        Column::new("customer"),
        Column::new("cust"),
        Column::new("country"),
        Column::new("now"),
        Column::new("sales"),
        Column::new("costs"),
        Column::new("day"),
        Column::new("cty"),
        Column::new("x"),
        Column::new("y"),
        Column::new("a"),
        Column::new("b"),
        Column::new("c"),
        Column::new("d"),
        Column::new("e"),
    ]);
    for i in 0..rows {
        let cust = customers[rng.gen_range(0..customers.len())];
        let country = countries[rng.gen_range(0..countries.len())];
        t.push_row(vec![
            Value::Int(i as i64 % 24),
            Value::Float(rng.gen_range(1.0..500.0)),
            Value::Str(["view", "buy", "return"][rng.gen_range(0..3)].into()),
            Value::Int(rng.gen_range(1..50)),
            Value::Str(cust.into()),
            Value::Str(country.into()),
            Value::Int(0),
            Value::Float(rng.gen_range(0.0..1000.0)),
            Value::Float(rng.gen_range(0.0..800.0)),
            Value::Int(i as i64 % 7),
            Value::Str(country.into()),
            Value::Int(rng.gen_range(0..10)),
            Value::Int(rng.gen_range(0..10)),
            Value::Int(rng.gen_range(0..100)),
            Value::Int(rng.gen_range(0..100)),
            Value::Int(rng.gen_range(0..100)),
            Value::Int(rng.gen_range(0..100)),
            Value::Int(rng.gen_range(0..100)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_catalog_registers_all_paper_tables() {
        let catalog = Catalog::demo(1);
        for table in [
            "ontime",
            "Galaxy",
            "SpecLineIndex",
            "XCRedshift",
            "SpecObj",
            "PhotoObj",
            "T",
            "t",
        ] {
            assert!(catalog.table(table).is_some(), "missing {table}");
            assert!(!catalog.table(table).unwrap().is_empty());
        }
        assert!(
            catalog.table("ONTIME").is_some(),
            "lookup is case-insensitive"
        );
        assert!(catalog.table("nope").is_none());
    }

    #[test]
    fn demo_catalog_is_deterministic_per_seed() {
        let a = Catalog::demo(7);
        let b = Catalog::demo(7);
        assert_eq!(
            a.table("ontime").unwrap().row(0),
            b.table("ontime").unwrap().row(0)
        );
        let c = Catalog::demo(8);
        assert_ne!(
            a.table("ontime").unwrap().row(0),
            c.table("ontime").unwrap().row(0)
        );
    }

    #[test]
    fn schema_reports_tables_and_columns() {
        let catalog = Catalog::demo(1);
        let schema = catalog.schema();
        assert_eq!(schema.len(), catalog.tables.len());
        let ontime = schema.iter().find(|(t, _)| t == "ontime").unwrap();
        assert!(ontime.1.iter().any(|c| c == "DestState"));
    }

    #[test]
    fn register_replaces_existing_tables() {
        let mut catalog = Catalog::new();
        catalog.register("x", Table::with_columns(&["a"]));
        let mut bigger = Table::with_columns(&["a", "b"]);
        bigger.push_row(vec![Value::Int(1), Value::Int(2)]);
        catalog.register("X", bigger);
        assert_eq!(catalog.table("x").unwrap().num_columns(), 2);
        assert!(catalog.tables.keys().eq(["x"]));
    }
}
