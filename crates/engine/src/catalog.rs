//! The database catalog: named tables plus the fragment registry.
//!
//! Two layers, mirroring the paper's architecture: tables live in the
//! (conceptually persistent) catalog; cracked-piece administration lives in
//! the per-column in-memory cracker indices owned by the engines — *not*
//! here, because "each creation or removal of a partition \[as\] a change to
//! the table's schema and catalog entries ... requires locking a critical
//! resource" (§3.2).

use crate::error::{EngineError, EngineResult};
use crate::table::Table;
use std::collections::BTreeMap;

/// A catalog of named tables.
#[derive(Debug, Default)]
pub struct DbCatalog {
    tables: BTreeMap<String, Table>,
}

impl DbCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table under its own name.
    pub fn register(&mut self, table: Table) -> EngineResult<()> {
        let name = table.name().to_owned();
        if self.tables.contains_key(&name) {
            return Err(EngineError::DuplicateTable(name));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Look a table up by name.
    pub fn table(&self, name: &str) -> EngineResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_owned()))
    }

    /// Drop a table, returning it.
    pub fn drop_table(&mut self, name: &str) -> EngineResult<Table> {
        self.tables
            .remove(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_owned()))
    }

    /// Look a table up by name for in-place mutation (append, compact).
    pub fn table_mut(&mut self, name: &str) -> EngineResult<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_owned()))
    }

    /// All table names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str) -> Table {
        Table::from_int_columns(name, vec![("a", vec![1, 2])]).unwrap()
    }

    #[test]
    fn register_lookup_drop() {
        let mut c = DbCatalog::new();
        c.register(t("r")).unwrap();
        assert_eq!(c.table("r").unwrap().len(), 2);
        assert_eq!(c.names(), vec!["r"]);
        c.drop_table("r").unwrap();
        assert!(c.is_empty());
        assert!(matches!(c.table("r"), Err(EngineError::UnknownTable(_))));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut c = DbCatalog::new();
        c.register(t("r")).unwrap();
        assert!(matches!(
            c.register(t("r")),
            Err(EngineError::DuplicateTable(_))
        ));
    }

    #[test]
    fn table_mut_grows_the_registered_table_in_place() {
        let mut c = DbCatalog::new();
        c.register(t("r")).unwrap();
        c.table_mut("r")
            .unwrap()
            .append_int_rows(&[vec![3]])
            .unwrap();
        assert_eq!(c.table("r").unwrap().ints("a").unwrap(), &[1, 2, 3]);
        assert!(matches!(
            c.table_mut("zzz"),
            Err(EngineError::UnknownTable(_))
        ));
    }
}
