//! N-ary tables over BATs.
//!
//! "N-ary relational tables are mapped by MonetDB's SQL compiler into a
//! series \[of\] binary tables with attributes head and tail of type
//! `bat[oid,type]`, where `oid` is the surrogate key and `type` the type of
//! the corresponding attribute" (§3.4.2). A [`Table`] is exactly that: one
//! BAT per column, all sharing a dense OID space `0..n`.

use crate::error::{EngineError, EngineResult};
use crate::schema::Schema;
use cracker_core::{ConcurrencyMode, ConcurrentColumn, CrackerConfig};
use std::sync::Arc;
use storage::{Atom, Bat, BatView, Oid};

/// An n-ary relational table decomposed into aligned column BATs.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Arc<Bat>>,
}

impl Table {
    /// Build a table from its schema and column BATs (one per schema
    /// column, equal cardinalities).
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Arc<Bat>>,
    ) -> EngineResult<Self> {
        let name = name.into();
        if columns.len() != schema.arity() {
            return Err(EngineError::RaggedColumns(name));
        }
        let n = columns.first().map_or(0, |b| b.len());
        for (def, bat) in schema.columns().iter().zip(&columns) {
            if bat.len() != n {
                return Err(EngineError::RaggedColumns(name));
            }
            if bat.tail_type() != def.ty {
                return Err(EngineError::WrongColumnType {
                    column: def.name.clone(),
                    expected: def.ty.to_string(),
                });
            }
        }
        Ok(Table {
            name,
            schema,
            columns,
        })
    }

    /// Convenience: an all-integer table from `(name, values)` pairs.
    pub fn from_int_columns(
        name: impl Into<String>,
        cols: Vec<(&str, Vec<i64>)>,
    ) -> EngineResult<Self> {
        let name = name.into();
        let schema = Schema::ints(&cols.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        let columns = cols
            .into_iter()
            .map(|(cn, vals)| Arc::new(Bat::from_ints(format!("{name}_{cn}"), vals)))
            .collect();
        Table::new(name, schema, columns)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, |b| b.len())
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column BAT by name.
    pub fn column(&self, name: &str) -> EngineResult<&Arc<Bat>> {
        let pos = self
            .schema
            .position(name)
            .ok_or_else(|| EngineError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_owned(),
            })?;
        Ok(&self.columns[pos])
    }

    /// Borrow an integer column's values.
    pub fn ints(&self, name: &str) -> EngineResult<&[i64]> {
        Ok(self.column(name)?.ints()?)
    }

    /// A whole-column view.
    pub fn column_view(&self, name: &str) -> EngineResult<BatView> {
        Ok(BatView::whole(Arc::clone(self.column(name)?)))
    }

    /// Build a latched cracked copy of an integer column for concurrent
    /// readers, with `mode`'s shard count. The copy is detached:
    /// it carries this table's dense OIDs but does not observe later
    /// changes to the base BAT, exactly like the cracked copies
    /// [`crate::db::AdaptiveDb`] maintains.
    pub fn concurrent_column(
        &self,
        name: &str,
        config: CrackerConfig,
        mode: ConcurrencyMode,
    ) -> EngineResult<ConcurrentColumn<i64>> {
        let vals = self.ints(name)?.to_vec();
        Ok(ConcurrentColumn::build(vals, config, mode))
    }

    /// Append whole rows in place; new rows take the next dense OIDs.
    /// Every row must match the schema's arity and every column must be
    /// an integer column — both checked before any column grows, so a
    /// rejected batch leaves the table untouched. A column `Arc` shared
    /// with a view is copied once (`Arc::make_mut`); an unshared one
    /// grows by the rows appended.
    pub fn append_int_rows(&mut self, rows: &[Vec<i64>]) -> EngineResult<()> {
        if rows.iter().any(|r| r.len() != self.columns.len()) {
            return Err(EngineError::RaggedColumns(self.name.clone()));
        }
        for def in self.schema.columns() {
            self.ints(&def.name)?;
        }
        for (i, col) in self.columns.iter_mut().enumerate() {
            Arc::make_mut(col).append_ints(rows.iter().map(|r| r[i]))?;
        }
        Ok(())
    }

    /// Remove the rows at the `doomed` OIDs (ascending, distinct, each
    /// below [`len`](Self::len)), compacting every column in one pass;
    /// survivors are renumbered densely from 0.
    pub fn remove_rows(&mut self, doomed: &[u32]) {
        for col in &mut self.columns {
            Arc::make_mut(col).remove_positions(doomed);
        }
    }

    /// The full row (as atoms in schema order) at surrogate `oid` — rows
    /// are reconstructed via positional alignment of the dense OID space.
    pub fn row(&self, oid: Oid) -> EngineResult<Vec<Atom>> {
        let pos = oid as usize;
        self.columns
            .iter()
            .map(|bat| bat.atom_at(pos).map_err(EngineError::from))
            .collect()
    }

    /// Iterate all rows as `(oid, atoms)` — test/debug convenience, not a
    /// hot path.
    pub fn rows(&self) -> impl Iterator<Item = (Oid, Vec<Atom>)> + '_ {
        (0..self.len() as Oid).map(move |oid| {
            let row = self
                .row(oid)
                // lint: allow(unwrap) — OIDs 0..len are dense by construction
                .expect("dense OID space: every position resolves");
            (oid, row)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::AtomType;

    fn sample() -> Table {
        Table::from_int_columns("r", vec![("k", vec![1, 2, 3]), ("a", vec![10, 20, 30])]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema().arity(), 2);
        assert_eq!(t.ints("a").unwrap(), &[10, 20, 30]);
        assert_eq!(t.name(), "r");
    }

    #[test]
    fn unknown_column_is_an_error() {
        let t = sample();
        assert!(matches!(
            t.ints("z"),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn ragged_columns_rejected() {
        let schema = Schema::ints(&["k", "a"]);
        let cols = vec![
            Arc::new(Bat::from_ints("k", vec![1, 2])),
            Arc::new(Bat::from_ints("a", vec![1])),
        ];
        assert!(matches!(
            Table::new("r", schema, cols),
            Err(EngineError::RaggedColumns(_))
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let schema = Schema::new(vec![crate::schema::ColumnDef::new("f", AtomType::Float)]);
        let cols = vec![Arc::new(Bat::from_ints("f", vec![1]))];
        assert!(matches!(
            Table::new("r", schema, cols),
            Err(EngineError::WrongColumnType { .. })
        ));
    }

    #[test]
    fn row_reconstruction_by_surrogate() {
        let t = sample();
        assert_eq!(t.row(1).unwrap(), vec![Atom::Int(2), Atom::Int(20)]);
        assert!(t.row(9).is_err());
    }

    #[test]
    fn rows_iterate_in_oid_order() {
        let t = sample();
        let all: Vec<_> = t.rows().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].0, 2);
        assert_eq!(all[2].1, vec![Atom::Int(3), Atom::Int(30)]);
    }

    #[test]
    fn rows_append_and_compact_in_place() {
        let mut t = sample();
        let view = t.column_view("k").unwrap();
        t.append_int_rows(&[vec![4, 40], vec![5, 50]]).unwrap();
        assert_eq!(t.ints("a").unwrap(), &[10, 20, 30, 40, 50]);
        assert_eq!(view.len(), 3, "a shared column is copied, not mutated");
        assert!(matches!(
            t.append_int_rows(&[vec![6, 60], vec![7]]),
            Err(EngineError::RaggedColumns(_))
        ));
        assert_eq!(t.len(), 5, "a ragged batch appends nothing");
        t.remove_rows(&[1, 3]);
        assert_eq!(t.ints("k").unwrap(), &[1, 3, 5]);
        assert_eq!(t.row(2).unwrap(), vec![Atom::Int(5), Atom::Int(50)]);
        // A non-int column refuses the whole batch.
        let schema = Schema::new(vec![
            crate::schema::ColumnDef::int("k"),
            crate::schema::ColumnDef::new("f", AtomType::Float),
        ]);
        let cols = vec![
            Arc::new(Bat::from_ints("k", vec![1])),
            Arc::new(Bat::from_floats("f", vec![1.0])),
        ];
        let mut mixed = Table::new("m", schema, cols).unwrap();
        assert!(mixed.append_int_rows(&[vec![2, 2]]).is_err());
        assert_eq!(mixed.len(), 1);
    }

    #[test]
    fn empty_table() {
        let t = Table::from_int_columns("e", vec![("a", vec![])]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.rows().count(), 0);
    }

    #[test]
    fn concurrent_column_carries_table_oids() {
        use cracker_core::RangePred;
        let t = Table::from_int_columns("r", vec![("a", vec![30, 10, 20, 40])]).unwrap();
        for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 2 }] {
            let col = t
                .concurrent_column("a", CrackerConfig::default(), mode)
                .unwrap();
            let mut oids = col.select_oids(RangePred::between(15, 35));
            oids.sort_unstable();
            assert_eq!(oids, vec![0, 2]);
            col.validate().unwrap();
        }
        assert!(t
            .concurrent_column("zzz", CrackerConfig::default(), ConcurrencyMode::default())
            .is_err());
    }

    #[test]
    fn column_view_is_whole_column() {
        let t = sample();
        let v = t.column_view("k").unwrap();
        assert_eq!(v.len(), 3);
    }
}
