//! N-ary tables over dense columns.
//!
//! "N-ary relational tables are mapped by MonetDB's SQL compiler into a
//! series \[of\] binary tables with attributes head and tail of type
//! `bat[oid,type]`, where `oid` is the surrogate key and `type` the type of
//! the corresponding attribute" (§3.4.2). All columns of a [`Table`] share
//! the dense OID space `0..n`, so each head is virtual and each BAT is just
//! its tail: one `i64` array per column, the row at OID `o` being
//! position `o` of every array.

use crate::error::{EngineError, EngineResult};
use crate::schema::Schema;
use cracker_core::{ConcurrencyMode, ConcurrentColumn, CrackerConfig};
use std::sync::Arc;

/// An n-ary relational table decomposed into aligned dense columns.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Arc<Vec<i64>>>,
}

impl Table {
    /// An integer table from `(name, values)` pairs, one per column; every
    /// column must hold the same number of rows.
    pub fn from_int_columns(
        name: impl Into<String>,
        cols: Vec<(&str, Vec<i64>)>,
    ) -> EngineResult<Self> {
        let name = name.into();
        let n = cols.first().map_or(0, |(_, v)| v.len());
        if cols.iter().any(|(_, v)| v.len() != n) {
            return Err(EngineError::RaggedColumns(name));
        }
        let schema = Schema::new(&cols.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        let columns = cols.into_iter().map(|(_, v)| Arc::new(v)).collect();
        Ok(Table {
            name,
            schema,
            columns,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The size of the OID space: every row the columns hold. Under an
    /// [`AdaptiveDb`](crate::AdaptiveDb) that includes the rows a
    /// `DELETE` has tombstoned and no fold has compacted yet;
    /// [`AdaptiveDb::live_rows`](crate::AdaptiveDb::live_rows) counts
    /// the rows a query can see.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A column by name, as the shared array operators hold on to.
    pub fn column(&self, name: &str) -> EngineResult<&Arc<Vec<i64>>> {
        let pos = self
            .schema
            .position(name)
            .ok_or_else(|| EngineError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_owned(),
            })?;
        Ok(&self.columns[pos])
    }

    /// Every column, in schema order.
    pub fn columns(&self) -> &[Arc<Vec<i64>>] {
        &self.columns
    }

    /// Borrow a column's values.
    pub fn ints(&self, name: &str) -> EngineResult<&[i64]> {
        Ok(self.column(name)?)
    }

    /// Build a latched cracked copy of a column for concurrent readers,
    /// with `mode`'s shard count. The copy is detached: it carries this
    /// table's dense OIDs but does not observe later changes to the base
    /// column, exactly like the cracked copies
    /// [`crate::db::AdaptiveDb`] maintains.
    pub fn concurrent_column(
        &self,
        name: &str,
        config: CrackerConfig,
        mode: ConcurrencyMode,
    ) -> EngineResult<ConcurrentColumn<i64>> {
        Ok(ConcurrentColumn::from_base(
            self.ints(name)?,
            config,
            mode,
            None,
        ))
    }

    /// Append whole rows in place; new rows take the next dense OIDs.
    /// Every row must match the schema's arity — checked before any
    /// column grows, so a rejected batch leaves the table untouched. A
    /// column `Arc` shared with a reader is copied once (`Arc::make_mut`);
    /// an unshared one grows by the rows appended.
    pub fn append_int_rows<R: AsRef<[i64]>>(&mut self, rows: &[R]) -> EngineResult<()> {
        if rows.iter().any(|r| r.as_ref().len() != self.columns.len()) {
            return Err(EngineError::RaggedColumns(self.name.clone()));
        }
        for (i, col) in self.columns.iter_mut().enumerate() {
            Arc::make_mut(col).extend(rows.iter().map(|r| r.as_ref()[i]));
        }
        Ok(())
    }

    /// Remove the rows at the `doomed` OIDs (ascending, distinct, each
    /// below [`len`](Self::len)), compacting every column in one pass:
    /// each run of survivors between two doomed rows moves left once, by
    /// a `copy_within`. Survivors are renumbered densely from 0.
    pub fn remove_rows(&mut self, doomed: &[u32]) {
        for col in &mut self.columns {
            let v = Arc::make_mut(col);
            for (i, &gap) in doomed.iter().enumerate() {
                let next = doomed.get(i + 1).map_or(v.len(), |&p| p as usize);
                v.copy_within(gap as usize + 1..next, gap as usize - i);
            }
            v.truncate(v.len() - doomed.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(matches!(
            Table::from_int_columns("r", vec![("k", vec![1, 2]), ("a", vec![1])]),
            Err(EngineError::RaggedColumns(_))
        ));
    }

    #[test]
    fn bulk_append_continues_the_dense_oids() {
        let mut t = sample();
        t.append_int_rows(&[[4, 40], [5, 50]]).unwrap();
        assert_eq!(t.len(), 5);
        // OID o is position o of every column: the new rows are 3 and 4.
        assert_eq!((t.ints("k").unwrap()[3], t.ints("a").unwrap()[3]), (4, 40));
        assert_eq!((t.ints("k").unwrap()[4], t.ints("a").unwrap()[4]), (5, 50));
        let col = t
            .concurrent_column("a", CrackerConfig::default(), ConcurrencyMode::default())
            .unwrap();
        let mut oids = col.select_oids(cracker_core::RangePred::between(40, 50));
        oids.sort_unstable();
        assert_eq!(oids, vec![3, 4]);
        t.append_int_rows(&[] as &[[i64; 2]]).unwrap();
        assert_eq!(t.len(), 5, "an empty batch appends nothing");
    }

    #[test]
    fn rows_append_and_compact_in_place() {
        let mut t = sample();
        let shared = Arc::clone(t.column("k").unwrap());
        t.append_int_rows(&[vec![4, 40], vec![5, 50]]).unwrap();
        assert_eq!(t.ints("a").unwrap(), &[10, 20, 30, 40, 50]);
        assert_eq!(
            shared.as_slice(),
            &[1, 2, 3],
            "a shared column is copied, not mutated"
        );
        // Copied once: the column is unshared now and grows in place.
        let own = Arc::as_ptr(t.column("k").unwrap());
        assert_ne!(own, Arc::as_ptr(&shared));
        t.append_int_rows(&[vec![6, 60]]).unwrap();
        assert_eq!(Arc::as_ptr(t.column("k").unwrap()), own);
        assert!(matches!(
            t.append_int_rows(&[vec![7, 70], vec![8]]),
            Err(EngineError::RaggedColumns(_))
        ));
        assert_eq!(t.len(), 6, "a ragged batch appends nothing");
        t.remove_rows(&[1, 3]);
        assert_eq!(t.ints("k").unwrap(), &[1, 3, 5, 6]);
        assert_eq!(t.ints("a").unwrap(), &[10, 30, 50, 60]);
        assert_eq!(Arc::as_ptr(t.column("k").unwrap()), own);
        assert_eq!(shared.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn remove_rows_matches_a_filter_at_the_edges() {
        let k: Vec<i64> = (0..10).collect();
        let a: Vec<i64> = (0..10).map(|v| v * 10).collect();
        for doomed in [
            vec![],
            vec![0],
            vec![9],
            vec![0, 1, 2],
            vec![3, 4, 8, 9],
            vec![1, 5, 7],
            (0..10).collect(),
        ] {
            let mut t =
                Table::from_int_columns("r", vec![("k", k.clone()), ("a", a.clone())]).unwrap();
            t.remove_rows(&doomed);
            let keep = |col: &[i64]| -> Vec<i64> {
                (0..10u32)
                    .filter(|p| !doomed.contains(p))
                    .map(|p| col[p as usize])
                    .collect()
            };
            assert_eq!(t.ints("k").unwrap(), keep(&k).as_slice(), "{doomed:?}");
            assert_eq!(t.ints("a").unwrap(), keep(&a).as_slice(), "{doomed:?}");
            assert_eq!(t.len(), 10 - doomed.len());
        }
    }

    #[test]
    fn empty_table() {
        let t = Table::from_int_columns("e", vec![("a", vec![])]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.ints("a").unwrap(), &[] as &[i64]);
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
}
