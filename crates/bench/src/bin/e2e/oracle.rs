//! The naive oracle: a column-major row store that answers by scanning.
//!
//! It shares no code with the program under test. Rows live in insertion
//! order; a delete compacts the store, exactly as SQL `DELETE` renumbers
//! the session's rows, so positions stay comparable to the program's
//! OIDs. An answer is reduced to a [`Digest`]: the number of matching
//! rows, the number of delivered rows and an order-independent checksum
//! of the delivered rows (cracked answers come back in piece order).

/// Count and order-independent checksum of one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Rows that satisfied the predicate (for a write: rows affected).
    pub matched: u64,
    /// Rows delivered (1 for a `count(*)`).
    pub rows: u64,
    /// Wrapping sum of [`row_hash`] over the delivered rows.
    pub checksum: u64,
}

impl Digest {
    /// The digest of a single-row aggregate answer `[matched]`.
    pub fn of_count(matched: u64) -> Digest {
        Digest {
            matched,
            rows: 1,
            checksum: row_hash(&[matched as i64]),
        }
    }

    /// The digest of delivered rows, all of which matched.
    pub fn of_rows<'a>(rows: impl Iterator<Item = &'a [i64]>) -> Digest {
        let mut d = Digest::default();
        rows.for_each(|row| d.push_row(row));
        d
    }

    /// Account one delivered, matching row.
    pub fn push_row(&mut self, row: &[i64]) {
        self.matched += 1;
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(row_hash(row));
    }

    /// The digest of a write acknowledgement.
    pub fn of_write(affected: u64) -> Digest {
        Digest {
            matched: affected,
            rows: 0,
            checksum: 0,
        }
    }
}

/// Hash of one row (splitmix64 steps folded over the cells).
pub fn row_hash(row: &[i64]) -> u64 {
    row.iter().fold(0x9E37_79B9_7F4A_7C15u64, |h, &v| {
        let mut z = (h ^ v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// What a select delivers.
#[derive(Debug, Clone, Copy)]
pub enum Project<'a> {
    /// One row holding the match count.
    Count,
    /// The listed columns of every matching row.
    Columns(&'a [usize]),
}

/// A half-open range `lo <= value < hi` over one column.
pub type Filter = (usize, i64, i64);

/// The reference store.
#[derive(Debug, Clone)]
pub struct Oracle {
    cols: Vec<Vec<i64>>,
}

impl Oracle {
    /// A store over equally long columns.
    pub fn new(cols: Vec<Vec<i64>>) -> Oracle {
        assert!(cols.windows(2).all(|w| w[0].len() == w[1].len()));
        Oracle { cols }
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.cols[0].len()
    }

    /// One column, in row order.
    pub fn column(&self, i: usize) -> &[i64] {
        &self.cols[i]
    }

    /// Positions of the rows passing every filter: one tight scan of the
    /// first filter's column, then the other filters on the survivors.
    fn hits(&self, filters: &[Filter]) -> Vec<usize> {
        let Some((&(c, lo, hi), rest)) = filters.split_first() else {
            return (0..self.len()).collect();
        };
        let mut rows: Vec<usize> = (self.cols[c].iter().enumerate())
            .filter(|(_, v)| (lo..hi).contains(*v))
            .map(|(row, _)| row)
            .collect();
        rows.retain(|&row| {
            rest.iter()
                .all(|&(c, lo, hi)| (lo..hi).contains(&self.cols[c][row]))
        });
        rows
    }

    /// Answer a conjunctive range select by scanning.
    pub fn select(&self, filters: &[Filter], project: Project) -> Digest {
        let hits = self.hits(filters);
        match project {
            Project::Count => Digest::of_count(hits.len() as u64),
            Project::Columns(cols) => {
                let mut d = Digest::default();
                let mut buf = vec![0i64; cols.len()];
                for row in hits {
                    for (cell, &c) in buf.iter_mut().zip(cols) {
                        *cell = self.cols[c][row];
                    }
                    d.push_row(&buf);
                }
                d
            }
        }
    }

    /// Append rows (one cell per column each).
    pub fn insert(&mut self, rows: &[Vec<i64>]) {
        for row in rows {
            assert_eq!(row.len(), self.cols.len(), "row arity");
            for (col, &v) in self.cols.iter_mut().zip(row) {
                col.push(v);
            }
        }
    }

    /// Delete matching rows, compacting the store; returns how many.
    pub fn delete(&mut self, filters: &[Filter]) -> u64 {
        let doomed = self.hits(filters);
        for col in &mut self.cols {
            let (mut row, mut next) = (0, doomed.iter().peekable());
            col.retain(|_| {
                let keep = next.next_if_eq(&&row).is_none();
                row += 1;
                keep
            });
        }
        doomed.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Oracle {
        Oracle::new(vec![
            vec![1, 2, 3, 4],
            vec![10, 20, 30, 40],
            vec![7, 7, 8, 8],
        ])
    }

    #[test]
    fn select_counts_and_checksums_ignore_order() {
        let o = store();
        assert_eq!(
            o.select(&[(1, 20, 41)], Project::Count),
            Digest::of_count(3)
        );
        let d = o.select(&[(1, 20, 41), (2, 8, 9)], Project::Columns(&[0, 2]));
        let rows: [&[i64]; 2] = [&[4, 8], &[3, 8]];
        assert_eq!(d, Digest::of_rows(rows.into_iter()));
        assert_ne!(row_hash(&[1, 2]), row_hash(&[2, 1]));
        assert_eq!(o.select(&[], Project::Count).matched, 4);
    }

    #[test]
    fn writes_keep_insertion_order_and_compact() {
        let mut o = store();
        o.insert(&[vec![5, 20, 9]]);
        assert_eq!(o.delete(&[(1, 20, 21)]), 2);
        assert_eq!(o.column(0), &[1, 3, 4]);
        assert_eq!(o.len(), 3);
    }
}
