//! Binary Association Tables.
//!
//! A [`Bat`] is the unit of storage: a sequence of BUNs (binary units), each
//! a `(head, tail)` pair. The head is an [`Oid`]; for freshly loaded columns
//! it is *dense* (`base + position`), which MonetDB exploits to avoid
//! materializing it at all. The tail is a typed column; strings are offsets
//! into a [`StrHeap`].
//!
//! N-ary relational tables are mapped, exactly as the paper describes for
//! MonetDB's SQL front-end, "into a series \[of\] binary tables with
//! attributes head and tail of type `bat[oid, type]`, where `oid` is the
//! surrogate key and `type` the type of the corresponding attribute"
//! (§3.4.2). The `engine` crate performs that mapping; this module only
//! knows about single BATs.

use crate::error::{StorageError, StorageResult};
use crate::heap::{HeapRef, StrHeap};
use crate::stats::BatStats;
use crate::value::{Atom, AtomType, Oid};

/// The head column of a BAT.
///
/// Dense heads are the common case: the i-th BUN has OID `base + i`, and no
/// storage is spent on the head at all. Cracking *shuffles* tuples, after
/// which the head must become explicit so the surrogate key still identifies
/// the original tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeadColumn {
    /// Virtual head: BUN `i` has OID `base + i`.
    Dense {
        /// OID of the first BUN.
        base: Oid,
    },
    /// Materialized head: BUN `i` has OID `oids[i]`.
    Explicit(Vec<Oid>),
}

impl HeadColumn {
    /// OID of the BUN at `pos`.
    pub fn oid_at(&self, pos: usize) -> Oid {
        match self {
            HeadColumn::Dense { base } => base + pos as Oid,
            HeadColumn::Explicit(v) => v[pos],
        }
    }

    /// True when the head is virtual/dense.
    pub fn is_dense(&self) -> bool {
        matches!(self, HeadColumn::Dense { .. })
    }

    /// Materialize the head as an explicit vector of length `len`.
    pub fn materialize(&self, len: usize) -> Vec<Oid> {
        match self {
            HeadColumn::Dense { base } => (0..len as Oid).map(|i| base + i).collect(),
            HeadColumn::Explicit(v) => v.clone(),
        }
    }
}

/// The typed tail column of a BAT.
#[derive(Debug, Clone)]
pub enum TailData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Strings: per-BUN heap references plus the backing heap.
    Str {
        /// Per-BUN reference into `heap`.
        refs: Vec<HeapRef>,
        /// The variable-sized atom heap.
        heap: StrHeap,
    },
    /// OIDs (used for join columns and Ψ-cracking surrogates).
    Oid(Vec<Oid>),
}

impl TailData {
    /// Type of the atoms in this tail.
    pub fn atom_type(&self) -> AtomType {
        match self {
            TailData::Int(_) => AtomType::Int,
            TailData::Float(_) => AtomType::Float,
            TailData::Str { .. } => AtomType::Str,
            TailData::Oid(_) => AtomType::Oid,
        }
    }

    /// Number of BUNs.
    pub fn len(&self) -> usize {
        match self {
            TailData::Int(v) => v.len(),
            TailData::Float(v) => v.len(),
            TailData::Str { refs, .. } => refs.len(),
            TailData::Oid(v) => v.len(),
        }
    }

    /// True when the tail holds no BUNs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The atom at `pos` (owned).
    pub fn atom_at(&self, pos: usize) -> Atom {
        match self {
            TailData::Int(v) => Atom::Int(v[pos]),
            TailData::Float(v) => Atom::Float(v[pos]),
            TailData::Str { refs, heap } => Atom::Str(heap.get(refs[pos]).to_owned()),
            TailData::Oid(v) => Atom::Oid(v[pos]),
        }
    }
}

/// A Binary Association Table: `(head oid, tail value)` pairs plus lazily
/// computed statistics.
#[derive(Debug, Clone)]
pub struct Bat {
    name: String,
    head: HeadColumn,
    tail: TailData,
    /// Cached statistics; cleared on mutation.
    stats: Option<BatStats>,
}

impl Bat {
    /// Create an empty BAT with a dense head starting at OID 0.
    pub fn new(name: impl Into<String>, tail_type: AtomType) -> Self {
        let tail = match tail_type {
            AtomType::Int => TailData::Int(Vec::new()),
            AtomType::Float => TailData::Float(Vec::new()),
            AtomType::Str => TailData::Str {
                refs: Vec::new(),
                heap: StrHeap::new(),
            },
            AtomType::Oid => TailData::Oid(Vec::new()),
        };
        Bat {
            name: name.into(),
            head: HeadColumn::Dense { base: 0 },
            tail,
            stats: None,
        }
    }

    /// Build an integer BAT from a vector, with a dense head from OID 0.
    pub fn from_ints(name: impl Into<String>, values: Vec<i64>) -> Self {
        Bat {
            name: name.into(),
            head: HeadColumn::Dense { base: 0 },
            tail: TailData::Int(values),
            stats: None,
        }
    }

    /// Build a float BAT from a vector, with a dense head from OID 0.
    pub fn from_floats(name: impl Into<String>, values: Vec<f64>) -> Self {
        Bat {
            name: name.into(),
            head: HeadColumn::Dense { base: 0 },
            tail: TailData::Float(values),
            stats: None,
        }
    }

    /// Build an OID-tail BAT (e.g. a join index) with a dense head.
    pub fn from_oids(name: impl Into<String>, values: Vec<Oid>) -> Self {
        Bat {
            name: name.into(),
            head: HeadColumn::Dense { base: 0 },
            tail: TailData::Oid(values),
            stats: None,
        }
    }

    /// Build a string BAT from an iterator of `&str`.
    pub fn from_strs<'a>(
        name: impl Into<String>,
        values: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        let mut heap = StrHeap::new();
        let refs = values.into_iter().map(|s| heap.intern(s)).collect();
        Bat {
            name: name.into(),
            head: HeadColumn::Dense { base: 0 },
            tail: TailData::Str { refs, heap },
            stats: None,
        }
    }

    /// Build a BAT with an explicit head (after reorganization the head can
    /// no longer be dense).
    pub fn with_explicit_head(
        name: impl Into<String>,
        oids: Vec<Oid>,
        tail: TailData,
    ) -> StorageResult<Self> {
        if oids.len() != tail.len() {
            return Err(StorageError::Misaligned {
                left: oids.len(),
                right: tail.len(),
            });
        }
        Ok(Bat {
            name: name.into(),
            head: HeadColumn::Explicit(oids),
            tail,
            stats: None,
        })
    }

    /// The BAT's name (catalog key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the BAT (used when registering cracked pieces).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of BUNs.
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// True when the BAT holds no BUNs.
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// Tail atom type.
    pub fn tail_type(&self) -> AtomType {
        self.tail.atom_type()
    }

    /// Borrow the head column.
    pub fn head(&self) -> &HeadColumn {
        &self.head
    }

    /// Borrow the tail column.
    pub fn tail(&self) -> &TailData {
        &self.tail
    }

    /// OID of the BUN at `pos`.
    pub fn oid_at(&self, pos: usize) -> StorageResult<Oid> {
        self.check(pos)?;
        Ok(self.head.oid_at(pos))
    }

    /// Tail atom at `pos` (owned).
    pub fn atom_at(&self, pos: usize) -> StorageResult<Atom> {
        self.check(pos)?;
        Ok(self.tail.atom_at(pos))
    }

    /// Borrow the tail as `&[i64]`, if it is an integer column.
    pub fn ints(&self) -> StorageResult<&[i64]> {
        match &self.tail {
            TailData::Int(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: AtomType::Int,
                found: other.atom_type(),
            }),
        }
    }

    /// Borrow the tail as `&[f64]`, if it is a float column.
    pub fn floats(&self) -> StorageResult<&[f64]> {
        match &self.tail {
            TailData::Float(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: AtomType::Float,
                found: other.atom_type(),
            }),
        }
    }

    /// Borrow the tail as `&[Oid]`, if it is an OID column.
    pub fn oids(&self) -> StorageResult<&[Oid]> {
        match &self.tail {
            TailData::Oid(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: AtomType::Oid,
                found: other.atom_type(),
            }),
        }
    }

    /// String at `pos`, if the tail is a string column.
    pub fn str_at(&self, pos: usize) -> StorageResult<&str> {
        self.check(pos)?;
        match &self.tail {
            TailData::Str { refs, heap } => Ok(heap.get(refs[pos])),
            other => Err(StorageError::TypeMismatch {
                expected: AtomType::Str,
                found: other.atom_type(),
            }),
        }
    }

    /// Append an atom, assigning the next dense OID (or pushing onto the
    /// explicit head). New elements are appended at the end, as in the
    /// paper's BAT description ("new elements are appended").
    pub fn append(&mut self, atom: Atom) -> StorageResult<Oid> {
        let next_oid = match &self.head {
            HeadColumn::Dense { base } => base + self.len() as Oid,
            HeadColumn::Explicit(v) => v.iter().copied().max().map_or(0, |m| m + 1),
        };
        self.append_with_oid(next_oid, atom)?;
        Ok(next_oid)
    }

    /// Append an atom under an explicit OID.
    pub fn append_with_oid(&mut self, oid: Oid, atom: Atom) -> StorageResult<()> {
        let expected = self.tail.atom_type();
        if atom.atom_type() != expected {
            return Err(StorageError::TypeMismatch {
                expected,
                found: atom.atom_type(),
            });
        }
        // Keep a dense head dense when the OID continues the run.
        let keeps_dense = match &self.head {
            HeadColumn::Dense { base } => oid == base + self.len() as Oid,
            HeadColumn::Explicit(_) => false,
        };
        if !keeps_dense && self.head.is_dense() {
            self.head = HeadColumn::Explicit(self.head.materialize(self.len()));
        }
        if let HeadColumn::Explicit(v) = &mut self.head {
            v.push(oid);
        }
        match (&mut self.tail, atom) {
            (TailData::Int(v), Atom::Int(x)) => v.push(x),
            (TailData::Float(v), Atom::Float(x)) => v.push(x),
            (TailData::Str { refs, heap }, Atom::Str(s)) => {
                let r = heap.intern(&s);
                refs.push(r);
            }
            (TailData::Oid(v), Atom::Oid(o)) => v.push(o),
            _ => unreachable!("type checked above"),
        }
        self.invalidate();
        Ok(())
    }

    /// Delete the BUN whose head is `oid`. Returns `true` when a BUN was
    /// removed. The paper's layout moves deleted BUNs to the front until
    /// commit; we compact eagerly, which is equivalent after commit.
    pub fn delete_oid(&mut self, oid: Oid) -> bool {
        let pos = (0..self.len()).find(|&p| self.head.oid_at(p) == oid);
        match pos {
            Some(p) => {
                self.remove_position(p);
                true
            }
            None => false,
        }
    }

    /// Remove the BUN at a physical position, shifting later BUNs down.
    fn remove_position(&mut self, pos: usize) {
        if self.head.is_dense() {
            self.head = HeadColumn::Explicit(self.head.materialize(self.len()));
        }
        if let HeadColumn::Explicit(v) = &mut self.head {
            v.remove(pos);
        }
        match &mut self.tail {
            TailData::Int(v) => {
                v.remove(pos);
            }
            TailData::Float(v) => {
                v.remove(pos);
            }
            TailData::Str { refs, .. } => {
                refs.remove(pos);
            }
            TailData::Oid(v) => {
                v.remove(pos);
            }
        }
        self.invalidate();
    }

    /// Bulk-append integers at the end, in one `extend` — the cost is
    /// proportional to the values appended, not to the BAT. A dense head
    /// stays dense; an explicit head continues past its largest OID, as
    /// [`append`](Self::append) does.
    pub fn append_ints(&mut self, values: impl IntoIterator<Item = i64>) -> StorageResult<()> {
        let TailData::Int(tail) = &mut self.tail else {
            return Err(StorageError::TypeMismatch {
                expected: AtomType::Int,
                found: self.tail.atom_type(),
            });
        };
        let before = tail.len();
        tail.extend(values);
        if let HeadColumn::Explicit(oids) = &mut self.head {
            let next = oids.iter().copied().max().map_or(0, |m| m + 1);
            oids.extend((next..).take(tail.len() - before));
        }
        self.invalidate();
        Ok(())
    }

    /// Remove the BUNs at the `doomed` positions (ascending, distinct,
    /// each below [`len`](Self::len)), compacting in one pass: each run of
    /// survivors between two doomed positions moves left once, by a
    /// `copy_within`. A dense head stays dense — survivors are renumbered
    /// from its base, which is what aligned table columns sharing one OID
    /// space need; an explicit head keeps the survivors' OIDs.
    pub fn remove_positions(&mut self, doomed: &[u32]) {
        fn remove_at<T: Copy>(v: &mut Vec<T>, doomed: &[u32]) {
            for (i, &gap) in doomed.iter().enumerate() {
                let next = doomed.get(i + 1).map_or(v.len(), |&p| p as usize);
                v.copy_within(gap as usize + 1..next, gap as usize - i);
            }
            v.truncate(v.len() - doomed.len());
        }
        if let HeadColumn::Explicit(oids) = &mut self.head {
            remove_at(oids, doomed);
        }
        match &mut self.tail {
            TailData::Int(v) => remove_at(v, doomed),
            TailData::Float(v) => remove_at(v, doomed),
            TailData::Str { refs, .. } => remove_at(refs, doomed),
            TailData::Oid(v) => remove_at(v, doomed),
        }
        self.invalidate();
    }

    /// Iterate `(oid, atom)` pairs in physical order.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, Atom)> + '_ {
        (0..self.len()).map(move |p| (self.head.oid_at(p), self.tail.atom_at(p)))
    }

    /// Statistics ((min,max), sortedness, cardinality), computed on first
    /// use and cached until the next mutation.
    pub fn stats(&mut self) -> &BatStats {
        let tail = &self.tail;
        self.stats.get_or_insert_with(|| BatStats::compute(tail))
    }

    /// Statistics without caching (for immutable contexts such as views).
    pub fn compute_stats(&self) -> BatStats {
        self.stats
            .clone()
            .unwrap_or_else(|| BatStats::compute(&self.tail))
    }

    fn check(&self, pos: usize) -> StorageResult<()> {
        if pos < self.len() {
            Ok(())
        } else {
            Err(StorageError::OutOfBounds {
                index: pos,
                len: self.len(),
            })
        }
    }

    fn invalidate(&mut self) {
        self.stats = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_head_assigns_sequential_oids() {
        let b = Bat::from_ints("r_a", vec![30, 10, 20]);
        assert!(b.head().is_dense());
        assert_eq!(b.oid_at(0).unwrap(), 0);
        assert_eq!(b.oid_at(2).unwrap(), 2);
        assert_eq!(b.atom_at(1).unwrap(), Atom::Int(10));
    }

    #[test]
    fn append_keeps_dense_head_dense() {
        let mut b = Bat::from_ints("r_a", vec![1, 2]);
        let oid = b.append(Atom::Int(3)).unwrap();
        assert_eq!(oid, 2);
        assert!(b.head().is_dense());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn append_with_gap_materializes_head() {
        let mut b = Bat::from_ints("r_a", vec![1, 2]);
        b.append_with_oid(40, Atom::Int(3)).unwrap();
        assert!(!b.head().is_dense());
        assert_eq!(b.oid_at(2).unwrap(), 40);
        // Next anonymous append continues past the max OID.
        let oid = b.append(Atom::Int(4)).unwrap();
        assert_eq!(oid, 41);
    }

    #[test]
    fn append_type_mismatch_is_rejected() {
        let mut b = Bat::from_ints("r_a", vec![]);
        let err = b.append(Atom::Float(1.0)).unwrap_err();
        assert_eq!(
            err,
            StorageError::TypeMismatch {
                expected: AtomType::Int,
                found: AtomType::Float
            }
        );
    }

    #[test]
    fn delete_by_oid_compacts_and_preserves_identity() {
        let mut b = Bat::from_ints("r_a", vec![10, 20, 30]);
        assert!(b.delete_oid(1));
        assert_eq!(b.len(), 2);
        assert_eq!(b.oid_at(0).unwrap(), 0);
        assert_eq!(b.oid_at(1).unwrap(), 2);
        assert_eq!(b.atom_at(1).unwrap(), Atom::Int(30));
        assert!(!b.delete_oid(1), "already deleted");
    }

    #[test]
    fn bulk_append_and_retain_keep_a_dense_head_dense() {
        let mut b = Bat::from_ints("r_a", vec![10, 20, 30]);
        assert_eq!(b.stats().max, Some(Atom::Int(30)));
        b.append_ints([5, 40]).unwrap();
        assert!(b.head().is_dense());
        assert_eq!(b.ints().unwrap(), &[10, 20, 30, 5, 40]);
        assert_eq!(b.stats().max, Some(Atom::Int(40)), "stats dropped");
        b.remove_positions(&[1, 3]);
        assert!(b.head().is_dense(), "survivors are renumbered");
        assert_eq!(b.ints().unwrap(), &[10, 30, 40]);
        assert_eq!(b.oid_at(2).unwrap(), 2);
        assert!(Bat::from_floats("f", vec![1.0]).append_ints([1]).is_err());
    }

    #[test]
    fn bulk_append_and_retain_follow_an_explicit_head() {
        let mut b =
            Bat::with_explicit_head("x", vec![7, 3, 9], TailData::Int(vec![1, 2, 3])).unwrap();
        b.append_ints([4, 5]).unwrap();
        assert_eq!(b.head(), &HeadColumn::Explicit(vec![7, 3, 9, 10, 11]));
        b.remove_positions(&[1, 3]);
        assert_eq!(b.head(), &HeadColumn::Explicit(vec![7, 9, 11]));
        assert_eq!(b.ints().unwrap(), &[1, 3, 5]);
    }

    #[test]
    fn remove_positions_matches_a_filter_at_the_edges() {
        let vals: Vec<i64> = (0..10).map(|v| v * 10).collect();
        for doomed in [
            vec![],
            vec![0],
            vec![9],
            vec![0, 1, 2],
            vec![3, 4, 8, 9],
            vec![1, 5, 7],
            (0..10).collect(),
        ] {
            let mut b = Bat::from_ints("r_a", vals.clone());
            b.remove_positions(&doomed);
            let want: Vec<i64> = (0..10u32)
                .filter(|p| !doomed.contains(p))
                .map(|p| vals[p as usize])
                .collect();
            assert_eq!(b.ints().unwrap(), want.as_slice(), "{doomed:?}");
            assert!(b.head().is_dense());
        }
    }

    #[test]
    fn string_bat_round_trips_through_heap() {
        let b = Bat::from_strs("names", ["ada", "bob", "ada"]);
        assert_eq!(b.str_at(0).unwrap(), "ada");
        assert_eq!(b.str_at(2).unwrap(), "ada");
        assert_eq!(b.atom_at(1).unwrap(), Atom::from("bob"));
    }

    #[test]
    fn typed_slice_access_checks_type() {
        let b = Bat::from_floats("f", vec![1.5, 2.5]);
        assert_eq!(b.floats().unwrap(), &[1.5, 2.5]);
        assert!(b.ints().is_err());
    }

    #[test]
    fn out_of_bounds_access_is_an_error() {
        let b = Bat::from_ints("r_a", vec![1]);
        assert_eq!(
            b.atom_at(1).unwrap_err(),
            StorageError::OutOfBounds { index: 1, len: 1 }
        );
    }

    #[test]
    fn explicit_head_requires_alignment() {
        let err = Bat::with_explicit_head("x", vec![1, 2, 3], TailData::Int(vec![1])).unwrap_err();
        assert_eq!(err, StorageError::Misaligned { left: 3, right: 1 });
    }

    #[test]
    fn iter_yields_oid_atom_pairs() {
        let b = Bat::from_ints("r_a", vec![5, 6]);
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(pairs, vec![(0, Atom::Int(5)), (1, Atom::Int(6))]);
    }
}
