//! Primary-key-ordered tables.

use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::StorageError;
use std::collections::BTreeMap;

/// A heap table ordered by primary key. This is the "base table" that the
/// central server owns and distributes to edge servers alongside its
/// VB-tree.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    rows: BTreeMap<u64, Tuple>,
}

impl Table {
    /// Empty table.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows: BTreeMap::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (the paper's `N_R`).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a tuple; rejects duplicate keys and schema mismatches.
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), StorageError> {
        self.schema.check_row(&tuple.values)?;
        if self.rows.contains_key(&tuple.key) {
            return Err(StorageError::DuplicateKey(tuple.key));
        }
        self.rows.insert(tuple.key, tuple);
        Ok(())
    }

    /// Remove a tuple by key, returning it.
    pub fn delete(&mut self, key: u64) -> Result<Tuple, StorageError> {
        self.rows.remove(&key).ok_or(StorageError::KeyNotFound(key))
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<&Tuple> {
        self.rows.get(&key)
    }

    /// Inclusive range scan in key order.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = &Tuple> {
        self.rows.range(lo..=hi).map(|(_, t)| t)
    }

    /// All tuples in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.values()
    }

    /// Smallest and largest keys, if any rows exist.
    pub fn key_bounds(&self) -> Option<(u64, u64)> {
        let lo = self.rows.keys().next()?;
        let hi = self.rows.keys().next_back()?;
        Some((*lo, *hi))
    }

    /// Total serialized size of all rows — the base-table storage cost of
    /// Section 4.1.
    pub fn data_bytes(&self) -> usize {
        self.rows.values().map(Tuple::wire_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{ColumnType, Value};

    fn table() -> Table {
        let schema = Schema::new("db", "t", "id", vec![ColumnDef::new("v", ColumnType::Int)]);
        let mut t = Table::new(schema);
        for k in [5u64, 1, 9, 3] {
            let tuple = Tuple::new(t.schema(), k, vec![Value::from(k as i64 * 10)]).unwrap();
            t.insert(tuple).unwrap();
        }
        t
    }

    #[test]
    fn insert_get_delete() {
        let mut t = table();
        assert_eq!(t.len(), 4);
        assert!(t.get(5).is_some());
        assert!(t.get(6).is_none());
        let removed = t.delete(5).unwrap();
        assert_eq!(removed.key, 5);
        assert!(t.get(5).is_none());
        assert!(matches!(t.delete(5), Err(StorageError::KeyNotFound(5))));
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = table();
        let dup = Tuple::new(t.schema(), 1, vec![Value::from(0i64)]).unwrap();
        assert!(matches!(t.insert(dup), Err(StorageError::DuplicateKey(1))));
    }

    #[test]
    fn range_in_key_order() {
        let t = table();
        let keys: Vec<u64> = t.range(2, 9).map(|r| r.key).collect();
        assert_eq!(keys, vec![3, 5, 9]);
        let all: Vec<u64> = t.iter().map(|r| r.key).collect();
        assert_eq!(all, vec![1, 3, 5, 9]);
    }

    #[test]
    fn key_bounds() {
        let t = table();
        assert_eq!(t.key_bounds(), Some((1, 9)));
        let empty = Table::new(t.schema().clone());
        assert_eq!(empty.key_bounds(), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn data_bytes_counts_rows() {
        let t = table();
        let per_row = t.get(1).unwrap().wire_len();
        assert_eq!(t.data_bytes(), 4 * per_row);
    }
}
