//! Table schemas.
//!
//! Formula (1) derives every attribute digest from
//! `h(database ‖ table ‖ attribute ‖ key ‖ value)`, so the schema — not
//! just the data — is part of what is authenticated. [`Schema`] owns those
//! names and produces the canonical digest input.

use crate::value::{ColumnType, Value};
use crate::StorageError;

/// One column definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    /// Attribute name (part of the digest input).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// A table schema. The primary key is a dedicated `u64` column (named
/// separately) and the remaining attributes are listed in `columns`; this
/// mirrors the paper's model of a B-tree keyed on the primary key with
/// `N_C` payload attributes per tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Database name (digest namespace component).
    pub database: String,
    /// Table name (digest namespace component).
    pub table: String,
    /// Name of the primary-key column.
    pub key_name: String,
    /// Payload attribute definitions (the paper's `N_C` columns).
    pub columns: Vec<ColumnDef>,
}

/// Formula (1)'s hash inputs for a fixed list of columns, built in one
/// reused buffer: each column's `db ‖ table ‖ attr` head is encoded once
/// up front and a value only appends `key ‖ value` to it. Made by
/// [`Schema::attribute_inputs`].
pub struct AttributeInputs {
    /// The columns' heads, back to back.
    heads: Vec<u8>,
    /// End offset in `heads` of each column's head.
    ends: Vec<usize>,
    buf: Vec<u8>,
}

impl AttributeInputs {
    /// Formula (1)'s input for `value` of the `slot`-th of the columns
    /// this was made for, under `key`; valid until the next call.
    pub fn input(&mut self, slot: usize, key: u64, value: &Value) -> &[u8] {
        let start = if slot == 0 { 0 } else { self.ends[slot - 1] };
        self.buf.clear();
        self.buf
            .extend_from_slice(&self.heads[start..self.ends[slot]]);
        self.buf.extend_from_slice(&key.to_be_bytes());
        value.encode_into(&mut self.buf);
        &self.buf
    }
}

impl Schema {
    /// Create a schema.
    pub fn new(
        database: impl Into<String>,
        table: impl Into<String>,
        key_name: impl Into<String>,
        columns: Vec<ColumnDef>,
    ) -> Self {
        let schema = Self {
            database: database.into(),
            table: table.into(),
            key_name: key_name.into(),
            columns,
        };
        let mut names: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
        names.push(&schema.key_name);
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "column names must be unique"
        );
        schema
    }

    /// Number of payload attributes (the paper's `N_C`).
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validate that a row of values matches this schema.
    pub fn check_row(&self, values: &[Value]) -> Result<(), StorageError> {
        if values.len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "expected {} values, got {}",
                self.columns.len(),
                values.len()
            )));
        }
        for (col, v) in self.columns.iter().zip(values) {
            if v.column_type() != col.ty {
                return Err(StorageError::SchemaMismatch(format!(
                    "column {} expects {:?}, got {:?}",
                    col.name,
                    col.ty,
                    v.column_type()
                )));
            }
        }
        Ok(())
    }

    /// Append the `db ‖ table ‖ attr` head of formula (1)'s input — the
    /// part that is the same for every value of a column.
    fn attribute_digest_prefix(&self, column: usize, out: &mut Vec<u8>) {
        for part in [
            self.database.as_bytes(),
            self.table.as_bytes(),
            self.columns[column].name.as_bytes(),
        ] {
            out.extend_from_slice(&(part.len() as u32).to_be_bytes());
            out.extend_from_slice(part);
        }
    }

    /// The canonical digest inputs of formula (1),
    /// `db ‖ table ‖ attr ‖ key ‖ value` with each name length-prefixed
    /// so that no two distinct inputs concatenate to the same byte
    /// string, for values of the given `columns` (valid indices: all of
    /// them, or a query's returned columns) — one reused buffer, no
    /// allocation per value.
    pub fn attribute_inputs(&self, columns: impl IntoIterator<Item = usize>) -> AttributeInputs {
        let mut heads = Vec::new();
        let ends = columns
            .into_iter()
            .map(|col| {
                self.attribute_digest_prefix(col, &mut heads);
                heads.len()
            })
            .collect();
        AttributeInputs {
            heads,
            ends,
            buf: Vec::new(),
        }
    }

    /// Serialize the schema (distribution bundles carry schemas so edge
    /// servers and clients can be bootstrapped from bytes).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        put_str(out, &self.database);
        put_str(out, &self.table);
        put_str(out, &self.key_name);
        out.extend_from_slice(&(self.columns.len() as u32).to_be_bytes());
        for c in &self.columns {
            put_str(out, &c.name);
            out.push(match c.ty {
                ColumnType::Int => 1,
                ColumnType::Float => 2,
                ColumnType::Text => 3,
                ColumnType::Bytes => 4,
            });
        }
    }

    /// Bytes [`encode_into`](Self::encode_into) appends.
    pub fn encoded_len(&self) -> usize {
        12 + self.database.len()
            + self.table.len()
            + self.key_name.len()
            + 4
            + self.columns.iter().map(|c| 5 + c.name.len()).sum::<usize>()
    }

    /// Decode a schema, advancing `buf`.
    pub fn decode(buf: &mut &[u8]) -> Result<Self, StorageError> {
        fn get_str(buf: &mut &[u8]) -> Result<String, StorageError> {
            if buf.len() < 4 {
                return Err(StorageError::Corrupt("schema string truncated".into()));
            }
            let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
            *buf = &buf[4..];
            if buf.len() < len {
                return Err(StorageError::Corrupt("schema string truncated".into()));
            }
            let s = String::from_utf8(buf[..len].to_vec())
                .map_err(|_| StorageError::Corrupt("schema string not UTF-8".into()))?;
            *buf = &buf[len..];
            Ok(s)
        }
        let database = get_str(buf)?;
        let table = get_str(buf)?;
        let key_name = get_str(buf)?;
        if buf.len() < 4 {
            return Err(StorageError::Corrupt(
                "schema column count truncated".into(),
            ));
        }
        let n = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
        *buf = &buf[4..];
        let mut columns = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let name = get_str(buf)?;
            if buf.is_empty() {
                return Err(StorageError::Corrupt("schema column type truncated".into()));
            }
            let ty = match buf[0] {
                1 => ColumnType::Int,
                2 => ColumnType::Float,
                3 => ColumnType::Text,
                4 => ColumnType::Bytes,
                t => {
                    return Err(StorageError::Corrupt(format!("bad column type tag {t}")));
                }
            };
            *buf = &buf[1..];
            columns.push(ColumnDef { name, ty });
        }
        Ok(Schema::new(database, table, key_name, columns))
    }

    /// A compact fingerprint of the schema itself, mixed into tree
    /// metadata signatures so that a VB-tree cannot be replayed against a
    /// different schema.
    pub fn fingerprint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for part in [&self.database, &self.table, &self.key_name] {
            out.extend_from_slice(&(part.len() as u32).to_be_bytes());
            out.extend_from_slice(part.as_bytes());
        }
        out.extend_from_slice(&(self.columns.len() as u32).to_be_bytes());
        for c in &self.columns {
            out.extend_from_slice(&(c.name.len() as u32).to_be_bytes());
            out.extend_from_slice(c.name.as_bytes());
            out.push(match c.ty {
                ColumnType::Int => 1,
                ColumnType::Float => 2,
                ColumnType::Text => 3,
                ColumnType::Bytes => 4,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            "bank",
            "accounts",
            "id",
            vec![
                ColumnDef::new("owner", ColumnType::Text),
                ColumnDef::new("balance", ColumnType::Int),
            ],
        )
    }

    #[test]
    fn check_row_accepts_matching() {
        let s = schema();
        assert!(s
            .check_row(&[Value::from("alice"), Value::from(100i64)])
            .is_ok());
    }

    #[test]
    fn check_row_rejects_arity() {
        let s = schema();
        assert!(s.check_row(&[Value::from("alice")]).is_err());
    }

    #[test]
    fn check_row_rejects_type() {
        let s = schema();
        assert!(s
            .check_row(&[Value::from(5i64), Value::from(100i64)])
            .is_err());
    }

    /// Formula (1)'s input of one value, through a fresh builder.
    fn digest_input(s: &Schema, column: usize, key: u64, value: &Value) -> Vec<u8> {
        s.attribute_inputs([column]).input(0, key, value).to_vec()
    }

    #[test]
    fn digest_input_namespaced() {
        let s = schema();
        let a = digest_input(&s, 0, 1, &Value::from("alice"));
        let b = digest_input(&s, 1, 1, &Value::from("alice"));
        assert_ne!(a, b, "different attributes must hash differently");
        let c = digest_input(&s, 0, 2, &Value::from("alice"));
        assert_ne!(a, c, "different keys must hash differently");

        let other = Schema::new("bank2", "accounts", "id", s.columns.clone());
        let d = digest_input(&other, 0, 1, &Value::from("alice"));
        assert_ne!(a, d, "different databases must hash differently");
    }

    #[test]
    fn attribute_inputs_match_digest_input() {
        let s = schema();
        // Columns out of order and repeated: slots index the list given.
        let columns = [1usize, 0, 1];
        let values = [Value::from(7i64), Value::from("bob"), Value::from(-1i64)];
        let mut inputs = s.attribute_inputs(columns);
        for key in [0u64, 42, u64::MAX] {
            for (slot, (&col, v)) in columns.iter().zip(&values).enumerate() {
                // db ‖ table ‖ attr, each u32-length-prefixed, then the
                // key and the value's own encoding.
                let mut want = Vec::new();
                for part in ["bank", "accounts", &s.columns[col].name] {
                    want.extend_from_slice(&(part.len() as u32).to_be_bytes());
                    want.extend_from_slice(part.as_bytes());
                }
                want.extend_from_slice(&key.to_be_bytes());
                v.encode_into(&mut want);
                assert_eq!(inputs.input(slot, key, v), want);
            }
        }
    }

    #[test]
    fn digest_input_no_concatenation_ambiguity() {
        // ("ab","c") vs ("a","bc") as db/table must differ thanks to
        // length prefixes.
        let s1 = Schema::new("ab", "c", "id", vec![ColumnDef::new("x", ColumnType::Int)]);
        let s2 = Schema::new("a", "bc", "id", vec![ColumnDef::new("x", ColumnType::Int)]);
        assert_ne!(
            digest_input(&s1, 0, 1, &Value::from(1i64)),
            digest_input(&s2, 0, 1, &Value::from(1i64))
        );
    }

    #[test]
    fn column_index_lookup() {
        let s = schema();
        assert_eq!(s.column_index("owner"), Some(0));
        assert_eq!(s.column_index("balance"), Some(1));
        assert_eq!(s.column_index("nope"), None);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_columns_rejected() {
        Schema::new(
            "d",
            "t",
            "id",
            vec![
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Text),
            ],
        );
    }

    #[test]
    fn fingerprint_distinguishes_schemas() {
        let s = schema();
        let mut other = schema();
        other.columns[1].ty = ColumnType::Float;
        assert_ne!(s.fingerprint_bytes(), other.fingerprint_bytes());
    }
}
