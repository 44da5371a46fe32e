//! Property tests for the storage substrate: codecs round-trip for
//! arbitrary data, checkpoint images round-trip and refuse damage
//! without panicking, and workloads are reproducible.

use proptest::prelude::*;
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{
    CheckpointBuilder, CheckpointReader, ColumnDef, ColumnType, Schema, Tuple, Value,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("NaN breaks equality", |f| !f.is_nan())
            .prop_map(Value::Float),
        ".{0,40}".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
    ]
}

fn schema_for(values: &[Value]) -> Schema {
    let columns = values
        .iter()
        .enumerate()
        .map(|(i, v)| ColumnDef::new(format!("c{i}"), v.column_type()))
        .collect();
    Schema::new("db", "t", "id", columns)
}

proptest! {
    #[test]
    fn value_codec_roundtrip(v in arb_value()) {
        let enc = v.encode();
        prop_assert_eq!(enc.len(), v.wire_len());
        let mut slice = enc.as_slice();
        prop_assert_eq!(Value::decode(&mut slice).unwrap(), v);
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn tuple_codec_roundtrip(
        key in any::<u64>(),
        values in proptest::collection::vec(arb_value(), 1..8),
    ) {
        let schema = schema_for(&values);
        let t = Tuple::new(&schema, key, values).unwrap();
        let enc = t.encode();
        prop_assert_eq!(enc.len(), t.wire_len());
        let mut slice = enc.as_slice();
        prop_assert_eq!(Tuple::decode(&mut slice).unwrap(), t);
    }

    #[test]
    fn schema_codec_roundtrip(
        n_cols in 1usize..10,
        names in proptest::collection::vec("[a-z]{1,8}", 10..11),
    ) {
        // Unique names: suffix with the index.
        let columns: Vec<ColumnDef> = (0..n_cols)
            .map(|i| {
                let ty = match i % 4 {
                    0 => ColumnType::Int,
                    1 => ColumnType::Float,
                    2 => ColumnType::Text,
                    _ => ColumnType::Bytes,
                };
                ColumnDef::new(format!("{}_{i}", names[i]), ty)
            })
            .collect();
        let schema = Schema::new("mydb", "mytable", "pk", columns);
        let mut bytes = Vec::new();
        schema.encode_into(&mut bytes);
        let mut slice = bytes.as_slice();
        let back = Schema::decode(&mut slice).unwrap();
        prop_assert!(slice.is_empty());
        prop_assert_eq!(back, schema);
    }

    /// Any list of sections round-trips through a checkpoint image,
    /// in order, byte for byte.
    #[test]
    fn checkpoint_roundtrip(
        sections in proptest::collection::vec(
            (".{0,12}", proptest::collection::vec(any::<u8>(), 0..300)),
            0..8,
        ),
    ) {
        let mut b = CheckpointBuilder::new();
        for (k, v) in &sections {
            b.add(k, v);
        }
        let image = b.finish();
        let r = CheckpointReader::parse(&image).unwrap();
        prop_assert_eq!(r.sections().len(), sections.len());
        for ((k, v), (rk, rv)) in sections.iter().zip(r.sections()) {
            prop_assert_eq!(k.as_str(), *rk);
            prop_assert_eq!(v.as_slice(), *rv);
        }
    }

    /// Hostile bytes never panic the reader, whether they start with
    /// the checkpoint magic or not; a damaged image is refused.
    #[test]
    fn checkpoint_fuzzed_parse(
        tail in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let _ = CheckpointReader::parse(&tail);
        let mut b = CheckpointBuilder::new();
        b.add("k", &tail);
        let mut image = b.finish();
        let at = at % image.len();
        image[at] ^= flip;
        prop_assert!(CheckpointReader::parse(&image).is_err());
        let mut prefixed = b"VCKP2\x00".to_vec();
        prefixed.extend_from_slice(&tail);
        let _ = CheckpointReader::parse(&prefixed);
    }

    /// Workload generation is a pure function of the spec.
    #[test]
    fn workload_reproducible(rows in 1u64..200, cols in 1usize..6, seed in any::<u64>()) {
        let spec = WorkloadSpec {
            seed,
            ..WorkloadSpec::new(rows, cols, 8)
        };
        let a = spec.build();
        let b = spec.build();
        prop_assert_eq!(a.len() as u64, rows);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x, y);
        }
    }

    /// Selectivity ranges touch exactly the requested fraction.
    #[test]
    fn selectivity_counts(rows in 1u64..500, pct in 1u32..=100) {
        let spec = WorkloadSpec::new(rows, 2, 8);
        let table = spec.build();
        let sel = pct as f64 / 100.0;
        let (lo, hi) = spec.range_for_selectivity(sel);
        let expect = ((rows as f64) * sel).ceil() as usize;
        prop_assert_eq!(table.range(lo, hi).count(), expect.clamp(1, rows as usize));
    }
}
