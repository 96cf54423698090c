//! Model-based property tests: the sharded store against a
//! `HashMap<Key, (Vec<u8>, u32)>`, and partitioner stability. Seeded by
//! `NETCACHE_TEST_SEED`.

use netcache_proto::{Key, Value, MAX_VALUE_LEN, VALUE_UNIT};
use netcache_store::{Partitioner, ShardedStore};
use proptest::prelude::*;
use std::collections::HashMap;

type Model = HashMap<Key, (Vec<u8>, u32)>;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, usize, u32),
    Get(u8),
    VersionOf(u8),
    Delete(u8),
    ForEach,
    Reserve(usize),
    Clear,
}

/// Lengths over the whole range, and on both sides of class boundaries.
fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=MAX_VALUE_LEN,
        (0usize..=MAX_VALUE_LEN / VALUE_UNIT).prop_map(|c| c * VALUE_UNIT),
        (0usize..MAX_VALUE_LEN / VALUE_UNIT).prop_map(|c| c * VALUE_UNIT + 1),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted towards writes so the table grows and keys get overwritten.
    prop_oneof![
        (any::<u8>(), len_strategy(), any::<u32>()).prop_map(|(k, l, v)| Op::Put(k, l, v)),
        (any::<u8>(), len_strategy(), any::<u32>()).prop_map(|(k, l, v)| Op::Put(k, l, v)),
        (any::<u8>(), len_strategy(), any::<u32>()).prop_map(|(k, l, v)| Op::Put(k, l, v)),
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::VersionOf),
        any::<u8>().prop_map(Op::Delete),
        Just(Op::ForEach),
        (0usize..300).prop_map(Op::Reserve),
        // Clear rarely, so tables grow between clears.
        (0u8..16).prop_map(|n| if n == 0 { Op::Clear } else { Op::ForEach }),
    ]
}

fn key(k: u8) -> Key {
    Key::from_u64(u64::from(k))
}

fn contents(store: &ShardedStore) -> Vec<(Key, Vec<u8>, u32)> {
    let mut seen = Vec::new();
    store.for_each(|k, bytes, version| seen.push((*k, bytes.to_vec(), version)));
    seen.sort();
    seen
}

fn model_contents(model: &Model) -> Vec<(Key, Vec<u8>, u32)> {
    let mut expected: Vec<_> = model
        .iter()
        .map(|(k, (b, v))| (*k, b.clone(), *v))
        .collect();
    expected.sort();
    expected
}

/// Same-length and class-changing overwrites, then delete and re-insert,
/// of every key, leaving each at its original length.
fn churn(store: &ShardedStore, model: &Model) {
    for (k, (bytes, version)) in model {
        let value = Value::from_slice(bytes).expect("bounded");
        let other = Value::for_item(k.low_u64(), (bytes.len() + 700) % (MAX_VALUE_LEN + 1));
        store.put(*k, &value, *version);
        store.put(*k, other, *version);
        store.put(*k, &value, *version);
        store.delete(k);
        store.put(*k, value, *version);
    }
}

proptest! {
    /// The store behaves exactly like the model under arbitrary operation
    /// sequences (table growth, reserve to capacities that are not powers
    /// of two, backward-shift deletes, values of every size class), and
    /// its arena stays flat under steady overwrite and delete/re-insert
    /// churn, which shows freed slots are reused.
    #[test]
    fn store_matches_model(
        shards in 1usize..4,
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let store = ShardedStore::new(shards);
        let mut model = Model::new();
        for op in ops {
            match op {
                Op::Put(k, len, version) => {
                    let value = Value::for_item(u64::from(version), len);
                    let old = model.insert(key(k), (value.as_bytes().to_vec(), version));
                    prop_assert_eq!(store.put(key(k), value, version), old.map(|(_, v)| v));
                }
                Op::Get(k) => {
                    let got = store.get(&key(k)).map(|i| (i.value.as_bytes().to_vec(), i.version));
                    prop_assert_eq!(got, model.get(&key(k)).cloned());
                }
                Op::VersionOf(k) => {
                    prop_assert_eq!(store.version_of(&key(k)), model.get(&key(k)).map(|e| e.1));
                }
                Op::Delete(k) => {
                    prop_assert_eq!(store.delete(&key(k)), model.remove(&key(k)).map(|e| e.1));
                }
                Op::ForEach => prop_assert_eq!(contents(&store), model_contents(&model)),
                Op::Reserve(n) => {
                    let per_shard: Vec<usize> =
                        (0..shards).map(|i| n / shards + usize::from(i < n % shards)).collect();
                    store.reserve(&per_shard);
                }
                Op::Clear => {
                    store.clear();
                    model.clear();
                    prop_assert_eq!(store.arena_bytes(), 0);
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }
        prop_assert_eq!(contents(&store), model_contents(&model));

        churn(&store, &model);
        let settled = store.arena_bytes();
        for _ in 0..4 {
            churn(&store, &model);
            prop_assert_eq!(store.arena_bytes(), settled);
        }
        prop_assert_eq!(contents(&store), model_contents(&model));
    }

    /// Partitioning is a pure function of (key, count, seed).
    #[test]
    fn partitioner_is_stable(key in any::<u64>(), parts in 1u32..4096, seed in any::<u64>()) {
        let p1 = Partitioner::new(parts, seed);
        let p2 = Partitioner::new(parts, seed);
        let k = Key::from_u64(key);
        prop_assert_eq!(p1.partition_of(&k), p2.partition_of(&k));
        prop_assert!(p1.partition_of(&k) < parts);
    }
}
