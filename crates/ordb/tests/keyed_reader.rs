//! The one keyed reader ([`Storage::keyed_reader`]) answers a lookup three
//! ways — fresh-index probe, one-pass hash multimap, per-lookup scan — and
//! every document reconstructor's bulk ≡ naive guarantee rests on the three
//! giving the same ascending slot list. Pinned here on a seeded table with
//! duplicate keys, NULL keys and keys that share a hash bucket without being
//! SQL-equal (`'04'`, `'4'` and `4` all bucket as the number 4).

use xmlord_ordb::storage::{KeyedReader, Storage};
use xmlord_ordb::{Ident, Value};
use xmlord_prng::Prng;

const KEY_COL: usize = 1;

fn tab() -> Ident {
    Ident::new("Tab").unwrap()
}

/// Keys the table draws from; also the keys every test asks for (plus
/// `absent`, which no row carries).
fn key_pool() -> Vec<Value> {
    vec![
        Value::Null,
        Value::str("04"),
        Value::str("4"),
        Value::Num(4.0),
        Value::Num(7.0),
        Value::str("doc-1"),
        Value::str("doc-2"),
        Value::Ref(xmlord_ordb::Oid(3)),
    ]
}

fn seeded(seed: u64, with_index: bool) -> Storage {
    let mut rng = Prng::seed_from_u64(seed);
    let pool = key_pool();
    let mut st = Storage::new();
    st.create_table(tab());
    for n in 0..200 {
        let key = rng.choose(&pool).clone();
        st.insert_row(&tab(), vec![Value::Num(n as f64), key], false).unwrap();
    }
    if with_index {
        st.create_index(Ident::new("IxKey").unwrap(), tab(), vec![KEY_COL]);
    }
    st
}

fn asked_keys() -> Vec<Value> {
    let mut keys = key_pool();
    keys.push(Value::str("absent"));
    keys
}

fn answers(reader: &mut KeyedReader) -> Vec<Vec<usize>> {
    asked_keys().iter().map(|k| reader.slots(k)).collect()
}

#[test]
fn index_multimap_and_scan_give_the_same_ascending_slots() {
    for seed in [1u64, 0xBEEF, 0x2002_0325] {
        let indexed = seeded(seed, true);
        let bare = seeded(seed, false);
        let mut by_index = indexed.keyed_reader(&tab(), KEY_COL, true).unwrap();
        let mut by_multimap = bare.keyed_reader(&tab(), KEY_COL, true).unwrap();
        let mut by_scan = bare.keyed_reader(&tab(), KEY_COL, false).unwrap();

        let reference = answers(&mut by_scan);
        assert_eq!(answers(&mut by_index), reference, "seed {seed:#x}: index diverged");
        assert_eq!(answers(&mut by_multimap), reference, "seed {seed:#x}: multimap diverged");
        for (key, slots) in asked_keys().iter().zip(&reference) {
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "{key:?}: {slots:?} not ascending");
            let rows = by_scan.rows();
            // The answer is exactly the SQL-equal rows — independent of the
            // reader's own filter.
            let expected: Vec<usize> = (0..rows.len())
                .filter(|&s| rows[s].values[KEY_COL].sql_eq(key) == Some(true))
                .collect();
            assert_eq!(slots, &expected, "seed {seed:#x}: {key:?}");
        }
        // NULL never matches, asked for or stored.
        assert!(reference[0].is_empty());

        // Each reader took the access path it was opened on, and the
        // multimap was built once however many keys were asked.
        let asked = asked_keys().len() as u64;
        assert_eq!((by_index.index_probes, by_index.table_scans), (asked, 0));
        assert_eq!((by_multimap.index_probes, by_multimap.table_scans), (0, 1));
        assert_eq!((by_scan.index_probes, by_scan.table_scans), (0, asked));
    }
}

#[test]
fn colliding_hash_candidates_with_unequal_values_are_dropped() {
    let mut st = Storage::new();
    st.create_table(tab());
    for key in [Value::str("04"), Value::str("4"), Value::Num(4.0), Value::Null, Value::str("4")] {
        st.insert_row(&tab(), vec![Value::Null, key], false).unwrap();
    }
    st.create_index(Ident::new("IxKey").unwrap(), tab(), vec![KEY_COL]);
    let mut no_index = st.clone();
    no_index.drop_index(&Ident::new("IxKey").unwrap());
    for storage in [&st, &no_index] {
        let mut reader = storage.keyed_reader(&tab(), KEY_COL, true).unwrap();
        // One bucket holds slots 0, 1, 2 and 4; string equality is exact,
        // a number compares numerically with all of them.
        assert_eq!(reader.slots(&Value::str("4")), vec![1, 2, 4]);
        assert_eq!(reader.slots(&Value::str("04")), vec![0, 2]);
        assert_eq!(reader.slots(&Value::Num(4.0)), vec![0, 1, 2, 4]);
    }
}

#[test]
fn stale_index_falls_back_to_the_multimap() {
    let mut st = seeded(7, true);
    let fresh = answers(&mut st.keyed_reader(&tab(), KEY_COL, true).unwrap());
    // A `table_mut` handout bumps the table version without index
    // maintenance: the buckets now trail the table.
    st.table_mut(&tab()).unwrap();
    assert!(!st.index_is_fresh(&Ident::new("IxKey").unwrap()));
    let mut reader = st.keyed_reader(&tab(), KEY_COL, true).unwrap();
    assert_eq!(answers(&mut reader), fresh);
    assert_eq!((reader.index_probes, reader.table_scans), (0, 1));
}

#[test]
fn missing_table_has_no_reader() {
    assert!(Storage::new().keyed_reader(&tab(), KEY_COL, true).is_none());
}
