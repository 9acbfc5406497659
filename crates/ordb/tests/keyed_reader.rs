//! The one keyed reader ([`Storage::keyed_reader`]) answers a lookup three
//! ways — fresh-index probe, one-pass hash multimap, per-lookup scan — and
//! every document reconstructor's bulk ≡ naive guarantee rests on the three
//! giving the same ascending slot list. Pinned here on a seeded table with
//! duplicate keys, NULL keys and keys that share a hash bucket without being
//! SQL-equal (`'04'`, `'4'` and `4` all bucket as the number 4). A reader
//! over several tables gives `(table, slot)` pairs in the order the tables
//! were opened, then heap order, the same three ways.

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
    asked_keys().iter().map(|k| reader.each_slot(k).collect()).collect()
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
        assert_eq!(reader.each_slot(&Value::str("4")).collect::<Vec<_>>(), vec![1, 2, 4]);
        assert_eq!(reader.each_slot(&Value::str("04")).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(reader.each_slot(&Value::Num(4.0)).collect::<Vec<_>>(), vec![0, 1, 2, 4]);
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
    let st = seeded(1, false);
    let missing = [tab(), Ident::new("Absent").unwrap()];
    assert!(st.keyed_reader_over(&missing, KEY_COL, true).is_none());
}

/// The tables of the multi-table tests, in the order the reader opens them
/// (not the storage's own name order).
fn many() -> Vec<Ident> {
    ["TabC", "TabA", "TabB"].iter().map(|n| Ident::new(n).unwrap()).collect()
}

/// Three tables of different sizes drawing keys from one pool, so every
/// key — `'4'` and `4` among them — occurs in several; `indexed` names the
/// tables given a key index.
fn seeded_many(seed: u64, indexed: &[usize]) -> Storage {
    let mut rng = Prng::seed_from_u64(seed);
    let pool = key_pool();
    let mut st = Storage::new();
    for (t, table) in many().into_iter().enumerate() {
        st.create_table(table.clone());
        for n in 0..40 + 30 * t {
            let key = rng.choose(&pool).clone();
            st.insert_row(&table, vec![Value::Num(n as f64), key], false).unwrap();
        }
        if indexed.contains(&t) {
            st.create_index(Ident::new(&format!("IxKey{t}")).unwrap(), table, vec![KEY_COL]);
        }
    }
    st
}

fn lookups(reader: &mut KeyedReader) -> Vec<Vec<(usize, usize)>> {
    asked_keys().iter().map(|k| reader.lookup(k).collect()).collect()
}

#[test]
fn a_reader_over_several_tables_answers_in_table_then_heap_order_three_ways() {
    for seed in [3u64, 0xC0FFEE, 0x2002_0325] {
        let all = seeded_many(seed, &[0, 1, 2]);
        let some = seeded_many(seed, &[1]);
        let bare = seeded_many(seed, &[]);
        let mut by_index = all.keyed_reader_over(&many(), KEY_COL, true).unwrap();
        let mut by_multimap = bare.keyed_reader_over(&many(), KEY_COL, true).unwrap();
        let mut partly_indexed = some.keyed_reader_over(&many(), KEY_COL, true).unwrap();
        let mut by_scan = bare.keyed_reader_over(&many(), KEY_COL, false).unwrap();

        let reference = lookups(&mut by_scan);
        assert_eq!(lookups(&mut by_index), reference, "seed {seed:#x}: index diverged");
        assert_eq!(lookups(&mut by_multimap), reference, "seed {seed:#x}: multimap diverged");
        assert_eq!(lookups(&mut partly_indexed), reference, "seed {seed:#x}: partial diverged");
        for (key, pairs) in asked_keys().iter().zip(&reference) {
            // Exactly the SQL-equal rows, table by table in open order.
            let expected: Vec<(usize, usize)> = (0..many().len())
                .flat_map(|t| {
                    let rows = by_scan.table_rows(t);
                    (0..rows.len())
                        .filter(move |&s| rows[s].values[KEY_COL].sql_eq(key) == Some(true))
                        .map(move |s| (t, s))
                })
                .collect();
            assert_eq!(pairs, &expected, "seed {seed:#x}: {key:?}");
        }
        // NULL never matches; `4` finds the `'4'`, `'04'` and `4` rows of
        // every table, so it spans more than one.
        assert!(reference[0].is_empty());
        let four = &reference[3];
        assert!(four.iter().any(|p| p.0 == 0) && four.iter().any(|p| p.0 == 2), "{four:?}");

        // One probe per table and lookup; one pass per table for the
        // multimap, however many keys were asked; one pass per table and
        // lookup when scanning. One table without an index means the
        // multimap for all three.
        let (asked, tables) = (asked_keys().len() as u64, many().len() as u64);
        assert_eq!((by_index.index_probes, by_index.table_scans), (asked * tables, 0));
        assert_eq!((by_multimap.index_probes, by_multimap.table_scans), (0, tables));
        assert_eq!((partly_indexed.index_probes, partly_indexed.table_scans), (0, tables));
        assert_eq!((by_scan.index_probes, by_scan.table_scans), (0, asked * tables));
    }
}

#[test]
fn string_and_number_keys_match_across_tables() {
    let mut st = Storage::new();
    let [c, a, b]: [Ident; 3] = many().try_into().unwrap();
    for (table, keys) in [
        (&c, vec![Value::str("4"), Value::Null, Value::Num(4.0)]),
        (&a, vec![Value::Num(4.0), Value::str("04"), Value::Null]),
        (&b, vec![Value::str("04"), Value::str("4")]),
    ] {
        st.create_table(table.clone());
        for key in keys {
            st.insert_row(table, vec![Value::Null, key], false).unwrap();
        }
    }
    let mut indexed = st.clone();
    for (n, table) in [&c, &a, &b].into_iter().enumerate() {
        indexed.create_index(Ident::new(&format!("IxKey{n}")).unwrap(), table.clone(), vec![KEY_COL]);
    }
    for storage in [&st, &indexed] {
        for bulk in [true, false] {
            let mut reader = storage.keyed_reader_over(&many(), KEY_COL, bulk).unwrap();
            let mut ask = |key: Value| reader.lookup(&key).collect::<Vec<_>>();
            assert_eq!(ask(Value::Num(4.0)), vec![(0, 0), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]);
            assert_eq!(ask(Value::str("4")), vec![(0, 0), (0, 2), (1, 0), (2, 1)]);
            assert_eq!(ask(Value::str("04")), vec![(0, 2), (1, 0), (1, 1), (2, 0)]);
            assert_eq!(ask(Value::Null), vec![]);
        }
    }
}
