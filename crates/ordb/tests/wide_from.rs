//! A FROM clause of 5 000 items on a default-sized 2 MiB thread: the
//! executor walks FROM positions on an explicit stack, so the width of a
//! FROM clause costs heap, not stack — in an unoptimized build as in a
//! release one. A recursive walk (one call per FROM position) aborts here
//! with a stack overflow.

use xmlord_ordb::{Database, DbMode, Value};

#[test]
fn five_thousand_from_items_run_on_a_two_mib_stack() {
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script("CREATE TABLE T (n NUMBER); INSERT INTO T VALUES (1);").unwrap();
    let items: Vec<String> = (0..5_000).map(|i| format!("T t{i}")).collect();
    let sql = format!("SELECT COUNT(*) FROM {}", items.join(", "));
    let count = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || db.query(&sql).unwrap().rows)
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(count, vec![vec![Value::Num(1.0)]]);
}
