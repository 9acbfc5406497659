//! Differential property tests for `TABLE(…)` un-nesting: every randomized
//! query over plain tables and one to three un-nesting levels must return
//! exactly the rows, in exactly the order, that a plain nested loop in FROM
//! order returns — the reference in `tests/support/nested_loop.rs`.
//!
//! Collections are NULL, empty or filled; object elements carry NULL
//! attributes and scalar elements NULLs of their own. Filters sit at every
//! level, plain tables join the un-nested rows by hash (their equality
//! conjunct keyed by an element) or by nested loop, and queries are
//! projected plainly, `*`, `DISTINCT` or as `COUNT(*)`, sometimes ordered.
//! Oracle 9 nests three levels deep (`TABLE(u.cs)`, `TABLE(c.ps)`,
//! `TABLE(p.tags)`); Oracle 8 forbids a collection inside a collection
//! element, so there the levels are siblings (`TABLE(u.cs)`,
//! `TABLE(u.tags)`).
//!
//! A view family puts views in FROM: a plain view over `U`, and the §6.3
//! shape — `SELECT T_VX(…) AS o FROM U u` un-nested as `TABLE(v.o.cs)` —
//! joined to `A`, with unqualified columns the view and `A` share. The
//! reference evaluates each view's stored query itself and names columns
//! by its own rule; `SELECT *` names must agree between an empty and a
//! filled database, and with the reference's.
//!
//! An operand family un-nests collections that are no stored column:
//! `TABLE(w.o.cs)` through an object column's attribute and `TABLE(w.up.cs)`
//! through a REF — NULL, dangling or not — beside the stored `TABLE(w.cs)`.
//! Rows, order and errors (a dangling REF fails both sides) must agree.

#[path = "support/nested_loop.rs"]
mod nested_loop;

use xmlord_ordb::{Database, DbError, DbMode};
use xmlord_prng::Prng;

const SCHEMA_ORACLE9: &str = "CREATE TYPE T_Tags AS VARRAY(4) OF VARCHAR(10);
CREATE TYPE T_P AS OBJECT (pn VARCHAR(10), k NUMBER, tags T_Tags);
CREATE TYPE T_Ps AS TABLE OF T_P;
CREATE TYPE T_C AS OBJECT (cn VARCHAR(10), k NUMBER, ps T_Ps);
CREATE TYPE T_Cs AS TABLE OF T_C;
CREATE TABLE U (un VARCHAR(10), k NUMBER, cs T_Cs, tags T_Tags);
CREATE TABLE A (s VARCHAR(10), n NUMBER);";

const SCHEMA_ORACLE8: &str = "CREATE TYPE T_Tags AS VARRAY(4) OF VARCHAR(10);
CREATE TYPE T_C AS OBJECT (cn VARCHAR(10), k NUMBER);
CREATE TYPE T_Cs AS TABLE OF T_C;
CREATE TABLE U (un VARCHAR(10), k NUMBER, cs T_Cs, tags T_Tags);
CREATE TABLE A (s VARCHAR(10), n NUMBER);";

/// VARCHAR literal: numeric strings that collide with numbers under
/// coercion, plain text, or NULL.
fn str_lit(rng: &mut Prng) -> String {
    match rng.gen_range(0u32..6) {
        0 => "NULL".into(),
        1 | 2 => format!("'{}'", rng.gen_range(0i64..4)),
        3 => format!("'0{}'", rng.gen_range(0i64..4)),
        _ => format!("'s{}'", rng.gen_range(0i64..3)),
    }
}

/// NUMBER literal from the same small span, or NULL.
fn num_lit(rng: &mut Prng) -> String {
    if rng.gen_bool(0.15) {
        "NULL".into()
    } else {
        rng.gen_range(0i64..4).to_string()
    }
}

/// A collection constructor: NULL, empty, or (mostly) one to `max`
/// elements.
fn collection(rng: &mut Prng, ty: &str, max: usize, element: impl Fn(&mut Prng) -> String) -> String {
    match rng.gen_range(0u32..8) {
        0 => "NULL".into(),
        1 => format!("{ty}()"),
        _ => {
            let elements: Vec<String> = (0..rng.gen_range(1..max + 1)).map(|_| element(rng)).collect();
            format!("{ty}({})", elements.join(", "))
        }
    }
}

fn tags(rng: &mut Prng) -> String {
    collection(rng, "T_Tags", 3, str_lit)
}

fn setup(mode: DbMode, rng: &mut Prng) -> Database {
    let mut db = Database::new(mode);
    let nested = mode == DbMode::Oracle9;
    db.execute_script(if nested { SCHEMA_ORACLE9 } else { SCHEMA_ORACLE8 }).unwrap();
    if rng.gen_bool(0.4) {
        db.execute("CREATE INDEX IxAN ON A (n)").unwrap();
    }
    for _ in 0..rng.gen_range(1usize..6) {
        let cs = collection(rng, "T_Cs", 3, |rng| {
            let ps = if nested {
                let ps = collection(rng, "T_Ps", 3, |rng| {
                    format!("T_P({}, {}, {})", str_lit(rng), num_lit(rng), tags(rng))
                });
                format!(", {ps}")
            } else {
                String::new()
            };
            format!("T_C({}, {}{ps})", str_lit(rng), num_lit(rng))
        });
        let sql =
            format!("INSERT INTO U VALUES ({}, {}, {cs}, {})", str_lit(rng), num_lit(rng), tags(rng));
        db.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    for _ in 0..rng.gen_range(0usize..6) {
        db.execute(&format!("INSERT INTO A VALUES ({}, {})", str_lit(rng), num_lit(rng))).unwrap();
    }
    db
}

/// The columns a binding of the family exposes.
fn columns(binding: &str) -> &'static [&'static str] {
    match binding {
        "u" => &["un", "k"],
        "c" => &["cn", "k"],
        "p" => &["pn", "k"],
        "g" => &["COLUMN_VALUE"],
        _ => &["s", "n"],
    }
}

fn column(rng: &mut Prng, bindings: &[&str]) -> String {
    let b = *rng.choose(bindings);
    format!("{b}.{}", rng.choose(columns(b)))
}

/// A conjunct over one binding: the filters each level gets — most of them
/// `binding.column op literal`, either way round and NULL on either side,
/// which the executor tests on an element's block before filling its frame.
fn local(rng: &mut Prng, b: &str) -> String {
    let col = format!("{b}.{}", rng.choose(columns(b)));
    let lit = if rng.gen_bool(0.5) { str_lit(rng) } else { num_lit(rng) };
    let op = rng.choose(&["=", "<>", "<", "<=", ">", ">="]);
    match rng.gen_range(0u32..9) {
        0 | 1 => format!("{col} = {lit}"),
        2 => format!("{col} IS {}NULL", if rng.gen_bool(0.5) { "NOT " } else { "" }),
        3 => format!("{col} {op} {lit}"),
        4 => format!("{lit} {op} {col}"),
        5 if rng.gen_bool(0.5) => format!("NULL {op} {col}"),
        5 => format!("{col} {op} NULL"),
        6 => format!("{col} <> {lit}"),
        _ => format!("({col} = {lit} OR {col} IS NULL)"),
    }
}

/// `u` with one to three un-nesting levels below it (siblings in Oracle 8),
/// and often the plain table `a` somewhere in the FROM clause, joined to
/// one of the others — an equality the planner hashes when `a` comes
/// second, sometimes `<`. Filters at random levels, then a random head.
fn query(rng: &mut Prng, mode: DbMode) -> String {
    let mut from: Vec<(&str, String)> = vec![("u", "U u".into())];
    let levels = rng.gen_range(1usize..if mode == DbMode::Oracle9 { 4 } else { 3 });
    if mode == DbMode::Oracle9 {
        let chain = [("c", "TABLE(u.cs) c"), ("p", "TABLE(c.ps) p"), ("g", "TABLE(p.tags) g")];
        from.extend(chain[..levels].iter().map(|(b, item)| (*b, item.to_string())));
        if levels < 3 && rng.gen_bool(0.3) {
            from.push(("g", "TABLE(u.tags) g".into()));
        }
    } else {
        let siblings = [("c", "TABLE(u.cs) c"), ("g", "TABLE(u.tags) g")];
        let first = rng.gen_range(0usize..2);
        from.push((siblings[first].0, siblings[first].1.into()));
        if levels == 2 {
            from.push((siblings[1 - first].0, siblings[1 - first].1.into()));
        }
    }
    let mut conjuncts: Vec<String> = Vec::new();
    if rng.gen_bool(0.6) {
        let at = rng.gen_range(0usize..from.len() + 1);
        let others: Vec<&str> = from.iter().map(|(b, _)| *b).collect();
        let partner = *rng.choose(&others);
        let (a_col, x_col) = (*rng.choose(columns("a")), *rng.choose(columns(partner)));
        conjuncts.push(match rng.gen_range(0u32..5) {
            0 => format!("a.{a_col} < {partner}.{x_col}"),
            1 => format!("{partner}.{x_col} = a.{a_col}"),
            _ => format!("a.{a_col} = {partner}.{x_col}"),
        });
        from.insert(at, ("a", "A a".into()));
    }
    let bindings: Vec<&str> = from.iter().map(|(b, _)| *b).collect();
    for &b in &bindings {
        if rng.gen_bool(0.3) {
            conjuncts.push(local(rng, b));
        }
    }
    if bindings.contains(&"p") && rng.gen_bool(0.3) {
        conjuncts.push("p.k = u.k".into());
    }
    let head = match rng.gen_range(0u32..6) {
        0 => "COUNT(*)".to_string(),
        1 => "*".to_string(),
        2 => format!("DISTINCT {}", column(rng, &bindings)),
        _ => (0..rng.gen_range(1usize..4))
            .map(|_| column(rng, &bindings))
            .collect::<Vec<_>>()
            .join(", "),
    };
    let items: Vec<&str> = from.iter().map(|(_, item)| item.as_str()).collect();
    let mut sql = format!("SELECT {head} FROM {}", items.join(", "));
    if !conjuncts.is_empty() {
        sql.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
    }
    if head != "COUNT(*)" && rng.gen_bool(0.4) {
        let keys: Vec<String> = (0..rng.gen_range(1usize..3))
            .map(|_| {
                format!("{}{}", column(rng, &bindings), if rng.gen_bool(0.5) { " DESC" } else { "" })
            })
            .collect();
        sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
    }
    sql
}

#[test]
fn unnested_queries_agree_with_the_reference() {
    let (mut queries, mut nonempty, mut builds, mut probes, mut scanned) = (0u64, 0u64, 0, 0, 0);
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for case in 0..250u64 {
            let mut rng = Prng::seed_from_u64(0x7AB1_E000 + case);
            let mut db = setup(mode, &mut rng);
            for _ in 0..6 {
                let sql = query(&mut rng, mode);
                let ctx = format!("{mode:?} case {case}: {sql}");
                let before = db.stats();
                let rows = db.query(&sql).unwrap_or_else(|e| panic!("{ctx}: {e}")).rows;
                let delta = db.stats().since(&before);
                assert_eq!(rows, nested_loop::select(&db, &sql), "{ctx}");
                queries += 1;
                nonempty += u64::from(!rows.is_empty() && !sql.starts_with("SELECT COUNT(*)"));
                builds += delta.hash_join_builds;
                probes += delta.index_scans;
                scanned += delta.rows_scanned;
            }
        }
    }
    // The family must have exercised what it claims to check.
    assert!(nonempty * 4 > queries, "{nonempty} of {queries} queries returned rows");
    assert!(builds > 0, "no hash join was built");
    assert!(probes > 0, "no index was probed");
    assert!(scanned > 0, "nothing was scanned");
}

/// The view family's schema on top of the family's own: an object type
/// over `U`'s columns, a plain view that shares `s` and `n` with `A`, and
/// the §6.3 shape, each filtered or not.
fn views(rng: &mut Prng) -> String {
    let filter = |rng: &mut Prng| {
        *rng.choose(&["", " WHERE u.k > 1", " WHERE u.un IS NOT NULL", " WHERE u.k = 2 OR u.un = 's1'"])
    };
    format!(
        "CREATE TYPE T_VX AS OBJECT (s VARCHAR(10), n NUMBER, cs T_Cs);
         CREATE VIEW VP AS SELECT u.un AS s, u.k AS n, u.cs FROM U u{};
         CREATE VIEW VO AS SELECT T_VX(u.un, u.k, u.cs) AS o, u.k AS n FROM U u{};",
        filter(rng),
        filter(rng)
    )
}

/// A query over a view: the plain view, perhaps un-nested, or the §6.3
/// view un-nested through its object column (twice on Oracle 9), often
/// with `A` joined to the view's `n` or `s`. Unqualified `n` and `s` name
/// the first FROM item that has them, view or table.
fn view_query(rng: &mut Prng, mode: DbMode) -> String {
    let plain = rng.gen_bool(0.5);
    let mut from: Vec<(&str, &str)> = if plain {
        vec![("v", "VP v")]
    } else {
        vec![("v", "VO v"), ("c", "TABLE(v.o.cs) c")]
    };
    if plain && rng.gen_bool(0.5) {
        from.push(("c", "TABLE(v.cs) c"));
    }
    if !plain && mode == DbMode::Oracle9 && rng.gen_bool(0.4) {
        from.push(("p", "TABLE(c.ps) p"));
    }
    let mut columns: Vec<&str> = match plain {
        true => vec!["v.s", "v.n", "n", "s"],
        false => vec!["v.o.s", "v.o.n", "v.n", "o.s", "n"],
    };
    let mut conjuncts: Vec<String> = Vec::new();
    if rng.gen_bool(0.5) {
        from.insert(rng.gen_range(0usize..from.len() + 1), ("a", "A a"));
        columns.extend(["a.s", "a.n", "s"]);
        conjuncts.push(match rng.gen_range(0u32..4) {
            0 => "a.n < v.n".to_string(),
            1 if plain => "v.s = a.s".to_string(),
            _ => "a.n = v.n".to_string(),
        });
    }
    for &(b, _) in &from {
        if b == "c" || b == "p" {
            columns.extend(if b == "c" { ["c.cn", "c.k"] } else { ["p.pn", "p.k"] });
        }
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let column = *rng.choose(&columns);
        let op = rng.choose(&["=", "<>", "<", ">="]);
        let lit = if rng.gen_bool(0.5) { str_lit(rng) } else { num_lit(rng) };
        conjuncts.push(match rng.gen_range(0u32..4) {
            0 => format!("{column} IS NOT NULL"),
            1 => format!("{lit} {op} {column}"),
            _ => format!("{column} {op} {lit}"),
        });
    }
    if from.iter().any(|(b, _)| *b == "c") && rng.gen_bool(0.3) {
        conjuncts.push(local(rng, "c"));
    }
    let head = match rng.gen_range(0u32..6) {
        0 => "COUNT(*)".to_string(),
        1 | 2 => "*".to_string(),
        3 => format!("DISTINCT {}", rng.choose(&columns)),
        _ => {
            let picked: Vec<&str> = (0..rng.gen_range(1usize..4)).map(|_| *rng.choose(&columns)).collect();
            picked.join(", ")
        }
    };
    let items: Vec<&str> = from.iter().map(|(_, item)| *item).collect();
    let mut sql = format!("SELECT {head} FROM {}", items.join(", "));
    if !conjuncts.is_empty() {
        sql.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
    }
    if head != "COUNT(*)" && rng.gen_bool(0.3) {
        let desc = if rng.gen_bool(0.5) { " DESC" } else { "" };
        sql.push_str(&format!(" ORDER BY {}{desc}", rng.choose(&columns)));
    }
    sql
}

#[test]
fn views_agree_with_the_reference() {
    let (mut queries, mut nonempty, mut starred, mut builds) = (0u64, 0u64, 0u64, 0);
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for case in 0..150u64 {
            let mut rng = Prng::seed_from_u64(0x0B1E_C700 + case);
            let views = views(&mut rng);
            let mut empty = Database::new(mode);
            let schema = if mode == DbMode::Oracle9 { SCHEMA_ORACLE9 } else { SCHEMA_ORACLE8 };
            empty.execute_script(schema).unwrap();
            empty.execute_script(&views).unwrap();
            let mut db = setup(mode, &mut rng);
            db.execute_script(&views).unwrap();
            for _ in 0..6 {
                let sql = view_query(&mut rng, mode);
                let ctx = format!("{mode:?} case {case}: {sql}");
                let before = db.stats();
                let result = db.query(&sql).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let delta = db.stats().since(&before);
                assert_eq!(result.rows, nested_loop::select(&db, &sql), "{ctx}");
                // Names come from the catalog: an empty database names the
                // result as a filled one does, and as the reference does.
                let unfilled = empty.query(&sql).unwrap_or_else(|e| panic!("{ctx} (empty): {e}"));
                assert_eq!(unfilled.columns, result.columns, "{ctx}");
                assert_eq!(result.columns, nested_loop::names(&db, &sql), "{ctx}");
                queries += 1;
                let counted = sql.starts_with("SELECT COUNT(*)");
                nonempty += u64::from(!result.rows.is_empty() && !counted);
                starred += u64::from(!result.rows.is_empty() && sql.starts_with("SELECT *"));
                builds += delta.hash_join_builds;
            }
        }
    }
    // The family must have exercised what it claims to check.
    assert!(nonempty * 4 > queries, "{nonempty} of {queries} queries returned rows");
    assert!(starred > 0, "no `SELECT *` returned rows");
    assert!(builds > 0, "no hash join was built");
}

/// The operand family's schema: a table `W` whose object column `o` and
/// REF column `up` each lead to a `cs` collection beside its own stored
/// `cs`, and the object table `D` the REFs point into.
const SCHEMA_OPERANDS: &str = "CREATE TYPE T_Tags AS VARRAY(4) OF VARCHAR(10);
CREATE TYPE T_C AS OBJECT (cn VARCHAR(10), k NUMBER, tags T_Tags);
CREATE TYPE T_Cs AS TABLE OF T_C;
CREATE TYPE T_O AS OBJECT (oname VARCHAR(10), cs T_Cs);
CREATE TYPE T_D AS OBJECT (dk NUMBER, cs T_Cs);
CREATE TABLE D OF T_D;
CREATE TABLE W (wk NUMBER, o T_O, up REF T_D, cs T_Cs);
CREATE TABLE A (s VARCHAR(10), n NUMBER);";

fn courses(rng: &mut Prng) -> String {
    let course = |rng: &mut Prng| format!("T_C({}, {}, {})", str_lit(rng), num_lit(rng), tags(rng));
    collection(rng, "T_Cs", 3, course)
}

/// `D` rows keyed `0..`, `W` rows whose `o` is NULL or holds courses and
/// whose `up` is NULL or points into `D` — at a row the last step may
/// delete, leaving the REF dangling.
fn operands_setup(rng: &mut Prng) -> Database {
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script(SCHEMA_OPERANDS).unwrap();
    let targets = rng.gen_range(1usize..4);
    for dk in 0..targets {
        db.execute(&format!("INSERT INTO D VALUES (T_D({dk}, {}))", courses(rng))).unwrap();
    }
    for _ in 0..rng.gen_range(1usize..5) {
        let o = match rng.gen_bool(0.2) {
            true => "NULL".to_string(),
            false => format!("T_O({}, {})", str_lit(rng), courses(rng)),
        };
        let up = match rng.gen_range(0u32..5) {
            0 => "NULL".to_string(),
            _ => format!("(SELECT REF(d) FROM D d WHERE d.dk = {})", rng.gen_range(0..targets)),
        };
        let sql = format!("INSERT INTO W VALUES ({}, {o}, {up}, {})", num_lit(rng), courses(rng));
        db.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    if rng.gen_bool(0.3) {
        db.execute(&format!("DELETE FROM D WHERE dk = {}", rng.gen_range(0..targets))).unwrap();
    }
    for _ in 0..rng.gen_range(0usize..5) {
        db.execute(&format!("INSERT INTO A VALUES ({}, {})", str_lit(rng), num_lit(rng))).unwrap();
    }
    db
}

/// `W w` with one to three of `TABLE(w.o.cs)` (a static attribute step),
/// `TABLE(w.up.cs)` (a REF step, which materialises) and `TABLE(w.cs)` (a
/// stored column) in random order, perhaps one's tags un-nested below it,
/// and perhaps `A` first or last, joined to an element. Conjuncts run at the
/// last item, so every combination of the items before a `TABLE()` reaches
/// its operand, as the reference's do.
fn operands_query(rng: &mut Prng) -> String {
    let mut laterals =
        vec![("o", "TABLE(w.o.cs) o"), ("r", "TABLE(w.up.cs) r"), ("s", "TABLE(w.cs) s")];
    let mut from: Vec<(&str, String)> = vec![("w", "W w".into())];
    for _ in 0..rng.gen_range(1usize..4) {
        let (b, item) = laterals.remove(rng.gen_range(0..laterals.len()));
        from.push((b, item.into()));
    }
    let elements: Vec<&str> = from[1..].iter().map(|(b, _)| *b).collect();
    if rng.gen_bool(0.3) {
        let above = *rng.choose(&elements);
        from.push(("g", format!("TABLE({above}.tags) g")));
    }
    let element_columns = |b: &str| -> Vec<String> {
        match b {
            "g" => vec!["g.COLUMN_VALUE".into()],
            b => vec![format!("{b}.cn"), format!("{b}.k")],
        }
    };
    let mut columns: Vec<String> = from[1..].iter().flat_map(|(b, _)| element_columns(b)).collect();
    // A conjunct runs where its last item is bound: on the last item, or
    // on `A` placed last, no combination is dropped before an operand.
    let last = from[from.len() - 1].0;
    let mut conjuncts: Vec<String> = Vec::new();
    if rng.gen_bool(0.4) {
        let a_last = rng.gen_bool(0.5);
        let partner = if a_last { *rng.choose(&elements) } else { last };
        let partner = if partner == "g" { elements[elements.len() - 1] } else { partner };
        conjuncts.push(format!("a.n = {partner}.k"));
        from.insert(if a_last { from.len() } else { 0 }, ("a", "A a".into()));
        columns.extend(["a.s".to_string(), "a.n".to_string()]);
    }
    if rng.gen_bool(0.4) {
        let filter = local(rng, if last == "g" { "g" } else { "c" });
        conjuncts.push(filter.replace("c.", &format!("{last}.")));
    }
    columns.extend(["w.wk", "w.o.oname", "w.up.dk"].map(String::from));
    let head = match rng.gen_range(0u32..6) {
        0 => "COUNT(*)".to_string(),
        1 => "*".to_string(),
        2 => format!("DISTINCT {}", rng.choose(&columns)),
        _ => (0..rng.gen_range(1usize..4))
            .map(|_| rng.choose(&columns).clone())
            .collect::<Vec<_>>()
            .join(", "),
    };
    let items: Vec<&str> = from.iter().map(|(_, item)| item.as_str()).collect();
    let mut sql = format!("SELECT {head} FROM {}", items.join(", "));
    if !conjuncts.is_empty() {
        sql.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
    }
    if head != "COUNT(*)" && rng.gen_bool(0.3) {
        let desc = if rng.gen_bool(0.5) { " DESC" } else { "" };
        sql.push_str(&format!(" ORDER BY {}{desc}", rng.choose(&columns)));
    }
    sql
}

#[test]
fn operands_that_are_no_stored_column_agree_with_the_reference() {
    let (mut queries, mut nonempty, mut failed, mut derefs) = (0u64, 0u64, 0u64, 0);
    let (mut through_object, mut through_ref) = (0u64, 0u64);
    for case in 0..250u64 {
        let mut rng = Prng::seed_from_u64(0x0DE7_A000 + case);
        let mut db = operands_setup(&mut rng);
        for _ in 0..6 {
            let sql = operands_query(&mut rng);
            let ctx = format!("case {case}: {sql}");
            let before = db.stats();
            let outcome = db.query(&sql).map(|result| result.rows);
            derefs += db.stats().since(&before).derefs;
            match (outcome, nested_loop::try_select(&db, &sql)) {
                (Ok(rows), Ok(expected)) => {
                    assert_eq!(rows, expected, "{ctx}");
                    let rows = !rows.is_empty() && !sql.starts_with("SELECT COUNT(*)");
                    nonempty += u64::from(rows);
                    through_object += u64::from(rows && sql.contains("TABLE(w.o.cs)"));
                    through_ref += u64::from(rows && sql.contains("TABLE(w.up.cs)"));
                }
                (Err(e), Err(_)) => {
                    assert_eq!(e, DbError::DanglingRef, "{ctx}");
                    failed += 1;
                }
                (outcome, expected) => panic!("{ctx}: {outcome:?} against {expected:?}"),
            }
            queries += 1;
        }
    }
    // The family must have exercised what it claims to check.
    assert!(nonempty * 4 > queries, "{nonempty} of {queries} queries returned rows");
    assert!(through_object > 0 && through_ref > 0, "{through_object} / {through_ref}");
    assert!(derefs > 0, "no REF step was taken");
    assert!(failed > 0 && failed * 4 < queries, "{failed} of {queries} queries failed");
}
