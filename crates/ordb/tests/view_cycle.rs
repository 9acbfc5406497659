//! A view defined in terms of itself — directly, through another view, or
//! through a subquery — is an error where the executor would first read
//! it, not a recursion that overflows the stack and aborts the process.
//! Layouts are derived once per statement with the views being derived on
//! a stack, and a view met again on it is a cycle. The statement runs on a
//! default-sized 2 MiB thread, in an unoptimized build as in a release one:
//! `Database::query` returns `Err(ViewCycle)`, and the analyzer reports the
//! same rejection as an `Error` diagnostic (`view-cycle`), both for a
//! script and for the statement checked against the live catalog.
//!
//! Each view is derived once per statement, however many queries of other
//! views name it: a chain of views that each name the one before twice
//! costs a derivation per view, not one per path through the chain.

use std::sync::mpsc;
use std::time::Duration;
use xmlord_ordb::{Analyzer, Database, DbError, DbMode, Diagnostic, Severity, Value};

/// A schema with a view cycle, and a statement whose first FROM item is a
/// view on it.
const CYCLES: [(&str, &str); 3] = [
    (
        "CREATE TABLE T (a NUMBER); INSERT INTO T VALUES (1);
         CREATE VIEW A AS SELECT a.a FROM A a;",
        "SELECT v.a FROM A v",
    ),
    (
        "CREATE VIEW A AS SELECT b.a FROM B b;
         CREATE VIEW B AS SELECT x.a FROM A x;",
        "SELECT v.a FROM A v",
    ),
    (
        "CREATE TABLE T (a NUMBER); INSERT INTO T VALUES (1);
         CREATE VIEW A AS SELECT t.a FROM T t WHERE EXISTS (SELECT x.a FROM A x);",
        "SELECT * FROM A v",
    ),
];

/// `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap()
}

fn cycle_errors(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.severity == Severity::Error && d.code == "view-cycle").count()
}

#[test]
fn a_view_cycle_is_an_error_not_a_stack_overflow() {
    for (schema, query) in CYCLES {
        let (outcome, explained, checked, analyzed) = on_small_stack(move || {
            let mut db = Database::new(DbMode::Oracle9);
            db.execute_script(schema).unwrap();
            let outcome = db.query(query);
            let explained = db.query(&format!("EXPLAIN {query}")).map(|plan| plan.rows.len());
            let checked = db.check(query).unwrap();
            let script = format!("{schema}\n{query};");
            let analyzed = Analyzer::new(DbMode::Oracle9).analyze_script(&script).unwrap();
            (outcome, explained, checked, analyzed)
        });
        assert!(matches!(outcome, Err(DbError::ViewCycle(_))), "{query}: {outcome:?}");
        // EXPLAIN renders the plan, truncating the view expansion.
        assert!(explained.as_ref().is_ok_and(|&lines| lines > 0), "{query}: {explained:?}");
        assert_eq!(cycle_errors(&checked), 1, "{query}: {checked:#?}");
        assert_eq!(cycle_errors(&analyzed), 1, "{query}: {analyzed:#?}");
    }
}

/// A cycle is reported where the cyclic view would be read: behind an
/// empty first FROM item that is never, so the query returns no rows and
/// the analyzer only warns.
#[test]
fn a_view_cycle_fails_only_where_the_view_is_read() {
    let schema = "CREATE TABLE E (a NUMBER);
                  CREATE VIEW A AS SELECT a.a FROM A a;";
    let query = "SELECT v.a FROM E e, A v";
    let (outcome, checked) = on_small_stack(move || {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(schema).unwrap();
        (db.query(query).map(|result| result.rows), db.check(query).unwrap())
    });
    assert_eq!(outcome, Ok(Vec::new()));
    assert_eq!(cycle_errors(&checked), 0, "{checked:#?}");
    assert!(checked.iter().any(|d| d.code == "view-cycle"), "{checked:#?}");
}

/// `V_k` names `V_{k-1}` in a scalar subquery, which layout derivation
/// meets twice: once among the view's subqueries and once to type the
/// view's one column. Derived again at each meeting, 40 views take 2^40
/// derivations; derived once, they take 40. Every entry point that derives
/// layouts runs over an empty base table, where execution reads nothing,
/// and over a one-row one, where the subqueries run.
#[test]
fn a_chain_of_views_is_derived_once_per_view() {
    const VIEWS: usize = 40;
    let mut schema = String::from(
        "CREATE TABLE T (a NUMBER);
         CREATE VIEW V_0 AS SELECT t.a AS a FROM T t;",
    );
    for k in 1..VIEWS {
        let previous = k - 1;
        schema += &format!(
            "\nCREATE VIEW V_{k} AS SELECT (SELECT x.a FROM V_{previous} x) AS a FROM T t;"
        );
    }
    let query = format!("SELECT v.a FROM V_{} v", VIEWS - 1);
    let (sender, receiver) = mpsc::channel();
    std::thread::spawn(move || {
        let mut outcomes = Vec::new();
        for filled in [false, true] {
            let mut db = Database::new(DbMode::Oracle9);
            db.execute_script(&schema).unwrap();
            if filled {
                db.execute("INSERT INTO T VALUES (7)").unwrap();
            }
            let rows = db.query(&query).unwrap().rows;
            let explained = db.query(&format!("EXPLAIN {query}")).unwrap().rows.len();
            let checked = db.check(&query).unwrap();
            outcomes.push((rows, explained > 0, checked));
        }
        let script = format!("{schema}\n{query};");
        let analyzed = Analyzer::new(DbMode::Oracle9).analyze_script(&script).unwrap();
        sender.send((outcomes, analyzed)).unwrap();
    });
    // Seconds in an unoptimized build; derived per path, hours.
    let (outcomes, analyzed) = receiver
        .recv_timeout(Duration::from_secs(120))
        .expect("deriving a chain of 40 views did not finish");
    assert_eq!(outcomes[0], (Vec::new(), true, Vec::new()));
    assert_eq!(outcomes[1], (vec![vec![Value::Num(7.0)]], true, Vec::new()));
    assert!(analyzed.iter().all(|d| d.severity != Severity::Error), "{analyzed:#?}");
}
