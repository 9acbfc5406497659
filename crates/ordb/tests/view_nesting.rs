//! A chain of views deeper than `scope::MAX_VIEW_NESTING` is an error, not
//! a recursion as deep as the chain. Each view level costs stack twice —
//! layout derivation and the executor both recurse into a view's query — so
//! 5 000 views overflowed a default 2 MiB thread and aborted the process.
//! The nesting is bounded where layouts are derived and where the executor
//! expands a view: the statement fails with `ViewNesting`, naming the view
//! that would go one level deeper, through `Database::query`, EXPLAIN,
//! `Database::check` and the script analyzer alike — in an unoptimized
//! build as in a release one. A chain exactly as deep as the limit runs.
//!
//! The script analyzer reads the whole 5 001-statement script, schema and
//! query, in every build: it lexes the script once and finds each
//! statement's tokens by binary search, so its cost grows with the script's
//! length, not with its square.

use xmlord_ordb::scope::MAX_VIEW_NESTING;
use xmlord_ordb::{Analyzer, Database, DbError, DbMode, Diagnostic, Severity, Value};

/// A one-row table and `views` views, each reading the one before.
fn chain(views: usize) -> String {
    let mut schema = String::from(
        "CREATE TABLE T (a NUMBER);
         INSERT INTO T VALUES (1);
         CREATE VIEW V_0 AS SELECT t.a AS a FROM T t;",
    );
    for k in 1..views {
        schema += &format!("\nCREATE VIEW V_{k} AS SELECT v.a AS a FROM V_{} v;", k - 1);
    }
    schema
}

/// `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap()
}

fn nesting_errors(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.severity == Severity::Error && d.code == "view-nesting").count()
}

#[test]
fn five_thousand_nested_views_are_an_error_on_a_two_mib_stack() {
    const VIEWS: usize = 5_000;
    let (outcome, explained, checked, analyzed) = on_small_stack(|| {
        let schema = chain(VIEWS);
        let query = format!("SELECT v.a FROM V_{} v", VIEWS - 1);
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&schema).unwrap();
        let outcome = db.query(&query).map(|result| result.rows);
        let explained = db.query(&format!("EXPLAIN {query}")).map(|plan| plan.rows.len());
        let checked = db.check(&query).unwrap();
        let analyzed = Analyzer::new(DbMode::Oracle9).analyze_script(&format!("{schema}\n{query};"));
        (outcome, explained, checked, analyzed.unwrap())
    });
    // The statement reads V_4999 itself; V_4999 … V_(5000 - limit) are the
    // limit's views, and the one below them is one too many.
    let too_deep = DbError::ViewNesting(format!("V_{}", VIEWS - 1 - MAX_VIEW_NESTING));
    assert_eq!(outcome, Err(too_deep.clone()));
    assert_eq!(explained, Err(too_deep));
    assert_eq!(nesting_errors(&checked), 1, "{checked:#?}");
    assert_eq!(nesting_errors(&analyzed), 1, "{:#?}", &analyzed[analyzed.len() - 1..]);
}

#[test]
fn a_chain_as_deep_as_the_limit_runs_and_one_more_view_does_not() {
    let (at_limit, past_limit) = on_small_stack(|| {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&chain(MAX_VIEW_NESTING + 1)).unwrap();
        let at_limit = db.query(&format!("SELECT v.a FROM V_{} v", MAX_VIEW_NESTING - 1));
        let past_limit = db.query(&format!("SELECT v.a FROM V_{} v", MAX_VIEW_NESTING));
        (at_limit.map(|result| result.rows), past_limit.map(|result| result.rows))
    });
    assert_eq!(at_limit, Ok(vec![vec![Value::Num(1.0)]]));
    assert_eq!(past_limit, Err(DbError::ViewNesting("V_0".into())));
}
