//! `EXPLAIN <stmt>`: render a stable, data-independent plan tree.
//!
//! The renderer mirrors the planner decisions in [`crate::exec::select`]
//! (conjunct scheduling, hash-join eligibility, lateral re-expansion) by
//! calling the *same* helper functions, so the printed plan can never
//! disagree with what execution would do. No storage is touched and no row
//! counts appear in the output: a plan depends only on the catalog, the
//! mode and the statement text — which keeps golden-file snapshots
//! deterministic across data sets.
//!
//! The result is an ordinary [`QueryResult`] with a single `PLAN` column,
//! one string row per plan line, indented two spaces per tree level.

use crate::catalog::{Catalog, TableDef};
use crate::error::DbError;
use crate::exec::plan::{plan_select, AccessPath, JoinOrder, SelectPlan};
use crate::exec::select::QueryResult;
use crate::ident::Ident;
use crate::mode::DbMode;
use crate::scope::{layouts, Bindings, Scope};
use crate::sql::ast::{Expr, FromItem, SelectStmt, Stmt};
use crate::sql::printer::print_expr;
use crate::types::SqlType;
use crate::value::Value;

/// Views expanding views stop here — a self-referencing view must not
/// recurse the renderer forever.
const MAX_VIEW_DEPTH: usize = 4;

/// Render the plan of `stmt` (the statement *inside* the EXPLAIN).
pub fn explain_stmt(catalog: &Catalog, mode: DbMode, stmt: &Stmt) -> Result<QueryResult, DbError> {
    let mut plan = Plan { catalog, lines: Vec::new() };
    plan.line(0, format!("EXPLAIN ({mode})"));
    plan.stmt(0, stmt)?;
    Ok(QueryResult {
        columns: vec!["PLAN".to_string()],
        rows: plan.lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
    })
}

struct Plan<'a> {
    catalog: &'a Catalog,
    lines: Vec<String>,
}

impl Plan<'_> {
    fn line(&mut self, indent: usize, text: impl Into<String>) {
        self.lines.push(format!("{}{}", "  ".repeat(indent), text.into()));
    }

    fn stmt(&mut self, ind: usize, stmt: &Stmt) -> Result<(), DbError> {
        match stmt {
            Stmt::Select(query) => self.select(ind, query, 0)?,
            Stmt::Insert { table, columns, values } => {
                self.insert(ind, table, columns.as_deref(), values)?
            }
            Stmt::Update { table, sets, where_clause } => {
                self.line(ind, format!("UPDATE {table}"));
                self.table_access(ind + 1, table)?;
                for (path, rhs) in sets {
                    let lhs: Vec<&str> = path.iter().map(Ident::as_str).collect();
                    self.line(ind + 1, format!("set {} = {}", lhs.join("."), print_expr(rhs)));
                }
                self.filter_or_all(ind + 1, where_clause.as_ref());
                self.line(ind + 1, "undo: one pre-image record per modified row");
            }
            Stmt::Delete { table, where_clause } => {
                self.line(ind, format!("DELETE FROM {table}"));
                self.table_access(ind + 1, table)?;
                self.filter_or_all(ind + 1, where_clause.as_ref());
                self.line(ind + 1, "undo: one row-removal record per matching row");
            }
            Stmt::Commit => {
                self.line(ind, "COMMIT");
                self.line(ind + 1, "transaction control: makes changes permanent, discards the undo log");
            }
            Stmt::Rollback { to: None } => {
                self.line(ind, "ROLLBACK");
                self.line(ind + 1, "transaction control: applies and discards the undo log");
            }
            Stmt::Rollback { to: Some(name) } => {
                self.line(ind, format!("ROLLBACK TO {name}"));
                self.line(ind + 1, format!("transaction control: applies the undo log back to savepoint '{name}'"));
            }
            Stmt::Savepoint { name } => {
                self.line(ind, format!("SAVEPOINT {name}"));
                self.line(ind + 1, "transaction control: marks the current undo position");
            }
            Stmt::Explain(inner) => {
                self.line(ind, "EXPLAIN");
                self.stmt(ind + 1, inner)?;
            }
            ddl => {
                match ddl_target(ddl) {
                    Some(name) => self.line(ind, format!("{} {name}", ddl.kind())),
                    None => self.line(ind, ddl.kind()),
                }
                if let Stmt::CreateIndex { table, columns, .. } = ddl {
                    let cols: Vec<&str> = columns.iter().map(Ident::as_str).collect();
                    self.line(
                        ind + 1,
                        format!(
                            "build: one full scan of {table} keyed on ({}); maintained by every mutation and undo replay",
                            cols.join(", ")
                        ),
                    );
                }
                if let Stmt::AnalyzeTable { .. } = ddl {
                    self.line(
                        ind + 1,
                        "collect: row count + per-column distinct values into catalog statistics",
                    );
                }
                self.line(ind + 1, "undo: catalog change logged (statement-atomic)");
            }
        }
        Ok(())
    }

    fn insert(
        &mut self,
        ind: usize,
        table: &Ident,
        columns: Option<&[Ident]>,
        values: &[Expr],
    ) -> Result<(), DbError> {
        let table_def = self
            .catalog
            .get_table(table)
            .ok_or_else(|| DbError::UnknownTable(table.as_str().to_string()))?;
        match table_def {
            TableDef::Object { of_type, .. } => {
                self.line(ind, format!("INSERT INTO {table} (object table OF {of_type})"))
            }
            TableDef::Relational { .. } => self.line(ind, format!("INSERT INTO {table}")),
        }
        if let Some(cols) = columns {
            let names: Vec<&str> = cols.iter().map(Ident::as_str).collect();
            self.line(ind + 1, format!("columns: {}", names.join(", ")));
        }
        self.line(ind + 1, format!("values: {} expression(s)", values.len()));
        if columns.is_none() && values.len() == 1 {
            if let (TableDef::Object { of_type, .. }, Expr::Call { name, .. }) =
                (table_def, &values[0])
            {
                if name == of_type {
                    self.line(
                        ind + 1,
                        format!("constructor {name}(…) explodes into the object row"),
                    );
                }
            }
        }
        self.line(ind + 1, "undo: row-insert record (rolled back on statement failure)");
        Ok(())
    }

    /// One access line for a DML target table.
    fn table_access(&mut self, ind: usize, table: &Ident) -> Result<(), DbError> {
        match self.catalog.get_table(table) {
            Some(TableDef::Object { of_type, .. }) => {
                self.line(ind, format!("scan object table {table} OF {of_type}"));
                Ok(())
            }
            Some(TableDef::Relational { .. }) => {
                self.line(ind, format!("scan table {table}"));
                Ok(())
            }
            None => Err(DbError::UnknownTable(table.as_str().to_string())),
        }
    }

    fn filter_or_all(&mut self, ind: usize, pred: Option<&Expr>) {
        match pred {
            Some(pred) => self.line(ind, format!("filter: {}", print_expr(pred))),
            None => self.line(ind, "filter: none (all rows)"),
        }
    }

    fn select(&mut self, ind: usize, query: &SelectStmt, depth: usize) -> Result<(), DbError> {
        self.line(ind, if query.distinct { "SELECT DISTINCT" } else { "SELECT" });

        // The exact plan the executor computes: the layouts names resolve
        // in, conjunct scheduling, join order and per-item access paths all
        // come from the shared `scope::layouts` and `plan_select`, so this
        // rendering can never drift from execution.
        let layouts = layouts(self.catalog, query, None);
        let scope = Scope::new(&layouts, None);
        let bindings = Bindings::select(self.catalog, &scope, query);
        let plan = plan_select(self.catalog, &scope, &bindings, query);
        let binding = |pos: usize| layouts[plan.order[pos]].binding.as_str();
        let exec_order = || (0..plan.order.len()).map(binding).collect::<Vec<_>>().join(", ");
        match plan.join_order {
            JoinOrder::FromClause => {}
            JoinOrder::CostBased => self.line(
                ind + 1,
                format!("join order: cost-based ({}) — ANALYZE statistics", exec_order()),
            ),
            JoinOrder::Seeded => self.line(
                ind + 1,
                format!(
                    "join order: seeded at {} ({}) — constant filter, one-row probes",
                    binding(0),
                    exec_order()
                ),
            ),
        }

        let catalog = self.catalog;
        for (pos, &idx) in plan.order.iter().enumerate() {
            let item = &query.from[idx];
            let applicable = plan.applicable(pos);
            let binding = item.binding();
            match item {
                FromItem::Table { name, .. } => {
                    if let Some(table) = catalog.get_table(name) {
                        let access = match table {
                            TableDef::Object { of_type, .. } => {
                                format!("scan object table {name} OF {of_type}")
                            }
                            TableDef::Relational { .. } => format!("scan table {name}"),
                        };
                        let join = self.access_note(&plan, pos, name);
                        self.line(ind + 1, format!("from[{idx}] {binding}: {access}{join}"));
                        self.est_note(ind + 2, &plan, pos);
                        self.filters(ind + 2, applicable);
                    } else if let Some(view) = catalog.get_view(name) {
                        // A chain of views too deep to run is too deep to plan.
                        if let Some(error @ DbError::ViewNesting(_)) = &layouts[idx].error {
                            return Err(error.clone());
                        }
                        let join = self.access_note(&plan, pos, name);
                        self.line(ind + 1, format!("from[{idx}] {binding}: expand view {name}{join}"));
                        if depth < MAX_VIEW_DEPTH {
                            self.select(ind + 2, &view.query, depth + 1)?;
                        } else {
                            self.line(ind + 2, "… (view nesting truncated)");
                        }
                        self.filters(ind + 2, applicable);
                    } else {
                        return Err(DbError::UnknownTable(name.as_str().to_string()));
                    }
                }
                FromItem::CollectionTable { expr, .. } => {
                    self.line(
                        ind + 1,
                        format!(
                            "from[{idx}] {binding}: lateral TABLE({}) — nested loop, re-expanded per combination",
                            print_expr(expr)
                        ),
                    );
                    // The operand sees the items before it.
                    for note in self.path_notes(expr, &Scope::new(&layouts[..idx], None)) {
                        self.line(ind + 2, note);
                    }
                    self.filters(ind + 2, applicable);
                }
            }
        }

        // Conjuncts the executor defers past the last item (subqueries,
        // unresolvable references).
        for (_, conjunct) in plan.residual(query.from.len()) {
            self.line(ind + 1, format!("residual filter: {}", print_expr(conjunct)));
        }

        if query.star {
            self.line(ind + 1, "project *");
        } else {
            for item in &query.items {
                self.line(ind + 1, format!("project {}", print_expr(&item.expr)));
                for note in self.path_notes(&item.expr, &scope) {
                    self.line(ind + 2, note);
                }
            }
        }
        for (expr, asc) in &query.order_by {
            self.line(
                ind + 1,
                format!("order by {}{}", print_expr(expr), if *asc { "" } else { " DESC" }),
            );
        }
        if depth == 0 {
            self.line(ind + 1, "read-only: no undo-log records");
        }
        Ok(())
    }

    /// How the item at execution position `pos` joins the accumulated
    /// combinations — rendered from the executor's own [`AccessPath`]. An
    /// index is printed as the inventory labels it: a declared one by name,
    /// a key as the constraint it is.
    fn access_note(&self, plan: &SelectPlan, pos: usize, table: &Ident) -> String {
        match &plan.paths[pos].0 {
            AccessPath::IndexProbe { index, keys } => {
                let keys: Vec<String> = keys.iter().map(|key| print_expr(key)).collect();
                let label = self
                    .catalog
                    .indexes_on(table)
                    .find(|def| &def.name == index)
                    .map_or_else(|| index.to_string(), |def| def.label());
                format!(" — index probe {label} (key: {})", keys.join(", "))
            }
            AccessPath::OidProbe { key, .. } => format!(" — OID probe (key: {})", print_expr(key)),
            AccessPath::HashJoin { probe, build } => format!(
                " — hash join (build: {}, probe: {})",
                print_expr(build),
                print_expr(probe)
            ),
            AccessPath::Scan if pos > 0 => " — nested-loop join".to_string(),
            AccessPath::Scan => String::new(),
        }
    }

    /// Cardinality annotation from ANALYZE statistics, when the table has
    /// been analyzed (catalog state, so still data-independent).
    fn est_note(&mut self, ind: usize, plan: &SelectPlan, pos: usize) {
        if let Some(est) = plan.paths[pos].1 {
            self.line(ind, format!("est: ~{est} row(s) from ANALYZE statistics"));
        }
    }

    fn filters(&mut self, ind: usize, applicable: &[(usize, &Expr)]) {
        for (_, conjunct) in applicable {
            self.line(ind, format!("filter: {}", print_expr(conjunct)));
        }
    }

    /// REF-deref / embedded-object navigation notes for every dot path
    /// inside `expr`, resolved statically against the catalog.
    fn path_notes(&self, expr: &Expr, scope: &Scope) -> Vec<String> {
        let mut notes = Vec::new();
        collect_note_exprs(expr, &mut |e| match e {
            Expr::Path(parts) => self.walk_path(scope, parts, &mut notes),
            Expr::Deref(_) => notes.push("DEREF: OID-index lookup".to_string()),
            _ => {}
        });
        notes
    }

    /// Walk a dot path from the column it names, describing each step that
    /// crosses a REF (OID-index lookup) or an embedded object (no join).
    fn walk_path(&self, scope: &Scope, parts: &[Ident], notes: &mut Vec<String>) {
        let Some(found) = scope.resolve(parts) else { return };
        let (Some(_), Some(ty)) = (found.column, found.ty) else { return };
        let mut step = &parts[parts.len() - found.rest.len() - 1];
        let mut ty = self.catalog.resolve_sql_type(ty.clone());
        for next in found.rest {
            let target = match &ty {
                SqlType::Ref(target) => {
                    notes.push(format!("deref {step}: REF {target} — OID-index lookup"));
                    target
                }
                SqlType::Object(target) => {
                    notes.push(format!("into {step}: embedded {target} (no join)"));
                    target
                }
                _ => return,
            };
            let attrs = self.catalog.get_type(target).map_or(&[][..], |def| def.object_attrs());
            let Some((_, next_ty)) = attrs.iter().find(|(attr, _)| attr == next) else { return };
            step = next;
            ty = self.catalog.resolve_sql_type(next_ty.clone());
        }
    }
}

/// Visit `expr` and every nested expression that can carry a path worth a
/// plan note (skipping subqueries: their plans are not this statement's).
fn collect_note_exprs(expr: &Expr, visit: &mut impl FnMut(&Expr)) {
    visit(expr);
    match expr {
        Expr::Call { args, .. } => {
            for arg in args {
                collect_note_exprs(arg, visit);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            collect_note_exprs(lhs, visit);
            collect_note_exprs(rhs, visit);
        }
        Expr::Not(inner) | Expr::Deref(inner) => collect_note_exprs(inner, visit),
        Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => collect_note_exprs(expr, visit),
        _ => {}
    }
}

/// The object a DDL statement targets, for the one-line plan header.
fn ddl_target(stmt: &Stmt) -> Option<&Ident> {
    match stmt {
        Stmt::CreateTypeForward { name }
        | Stmt::CreateObjectType { name, .. }
        | Stmt::CreateVarrayType { name, .. }
        | Stmt::CreateNestedTableType { name, .. }
        | Stmt::CreateObjectTable { name, .. }
        | Stmt::CreateRelationalTable { name, .. }
        | Stmt::CreateView { name, .. }
        | Stmt::DropType { name, .. }
        | Stmt::DropTable { name }
        | Stmt::DropView { name }
        | Stmt::CreateIndex { name, .. }
        | Stmt::DropIndex { name } => Some(name),
        Stmt::AnalyzeTable { table } => Some(table),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Database;
    use crate::sql::parser::parse_statement;

    fn plan_of(db: &Database, sql: &str) -> Vec<String> {
        let stmt = parse_statement(sql).unwrap();
        let inner = match stmt {
            Stmt::Explain(inner) => *inner,
            other => other,
        };
        explain_stmt(&db.catalog(), db.mode(), &inner)
            .unwrap()
            .rows
            .into_iter()
            .map(|mut r| match r.remove(0) {
                Value::Str(s) => s,
                other => panic!("non-string plan row {other:?}"),
            })
            .collect()
    }

    fn ref_schema() -> Database {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(
            "CREATE TYPE T_P AS OBJECT (PName VARCHAR(30), Subject VARCHAR(20));\n\
             CREATE TYPE T_C AS OBJECT (CName VARCHAR(30), Prof REF T_P);\n\
             CREATE TABLE TabP OF T_P;\n\
             CREATE TABLE TabC OF T_C;",
        )
        .unwrap();
        db
    }

    #[test]
    fn ref_chain_projection_notes_the_oid_index_lookup() {
        let db = ref_schema();
        let plan = plan_of(&db, "SELECT c.Prof.Subject FROM TabC c");
        assert!(plan.iter().any(|l| l.contains("scan object table TabC OF T_C")), "{plan:#?}");
        assert!(
            plan.iter().any(|l| l.contains("deref Prof: REF T_P — OID-index lookup")),
            "{plan:#?}"
        );
        assert!(plan.iter().any(|l| l.contains("read-only")), "{plan:#?}");
    }

    #[test]
    fn hash_join_and_nested_loop_render_differently() {
        let mut db = ref_schema();
        let hash = plan_of(&db, "SELECT p.PName FROM TabP p, TabC c WHERE c.CName = p.PName");
        assert!(hash.iter().any(|l| l.contains("hash join (build: c.CName, probe: p.PName)")), "{hash:#?}");

        // The same statement with a non-equi join conjunct: there is nothing
        // to hash, so the planner itself chooses the nested loop.
        let sql = "SELECT p.PName FROM TabP p, TabC c WHERE c.CName <> p.PName";
        let nested = plan_of(&db, sql);
        let join = "from[1] c: scan object table TabC OF T_C — nested-loop join";
        assert!(nested.iter().any(|l| l.ends_with(join)), "{nested:#?}");
        assert!(!nested.iter().any(|l| l.contains("hash join")), "{nested:#?}");

        db.execute_script(
            "INSERT INTO TabP VALUES (T_P('A', 'x'));
             INSERT INTO TabP VALUES (T_P('B', 'y'));
             INSERT INTO TabC VALUES (T_C('A', NULL));
             INSERT INTO TabC VALUES (T_C('C', NULL));
             INSERT INTO TabC VALUES (T_C(NULL, NULL));",
        )
        .unwrap();
        let before = db.stats();
        let rows = db.query(sql).unwrap().rows;
        let delta = db.stats().since(&before);
        assert_eq!(delta.hash_join_builds, 0);
        assert_eq!(delta.join_pairs, 2 * 3, "every pair of the two tables is tried");
        // Pairs in FROM order whose names differ; a NULL name differs from
        // nothing.
        let p = |name: &str| vec![Value::str(name)];
        assert_eq!(rows, vec![p("A"), p("B"), p("B")]);
    }

    #[test]
    fn unknown_table_is_rejected_like_execution_would() {
        let db = ref_schema();
        let stmt = parse_statement("SELECT x.a FROM Nowhere x").unwrap();
        let err = explain_stmt(&db.catalog(), db.mode(), &stmt).unwrap_err();
        assert!(matches!(err, DbError::UnknownTable(_)));
    }

    #[test]
    fn plans_are_data_independent() {
        let mut db = ref_schema();
        let before = plan_of(&db, "SELECT c.CName FROM TabC c");
        db.execute("INSERT INTO TabC VALUES (T_C('DBS', NULL))").unwrap();
        assert_eq!(before, plan_of(&db, "SELECT c.CName FROM TabC c"));
    }
}
