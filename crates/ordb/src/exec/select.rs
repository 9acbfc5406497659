//! SELECT execution: FROM evaluation with hash equi-joins and a nested-loop
//! fallback (with lateral visibility for `TABLE(...)` un-nesting), WHERE
//! filtering, projection, DISTINCT and ORDER BY. Views — object views
//! included (§6.3) — expand inline.
//!
//! ## Join strategy selection
//!
//! Each FROM item beyond the first is joined to the accumulated row
//! combinations by a probe when the catalog offers one — an **OID probe**
//! for `REF(item) = …` (one OID-directory lookup per combination) or an
//! **index probe** on an index covered by equality keys — and otherwise one
//! of two ways:
//!
//! * **Hash equi-join** — when the first WHERE conjunct scheduled at this
//!   item is an equality whose one side references only this item's binding
//!   and whose other side is bound by earlier items (or constant), the
//!   item's rows are hashed once on the join key ([`Value::join_key`]) and
//!   each combination probes the table. Because SQL's numeric string
//!   coercion makes `sql_eq` non-transitive (`'04' = 4` but `'04' <> '4'`),
//!   the hash is a *prefilter*: every candidate is re-checked with the real
//!   predicate, so results are identical to the nested loop — the
//!   edge-table baseline's 7-way self-joins just stop being O(n²) per step.
//! * **Nested loop** — everything else, including all lateral
//!   `TABLE(expr)` items (their rows depend on the current combination).
//!
//! Non-lateral items are expanded exactly once and their frames shared via
//! `Rc` across all combinations, so a table joined against a thousand
//! combos no longer clones its rows a thousand times.
//!
//! ## What a lateral expansion copies: handles
//!
//! `TABLE(t.coll)` reads the collection where it is stored. The operand is
//! borrowed from the parent frame's block ([`eval_ref`]), each object
//! element's frame holds `Arc::clone` of the element's own `attrs` block —
//! the block the heap holds (see [`crate::value`]) — and the column list of
//! the element type is built once per FROM item (`UnnestColumns`), not
//! once per expansion. So `TabUniversity t0, TABLE(t0.attrStudent) t1,
//! TABLE(t1.attrCourse) t2, …` allocates one frame per element and one
//! combination per *surviving* element at every level and copies no stored
//! value, however much hangs below the element. (A scalar element has no
//! block of its own and is wrapped in a one-value block: the only value an
//! expansion copies.)
//!
//! Every join path tries a candidate against the conjuncts scheduled at its
//! item *in place* — pushed onto the parent combination and popped again
//! (`extend_combo`) — so a rejected candidate allocates nothing.

use crate::catalog::{Catalog, IndexDef, TableDef, TableStats};
use crate::error::DbError;
use crate::exec::eval::{eval_bool, eval_expr, eval_ref, ExecCtx};
use crate::exec::{Env, Frame};
use crate::ident::Ident;
use crate::sql::ast::{BinOp, Expr, FromItem, SelectStmt};
use crate::storage::{key_hash, Row};
use crate::value::{JoinKey, Value};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// A query result: column names and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Single-value convenience accessor.
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.rows.first()) {
            (1, Some(row)) if row.len() == 1 => Some(&row[0]),
            _ => None,
        }
    }
}

/// Execute a SELECT. `outer` carries the enclosing environment for
/// correlated subqueries.
pub fn execute_select(
    ctx: &mut ExecCtx,
    stmt: &SelectStmt,
    outer: Option<&Env>,
) -> Result<QueryResult, DbError> {
    let mut columns = Vec::new();
    let rows = select_rows(ctx, stmt, outer, Some(&mut columns))?;
    Ok(QueryResult { columns, rows })
}

/// The rows of a SELECT. `names`, when given, receives the result's column
/// names; a subquery — scalar, `EXISTS`, `MULTISET` — reads the rows alone
/// and names nothing.
pub(crate) fn select_rows(
    ctx: &mut ExecCtx,
    stmt: &SelectStmt,
    outer: Option<&Env>,
    names: Option<&mut Vec<String>>,
) -> Result<Vec<Vec<Value>>, DbError> {
    // 0. Plan: split + schedule WHERE conjuncts, choose the join order and
    //    one access path per FROM item — from the catalog alone, so the
    //    plan is exactly what EXPLAIN predicts.
    let plan = plan_select(ctx.catalog, stmt);
    if plan.join_order == JoinOrder::CostBased
        || plan.paths.iter().any(|(p, _)| matches!(p, AccessPath::IndexProbe { .. }))
    {
        ctx.stats.planner_plans_costed += 1;
    }

    // 1. FROM: build row combinations in execution order. Later items see
    //    earlier bindings (needed by TABLE(t.attr) un-nesting), and
    //    conjuncts filter as soon as their inputs are bound. Every table
    //    frame carries its heap slot, which step 1b sorts by.
    let mut combos: Vec<Vec<Rc<Frame>>> = vec![Vec::new()];
    if stmt.from.len() > 1 {
        ctx.stats.join_queries += 1;
    }
    for (pos, &orig) in plan.order.iter().enumerate() {
        if combos.is_empty() {
            // An earlier item produced no combinations; nothing to extend
            // (and nothing further should be scanned).
            break;
        }
        let binding = &plan.bindings[pos];
        let applicable = plan.applicable(pos);
        combos = match &stmt.from[orig] {
            // Lateral items depend on the current combination and are
            // re-expanded per combo.
            FromItem::CollectionTable { expr, .. } => {
                join_lateral(ctx, expr, binding, combos, applicable, outer, pos)?
            }
            FromItem::Table { name, .. } => match &plan.paths[pos].0 {
                AccessPath::OidProbe { key } => {
                    probe_oid_item(ctx, name, binding, key, combos, applicable, outer, pos)?
                }
                // Index probe: no expansion at all. The freshness check is
                // the safety valve: a stale index (impossible under eager
                // maintenance, but never trusted) silently degrades to the
                // scan/hash path.
                AccessPath::IndexProbe { index, keys } if ctx.storage.index_is_fresh(index) => {
                    probe_index_item(
                        ctx, name, binding, index, keys, combos, applicable, outer, pos,
                    )?
                }
                path => join_expanded(
                    ctx, name, &plan.bindings, path, combos, applicable, outer, pos,
                )?,
            },
        };
    }

    // 1b. Restore the FROM-order enumeration: a nested loop in FROM order
    //     enumerates combinations in lexicographic heap-slot order — so
    //     after a reorder, un-permuting each combination's frames and
    //     sorting by their slots makes output byte-identical to that
    //     nested loop.
    if plan.reordered && !combos.is_empty() {
        let n = stmt.from.len();
        let mut exec_pos_of = vec![0usize; n];
        for (pos, &orig) in plan.order.iter().enumerate() {
            exec_pos_of[orig] = pos;
        }
        for combo in &mut combos {
            *combo = exec_pos_of.iter().map(|&pos| combo[pos].clone()).collect();
        }
        combos.sort_by(|a, b| a.iter().map(|f| f.slot).cmp(b.iter().map(|f| f.slot)));
    }

    // 2. Residual WHERE conjuncts (those deferred to the end).
    let residual = plan.residual(stmt.from.len());
    if !residual.is_empty() {
        let mut surviving = Vec::new();
        for combo in combos {
            if passes(ctx, &combo, residual, outer)? {
                surviving.push(combo);
            }
        }
        combos = surviving;
    }

    // 3. Aggregate shortcut: COUNT(*) queries.
    if !stmt.star && stmt.items.iter().any(|i| matches!(i.expr, Expr::CountStar)) {
        if stmt.items.len() != 1 {
            return Err(DbError::Execution(
                "COUNT(*) cannot be combined with other select items".into(),
            ));
        }
        if let Some(names) = names {
            let name = stmt.items[0].alias.as_ref().map_or("COUNT(*)", Ident::as_str);
            *names = vec![name.to_string()];
        }
        return Ok(vec![vec![Value::Num(combos.len() as f64)]]);
    }

    // 4. Projection.
    if let Some(names) = names {
        *names = match combos.first() {
            _ if !stmt.star => {
                stmt.items.iter().enumerate().map(|(i, item)| item_column_name(item, i)).collect()
            }
            Some(combo) => combo
                .iter()
                .flat_map(|frame| frame.columns.iter().map(|c| c.as_str().to_string()))
                .collect(),
            // No rows: still report column names.
            None => star_columns(ctx, stmt),
        };
    }
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(combos.len());
    let mut order_keys: Vec<Vec<Value>> = Vec::new();
    for combo in &combos {
        let env = make_env(combo, outer);
        let row = if stmt.star {
            combo.iter().flat_map(|frame| frame.values.iter().cloned()).collect()
        } else {
            let mut row = Vec::with_capacity(stmt.items.len());
            for item in &stmt.items {
                row.push(eval_expr(ctx, &env, &item.expr)?);
            }
            row
        };
        if !stmt.order_by.is_empty() {
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for (expr, _) in &stmt.order_by {
                keys.push(eval_expr(ctx, &env, expr)?);
            }
            order_keys.push(keys);
        }
        rows.push(row);
    }

    // 5. ORDER BY (stable sort on the precomputed keys).
    if !stmt.order_by.is_empty() {
        let mut indexed: Vec<usize> = (0..rows.len()).collect();
        indexed.sort_by(|&a, &b| {
            for (k, (_, asc)) in stmt.order_by.iter().enumerate() {
                let ord = order_key_cmp(&order_keys[a][k], &order_keys[b][k]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        // `indexed` is a permutation, so each row is taken exactly once.
        rows = indexed.into_iter().map(|i| std::mem::take(&mut rows[i])).collect();
    }

    // 6. DISTINCT.
    if stmt.distinct {
        rows = distinct_rows(rows);
    }

    Ok(rows)
}

/// Join a lateral `TABLE(expr)` item: re-expanded under every combination
/// (its rows depend on it), each element frame tried in place.
fn join_lateral(
    ctx: &mut ExecCtx,
    expr: &Expr,
    binding: &Ident,
    combos: Vec<Vec<Rc<Frame>>>,
    applicable: &[(usize, &Expr)],
    outer: Option<&Env>,
    pos: usize,
) -> Result<Vec<Vec<Rc<Frame>>>, DbError> {
    let mut columns = UnnestColumns::default();
    // Filled per combination and drained into it: one buffer.
    let mut frames: Vec<Rc<Frame>> = Vec::new();
    let mut next: Vec<Vec<Rc<Frame>>> = Vec::new();
    for mut combo in combos {
        let env = make_env(&combo, outer);
        expand_collection(ctx, expr, binding, &env, &mut columns, &mut frames)?;
        ctx.stats.rows_scanned += frames.len() as u64;
        if pos > 0 {
            ctx.stats.join_pairs += frames.len() as u64;
        }
        for frame in frames.drain(..) {
            extend_combo(ctx, &mut combo, frame, applicable, outer, &mut next)?;
        }
    }
    Ok(next)
}

/// Join a table or view item by expanding it once and sharing its frames
/// via `Rc` across all combinations: hashed on the join key when `path` (or,
/// for an index probe whose index went stale, the first applicable
/// conjunct) is an equi-join, else a nested loop.
#[allow(clippy::too_many_arguments)]
fn join_expanded(
    ctx: &mut ExecCtx,
    name: &Ident,
    bindings: &[Ident],
    path: &AccessPath,
    combos: Vec<Vec<Rc<Frame>>>,
    applicable: &[(usize, &Expr)],
    outer: Option<&Env>,
    pos: usize,
) -> Result<Vec<Vec<Rc<Frame>>>, DbError> {
    if pos == 0 {
        if let Some(table) = ctx.catalog.get_table(name) {
            return scan_first_item(ctx, name, table, &bindings[0], applicable, outer);
        }
    }
    let frames = expand_table(ctx, name, &bindings[pos])?;
    ctx.stats.rows_scanned += frames.len() as u64;

    // Hash path only for the *first* applicable conjunct: the nested loop
    // evaluates conjuncts in scheduled order, so hashing the first one
    // preserves which expression gets evaluated against every row.
    let hash_plan = match path {
        AccessPath::HashJoin { probe, build } => Some((*probe, *build)),
        AccessPath::IndexProbe { .. } if pos > 0 => {
            applicable.first().and_then(|(_, c)| plan_hash_join(c, bindings, pos))
        }
        _ => None,
    };

    let mut next: Vec<Vec<Rc<Frame>>> = Vec::new();
    if let Some((probe_expr, build_expr)) = hash_plan {
        // Build: hash the new item's frames on the join key. NULL keys can
        // never satisfy the equality and are dropped; values without a
        // hashable key (objects, collections) fall into a linear bucket
        // probed only by composite probe values.
        ctx.stats.hash_join_builds += 1;
        let mut table: HashMap<JoinKey, Vec<usize>> = HashMap::new();
        let mut composites: Vec<usize> = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let env = make_env(std::slice::from_ref(frame), outer);
            let value = eval_expr(ctx, &env, build_expr)?;
            if value.is_null() {
                continue;
            }
            match value.join_key() {
                Some(key) => table.entry(key).or_default().push(i),
                None => composites.push(i),
            }
        }
        // Probe: one lookup per combination; candidates re-verified with
        // the full conjunct list (hash equality is a prefilter).
        for mut combo in combos {
            ctx.stats.hash_join_probes += 1;
            let env = make_env(&combo, outer);
            let probe = eval_expr(ctx, &env, probe_expr)?;
            if probe.is_null() {
                continue;
            }
            let candidates: &[usize] = match probe.join_key() {
                Some(key) => table.get(&key).map(Vec::as_slice).unwrap_or(&[]),
                // A composite probe value can only equal composite build
                // values (scalars compare false against them).
                None => &composites,
            };
            ctx.stats.join_pairs += candidates.len() as u64;
            for &i in candidates {
                let frame = frames[i].clone();
                extend_combo(ctx, &mut combo, frame, applicable, outer, &mut next)?;
            }
        }
    } else {
        for mut combo in combos {
            if pos > 0 {
                ctx.stats.join_pairs += frames.len() as u64;
            }
            for frame in &frames {
                extend_combo(ctx, &mut combo, frame.clone(), applicable, outer, &mut next)?;
            }
        }
    }
    Ok(next)
}

/// Scan the plain table that runs first: each row is tried as a one-frame
/// combination as it is read. Nothing else holds a rejected row's frame, so
/// it is refilled with the next row — a selective filter allocates frames
/// for the rows it keeps only, as the §4.1 query's seed scan does.
fn scan_first_item(
    ctx: &mut ExecCtx,
    name: &Ident,
    table: &TableDef,
    binding: &Ident,
    applicable: &[(usize, &Expr)],
    outer: Option<&Env>,
) -> Result<Vec<Vec<Rc<Frame>>>, DbError> {
    let (catalog, storage) = (ctx.catalog, ctx.storage);
    let columns = catalog.column_names(table);
    let data = storage
        .table(name)
        .ok_or_else(|| DbError::UnknownTable(name.as_str().to_string()))?;
    ctx.stats.rows_scanned += data.rows.len() as u64;
    let refill = |spare: Option<Rc<Frame>>, row: &Row, slot: usize| {
        let mut frame = spare?;
        let reused = Rc::get_mut(&mut frame)?;
        reused.values = Arc::clone(&row.values);
        reused.oid = row.oid;
        reused.slot = slot;
        Some(frame)
    };
    let mut next: Vec<Vec<Rc<Frame>>> = Vec::new();
    let mut spare = None;
    for (slot, row) in data.rows.iter().enumerate() {
        let frame = refill(spare.take(), row, slot)
            .unwrap_or_else(|| Rc::new(Frame::of_row(binding, &columns, table, row, slot)));
        if passes(ctx, std::slice::from_ref(&frame), applicable, outer)? {
            next.push(vec![frame]);
        } else {
            spare = Some(frame);
        }
    }
    Ok(next)
}

/// How ORDER BY compares two keys: NULL after every value — so NULLs come
/// last ascending and first `DESC`, as in Oracle — and otherwise
/// [`Value::sql_cmp`], with incomparable values tied. NULL must not tie
/// with everything: `1 < 3` but `NULL = 1` and `NULL = 3` is no order, and
/// the standard library's sort may panic on such a comparator.
fn order_key_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.sql_cmp(b).unwrap_or(std::cmp::Ordering::Equal),
    }
}

/// Keep the first occurrence of every row, in order. Two rows are the same
/// when they are `==`; kept rows are bucketed by a hash of their cells'
/// join-key identity ([`Value::hash_join_key`] — `==` cells hash alike, and
/// cells that merely coerce alike, `4` / `'4'` / `'04'`, share a bucket and
/// are told apart by the `==`), so a row is compared with its bucket, not
/// with every row kept so far. A row with a NULL or composite cell has no
/// such hash and is compared with the other such rows.
fn distinct_rows(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut kept: Vec<Vec<Value>> = Vec::new();
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut unhashed: Vec<usize> = Vec::new();
    for row in rows {
        let mut h = DefaultHasher::new();
        let bucket = if row.iter().all(|cell| cell.hash_join_key(&mut h)) {
            buckets.entry(h.finish()).or_default()
        } else {
            &mut unhashed
        };
        if !bucket.iter().any(|&i| kept[i] == row) {
            bucket.push(kept.len());
            kept.push(row);
        }
    }
    kept
}

/// Join one FROM item to the accumulated combinations through a secondary
/// index: per combination, evaluate the key expressions, hash, fetch
/// candidate slots, and materialize frames only for candidates (cached per
/// slot and shared via `Rc` when more than one combination probes).
/// Candidates are re-verified against every applicable conjunct in
/// [`extend_combo`], so a hash collision or SQL's non-transitive
/// numeric-string equality can never leak a wrong row.
#[allow(clippy::too_many_arguments)]
fn probe_index_item(
    ctx: &mut ExecCtx,
    name: &Ident,
    binding: &Ident,
    index_name: &Ident,
    key_exprs: &[&Expr],
    combos: Vec<Vec<Rc<Frame>>>,
    applicable: &[(usize, &Expr)],
    outer: Option<&Env>,
    pos: usize,
) -> Result<Vec<Vec<Rc<Frame>>>, DbError> {
    // Copy the shared catalog and storage references out of the context so
    // the table's shape and the probe results (borrowed from them) stay
    // usable while `ctx` is mutably borrowed for expression evaluation. The
    // planner only picks an index probe for a cataloged plain table.
    let (catalog, storage) = (ctx.catalog, ctx.storage);
    let table =
        catalog.get_table(name).ok_or_else(|| DbError::UnknownTable(name.as_str().to_string()))?;
    let columns = catalog.column_names(table);
    let data = storage
        .table(name)
        .ok_or_else(|| DbError::UnknownTable(name.as_str().to_string()))?;
    ctx.stats.index_scans += 1;
    let frame_of =
        |slot: usize| Rc::new(Frame::of_row(binding, &columns, table, &data.rows[slot], slot));

    let mut cache: Option<HashMap<usize, Rc<Frame>>> = (combos.len() > 1).then(HashMap::new);
    let mut next: Vec<Vec<Rc<Frame>>> = Vec::new();
    for mut combo in combos {
        let env = make_env(&combo, outer);
        // A NULL key component can never satisfy the equality; a composite
        // (object/collection) probe value can never equal the scalar/REF
        // values an index is allowed to hold. Either way: no matches.
        let hash = match key_exprs {
            [key] => key_hash([eval_ref(ctx, &env, key)?.as_ref()]),
            keys => {
                let mut values = Vec::with_capacity(keys.len());
                for key in keys {
                    values.push(eval_expr(ctx, &env, key)?);
                }
                key_hash(&values)
            }
        };
        let Some(hash) = hash else {
            continue;
        };
        let Some(slots) = storage.index_probe(index_name, hash) else {
            // Freshness was checked before entering; storage is immutable
            // for the duration of the SELECT.
            return Err(DbError::Execution(format!(
                "index '{index_name}' disappeared mid-statement"
            )));
        };
        ctx.stats.rows_scanned += slots.len() as u64;
        if pos > 0 {
            ctx.stats.join_pairs += slots.len() as u64;
        }
        for &slot in slots {
            let frame = match &mut cache {
                Some(cache) => cache.entry(slot).or_insert_with(|| frame_of(slot)).clone(),
                None => frame_of(slot),
            };
            extend_combo(ctx, &mut combo, frame, applicable, outer, &mut next)?;
        }
    }
    Ok(next)
}

/// Join one FROM item to the accumulated combinations by OID: per
/// combination, evaluate `key` and, when it is a REF, look its row up in the
/// OID directory — kept only if it lives in `name`, so at most one candidate,
/// with no scan, hash table or index. The candidate is re-verified against
/// every applicable conjunct in [`extend_combo`], the `REF(binding) = key`
/// conjunct the probe came from included.
#[allow(clippy::too_many_arguments)]
fn probe_oid_item(
    ctx: &mut ExecCtx,
    name: &Ident,
    binding: &Ident,
    key: &Expr,
    combos: Vec<Vec<Rc<Frame>>>,
    applicable: &[(usize, &Expr)],
    outer: Option<&Env>,
    pos: usize,
) -> Result<Vec<Vec<Rc<Frame>>>, DbError> {
    let (catalog, storage) = (ctx.catalog, ctx.storage);
    let table =
        catalog.get_table(name).ok_or_else(|| DbError::UnknownTable(name.as_str().to_string()))?;
    let columns = catalog.column_names(table);
    let mut next: Vec<Vec<Rc<Frame>>> = Vec::new();
    for mut combo in combos {
        let env = make_env(&combo, outer);
        // Only a REF equals a REF: NULL is UNKNOWN, anything else FALSE.
        let oid = match eval_ref(ctx, &env, key)?.as_ref() {
            Value::Ref(oid) => *oid,
            _ => continue,
        };
        // A dangling REF resolves to nothing.
        let Some((owner, slot, row)) = storage.resolve_oid_slot(oid) else {
            continue;
        };
        ctx.stats.oid_index_hits += 1;
        if owner != name {
            continue;
        }
        ctx.stats.rows_scanned += 1;
        if pos > 0 {
            ctx.stats.join_pairs += 1;
        }
        let frame = Rc::new(Frame::of_row(binding, &columns, table, row, slot));
        extend_combo(ctx, &mut combo, frame, applicable, outer, &mut next)?;
    }
    Ok(next)
}

/// How one FROM item is matched against the accumulated combinations.
/// Chosen by [`plan_select`] from the catalog alone (indexes + ANALYZE
/// statistics), so EXPLAIN and execution agree on every plan. Expressions
/// are borrowed from the statement planned.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AccessPath<'s> {
    /// Expand every row; nested-loop against the combinations.
    Scan,
    /// Expand every row, hash on `build`, probe once per combination.
    HashJoin { probe: &'s Expr, build: &'s Expr },
    /// Skip expansion entirely: per combination, evaluate `keys` (in the
    /// index's column order), hash, and fetch candidate slots from the
    /// named secondary index. Candidates are re-verified against the real
    /// conjuncts — the index is a prefilter, exactly like the hash join.
    IndexProbe { index: Ident, keys: Vec<&'s Expr> },
    /// `REF(binding) = key` with `key` bound by earlier items: per
    /// combination, resolve `key` through the OID directory and keep the
    /// row if it lives in this item's table — at most one candidate, with
    /// no expansion, hash table or index.
    OidProbe { key: &'s Expr },
}

/// How [`plan_select`] chose the join order — what EXPLAIN's `join order:`
/// line reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinOrder {
    /// FROM-clause order (EXPLAIN prints no line).
    FromClause,
    /// Greedy by ANALYZE estimates.
    CostBased,
    /// Started at the item with the best constant-key access, every later
    /// item attached by a one-row probe (see [`seeded_order`]).
    Seeded,
}

/// The plan for one SELECT: join order, per-item access paths, scheduled
/// conjuncts — everything both the executor and EXPLAIN need, borrowing
/// every expression from the statement `'s`.
pub(crate) struct SelectPlan<'s> {
    /// Execution order as original FROM indices (`order[pos]` = which
    /// original item runs at position `pos`).
    pub order: Vec<usize>,
    /// The binding of the item at each execution position.
    pub bindings: Vec<Ident>,
    /// True when `order` differs from FROM-clause order. The executor then
    /// restores the original combination enumeration order afterwards, so
    /// results stay byte-identical to a nested loop in FROM order.
    pub reordered: bool,
    /// How `order` was chosen.
    pub join_order: JoinOrder,
    /// WHERE conjuncts with the execution position each is scheduled at
    /// (`usize::MAX` = deferred to the residual filter), sorted by position;
    /// conjuncts of one position keep their WHERE order.
    pub scheduled: Vec<(usize, &'s Expr)>,
    /// Per execution position: the access path, and the rows the item is
    /// estimated to contribute from ANALYZE statistics (`None` when the
    /// table was never analyzed).
    pub paths: Vec<(AccessPath<'s>, Option<u64>)>,
}

impl<'s> SelectPlan<'s> {
    /// The conjuncts scheduled at execution position `pos`.
    pub fn applicable(&self, pos: usize) -> &[(usize, &'s Expr)] {
        scheduled_at(&self.scheduled, pos)
    }

    /// The conjuncts deferred past the last of `items` FROM items
    /// (subqueries, unresolvable references).
    pub fn residual(&self, items: usize) -> &[(usize, &'s Expr)] {
        let final_pos = items.saturating_sub(1);
        &self.scheduled[self.scheduled.partition_point(|(p, _)| *p <= final_pos)..]
    }
}

/// Plan a SELECT from the catalog alone — no storage access, so plans are
/// data-independent (EXPLAIN's contract) and identical between EXPLAIN and
/// execution.
pub(crate) fn plan_select<'s>(catalog: &Catalog, stmt: &'s SelectStmt) -> SelectPlan<'s> {
    let n = stmt.from.len();
    let orig_bindings: Vec<Ident> = stmt.from.iter().map(FromItem::binding).collect();
    // The WHERE conjuncts, each with the position it is scheduled at below.
    let mut scheduled: Vec<(usize, &'s Expr)> = Vec::new();
    if let Some(pred) = &stmt.where_clause {
        split_and(pred, &mut scheduled);
    }

    // Join order. Only a FROM clause of distinct-binding plain tables can
    // be reordered: step 1b restores FROM-order enumeration by heap slot,
    // which lateral TABLE(...) items and views do not have. The seeded
    // order comes first and needs no statistics; a seeded walk that is
    // FROM order already keeps it. Otherwise, with ANALYZE statistics for
    // every item, the cost-based greedy order.
    let mut order: Vec<usize> = (0..n).collect();
    let mut join_order = JoinOrder::FromClause;
    if n > 1 && reorderable(catalog, stmt, &orig_bindings) {
        match seeded_order(catalog, stmt, &orig_bindings, &scheduled) {
            Some(seeded) if seeded == order => {}
            Some(seeded) => (order, join_order) = (seeded, JoinOrder::Seeded),
            None if stmt.from.iter().all(|item| analyzed(catalog, item)) => {
                order = cost_based_order(catalog, stmt, &orig_bindings, &scheduled);
                join_order = JoinOrder::CostBased;
            }
            None => {}
        }
    }
    let reordered = order.iter().enumerate().any(|(pos, &i)| pos != i);
    let bindings = if reordered {
        order.iter().map(|&i| orig_bindings[i].clone()).collect()
    } else {
        orig_bindings
    };

    // Schedule conjuncts at the earliest *execution* position where all
    // their bindings are bound. A stable sort: one position's conjuncts
    // stay in WHERE order, the order they are evaluated in.
    for (pos, conjunct) in &mut scheduled {
        *pos = conjunct_position(conjunct, &bindings);
    }
    scheduled.sort_by_key(|(pos, _)| *pos);

    let paths = order
        .iter()
        .enumerate()
        .map(|(pos, &orig)| {
            let applicable = scheduled_at(&scheduled, pos);
            plan_item_path(catalog, &bindings, pos, &stmt.from[orig], applicable)
        })
        .collect();
    SelectPlan { order, bindings, reordered, join_order, scheduled, paths }
}

/// The run of position-sorted `scheduled` conjuncts at position `pos`.
fn scheduled_at<'p, 's>(scheduled: &'p [(usize, &'s Expr)], pos: usize) -> &'p [(usize, &'s Expr)] {
    let start = scheduled.partition_point(|(p, _)| *p < pos);
    let end = scheduled.partition_point(|(p, _)| *p <= pos);
    &scheduled[start..end]
}

/// Can this FROM clause be reordered? Requires cataloged plain tables with
/// pairwise-distinct bindings (enumeration-order restoration sorts by each
/// frame's heap slot, which only plain tables have).
fn reorderable(catalog: &Catalog, stmt: &SelectStmt, bindings: &[Ident]) -> bool {
    let all_plain = stmt.from.iter().all(
        |item| matches!(item, FromItem::Table { name, .. } if catalog.get_table(name).is_some()),
    );
    let distinct = bindings.iter().all(|b| bindings.iter().filter(|o| *o == b).count() == 1);
    all_plain && distinct
}

/// Does this FROM item have ANALYZE statistics?
fn analyzed(catalog: &Catalog, item: &FromItem) -> bool {
    matches!(item, FromItem::Table { name, .. } if catalog.table_stats(name).is_some())
}

/// System-R-style greedy order: ascending local-cardinality estimate, but
/// never introducing a cross product — after the first item, each pick must
/// share a join conjunct with the chosen prefix (a disconnected
/// low-estimate item placed early multiplies every prefix combo by its full
/// row count).
fn cost_based_order(
    catalog: &Catalog,
    stmt: &SelectStmt,
    bindings: &[Ident],
    conjuncts: &[(usize, &Expr)],
) -> Vec<usize> {
    let n = stmt.from.len();
    let est: Vec<u64> =
        (0..n).map(|i| local_estimate(catalog, stmt, bindings, i, conjuncts)).collect();
    // Join graph: i ~ j when some conjunct references both bindings.
    let mut adjacent = vec![vec![false; n]; n];
    for (_, conjunct) in conjuncts {
        if let Some(positions) = side_positions(conjunct, bindings) {
            for &i in &positions {
                for &j in &positions {
                    adjacent[i][j] = true;
                }
            }
        }
    }
    let mut chosen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let connected = |i: usize| order.iter().any(|&j| adjacent[i][j]);
        let pick = (0..n)
            .filter(|&i| !chosen[i] && (order.is_empty() || connected(i)))
            .min_by_key(|&i| (est[i], i))
            // Disconnected remainder (a genuine cross product in the
            // query): fall back to the cheapest item.
            .unwrap_or_else(|| {
                (0..n).filter(|&i| !chosen[i]).min_by_key(|&i| (est[i], i)).unwrap()
            });
        chosen[pick] = true;
        order.push(pick);
    }
    order
}

/// How well an item can be reached through its constant equality filters
/// (`col = literal`) alone, best first — the seeded order's rank guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ConstantAccess {
    /// A PRIMARY KEY / UNIQUE index fully keyed by constants.
    UniqueKey,
    /// Another index fully keyed by constants.
    Index,
    /// A constant filter no index covers.
    Filter,
    /// No constant equality at all.
    None,
}

/// The seeded join order: when some item has a constant equality filter
/// and every other item can be attached, one at a time, by a one-row probe
/// — an OID probe, or a PRIMARY KEY / UNIQUE index fully keyed by the items
/// already placed — run outward from that item, each step taking the first
/// attachable item in FROM order. The seed's [`ConstantAccess`] must be at
/// least as good as every other item's, so a key lookup elsewhere in the
/// query keeps today's plan; seeds of that best rank are tried in FROM
/// order. What is one row is known from the catalog, so no statistics are
/// needed.
fn seeded_order(
    catalog: &Catalog,
    stmt: &SelectStmt,
    bindings: &[Ident],
    conjuncts: &[(usize, &Expr)],
) -> Option<Vec<usize>> {
    let n = stmt.from.len();
    let ranks: Vec<ConstantAccess> =
        (0..n).map(|i| constant_access(catalog, stmt, bindings, i, conjuncts)).collect();
    let best = *ranks.iter().min()?;
    if best == ConstantAccess::None {
        return None;
    }
    (0..n).filter(|&seed| ranks[seed] == best).find_map(|seed| {
        let mut order = vec![seed];
        while order.len() < n {
            let next = (0..n).find(|&i| {
                !order.contains(&i) && one_row_probe(catalog, stmt, bindings, &order, i, conjuncts)
            })?;
            order.push(next);
        }
        Some(order)
    })
}

/// The [`ConstantAccess`] of the FROM item at `item`.
fn constant_access(
    catalog: &Catalog,
    stmt: &SelectStmt,
    bindings: &[Ident],
    item: usize,
    conjuncts: &[(usize, &Expr)],
) -> ConstantAccess {
    let FromItem::Table { name, .. } = &stmt.from[item] else {
        return ConstantAccess::None;
    };
    let keyed: Vec<&Ident> =
        conjuncts.iter().filter_map(|(_, c)| constant_key(c, bindings, item)).collect();
    if keyed.is_empty() {
        return ConstantAccess::None;
    }
    catalog
        .indexes_on(name)
        .filter(|idx| idx.columns.iter().all(|c| keyed.contains(&c)))
        .map(|idx| if idx.unique { ConstantAccess::UniqueKey } else { ConstantAccess::Index })
        .min()
        .unwrap_or(ConstantAccess::Filter)
}

/// Placed right after the FROM items `placed`, is the item at `item` joined
/// by at most one row per combination? Decided by planning its access path
/// exactly as [`plan_select`] will at that position.
fn one_row_probe(
    catalog: &Catalog,
    stmt: &SelectStmt,
    bindings: &[Ident],
    placed: &[usize],
    item: usize,
    conjuncts: &[(usize, &Expr)],
) -> bool {
    let trial: Vec<Ident> = placed.iter().chain([&item]).map(|&i| bindings[i].clone()).collect();
    let pos = placed.len();
    let applicable: Vec<(usize, &Expr)> =
        conjuncts.iter().filter(|(_, c)| conjunct_position(c, &trial) == pos).copied().collect();
    let FromItem::Table { name, .. } = &stmt.from[item] else {
        return false;
    };
    match plan_item_path(catalog, &trial, pos, &stmt.from[item], &applicable).0 {
        AccessPath::OidProbe { .. } => true,
        AccessPath::IndexProbe { index, .. } => {
            catalog.indexes_on(name).any(|idx| idx.name == index && idx.unique)
        }
        AccessPath::HashJoin { .. } | AccessPath::Scan => false,
    }
}

/// Cardinality estimate for one FROM item considering only its *local*
/// predicates (equality against constants): `rows / ndv(col)`, or 1 for a
/// UNIQUE-indexed key — the ordering key for the greedy join order.
fn local_estimate(
    catalog: &Catalog,
    stmt: &SelectStmt,
    bindings: &[Ident],
    item: usize,
    conjuncts: &[(usize, &Expr)],
) -> u64 {
    let FromItem::Table { name, .. } = &stmt.from[item] else {
        return u64::MAX;
    };
    let Some(stats) = catalog.table_stats(name) else {
        return u64::MAX;
    };
    let mut est = stats.rows;
    for (_, conjunct) in conjuncts {
        let Some(col) = constant_key(conjunct, bindings, item) else {
            continue;
        };
        let unique = catalog
            .indexes_on(name)
            .any(|idx| idx.unique && idx.columns.len() == 1 && &idx.columns[0] == col);
        let sel = if unique { 1 } else { (stats.rows / stats.ndv(col)).max(1) };
        est = est.min(sel);
    }
    est
}

/// If `conjunct` is `binding.col = expr` (or mirrored) where `binding` is
/// the FROM item at `item_idx` and `expr` references only earlier items or
/// constants, return the column and the probe-side expression.
fn equality_key<'a>(
    conjunct: &'a Expr,
    bindings: &[Ident],
    item_idx: usize,
) -> Option<(&'a Ident, &'a Expr)> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = conjunct else {
        return None;
    };
    let as_key = |side: &'a Expr, other: &'a Expr| -> Option<(&'a Ident, &'a Expr)> {
        let Expr::Path(parts) = side else { return None };
        let [binding, col] = parts.as_slice() else { return None };
        if binding != &bindings[item_idx] {
            return None;
        }
        let other_pos = side_positions(other, bindings)?;
        if other_pos.iter().all(|&p| p < item_idx) {
            Some((col, other))
        } else {
            None
        }
    };
    as_key(lhs, rhs).or_else(|| as_key(rhs, lhs))
}

/// The column of `conjunct` when it is `binding.col = constant` (no FROM
/// reference on the other side) for the FROM item at `item_idx`.
fn constant_key<'a>(conjunct: &'a Expr, bindings: &[Ident], item_idx: usize) -> Option<&'a Ident> {
    let (col, other) = equality_key(conjunct, bindings, item_idx)?;
    side_positions(other, bindings)?.is_empty().then_some(col)
}

/// If `conjunct` is `REF(binding) = expr` (or mirrored) where `binding` is
/// the FROM item at `item_idx` and `expr` references only earlier items or
/// constants, return `expr`: the key of an OID probe.
fn oid_key<'a>(conjunct: &'a Expr, bindings: &[Ident], item_idx: usize) -> Option<&'a Expr> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = conjunct else {
        return None;
    };
    let as_key = |side: &'a Expr, other: &'a Expr| -> Option<&'a Expr> {
        let Expr::RefOf(binding) = side else { return None };
        let bound = binding == &bindings[item_idx]
            && side_positions(other, bindings)?.iter().all(|&p| p < item_idx);
        bound.then_some(other)
    };
    as_key(lhs, rhs).or_else(|| as_key(rhs, lhs))
}

/// The rows one probe of `index` is estimated to return: 1 for a key,
/// else `rows / ndv` of its most selective column.
fn index_estimate(stats: &TableStats, index: &IndexDef) -> u64 {
    if index.unique {
        return 1;
    }
    let ndv = index.columns.iter().map(|c| stats.ndv(c)).max().unwrap_or(1).max(1);
    (stats.rows / ndv).max(1)
}

/// Choose the access path for the item at execution position `pos`:
/// an OID probe when an applicable `REF(binding) = key` has its key bound
/// (at most one row); else a secondary-index probe when one covers the
/// available equality keys; else the hash equi-join; else a scan.
///
/// Of several covered indexes, with ANALYZE statistics the lowest estimate
/// wins (a key counts as 1). Without, a key wins, and past the first
/// position an index keyed by earlier bindings beats one keyed only by
/// constants: the constant key fetches the same bucket for every
/// combination. Ties go to the widest index, then to the first in the
/// inventory, which lists key indexes before declared ones.
fn plan_item_path<'s>(
    catalog: &Catalog,
    bindings: &[Ident],
    pos: usize,
    item: &FromItem,
    applicable: &[(usize, &'s Expr)],
) -> (AccessPath<'s>, Option<u64>) {
    let table = match item {
        FromItem::Table { name, .. } => catalog.get_table(name).map(|def| (name, def)),
        FromItem::CollectionTable { .. } => None,
    };
    let stats = table.and_then(|(name, _)| catalog.table_stats(name));
    if let Some((name, def)) = table {
        // Only the rows of an object table have OIDs.
        if def.of_type().is_some() {
            if let Some(key) = applicable.iter().find_map(|(_, c)| oid_key(c, bindings, pos)) {
                return (AccessPath::OidProbe { key }, stats.map(|_| 1));
            }
        }
        // The probe-side expression of the first conjunct keying `column`.
        let key_of = |column: &Ident| {
            applicable.iter().find_map(|(_, c)| {
                equality_key(c, bindings, pos).filter(|(col, _)| *col == column).map(|(_, e)| e)
            })
        };
        let join_keyed = |idx: &IndexDef| {
            idx.columns.iter().any(|c| {
                key_of(c)
                    .and_then(|e| side_positions(e, bindings))
                    .is_some_and(|positions| !positions.is_empty())
            })
        };
        let best = catalog
            .indexes_on(name)
            .filter(|idx| idx.columns.iter().all(|c| key_of(c).is_some()))
            .enumerate()
            .min_by_key(|&(nth, idx)| {
                let cost = match stats {
                    Some(s) => index_estimate(s, idx),
                    None if idx.unique => 0,
                    None if pos == 0 || join_keyed(idx) => 1,
                    None => 2,
                };
                (cost, !idx.unique, Reverse(idx.columns.len()), nth)
            });
        if let Some((_, idx)) = best {
            let keys = idx.columns.iter().filter_map(key_of).collect();
            let est = stats.map(|s| index_estimate(s, idx));
            return (AccessPath::IndexProbe { index: idx.name.clone(), keys }, est);
        }
    }
    let est = stats.map(|s| s.rows);
    if pos > 0 {
        if let Some((probe, build)) =
            applicable.first().and_then(|(_, c)| plan_hash_join(c, bindings, pos))
        {
            return (AccessPath::HashJoin { probe, build }, est);
        }
    }
    (AccessPath::Scan, est)
}

/// Try `frame` as the next member of `combo` and keep the extended
/// combination in `next` iff every applicable conjunct evaluates to TRUE.
/// The candidate is pushed onto `combo` itself for the test and popped
/// again, so a rejected one allocates nothing and a surviving one is copied
/// once, at its exact size. Shared by the nested-loop, hash-probe, index
/// and lateral paths so filtering (and error surfacing) is identical.
fn extend_combo(
    ctx: &mut ExecCtx,
    combo: &mut Vec<Rc<Frame>>,
    frame: Rc<Frame>,
    applicable: &[(usize, &Expr)],
    outer: Option<&Env>,
    next: &mut Vec<Vec<Rc<Frame>>>,
) -> Result<(), DbError> {
    if combo.is_empty() {
        // The first item's frame starts a combination of its own.
        if passes(ctx, std::slice::from_ref(&frame), applicable, outer)? {
            next.push(vec![frame]);
        }
        return Ok(());
    }
    combo.push(frame);
    let keep = passes(ctx, combo, applicable, outer);
    if let Ok(true) = keep {
        next.push(combo.clone());
    }
    combo.pop();
    keep.map(|_| ())
}

/// Does every one of `conjuncts` evaluate to TRUE on `combo`?
fn passes(
    ctx: &mut ExecCtx,
    combo: &[Rc<Frame>],
    conjuncts: &[(usize, &Expr)],
    outer: Option<&Env>,
) -> Result<bool, DbError> {
    let env = make_env(combo, outer);
    for (_, conjunct) in conjuncts {
        if eval_bool(ctx, &env, conjunct)? != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// If `conjunct` is an equality between an expression bound solely by the
/// FROM item at `item_idx` and an expression bound only by earlier items
/// (or constant), return `(probe_expr, build_expr)`: probe is evaluated
/// against each accumulated combination, build against the new item's rows.
pub(crate) fn plan_hash_join<'a>(
    conjunct: &'a Expr,
    bindings: &[Ident],
    item_idx: usize,
) -> Option<(&'a Expr, &'a Expr)> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = conjunct else {
        return None;
    };
    let lhs_pos = side_positions(lhs, bindings)?;
    let rhs_pos = side_positions(rhs, bindings)?;
    let is_build = |pos: &[usize]| pos == [item_idx];
    let is_probe = |pos: &[usize]| pos.iter().all(|&p| p < item_idx);
    if is_build(&lhs_pos) && is_probe(&rhs_pos) {
        Some((rhs, lhs))
    } else if is_build(&rhs_pos) && is_probe(&lhs_pos) {
        Some((lhs, rhs))
    } else {
        None
    }
}

/// FROM positions one side of a conjunct references, or `None` when it
/// references anything not attributable to a binding (unqualified columns,
/// outer scopes) or contains a subquery.
fn side_positions(expr: &Expr, bindings: &[Ident]) -> Option<Vec<usize>> {
    if has_subquery(expr) {
        return None;
    }
    let mut positions: Vec<usize> = Vec::new();
    let mut unresolved = false;
    visit_refs(expr, &mut |head| match bindings.iter().position(|b| b == head) {
        Some(pos) => {
            if !positions.contains(&pos) {
                positions.push(pos);
            }
        }
        None => unresolved = true,
    });
    if unresolved {
        None
    } else {
        Some(positions)
    }
}

/// Flatten nested ANDs into a conjunct list, each at position 0 until
/// scheduled.
fn split_and<'s>(expr: &'s Expr, out: &mut Vec<(usize, &'s Expr)>) {
    match expr {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            split_and(lhs, out);
            split_and(rhs, out);
        }
        other => out.push((0, other)),
    }
}

/// Earliest FROM index after which a conjunct can be evaluated: the maximum
/// position of any binding it references. Conjuncts referencing anything we
/// cannot attribute to a binding (unqualified columns, subqueries, outer
/// scopes) are deferred (`usize::MAX`).
pub(crate) fn conjunct_position(expr: &Expr, bindings: &[Ident]) -> usize {
    let mut max_pos = 0usize;
    let mut deferred = false;
    visit_refs(expr, &mut |head| {
        match bindings.iter().position(|b| b == head) {
            Some(pos) => max_pos = max_pos.max(pos),
            None => deferred = true,
        }
    });
    if has_subquery(expr) {
        deferred = true;
    }
    if deferred {
        usize::MAX
    } else {
        max_pos
    }
}

fn visit_refs(expr: &Expr, visit: &mut impl FnMut(&Ident)) {
    match expr {
        Expr::Path(parts) => {
            if let Some(head) = parts.first() {
                visit(head);
            }
        }
        Expr::RefOf(alias) => visit(alias),
        Expr::Call { args, .. } => {
            for arg in args {
                visit_refs(arg, visit);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            visit_refs(lhs, visit);
            visit_refs(rhs, visit);
        }
        Expr::Not(inner) | Expr::Deref(inner) => visit_refs(inner, visit),
        Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => visit_refs(expr, visit),
        Expr::Literal(_) | Expr::CountStar => {}
        // Subqueries handled by `has_subquery`.
        Expr::Subquery(_) | Expr::CastMultiset { .. } | Expr::Exists(_) => {}
    }
}

fn has_subquery(expr: &Expr) -> bool {
    match expr {
        Expr::Subquery(_) | Expr::CastMultiset { .. } | Expr::Exists(_) => true,
        Expr::Call { args, .. } => args.iter().any(has_subquery),
        Expr::Binary { lhs, rhs, .. } => has_subquery(lhs) || has_subquery(rhs),
        Expr::Not(inner) | Expr::Deref(inner) => has_subquery(inner),
        Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => has_subquery(expr),
        _ => false,
    }
}

fn make_env<'a>(frames: &'a [Rc<Frame>], outer: Option<&'a Env<'a>>) -> Env<'a> {
    match outer {
        Some(parent) => Env::with_parent(frames, parent),
        None => Env::new(frames),
    }
}

fn item_column_name(item: &crate::sql::ast::SelectItem, index: usize) -> String {
    if let Some(alias) = &item.alias {
        return alias.as_str().to_string();
    }
    match &item.expr {
        // invariant: the parser never produces an empty dot path.
        Expr::Path(parts) => parts.last().unwrap().as_str().to_string(),
        _ => format!("COL{}", index + 1),
    }
}

/// Column names a `SELECT *` would produce when there are no rows.
fn star_columns(ctx: &ExecCtx, stmt: &SelectStmt) -> Vec<String> {
    let mut out = Vec::new();
    for item in &stmt.from {
        if let FromItem::Table { name, .. } = item {
            if let Some(table) = ctx.catalog.get_table(name) {
                for (col, _) in ctx.catalog.table_columns(table) {
                    out.push(col.as_str().to_string());
                }
            }
        }
    }
    out
}

/// The frames of a plain table (one per stored row, sharing the row's
/// block) or of a view (its stored query's result rows).
fn expand_table(
    ctx: &mut ExecCtx,
    name: &Ident,
    binding: &Ident,
) -> Result<Vec<Rc<Frame>>, DbError> {
    // A real table?
    if let Some(table) = ctx.catalog.get_table(name) {
        let columns = ctx.catalog.column_names(table);
        let data = ctx
            .storage
            .table(name)
            .ok_or_else(|| DbError::UnknownTable(name.as_str().to_string()))?;
        return Ok(data
            .rows
            .iter()
            .enumerate()
            .map(|(slot, row)| Rc::new(Frame::of_row(binding, &columns, table, row, slot)))
            .collect());
    }
    // A view? Execute its stored query (no outer env: views are
    // self-contained).
    if let Some(view) = ctx.catalog.get_view(name).cloned() {
        let result = execute_select(ctx, &view.query, None)?;
        let columns: Arc<[Ident]> = result.columns.iter().map(|c| Ident::internal(c)).collect();
        return Ok(result
            .rows
            .into_iter()
            .enumerate()
            .map(|(slot, values)| {
                Rc::new(Frame {
                    binding: binding.clone(),
                    columns: columns.clone(),
                    values: Arc::new(values),
                    oid: None,
                    object_type: None,
                    slot,
                })
            })
            .collect());
    }
    Err(DbError::UnknownTable(name.as_str().to_string()))
}

/// The column lists the frames of one `TABLE(expr)` FROM item share, built
/// on first need and kept for every expansion of the item: the attribute
/// names of the element object type (the elements of a collection share a
/// type, so one entry serves), and Oracle's `COLUMN_VALUE` pseudo-column for
/// scalar elements.
#[derive(Default)]
struct UnnestColumns {
    object: Option<(Ident, Arc<[Ident]>)>,
    scalar: Option<Arc<[Ident]>>,
}

/// Un-nest `TABLE(expr)` under the combination `env` holds: one frame per
/// element, appended to `frames`. The collection is read where it lives —
/// an object element's frame shares the element's `attrs` block.
fn expand_collection(
    ctx: &mut ExecCtx,
    expr: &Expr,
    binding: &Ident,
    env: &Env,
    columns: &mut UnnestColumns,
    frames: &mut Vec<Rc<Frame>>,
) -> Result<(), DbError> {
    let value = eval_ref(ctx, env, expr)?;
    let elements = match value.as_ref() {
        Value::Null => return Ok(()),
        Value::Coll { elements, .. } => elements,
        other => {
            return Err(DbError::TypeMismatch {
                expected: "collection".into(),
                found: other.to_sql_literal(),
            })
        }
    };
    frames.reserve(elements.len());
    for element in elements.iter() {
        let (columns, values, object_type) = match element {
            Value::Obj { type_name, attrs } => {
                let columns = match &columns.object {
                    Some((cached, columns)) if cached == type_name => columns.clone(),
                    _ => {
                        let def = ctx.catalog.get_type(type_name).ok_or_else(|| {
                            DbError::UnknownType(type_name.as_str().to_string())
                        })?;
                        let built: Arc<[Ident]> =
                            def.object_attrs().iter().map(|(n, _)| n.clone()).collect();
                        columns.object = Some((type_name.clone(), built.clone()));
                        built
                    }
                };
                (columns, Arc::clone(attrs), Some(type_name.clone()))
            }
            scalar => {
                let columns = columns
                    .scalar
                    .get_or_insert_with(|| Arc::from([Ident::internal("COLUMN_VALUE")]));
                (columns.clone(), Arc::new(vec![scalar.clone()]), None)
            }
        };
        frames.push(Rc::new(Frame {
            binding: binding.clone(),
            columns,
            values,
            oid: None,
            object_type,
            slot: 0,
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Oid;
    use crate::{Database, DbMode};
    use std::time::{Duration, Instant};

    #[test]
    fn a_query_hands_out_the_stored_blocks() {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(
            "CREATE TYPE Type_Course AS OBJECT(title VARCHAR(20), credits NUMBER);
             CREATE TYPE Type_Courses AS TABLE OF Type_Course;
             CREATE TABLE T (name VARCHAR(20), coll Type_Courses);
             INSERT INTO T VALUES ('Conrad',
                 Type_Courses(Type_Course('DB', 4), Type_Course('CAD', 2)));",
        )
        .unwrap();
        // A handle on the stored collection: cloning it copies no block.
        let stored = db.storage().table(&Ident::internal("T")).unwrap().rows[0].values[1].clone();

        // Selecting the collection returns the heap's own block …
        let selected = db.query("SELECT t.coll FROM T t").unwrap();
        assert!(Arc::ptr_eq(selected.rows[0][0].block(), stored.block()));

        // … and a frame un-nested from it holds each element's own `attrs`
        // (a bare binding denotes the frame's whole block).
        let unnested = db.query("SELECT c FROM T t, TABLE(t.coll) c").unwrap();
        assert_eq!(unnested.rows.len(), 2);
        for (row, element) in unnested.rows.iter().zip(stored.block().iter()) {
            assert!(Arc::ptr_eq(row[0].block(), element.block()));
        }
    }

    /// NULL keys sort after every value, so the sort sees a total order.
    /// When a NULL tied with every value, this query panicked inside the
    /// standard library's sort ("does not correctly implement a total
    /// order").
    #[test]
    fn order_by_puts_nulls_last_ascending_and_first_descending() {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute("CREATE TABLE N (a NUMBER)").unwrap();
        for i in 0..60 {
            let a = if i % 3 == 0 { "NULL".to_string() } else { ((i * 7) % 13).to_string() };
            db.execute(&format!("INSERT INTO N VALUES ({a})")).unwrap();
        }
        let column = |db: &mut Database, sql: &str| -> Vec<Value> {
            db.query(sql).unwrap().rows.into_iter().map(|mut r| r.remove(0)).collect()
        };
        let numbers = |values: &[Value]| -> Vec<f64> {
            values.iter().map(|v| v.as_num().unwrap()).collect::<Vec<_>>()
        };

        let asc = column(&mut db, "SELECT n.a FROM N n ORDER BY n.a");
        let (values, nulls) = asc.split_at(40);
        assert!(nulls.iter().all(Value::is_null), "{asc:?}");
        assert!(numbers(values).is_sorted(), "{asc:?}");

        let desc = column(&mut db, "SELECT n.a FROM N n ORDER BY n.a DESC");
        let (nulls, values) = desc.split_at(20);
        assert!(nulls.iter().all(Value::is_null), "{desc:?}");
        assert!(numbers(values).is_sorted_by(|a, b| a >= b), "{desc:?}");
    }

    fn plan_lines(db: &mut Database, sql: &str) -> Vec<String> {
        let plan = db.query(&format!("EXPLAIN {sql}")).unwrap();
        plan.rows.iter().map(|r| r[0].as_str().unwrap().trim().to_string()).collect()
    }

    /// Two indexes cover the second item: one keyed by the join, one by a
    /// constant. The constant fetches the same half of the table for every
    /// combination, so the join-keyed one must win — by rule without
    /// statistics, by estimate with them. Picking the constant made the
    /// Oracle 8 §4.1 query with a name index 33 × slower.
    #[test]
    fn a_join_keyed_index_beats_a_constant_keyed_one() {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(
            "CREATE TABLE C (id NUMBER, name VARCHAR(10));
             CREATE TABLE P (cid NUMBER, pname VARCHAR(10));",
        )
        .unwrap();
        for c in 0..20 {
            db.execute(&format!("INSERT INTO C VALUES ({c}, 'c{c}')")).unwrap();
            for p in 0..5 {
                let name = if p % 2 == 0 { "Jaeger" } else { "Other" };
                db.execute(&format!("INSERT INTO P VALUES ({c}, '{name}')")).unwrap();
            }
        }
        let sql = "SELECT c.name FROM C c, P p WHERE p.cid = c.id AND p.pname = 'Jaeger'";
        let expected = db.query(sql).unwrap();
        // Declared in name order after the constant-keyed one, so neither
        // the inventory order nor a tie picks the join-keyed index.
        db.execute_script(
            "CREATE INDEX IxPCid ON P (cid);
             CREATE INDEX IxPAName ON P (pname);",
        )
        .unwrap();
        for analyzed in [false, true] {
            if analyzed {
                db.execute_script(
                    "ANALYZE TABLE C COMPUTE STATISTICS;
                     ANALYZE TABLE P COMPUTE STATISTICS;",
                )
                .unwrap();
            }
            let plan = plan_lines(&mut db, sql);
            let probe = "from[1] p: scan table P — index probe IxPCid (key: c.id)";
            assert!(plan.iter().any(|l| l == probe), "analyzed={analyzed}: {plan:#?}");
            let before = db.stats();
            assert_eq!(db.query(sql).unwrap(), expected);
            // 20 C rows, then 5 candidates per course: not 20 × 50.
            assert_eq!(db.stats().since(&before).rows_scanned, 20 + 100, "analyzed={analyzed}");
        }
    }

    /// The seed must have the best constant-key access of all items. Here
    /// `u.ID = 5` is a key lookup and `p.Dept = 'CS'` an unindexed filter:
    /// seeding at `p` would reach `u` by its key, one row per combination,
    /// but scan all of P first — so the plan stays in FROM order, starting
    /// at the key.
    #[test]
    fn a_key_lookup_elsewhere_keeps_the_from_order() {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(
            "CREATE TABLE U (ID NUMBER PRIMARY KEY, name VARCHAR(10));
             CREATE TABLE P (UID NUMBER, Dept VARCHAR(10));",
        )
        .unwrap();
        let sql = "SELECT p.Dept FROM U u, P p WHERE p.UID = u.ID AND u.ID = 5 AND p.Dept = 'CS'";
        let plan = plan_lines(&mut db, sql);
        assert!(!plan.iter().any(|l| l.starts_with("join order")), "{plan:#?}");
        let key = "from[0] u: scan table U — index probe U(ID) PRIMARY KEY (key: 5)";
        assert!(plan.iter().any(|l| l == key), "{plan:#?}");

        // Without the key lookup the filter is the best seed, and the key
        // attaches `u` by one-row probes.
        let sql = "SELECT p.Dept FROM U u, P p WHERE p.UID = u.ID AND p.Dept = 'CS'";
        let plan = plan_lines(&mut db, sql);
        let seeded = "join order: seeded at p (p, u) — constant filter, one-row probes";
        assert!(plan.iter().any(|l| l == seeded), "{plan:#?}");
    }

    /// `REF(b) = e` finds `b`'s row through the OID directory: a REF into
    /// another table of the type, a NULL and a dangling REF all find none.
    #[test]
    fn an_oid_probe_keeps_only_rows_of_its_own_table() {
        let mut db = Database::new(DbMode::Oracle8);
        db.execute_script(
            "CREATE TYPE T_N AS OBJECT (k NUMBER, up REF T_N);
             CREATE TABLE A OF T_N;
             CREATE TABLE B OF T_N;
             INSERT INTO A VALUES (T_N(1, NULL));
             INSERT INTO B VALUES (T_N(2, NULL));
             INSERT INTO A VALUES (T_N(3, NULL));
             INSERT INTO B VALUES (T_N(10, (SELECT REF(a) FROM A a WHERE a.k = 1)));
             INSERT INTO B VALUES (T_N(11, (SELECT REF(b) FROM B b WHERE b.k = 2)));
             INSERT INTO B VALUES (T_N(12, NULL));
             INSERT INTO B VALUES (T_N(13, (SELECT REF(a) FROM A a WHERE a.k = 3)));
             DELETE FROM A WHERE k = 3;",
        )
        .unwrap();
        let sql = "SELECT b.k, a.k FROM B b, A a WHERE REF(a) = b.up";
        let plan = plan_lines(&mut db, sql);
        let probe = "from[1] a: scan object table A OF T_N — OID probe (key: b.up)";
        assert!(plan.iter().any(|l| l == probe), "{plan:#?}");
        let before = db.stats();
        let rows = db.query(sql).unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Num(10.0), Value::Num(1.0)]]);
        let delta = db.stats().since(&before);
        // Five B rows scanned; of the four REFs, one resolves into A and one
        // into B, and two do not resolve at all.
        assert_eq!((delta.oid_index_hits, delta.rows_scanned, delta.join_pairs), (2, 5 + 1, 1));
        assert_eq!(delta.hash_join_builds, 0);
    }

    /// DISTINCT as it was: compare each row with every row kept so far.
    fn distinct_by_scan(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        let mut seen: Vec<Vec<Value>> = Vec::new();
        for row in rows {
            if !seen.contains(&row) {
                seen.push(row);
            }
        }
        seen
    }

    #[test]
    fn distinct_agrees_with_the_linear_scan_on_seeded_rows() {
        let composite = |n: f64| Value::Coll {
            type_name: Ident::internal("C"),
            elements: Arc::new(vec![Value::Num(n)]),
        };
        // Cells that coerce alike without being `==`, that are `==` with
        // different bits, and that have no join key at all.
        let pool = [
            Value::Num(4.0),
            Value::str("4"),
            Value::str("04"),
            Value::str(" 4 "),
            Value::Num(0.0),
            Value::Num(-0.0),
            Value::Num(f64::NAN),
            Value::str("x"),
            Value::Date("4".into()),
            Value::Null,
            Value::Ref(Oid(4)),
            Value::Ref(Oid(5)),
            composite(4.0),
            composite(5.0),
        ];
        let mut rng = xmlord_prng::Prng::seed_from_u64(2002);
        for _ in 0..300 {
            let width = rng.gen_range(1usize..4);
            let rows: Vec<Vec<Value>> = (0..rng.gen_range(0usize..40))
                .map(|_| (0..width).map(|_| rng.choose(&pool).clone()).collect())
                .collect();
            // Compared by rendering: NaN cells are kept by both, and are
            // not `==` to themselves.
            let expected = format!("{:?}", distinct_by_scan(rows.clone()));
            assert_eq!(format!("{:?}", distinct_rows(rows)), expected);
        }
    }

    /// 4 000 distinct rows cost 19 × the plain SELECT when every row was
    /// compared with every kept row. Timed, so fastest of three each.
    #[test]
    fn distinct_over_distinct_rows_is_not_quadratic() {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute("CREATE TABLE N (a NUMBER)").unwrap();
        for i in 0..4_000 {
            db.execute(&format!("INSERT INTO N VALUES ({i})")).unwrap();
        }
        let mut fastest = |sql: &str| -> Duration {
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    assert_eq!(db.query(sql).unwrap().rows.len(), 4_000);
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let plain = fastest("SELECT n.a FROM N n");
        let distinct = fastest("SELECT DISTINCT n.a FROM N n");
        assert!(distinct < plain * 8, "DISTINCT {distinct:?} against {plain:?} without");
    }
}
