//! SELECT execution: the FROM clause enumerated depth-first over the plan
//! `exec::plan` chose, WHERE filtering, projection, DISTINCT and ORDER BY.
//! Views — object views included (§6.3) — expand inline.
//!
//! ## One loop over the plan positions
//!
//! Step 1 walks the FROM positions in execution order on an explicit stack
//! — no recursion, so a FROM clause of thousands of items needs no more
//! stack than one of two. Each position has a cursor over its candidates
//! under the current prefix of the combination:
//!
//! * **scan** — every row of a table or view (a nested loop);
//! * **hash probe** — the rows whose join key equals the probe value: on
//!   its first visit the position hashes its rows on the build expression
//!   ([`key_hash`], as index buckets do), as row numbers chained per key
//!   rather than as frames, because every build of a plan is live at once.
//!   SQL's numeric string coercion makes `sql_eq` non-transitive
//!   (`'04' = 4` but `'04' <> '4'`), so the hash is a *prefilter*: every
//!   candidate meets the real predicate, and results are identical to the
//!   nested loop;
//! * **index probe** — the slots a secondary index holds for the key, a
//!   prefilter in the same way;
//! * **OID probe** — `REF(item) = …`: the one row the OID directory finds.
//!   That row's OID *is* the key, so the conjunct the probe was planned
//!   from is not run again (when its key reads a column at most, so that
//!   skipping it skips no dereference a counter would see);
//! * **lateral** — the elements of `TABLE(expr)` under the prefix.
//!
//! ## What a candidate costs
//!
//! Before the first row, the level binds its names once
//! (`Bindings::select`): every path and `REF()` of the select list, the
//! `TABLE()` operands, WHERE and ORDER BY is resolved to an item, a column
//! and attribute steps, and nothing is resolved per row after that. The
//! combination is one buffer of one [`Frame`] per position, and a position
//! refills its own frame in place: no sink keeps a frame, so nothing
//! allocates per candidate, and a frame that borrows a stored block costs
//! no reference-count write either. Before that, a candidate meets its
//! position's *block filters*: each conjunct `column op literal` (either
//! side, `op` a comparison) whose column side is bound to one of this
//! item's columns with no further step is compiled once per position into
//! a column index and tested on the candidate's stored block with
//! `eval::compare`, the rule `eval_bool` uses — so a rejected scan row costs
//! one comparison, not a filled frame. Only the leading filters in WHERE
//! order move onto the block, up to the first conjunct that is not one; a
//! filter can neither fail nor count, so which rows are rejected, which
//! error is raised and what every counter reads are as if the conjuncts ran
//! in order. A candidate that passes the filters has its frame filled and
//! meets the rest of its position's conjuncts. Rows are counted where a
//! cursor opens or reads, not where candidates are tested, so
//! `rows_scanned` and `join_pairs` are those of the plan — and `EXISTS`,
//! which stops at its first row and projects nothing, counts what the
//! cursors it opened read.
//!
//! ## Sinks
//!
//! Each complete combination goes, in execution order, to the residual
//! conjuncts and then to a `COUNT(*)` tally or to projection with its
//! ORDER BY keys: no combination and no frame is stored. Every expression
//! the sink evaluates reads its names' bound items through the scope, which
//! maps each FROM item to its position, so an unqualified column names the first
//! FROM item that has it in any plan, and `SELECT *` lays the items out in
//! FROM order. A reordered plan must return what a nested loop in FROM
//! order returns, in that order; that loop meets combinations in
//! lexicographic order of their heap slots in FROM order, so the sink
//! records each kept row's FROM-order slot tuple in one flat buffer, and
//! one stable sort of a permutation — on the ORDER BY keys, then the slots
//! — restores it. So when several combinations of a reordered plan fail in
//! the residual or the projection, the error raised is the first failure
//! in execution order, where a nested loop raises the first in FROM order;
//! failures of one kind — "scalar subquery returned 2 rows or more", a
//! dangling REF — raise the same variant either way. The result's column names come
//! from the layouts ([`output_names`]), never from rows, so an empty result
//! is named like a full one.
//!
//! ## What a frame holds: a block, an OID and a slot
//!
//! A frame is a block of values, the row's OID and its slot; what the
//! values are called is the FROM item's [`Layout`], derived from the catalog
//! once per statement. The block is borrowed wherever the heap holds it: a
//! table row's frame borrows the row's block. `TABLE(t.coll)` reads the
//! collection where it is stored: when the operand is bound to a column of
//! an earlier item whose frame borrows its block, through attribute steps
//! of declared object types only, the cursor borrows the element list and
//! an object element's frame borrows the element's own `attrs` block — the
//! block the heap holds (see [`crate::value`]). So `TabUniversity t0,
//! TABLE(t0.attrStudent) t1, TABLE(t1.attrCourse) t2, …` copies no stored
//! value and writes no reference count, however much hangs below an
//! element. A frame owns its block only where nothing lasting holds it: a
//! view row (a handle on the view's result); the elements of a collection
//! the evaluator materialised — through a REF step or a call — whose
//! cursor holds the list and whose frames a handle on each element; a
//! scalar element, which has no block of its own — its filters test the
//! value itself, and one that passes is wrapped in a one-value block, the
//! only value an expansion copies; and a NULL element of an object
//! collection, which gets an empty block that reads as NULL in every
//! attribute and as NULL whole.

use crate::error::DbError;
use crate::exec::eval::{compare, eval_bool, eval_expr, eval_ref, ExecCtx};
use crate::exec::plan::{plan_hash_join, plan_select, AccessPath, JoinOrder, SelectPlan};
use crate::exec::{cell, Env, Frame};
use crate::ident::Ident;
use crate::scope::{layouts, output_names, Bindings, Bound, Layout, Scope, MAX_VIEW_NESTING};
use crate::sql::ast::{BinOp, Expr, FromItem, SelectStmt};
use crate::storage::{key_hash, Row};
use crate::value::{Oid, Value};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};
use std::ops::Range;
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
/// names; a subquery — scalar, `MULTISET` — reads the rows alone and names
/// nothing.
pub(crate) fn select_rows(
    ctx: &mut ExecCtx,
    stmt: &SelectStmt,
    outer: Option<&Env>,
    names: Option<&mut Vec<String>>,
) -> Result<Vec<Vec<Value>>, DbError> {
    run(ctx, stmt, outer, names, Want::All)
}

/// The rows of a scalar subquery, up to the second: one more than a scalar
/// may have is enough to reject it, so the rest are never read. A
/// `DISTINCT` subquery is read whole — its rows collapse only at the end.
pub(crate) fn scalar_rows(
    ctx: &mut ExecCtx,
    stmt: &SelectStmt,
    outer: Option<&Env>,
) -> Result<Vec<Vec<Value>>, DbError> {
    let want = if stmt.distinct { Want::All } else { Want::Two };
    run(ctx, stmt, outer, None, want)
}

/// Does a SELECT return any row — `EXISTS`? The combinations stop at the
/// first that passes the residual conjuncts, and no select item is
/// evaluated: cursors that never open count nothing.
pub(crate) fn any_row(
    ctx: &mut ExecCtx,
    stmt: &SelectStmt,
    outer: Option<&Env>,
) -> Result<bool, DbError> {
    Ok(!run(ctx, stmt, outer, None, Want::First)?.is_empty())
}

/// How many of a SELECT's rows its caller reads.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Want {
    All,
    /// The first row only, unprojected: one empty row, or none.
    First,
    /// The first two rows.
    Two,
}

/// [`select_rows`], [`any_row`] and [`scalar_rows`]: the rows `want` asks
/// for.
fn run(
    ctx: &mut ExecCtx,
    stmt: &SelectStmt,
    outer: Option<&Env>,
    names: Option<&mut Vec<String>>,
    want: Want,
) -> Result<Vec<Vec<Value>>, DbError> {
    // 0. Names and plan: each FROM item's layout and what every path of
    //    the level names, then WHERE conjuncts split and scheduled, the join
    //    order and one access path per FROM item — from the catalog alone,
    //    so the plan is exactly what EXPLAIN predicts.
    let parent = outer.map(|env| env.scope);
    let layouts = layouts(ctx.catalog, stmt, parent);
    let scope = Scope::new(&layouts, parent);
    let bindings = Bindings::select(ctx.catalog, &scope, stmt);
    let plan = plan_select(ctx.catalog, &scope, &bindings, stmt);
    if plan.join_order == JoinOrder::CostBased
        || plan.paths.iter().any(|(p, _)| matches!(p, AccessPath::IndexProbe { .. }))
    {
        ctx.stats.planner_plans_costed += 1;
    }
    if stmt.from.len() > 1 {
        ctx.stats.join_queries += 1;
    }
    let counting = is_count(stmt)?;
    let mut out = Output {
        stmt,
        // 2. Residual WHERE conjuncts (those deferred to the end).
        residual: plan.residual(stmt.from.len()),
        reordered: plan.reordered,
        // A `COUNT(*)` query has its one row whatever it counts.
        first: want == Want::First && !counting,
        limit: if want == Want::Two { 2 } else { usize::MAX },
        count: counting.then_some(0),
        rows: Vec::new(),
        order_keys: Vec::new(),
        slots: Vec::new(),
    };

    // 1. FROM: every combination, depth-first in execution order. Later
    //    items see earlier bindings (needed by TABLE(t.attr) un-nesting),
    //    and conjuncts filter as soon as their inputs are bound.
    let base = Env {
        scope: &scope,
        bindings: &bindings,
        frames: &[],
        positions: &plan.positions,
        parent: outer,
    };
    enumerate(ctx, stmt, &plan, base, &mut out)?;
    if out.first {
        return Ok(out.rows);
    }

    // 3. Name the columns, from the layouts; a COUNT(*) query is done.
    if let Some(names) = names {
        *names = output_names(stmt, &layouts).iter().map(|n| n.as_str().to_string()).collect();
    }
    if let Some(count) = out.count {
        return Ok(vec![vec![Value::Num(count as f64)]]);
    }
    let mut rows = out.rows;

    // 4. ORDER BY, and the FROM-order enumeration a reordered plan must
    //    restore: a nested loop in FROM order meets combinations in
    //    lexicographic heap-slot order, so sorting the rows by their
    //    FROM-order slot tuples makes the output byte-identical to that
    //    nested loop. One stable sort of a permutation, on the ORDER BY
    //    keys first and the slots second.
    if out.reordered || !stmt.order_by.is_empty() {
        let (order_keys, slots) = (&out.order_keys, &out.slots);
        let width = stmt.from.len();
        let slots_of = |row: usize| slots.get(row * width..(row + 1) * width);
        let mut indexed: Vec<usize> = (0..rows.len()).collect();
        indexed.sort_by(|&a, &b| {
            for (k, (_, asc)) in stmt.order_by.iter().enumerate() {
                let ord = order_key_cmp(&order_keys[a][k], &order_keys[b][k]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            slots_of(a).cmp(&slots_of(b))
        });
        // `indexed` is a permutation, so each row is taken exactly once.
        rows = indexed.into_iter().map(|i| std::mem::take(&mut rows[i])).collect();
    }

    // 5. DISTINCT.
    if stmt.distinct {
        rows = distinct_rows(rows);
    }

    Ok(rows)
}

/// Where complete combinations go, one at a time, in execution order: the
/// residual conjuncts, then a `COUNT(*)` tally or the projected row with
/// its ORDER BY keys — and, for a reordered plan, the row's FROM-order
/// slot tuple, by which step 4 restores the nested loop's order. No
/// combination is kept.
struct Output<'p> {
    stmt: &'p SelectStmt,
    residual: &'p [(usize, &'p Expr)],
    reordered: bool,
    /// Stop at the first combination that passes, keeping an empty row.
    first: bool,
    /// Stop once this many rows are projected.
    limit: usize,
    /// The tally, for a `COUNT(*)` query.
    count: Option<u64>,
    rows: Vec<Vec<Value>>,
    order_keys: Vec<Vec<Value>>,
    /// A reordered plan's rows' heap slots in FROM order, one tuple of
    /// `stmt.from.len()` per row.
    slots: Vec<usize>,
}

impl Output<'_> {
    /// Take one combination; false when no more are wanted.
    fn take(&mut self, ctx: &mut ExecCtx, env: &Env) -> Result<bool, DbError> {
        if let (Some(count), []) = (&mut self.count, self.residual) {
            *count += 1;
            return Ok(true);
        }
        if !passes(ctx, env, self.residual.iter().map(|(_, c)| *c))? {
            return Ok(true);
        }
        if let Some(count) = &mut self.count {
            *count += 1;
            return Ok(true);
        }
        if self.first {
            self.rows.push(Vec::new());
            return Ok(false);
        }
        let stmt = self.stmt;
        // The FROM items' frames, in FROM order.
        let frames = || env.positions.iter().map(|&pos| &env.frames[pos]);
        let row = if stmt.star {
            let layouts = env.scope.layouts;
            let mut row = Vec::with_capacity(layouts.iter().map(Layout::width).sum());
            for (layout, frame) in layouts.iter().zip(frames()) {
                row.extend((0..layout.width()).map(|c| cell(&frame.values, c).clone()));
            }
            row
        } else {
            let mut row = Vec::with_capacity(stmt.items.len());
            for item in &stmt.items {
                row.push(eval_expr(ctx, env, &item.expr)?);
            }
            row
        };
        if !stmt.order_by.is_empty() {
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for (expr, _) in &stmt.order_by {
                keys.push(eval_expr(ctx, env, expr)?);
            }
            self.order_keys.push(keys);
        }
        if self.reordered {
            self.slots.extend(frames().map(|frame| frame.slot));
        }
        self.rows.push(row);
        Ok(self.rows.len() < self.limit)
    }
}

/// Step 1: hand every combination of FROM rows that passes the conjuncts
/// scheduled at its positions to `out`, in the order a nested loop over
/// the plan's positions meets them. One explicit-stack loop: `pos` is the
/// position whose cursor moves next; an exhausted cursor hands control
/// back to the position before it, a candidate that passes opens the
/// cursor after it. `base` is the environment of no row: every
/// combination's environment is `base` with its frames.
fn enumerate<'a, 'p>(
    ctx: &mut ExecCtx<'a>,
    stmt: &'p SelectStmt,
    plan: &'p SelectPlan<'p>,
    base: Env<'p>,
    out: &mut Output,
) -> Result<(), DbError> {
    let mut positions: Vec<Position> = plan
        .order
        .iter()
        .enumerate()
        .map(|(pos, &orig)| Position::new(ctx, stmt, &base, plan, pos, orig))
        .collect();
    let Some(last) = positions.len().checked_sub(1) else {
        // No FROM item: one empty combination.
        return out.take(ctx, &base).map(drop);
    };
    // One frame per position reached so far; `combo[..=pos]` is the
    // combination under test.
    let mut combo: Vec<Frame<'a>> = Vec::with_capacity(positions.len());
    let mut pos = 0;
    positions[0].open(ctx, base, &mut combo, 0)?;
    loop {
        if !positions[pos].advance(ctx, base, &mut combo, pos)? {
            if pos == 0 {
                return Ok(());
            }
            pos -= 1;
        } else if pos == last {
            if !out.take(ctx, &Env { frames: &combo, ..base })? {
                return Ok(());
            }
        } else {
            pos += 1;
            positions[pos].open(ctx, base, &mut combo, pos)?;
        }
    }
}

/// One FROM position of the running plan: how it finds candidates, how it
/// tests them, the rows they index, and the candidates still to try under
/// the current prefix.
struct Position<'a, 'p> {
    /// The FROM item the position runs.
    orig: usize,
    /// The table or view the position reads (`None` for `TABLE(…)`).
    name: Option<&'p Ident>,
    /// The conjuncts scheduled here, in WHERE order, that a candidate must
    /// pass — all but `trusted`.
    conjuncts: &'p [(usize, &'p Expr)],
    /// The conjunct an OID probe was planned from, which the row it finds
    /// satisfies.
    trusted: Option<&'p Expr>,
    shape: Shape<'p>,
    access: Access<'p>,
    /// A table's heap (borrowed) or a view's result rows (owned), read on
    /// the position's first visit.
    source: Option<Cow<'a, [Row]>>,
    todo: Candidates<'a>,
}

/// How a position finds its candidates under each prefix — the executor's
/// side of [`AccessPath`].
enum Access<'p> {
    /// Every row.
    Scan,
    /// The rows whose `build` value has the `probe` value's join key;
    /// hashed on the first visit.
    Hash { probe: &'p Expr, build: &'p Expr, table: HashBuild },
    /// The slots a fresh secondary index holds for `keys`.
    Index { index: &'p Ident, keys: &'p [&'p Expr] },
    /// The row whose OID `key` holds, if it lives in this table.
    Oid { key: &'p Expr },
    /// The elements of `TABLE(expr)`; `object` when the layout is an
    /// object type's, whose elements are their own blocks. `bound` is what
    /// a path operand names.
    Lateral { expr: &'p Expr, bound: Option<&'p Bound<'p>>, object: bool },
}

/// How the position's conjuncts run on a candidate: the leading ones as
/// `filters` on its stored block, those from `rest` on, in WHERE order, on
/// the filled combination.
struct Shape<'p> {
    filters: Vec<Filter<'p>>,
    rest: usize,
}

/// A conjunct `column op literal` (either way round, `op` a comparison)
/// on one of the position's own columns: the column's index in the block.
struct Filter<'p> {
    column: usize,
    op: BinOp,
    literal: &'p Value,
    literal_first: bool,
}

impl<'p> Filter<'p> {
    /// `conjunct` as a filter on blocks of the FROM item `item`, if it is
    /// one: a comparison of a literal with what is bound to one of the
    /// item's columns, with no further step.
    fn compile(bindings: &Bindings, item: usize, conjunct: &'p Expr) -> Option<Filter<'p>> {
        let Expr::Binary { op, lhs, rhs } = conjunct else { return None };
        if !matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
            return None;
        }
        let column = |side| bindings.get(side)?.own_column(item);
        let (column, literal, literal_first) = match (&**lhs, &**rhs) {
            (side, Expr::Literal(literal)) => (column(side)?, literal, false),
            (Expr::Literal(literal), side) => (column(side)?, literal, true),
            _ => return None,
        };
        Some(Filter { column, op: *op, literal, literal_first })
    }
}

impl<'p> Shape<'p> {
    /// The shape of the FROM item `item`'s candidates, running `conjuncts`
    /// (less `trusted`). The leading conjuncts that are filters move onto
    /// the block, up to the first that is not: a filter can neither fail
    /// nor move a counter, so the candidates rejected, the errors raised
    /// and the counters moved are those of testing the conjuncts in WHERE
    /// order.
    fn new(
        bindings: &Bindings,
        item: usize,
        conjuncts: &'p [(usize, &'p Expr)],
        trusted: Option<&Expr>,
    ) -> Shape<'p> {
        let (mut filters, mut rest) = (Vec::new(), 0);
        for &(_, conjunct) in conjuncts {
            if !is(trusted, conjunct) {
                let Some(filter) = Filter::compile(bindings, item, conjunct) else { break };
                filters.push(filter);
            }
            rest += 1;
        }
        Shape { filters, rest }
    }

    /// Does `block` pass every filter — TRUE, as `eval_bool` decides?
    fn admits(&self, block: &[Value]) -> bool {
        self.filters.iter().all(|f| {
            let value = cell(block, f.column);
            let (l, r) = if f.literal_first { (f.literal, value) } else { (value, f.literal) };
            compare(f.op, l, r) == Some(true)
        })
    }
}

/// The candidates a position has left under the current prefix.
enum Candidates<'a> {
    /// Rows by number: a scan's `0..len`, an OID probe's one slot.
    Range(Range<usize>),
    /// An index probe's slots, borrowed from the index.
    Slots(std::slice::Iter<'a, usize>),
    /// A hash bucket, from its next row along [`HashBuild::next`]
    /// ([`END`] when done).
    Chain(usize),
    /// A collection's elements from `next` on: borrowed where the
    /// collection is stored, held when it was materialised.
    Elements { elements: Cow<'a, Arc<Vec<Value>>>, next: usize },
}

/// A hash position's table: each join key's rows, in row order, as a chain
/// of row numbers — a build holds no frame, because every build of a plan
/// is live at once. NULL keys never satisfy the equality and are left
/// out; values without a hashable key (objects, collections) chain into
/// `composites`, which only a composite probe value can equal.
#[derive(Default)]
struct HashBuild {
    buckets: HashMap<u64, Bucket>,
    composites: Option<Bucket>,
    /// Per row: the next row of its bucket, or [`END`].
    next: Vec<usize>,
}

/// The end of a bucket's chain.
const END: usize = usize::MAX;

/// One bucket's first and last row and its size.
#[derive(Clone, Copy)]
struct Bucket {
    first: usize,
    last: usize,
    len: usize,
}

impl HashBuild {
    /// Chain the next row, whose build value is `value`, onto its bucket.
    fn push(&mut self, value: &Value) {
        let row = self.next.len();
        self.next.push(END);
        let new = Bucket { first: row, last: row, len: 1 };
        let bucket = match key_hash([value]) {
            Some(key) => match self.buckets.entry(key) {
                Entry::Occupied(bucket) => bucket.into_mut(),
                Entry::Vacant(slot) => {
                    slot.insert(new);
                    return;
                }
            },
            None if value.is_null() => return,
            None => match &mut self.composites {
                Some(bucket) => bucket,
                none => {
                    *none = Some(new);
                    return;
                }
            },
        };
        self.next[bucket.last] = row;
        bucket.last = row;
        bucket.len += 1;
    }
}

impl<'a, 'p> Position<'a, 'p> {
    /// The position `pos`, running the FROM item at `orig`: its access
    /// path is the plan's, except that an index gone stale (impossible
    /// under eager maintenance, but never trusted) degrades to the hash
    /// join on the first conjunct, or to a scan.
    fn new(
        ctx: &ExecCtx<'a>,
        stmt: &'p SelectStmt,
        base: &Env<'p>,
        plan: &'p SelectPlan,
        pos: usize,
        orig: usize,
    ) -> Position<'a, 'p> {
        let (scope, bindings) = (base.scope, base.bindings);
        let conjuncts = plan.applicable(pos);
        // The conjunct an OID probe was found by holds for the row it finds:
        // that row's OID is the key's. It is not run again when the key is
        // a literal or reads a column, so that skipping it skips no counter.
        let mut trusted = None;
        let (name, access) = match (&stmt.from[orig], &plan.paths[pos].0) {
            (FromItem::CollectionTable { expr, .. }, _) => {
                let object = scope.layouts[orig].object_type.is_some();
                (None, Access::Lateral { expr, bound: bindings.get(expr), object })
            }
            (FromItem::Table { name, .. }, path) => {
                let hash =
                    |probe, build| Access::Hash { probe, build, table: HashBuild::default() };
                let access = match path {
                    AccessPath::OidProbe { key, conjunct } => {
                        let plain = match key {
                            Expr::Literal(_) => true,
                            Expr::Path(_) => bindings.get(key).is_some_and(|b| b.steps.is_empty()),
                            _ => false,
                        };
                        trusted = plain.then_some(*conjunct);
                        Access::Oid { key }
                    }
                    AccessPath::IndexProbe { index, keys } if ctx.storage.index_is_fresh(index) => {
                        Access::Index { index, keys }
                    }
                    AccessPath::HashJoin { probe, build } => hash(*probe, *build),
                    AccessPath::IndexProbe { .. } => conjuncts
                        .first()
                        .filter(|_| pos > 0)
                        .and_then(|(_, c)| plan_hash_join(scope, &plan.order, pos, c))
                        .map_or(Access::Scan, |(probe, build)| hash(probe, build)),
                    AccessPath::Scan => Access::Scan,
                };
                (Some(name), access)
            }
        };
        Position {
            orig,
            name,
            conjuncts,
            trusted,
            shape: Shape::new(bindings, orig, conjuncts, trusted),
            access,
            source: None,
            todo: Candidates::Range(0..0),
        }
    }

    /// Set the cursor to this position's candidates under the prefix
    /// `combo[..pos]`, reading the table or view on the first visit.
    fn open(
        &mut self,
        ctx: &mut ExecCtx<'a>,
        base: Env,
        combo: &mut Vec<Frame<'a>>,
        pos: usize,
    ) -> Result<(), DbError> {
        if let (Some(name), None) = (self.name, &self.source) {
            self.read(ctx, base, name, combo, pos)?;
        }
        let storage = ctx.storage;
        let env = Env { frames: &combo[..pos], ..base };
        let count = |ctx: &mut ExecCtx, n: usize| {
            if pos > 0 {
                ctx.stats.join_pairs += n as u64;
            }
        };
        self.todo = match &self.access {
            Access::Scan => {
                // invariant: `read` set the source of a table or view.
                let len = self.source.as_ref().map_or(0, |rows| rows.len());
                count(ctx, len);
                Candidates::Range(0..len)
            }
            Access::Hash { probe, table, .. } => {
                ctx.stats.hash_join_probes += 1;
                let probe = eval_ref(ctx, &env, probe)?;
                let bucket = match key_hash([probe.as_ref()]) {
                    Some(key) => table.buckets.get(&key).copied(),
                    None if probe.is_null() => None,
                    // A composite probe value can only equal composite
                    // build values (scalars compare false against them).
                    None => table.composites,
                };
                count(ctx, bucket.map_or(0, |b| b.len));
                Candidates::Chain(bucket.map_or(END, |b| b.first))
            }
            Access::Index { index, keys } => {
                // A NULL key component can never satisfy the equality; a
                // composite (object/collection) probe value can never equal
                // the scalar/REF values an index is allowed to hold.
                // Either way: no matches.
                let hash = match keys {
                    [key] => key_hash([eval_ref(ctx, &env, key)?.as_ref()]),
                    keys => {
                        let mut values = Vec::with_capacity(keys.len());
                        for key in *keys {
                            values.push(eval_expr(ctx, &env, key)?);
                        }
                        key_hash(&values)
                    }
                };
                let slots = match hash {
                    None => &[][..],
                    // Freshness was checked when the plan started; storage
                    // is immutable for the duration of the SELECT.
                    Some(hash) => storage.index_probe(index, hash).ok_or_else(|| {
                        DbError::Execution(format!("index '{index}' disappeared mid-statement"))
                    })?,
                };
                ctx.stats.rows_scanned += slots.len() as u64;
                count(ctx, slots.len());
                Candidates::Slots(slots.iter())
            }
            Access::Oid { key } => {
                // Only a REF equals a REF: NULL is UNKNOWN, anything else
                // FALSE. A dangling REF resolves to nothing.
                let found = match eval_ref(ctx, &env, key)?.as_ref() {
                    Value::Ref(oid) => storage.resolve_oid_slot(*oid),
                    _ => None,
                };
                let mut slots = 0..0;
                if let Some((owner, slot, _)) = found {
                    ctx.stats.oid_index_hits += 1;
                    if Some(owner) == self.name {
                        ctx.stats.rows_scanned += 1;
                        count(ctx, 1);
                        slots = slot..slot + 1;
                    }
                }
                Candidates::Range(slots)
            }
            Access::Lateral { expr, bound, .. } => {
                // A collection stored in an earlier item's block is read in
                // place; anything else is evaluated, and the operand sees
                // the items before this one, as it did when its layout was
                // derived.
                let stored = bound.and_then(|bound| stored(&combo[..pos], base.positions, bound));
                let elements = match stored {
                    Some(operand) => elements(operand)?.map(Cow::Borrowed),
                    None => {
                        let prefix =
                            Scope::new(&base.scope.layouts[..self.orig], base.scope.parent);
                        let env = Env { scope: &prefix, ..env };
                        let operand = eval_ref(ctx, &env, expr)?;
                        elements(&operand)?.map(|elements| Cow::Owned(Arc::clone(elements)))
                    }
                };
                match elements {
                    None => Candidates::Range(0..0),
                    Some(elements) => {
                        ctx.stats.rows_scanned += elements.len() as u64;
                        count(ctx, elements.len());
                        Candidates::Elements { elements, next: 0 }
                    }
                }
            }
        };
        Ok(())
    }

    /// The first visit of a table or view position: read its rows (a view
    /// runs its stored query, with no outer environment: views are
    /// self-contained), count them, and hash them when the position probes
    /// a hash table — on `combo[pos]`, the position's one frame. An item
    /// its layout says cannot be read fails here.
    fn read(
        &mut self,
        ctx: &mut ExecCtx<'a>,
        base: Env,
        name: &Ident,
        combo: &mut Vec<Frame<'a>>,
        pos: usize,
    ) -> Result<(), DbError> {
        if let Some(error) = &base.scope.layouts[self.orig].error {
            return Err(error.clone());
        }
        let (catalog, storage) = (ctx.catalog, ctx.storage);
        let rows = if catalog.get_table(name).is_some() {
            let data = storage
                .table(name)
                .ok_or_else(|| DbError::UnknownTable(name.as_str().to_string()))?;
            Cow::Borrowed(&data.rows[..])
        } else if let Some(view) = catalog.get_view(name) {
            if ctx.views == MAX_VIEW_NESTING {
                return Err(DbError::ViewNesting(name.as_str().to_string()));
            }
            ctx.views += 1;
            let rows = select_rows(ctx, &view.query, None, None);
            ctx.views -= 1;
            let rows = rows?.into_iter().map(|values| Row { oid: None, values: Arc::new(values) });
            Cow::Owned(rows.collect())
        } else {
            return Err(DbError::UnknownTable(name.as_str().to_string()));
        };
        let len = rows.len() as u64;
        let build = match &self.access {
            Access::Scan => {
                ctx.stats.rows_scanned += len;
                None
            }
            Access::Index { .. } => {
                ctx.stats.index_scans += 1;
                None
            }
            Access::Oid { .. } | Access::Lateral { .. } => None,
            Access::Hash { build, .. } => Some(*build),
        };
        if let Some(build) = build {
            ctx.stats.rows_scanned += len;
            ctx.stats.hash_join_builds += 1;
            let next = Vec::with_capacity(rows.len());
            let mut table = HashBuild { next, ..HashBuild::default() };
            // A key that is one of this item's own columns is read off each
            // row's block, as a block filter reads it; any other is
            // evaluated on the row's frame.
            let own = base.bindings.get(build).and_then(|bound| bound.own_column(self.orig));
            for (slot, row) in rows.iter().enumerate() {
                if let Some(column) = own {
                    table.push(cell(&row.values, column));
                    continue;
                }
                place(combo, pos, block(&rows, slot), row.oid, slot);
                table.push(eval_ref(ctx, &Env { frames: &combo[..=pos], ..base }, build)?.as_ref());
            }
            if let Access::Hash { table: built, .. } = &mut self.access {
                *built = table;
            }
        }
        self.source = Some(rows);
        Ok(())
    }

    /// Put the next candidate that passes the position's conjuncts in
    /// `combo[pos]`; false when none is left. A candidate meets the local
    /// filters on its stored block first, and only one that passes them
    /// has its frame filled for the rest.
    fn advance(
        &mut self,
        ctx: &mut ExecCtx,
        base: Env,
        combo: &mut Vec<Frame<'a>>,
        pos: usize,
    ) -> Result<bool, DbError> {
        let rest = || rest(self.conjuncts, &self.shape, self.trusted);
        loop {
            let row = match (&mut self.todo, &mut self.access) {
                (Candidates::Range(rows), _) => rows.next(),
                (Candidates::Slots(slots), _) => slots.next().copied(),
                (Candidates::Chain(next), Access::Hash { table, .. }) => {
                    let row = *next;
                    (row != END).then(|| {
                        *next = table.next[row];
                        row
                    })
                }
                (Candidates::Chain(_), _) => None,
                (Candidates::Elements { elements, next }, Access::Lateral { object, .. }) => {
                    // A stored element is borrowed for as long as the heap
                    // holds it; a materialised one only while the cursor does.
                    let (element, stored): (&Value, Option<&'a Value>) = match &*elements {
                        Cow::Borrowed(list) => {
                            let list: &'a Arc<Vec<Value>> = list;
                            let Some(element) = list.get(*next) else { return Ok(false) };
                            (element, Some(element))
                        }
                        Cow::Owned(list) => match list.get(*next) {
                            Some(element) => (element, None),
                            None => return Ok(false),
                        },
                    };
                    *next += 1;
                    // An object element's frame is its own `attrs`, a NULL
                    // one an empty block; a scalar has no block and is
                    // wrapped in one — after its filters, so a rejected
                    // scalar allocates nothing.
                    let shape = &self.shape;
                    let values = match element {
                        Value::Obj { attrs, .. } if *object && shape.admits(attrs) => match stored {
                            Some(Value::Obj { attrs, .. }) => Cow::Borrowed(attrs),
                            _ => Cow::Owned(Arc::clone(attrs)),
                        },
                        _ if *object
                            && !matches!(element, Value::Obj { .. })
                            && shape.admits(&[]) =>
                        {
                            Cow::Owned(Arc::new(Vec::new()))
                        }
                        scalar if !*object && shape.admits(std::slice::from_ref(scalar)) => {
                            Cow::Owned(Arc::new(vec![scalar.clone()]))
                        }
                        _ => continue,
                    };
                    place(combo, pos, values, None, 0);
                    if passes(ctx, &Env { frames: &combo[..=pos], ..base }, rest())? {
                        return Ok(true);
                    }
                    continue;
                }
                (Candidates::Elements { .. }, _) => None,
            };
            let Some(row) = row else {
                return Ok(false);
            };
            // invariant: a table or view position is read before any candidate.
            let Some(rows) = &self.source else {
                unreachable!("a position's rows are read on its first visit")
            };
            if self.shape.admits(&rows[row].values) {
                place(combo, pos, block(rows, row), rows[row].oid, row);
                if passes(ctx, &Env { frames: &combo[..=pos], ..base }, rest())? {
                    return Ok(true);
                }
            }
        }
    }
}

/// Is `conjunct` the `trusted` one?
fn is(trusted: Option<&Expr>, conjunct: &Expr) -> bool {
    trusted.is_some_and(|t| std::ptr::eq(t, conjunct))
}

/// The conjuncts a candidate that passed `shape`'s filters still has to
/// meet, in WHERE order.
fn rest<'p>(
    conjuncts: &'p [(usize, &'p Expr)],
    shape: &Shape,
    trusted: Option<&'p Expr>,
) -> impl Iterator<Item = &'p Expr> {
    conjuncts[shape.rest..].iter().map(|&(_, c)| c).filter(move |&c| !is(trusted, c))
}

/// Row `row`'s block as a frame holds it: borrowed from a table's heap, a
/// handle on a view's row.
fn block<'a>(rows: &Cow<'a, [Row]>, row: usize) -> Cow<'a, Arc<Vec<Value>>> {
    match rows {
        Cow::Borrowed(rows) => {
            let rows: &'a [Row] = rows;
            Cow::Borrowed(&rows[row].values)
        }
        Cow::Owned(rows) => Cow::Owned(Arc::clone(&rows[row].values)),
    }
}

/// The value a bound `TABLE()` operand names, read in place from the heap:
/// a column of an earlier item of this level whose frame borrows a stored
/// block, through attribute steps only. `None` when it is anything else,
/// which the evaluator then materialises.
fn stored<'a>(prefix: &[Frame<'a>], positions: &[usize], bound: &Bound) -> Option<&'a Value> {
    if bound.depth != 0 {
        return None;
    }
    let Cow::Borrowed(block) = prefix.get(*positions.get(bound.item)?)?.values else {
        return None;
    };
    let value = cell(block, bound.column?);
    bound.steps.iter().try_fold(value, |value, step| step.attr(value))
}

/// The elements of a `TABLE()` operand: none for NULL, and an error for
/// anything that is no collection.
fn elements(operand: &Value) -> Result<Option<&Arc<Vec<Value>>>, DbError> {
    match operand {
        Value::Null => Ok(None),
        Value::Coll { elements, .. } => Ok(Some(elements)),
        other => Err(DbError::type_mismatch(None, "collection", other.to_sql_literal())),
    }
}

/// Make `combo[pos]` the frame of a row, refilling the frame already
/// there: no sink keeps a frame, so the position's one frame is always free
/// to take the next candidate.
fn place<'a>(
    combo: &mut Vec<Frame<'a>>,
    pos: usize,
    values: Cow<'a, Arc<Vec<Value>>>,
    oid: Option<Oid>,
    slot: usize,
) {
    let frame = Frame { values, oid, slot };
    match combo.get_mut(pos) {
        Some(old) => *old = frame,
        None => combo.push(frame),
    }
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

/// Does every one of `conjuncts` evaluate to TRUE in `env`? Tested in
/// order, stopping at the first that does not.
fn passes<'e>(
    ctx: &mut ExecCtx,
    env: &Env,
    conjuncts: impl IntoIterator<Item = &'e Expr>,
) -> Result<bool, DbError> {
    for conjunct in conjuncts {
        if eval_bool(ctx, env, conjunct)? != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Is `stmt` a `COUNT(*)` query? `COUNT(*)` must be its select list's only
/// item: beside others it is rejected, whatever the rows.
pub(crate) fn is_count(stmt: &SelectStmt) -> Result<bool, DbError> {
    let counting = !stmt.star && stmt.items.iter().any(|i| matches!(i.expr, Expr::CountStar));
    if counting && stmt.items.len() != 1 {
        return Err(DbError::CountStarPosition);
    }
    Ok(counting)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Oid;
    use crate::{Database, DbError, DbMode};
    use std::time::{Duration, Instant};

    /// Every block the heap holds under `T`: each row's, each collection's
    /// element list, each element's attributes.
    fn stored_blocks(db: &Database) -> Vec<Arc<Vec<Value>>> {
        let storage = db.storage();
        let mut blocks = Vec::new();
        for row in &storage.table(&Ident::internal("T")).unwrap().rows {
            blocks.push(Arc::clone(&row.values));
            for value in row.values.iter() {
                if let Value::Coll { elements, .. } = value {
                    blocks.push(Arc::clone(elements));
                    blocks.extend(elements.iter().map(|element| Arc::clone(element.block())));
                }
            }
        }
        blocks
    }

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

        // Un-nesting borrows what it reads: a query that hands out no block
        // leaves every stored block's count where it found it.
        let counts = |db: &Database| -> Vec<usize> {
            stored_blocks(db).iter().map(|block| Arc::strong_count(block) - 1).collect()
        };
        let before = counts(&db);
        let titles = db.query("SELECT c.title FROM T t, TABLE(t.coll) c WHERE c.credits > 1");
        assert_eq!(titles.unwrap().rows.len(), 2);
        assert_eq!(counts(&db), before);
    }

    /// Names are bound once per query level: the §4.1 un-nest asks the
    /// resolver as often over one stored university as over fifty.
    #[test]
    fn a_query_resolves_its_names_once_however_many_rows_it_reads() {
        let resolves_over = |universities: usize| {
            let mut db = Database::new(DbMode::Oracle9);
            db.execute_script(
                "CREATE TYPE Type_Professor AS OBJECT(PName VARCHAR(20));
                 CREATE TYPE Type_Professors AS TABLE OF Type_Professor;
                 CREATE TYPE Type_Course AS OBJECT(
                     Title VARCHAR(20), attrProfessor Type_Professors);
                 CREATE TYPE Type_Courses AS TABLE OF Type_Course;
                 CREATE TYPE Type_Student AS OBJECT(LName VARCHAR(20), attrCourse Type_Courses);
                 CREATE TYPE Type_Students AS TABLE OF Type_Student;
                 CREATE TABLE TabUniversity (UName VARCHAR(20), attrStudent Type_Students);",
            )
            .unwrap();
            let professors = "Type_Professors(Type_Professor('Jaeger'), Type_Professor('Kudrass'))";
            let course = format!("Type_Course('DB', {professors})");
            let student = format!("Type_Student('Conrad', Type_Courses({course}, {course}))");
            for u in 0..universities {
                db.execute(&format!(
                    "INSERT INTO TabUniversity VALUES ('U{u}', Type_Students({student}, {student}))"
                ))
                .unwrap();
            }
            let query = "SELECT t1.LName FROM TabUniversity t0, TABLE(t0.attrStudent) t1, \
                         TABLE(t1.attrCourse) t2, TABLE(t2.attrProfessor) t3 \
                         WHERE t3.PName = 'Jaeger' ORDER BY t1.LName";
            db.query(query).unwrap();
            let before = crate::scope::resolves();
            let rows = db.query(query).unwrap().rows.len();
            assert_eq!(rows, 4 * universities);
            crate::scope::resolves() - before
        };
        let (one, fifty) = (resolves_over(1), resolves_over(50));
        assert!(one > 0);
        assert_eq!(one, fifty);
    }

    /// `SELECT *`'s names come from the FROM items' layouts, never from a
    /// row: a view and a `TABLE()` item are named alike empty and filled.
    #[test]
    fn select_star_names_do_not_depend_on_data() {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(
            "CREATE TYPE Type_Course AS OBJECT(title VARCHAR(20), credits NUMBER);
             CREATE TYPE Type_Courses AS TABLE OF Type_Course;
             CREATE TABLE T (name VARCHAR(20), cs Type_Courses);
             CREATE VIEW V AS SELECT t.name AS vname FROM T t;",
        )
        .unwrap();
        let queries = ["SELECT * FROM V v", "SELECT * FROM T t, TABLE(t.cs) c"];
        let empty: Vec<_> = queries.iter().map(|sql| db.query(sql).unwrap()).collect();
        db.execute("INSERT INTO T VALUES ('Conrad', Type_Courses(Type_Course('DB', 4)))").unwrap();
        let filled: Vec<_> = queries.iter().map(|sql| db.query(sql).unwrap()).collect();
        for ((sql, empty), filled) in queries.iter().zip(&empty).zip(&filled) {
            assert!(empty.rows.is_empty() && filled.rows.len() == 1, "{sql}");
            assert_eq!(empty.columns, filled.columns, "{sql}");
        }
        assert_eq!(filled[0].columns, ["vname"]);
        assert_eq!(filled[1].columns, ["name", "cs", "title", "credits"]);
    }

    /// The layout of `TABLE(t.coll)` is the declared element type's, so a
    /// NULL element of an object collection is a row whose attributes are
    /// all NULL — filtered, projected and laid out by `*` like any other —
    /// and which is NULL whole.
    #[test]
    fn a_null_element_of_an_object_collection_reads_null_in_every_attribute() {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(
            "CREATE TYPE Type_Course AS OBJECT(title VARCHAR(20), credits NUMBER);
             CREATE TYPE Type_Courses AS TABLE OF Type_Course;
             CREATE TABLE T (name VARCHAR(20), coll Type_Courses);
             INSERT INTO T VALUES ('Conrad', Type_Courses(Type_Course('DB', 4), NULL));",
        )
        .unwrap();
        let rows = |db: &mut Database, sql: &str| db.query(sql).unwrap().rows;
        let from = "FROM T t, TABLE(t.coll) c";
        assert_eq!(
            rows(&mut db, &format!("SELECT c.title, c.credits {from}")),
            [[Value::str("DB"), Value::Num(4.0)], [Value::Null, Value::Null]]
        );
        let nulls = rows(&mut db, &format!("SELECT c.title {from} WHERE c.credits IS NULL"));
        assert_eq!(nulls, [[Value::Null]]);
        let star = rows(&mut db, &format!("SELECT * {from}"));
        assert_eq!(star[1][2..], [Value::Null, Value::Null]);
        assert!(rows(&mut db, &format!("SELECT c {from}"))[1][0].is_null());
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

    /// A local filter is tested on the block ahead of the frame, but never
    /// ahead of a conjunct before it that can fail or count: conjuncts still
    /// run in WHERE order, so `b.up.k = 1` meets the dangling REF of the
    /// first row whichever filter follows it — and a filter written first
    /// spares it.
    #[test]
    fn a_block_filter_never_runs_ahead_of_a_conjunct_that_can_fail() {
        let mut db = Database::new(DbMode::Oracle8);
        db.execute_script(
            "CREATE TYPE T_N AS OBJECT (k NUMBER, up REF T_N);
             CREATE TABLE A OF T_N;
             CREATE TABLE B OF T_N;
             INSERT INTO A VALUES (T_N(1, NULL));
             INSERT INTO A VALUES (T_N(2, NULL));
             INSERT INTO B VALUES (T_N(1, (SELECT REF(a) FROM A a WHERE a.k = 2)));
             INSERT INTO B VALUES (T_N(5, (SELECT REF(a) FROM A a WHERE a.k = 1)));
             DELETE FROM A WHERE k = 2;",
        )
        .unwrap();
        let failing = db.query("SELECT b.k FROM B b WHERE b.up.k = 1 AND b.k = 5");
        assert!(matches!(failing, Err(DbError::DanglingRef)), "{failing:?}");

        let before = db.stats();
        let rows = db.query("SELECT b.k FROM B b WHERE b.k = 5 AND b.up.k = 1").unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Num(5.0)]]);
        assert_eq!(db.stats().since(&before).derefs, 1);
    }

    /// An OID probe's own conjunct is not run again when its key reads one
    /// column; a key that navigates a REF is, so its dereference counts as
    /// it did: once to probe and once to re-check.
    #[test]
    fn an_oid_probe_skips_its_conjunct_only_when_that_skips_no_counter() {
        let mut db = Database::new(DbMode::Oracle8);
        db.execute_script(
            "CREATE TYPE T_N AS OBJECT (k NUMBER, up REF T_N);
             CREATE TABLE A OF T_N;
             CREATE TABLE B OF T_N;
             CREATE TABLE C OF T_N;
             INSERT INTO A VALUES (T_N(1, NULL));
             INSERT INTO B VALUES (T_N(10, (SELECT REF(a) FROM A a WHERE a.k = 1)));
             INSERT INTO C VALUES (T_N(20, (SELECT REF(b) FROM B b WHERE b.k = 10)));",
        )
        .unwrap();
        for (sql, found, derefs, oid_hits) in [
            ("SELECT c.k, a.k FROM C c, A a WHERE REF(a) = c.up.up", 1.0, 2, 3),
            ("SELECT c.k, b.k FROM C c, B b WHERE REF(b) = c.up", 10.0, 0, 1),
        ] {
            let plan = plan_lines(&mut db, sql);
            assert!(plan.iter().any(|l| l.contains(" — OID probe (key: c.up")), "{plan:#?}");
            let before = db.stats();
            let rows = db.query(sql).unwrap().rows;
            let delta = db.stats().since(&before);
            assert_eq!(rows, vec![vec![Value::Num(20.0), Value::Num(found)]], "{sql}");
            assert_eq!((delta.derefs, delta.oid_index_hits), (derefs, oid_hits), "{sql}");
        }
    }

    /// An unqualified column names the first FROM item that has it, however
    /// the plan orders the items: seeded at `t3`, the plan runs `t3` first,
    /// yet `ID` in the residual, the select list and ORDER BY is `t2.ID`.
    #[test]
    fn an_unqualified_column_binds_to_the_first_from_item_of_a_reordered_plan() {
        let mut db = Database::new(DbMode::Oracle8);
        db.execute_script(
            "CREATE TYPE Type_Course AS OBJECT (ID NUMBER, Title VARCHAR(10));
             CREATE TYPE Type_Professor AS OBJECT (ID NUMBER, PName VARCHAR(10),
                 attrRefCourse REF Type_Course);
             CREATE TABLE TabCourse OF Type_Course;
             CREATE TABLE TabProfessor OF Type_Professor;
             INSERT INTO TabCourse VALUES (Type_Course(1, 'DB'));
             INSERT INTO TabCourse VALUES (Type_Course(2, 'CAD'));
             INSERT INTO TabCourse VALUES (Type_Course(3, 'XML'));
             INSERT INTO TabCourse VALUES (Type_Course(4, 'OS'));",
        )
        .unwrap();
        for (id, name, course) in [
            (40, "Jaeger", 1),
            (30, "Jaeger", 2),
            (20, "Jaeger", 3),
            (10, "Other", 4),
            (50, "Jaeger", 4),
        ] {
            db.execute(&format!(
                "INSERT INTO TabProfessor VALUES (Type_Professor({id}, '{name}', \
                 (SELECT REF(c) FROM TabCourse c WHERE c.ID = {course})))"
            ))
            .unwrap();
        }
        let from = "FROM TabCourse t2, TabProfessor t3 \
                    WHERE t3.attrRefCourse = REF(t2) AND t3.PName = 'Jaeger'";
        let plan = plan_lines(&mut db, &format!("SELECT ID {from}"));
        let seeded = "join order: seeded at t3 (t3, t2) — constant filter, one-row probes";
        assert!(plan.iter().any(|l| l == seeded), "{plan:#?}");

        let ids = |db: &mut Database, sql: &str| -> Vec<Value> {
            db.query(sql).unwrap().rows.into_iter().map(|mut r| r.remove(0)).collect()
        };
        let unqualified = ids(&mut db, &format!("SELECT ID {from} AND ID > 1 ORDER BY ID DESC"));
        let qualified =
            ids(&mut db, &format!("SELECT t2.ID {from} AND t2.ID > 1 ORDER BY t2.ID DESC"));
        let expected: Vec<Value> = [4.0, 3.0, 2.0].map(Value::Num).into();
        assert_eq!((&unqualified, &qualified), (&expected, &expected));

        // `*` lays the columns out in FROM order too.
        let star = db.query(&format!("SELECT * {from} AND t2.ID = 4")).unwrap();
        assert_eq!(star.rows.len(), 1);
        let course_first =
            [Value::Num(4.0), Value::str("OS"), Value::Num(50.0), Value::str("Jaeger")];
        assert_eq!(star.rows[0][..4], course_first);
    }

    /// A qualified path whose binding exists but whose column does not is
    /// scheduled at its binding's item, like any path of that item: it
    /// fails on that item's first row, before a later item is read, so an
    /// empty later item does not hide the error and the counters stop
    /// where they did.
    #[test]
    fn a_missing_column_of_a_binding_fails_at_its_item() {
        let equi = "SELECT * FROM A t, B u WHERE t.a = u.b AND u.nosuch = 1";
        let cases = [
            ("SELECT * FROM A t, B u WHERE t.nosuch = 1", 0, Some("t.nosuch"), (2, 0, 0)),
            ("SELECT * FROM A t, B u WHERE t.nosuch = 1", 3, Some("t.nosuch"), (2, 0, 0)),
            ("SELECT * FROM A t, B u WHERE u.nosuch = 1", 0, None, (2, 0, 1)),
            ("SELECT * FROM A t, B u WHERE u.nosuch = 1", 3, Some("u.nosuch"), (5, 0, 1)),
            (equi, 3, Some("u.nosuch"), (5, 1, 1)),
            ("SELECT t.a FROM A t, B u WHERE u.b = t.nosuch", 0, Some("t.nosuch"), (2, 0, 1)),
        ];
        for (sql, b_rows, error, counters) in cases {
            let mut db = Database::new(DbMode::Oracle9);
            db.execute_script(
                "CREATE TABLE A (a NUMBER);
                 CREATE TABLE B (b NUMBER);
                 INSERT INTO A VALUES (1);
                 INSERT INTO A VALUES (2);",
            )
            .unwrap();
            for b in 0..b_rows {
                db.execute(&format!("INSERT INTO B VALUES ({b})")).unwrap();
            }
            let before = db.stats();
            let outcome = db.query(sql).map(|result| result.rows);
            let delta = db.stats().since(&before);
            let expected = match error {
                Some(path) => Err(DbError::UnknownColumn(path.into())),
                None => Ok(Vec::new()),
            };
            assert_eq!(outcome, expected, "{sql} over {b_rows} B rows");
            let read = (delta.rows_scanned, delta.join_pairs, delta.hash_join_builds);
            assert_eq!(read, counters, "{sql} over {b_rows} B rows");
        }
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
