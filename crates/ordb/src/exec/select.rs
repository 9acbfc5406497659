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
//!   candidate is re-checked with the real predicate, and results are
//!   identical to the nested loop;
//! * **index probe** — the slots a secondary index holds for the key;
//! * **OID probe** — `REF(item) = …`: the one row the OID directory finds;
//! * **lateral** — the elements of `TABLE(expr)` under the prefix.
//!
//! A candidate is tried against the conjuncts scheduled at its position in
//! place: the combination is one buffer of one frame per position, and
//! advancing a cursor refills that position's frame through `Rc::get_mut`
//! — a new frame is allocated only when the sink kept the old one. So a
//! rejected candidate allocates nothing, and a surviving one costs what
//! the sink makes of it.
//!
//! ## Sinks
//!
//! A FROM-order plan hands each complete combination straight to the
//! residual filter and then to a `COUNT(*)` tally or to projection with its
//! ORDER BY keys: no combination is stored. A reordered plan collects its
//! combinations and restores the FROM-order enumeration by sorting them on
//! their frames' heap slots (step 1b) before the same sink sees them.
//!
//! ## What a frame holds: handles
//!
//! A table row's frame shares the row's block. `TABLE(t.coll)` reads the
//! collection where it is stored: the operand is borrowed from the parent
//! frame's block ([`eval_ref`]), the cursor holds a handle on the element
//! list, an object element's frame holds `Arc::clone` of the element's own
//! `attrs` block — the block the heap holds (see [`crate::value`]) — and
//! the column list of the element type is built once per FROM item, not
//! once per element. So `TabUniversity t0, TABLE(t0.attrStudent) t1,
//! TABLE(t1.attrCourse) t2, …` copies no stored value, however much hangs
//! below an element. (A scalar element has no block of its own and is
//! wrapped in a one-value block: the only value an expansion copies.)

use crate::error::DbError;
use crate::exec::eval::{eval_bool, eval_expr, eval_ref, ExecCtx};
use crate::exec::plan::{plan_hash_join, plan_select, AccessPath, JoinOrder, SelectPlan};
use crate::exec::{Env, Frame};
use crate::ident::Ident;
use crate::sql::ast::{Expr, FromItem, SelectStmt};
use crate::storage::{key_hash, Row};
use crate::value::{Oid, Value};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};
use std::ops::Range;
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
    if stmt.from.len() > 1 {
        ctx.stats.join_queries += 1;
    }
    let counting = !stmt.star && stmt.items.iter().any(|i| matches!(i.expr, Expr::CountStar));
    if counting && stmt.items.len() != 1 {
        return Err(DbError::Execution(
            "COUNT(*) cannot be combined with other select items".into(),
        ));
    }
    let mut out = Output {
        stmt,
        // 2. Residual WHERE conjuncts (those deferred to the end).
        residual: plan.residual(stmt.from.len()),
        collected: plan.reordered.then(Vec::new),
        count: counting.then_some(0),
        rows: Vec::new(),
        order_keys: Vec::new(),
        star_names: None,
    };

    // 1. FROM: every combination, depth-first in execution order. Later
    //    items see earlier bindings (needed by TABLE(t.attr) un-nesting),
    //    and conjuncts filter as soon as their inputs are bound.
    enumerate(ctx, stmt, &plan, outer, &mut out)?;

    // 1b. Restore the FROM-order enumeration: a nested loop in FROM order
    //     enumerates combinations in lexicographic heap-slot order — so
    //     after a reorder, un-permuting each combination's frames and
    //     sorting by their slots makes output byte-identical to that
    //     nested loop.
    if let Some(mut combos) = out.collected.take() {
        let mut exec_pos_of = vec![0usize; stmt.from.len()];
        for (pos, &orig) in plan.order.iter().enumerate() {
            exec_pos_of[orig] = pos;
        }
        for combo in &mut combos {
            *combo = exec_pos_of.iter().map(|&pos| combo[pos].clone()).collect();
        }
        combos.sort_by(|a, b| a.iter().map(|f| f.slot).cmp(b.iter().map(|f| f.slot)));
        for combo in &combos {
            out.take(ctx, combo, outer)?;
        }
    }

    // 3. Aggregate shortcut: COUNT(*) queries.
    if let Some(count) = out.count {
        if let Some(names) = names {
            let name = stmt.items[0].alias.as_ref().map_or("COUNT(*)", Ident::as_str);
            *names = vec![name.to_string()];
        }
        return Ok(vec![vec![Value::Num(count as f64)]]);
    }

    // 4. Projection happened in the sink; name the columns.
    if let Some(names) = names {
        *names = match out.star_names {
            _ if !stmt.star => {
                stmt.items.iter().enumerate().map(|(i, item)| item_column_name(item, i)).collect()
            }
            Some(star) => star,
            // No rows: still report column names.
            None => star_columns(ctx, stmt),
        };
    }
    let mut rows = out.rows;

    // 5. ORDER BY (stable sort on the precomputed keys).
    if !stmt.order_by.is_empty() {
        let order_keys = out.order_keys;
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

/// Where complete combinations go, one at a time: the residual conjuncts,
/// then a `COUNT(*)` tally or the projected row with its ORDER BY keys —
/// or, for a reordered plan, a collection to sort first.
struct Output<'p> {
    stmt: &'p SelectStmt,
    residual: &'p [(usize, &'p Expr)],
    /// A reordered plan's combinations, in execution order.
    collected: Option<Vec<Vec<Rc<Frame>>>>,
    /// The tally, for a `COUNT(*)` query.
    count: Option<u64>,
    rows: Vec<Vec<Value>>,
    order_keys: Vec<Vec<Value>>,
    /// `SELECT *`'s column names, read off the first row's frames.
    star_names: Option<Vec<String>>,
}

impl Output<'_> {
    fn take(
        &mut self,
        ctx: &mut ExecCtx,
        combo: &[Rc<Frame>],
        outer: Option<&Env>,
    ) -> Result<(), DbError> {
        if let Some(combos) = &mut self.collected {
            combos.push(combo.to_vec());
            return Ok(());
        }
        if !passes(ctx, combo, self.residual, outer)? {
            return Ok(());
        }
        if let Some(count) = &mut self.count {
            *count += 1;
            return Ok(());
        }
        let stmt = self.stmt;
        let env = make_env(combo, outer);
        let row = if stmt.star {
            if self.star_names.is_none() {
                self.star_names = Some(
                    combo
                        .iter()
                        .flat_map(|frame| frame.columns.iter().map(|c| c.as_str().to_string()))
                        .collect(),
                );
            }
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
            self.order_keys.push(keys);
        }
        self.rows.push(row);
        Ok(())
    }
}

/// Step 1: hand every combination of FROM rows that passes the conjuncts
/// scheduled at its positions to `out`, in the order a nested loop over
/// the plan's positions meets them. One explicit-stack loop: `pos` is the
/// position whose cursor moves next; an exhausted cursor hands control
/// back to the position before it, a candidate that passes opens the
/// cursor after it.
fn enumerate<'a>(
    ctx: &mut ExecCtx<'a>,
    stmt: &SelectStmt,
    plan: &SelectPlan,
    outer: Option<&Env>,
    out: &mut Output,
) -> Result<(), DbError> {
    let mut positions: Vec<Position> = plan
        .order
        .iter()
        .enumerate()
        .map(|(pos, &orig)| Position::new(ctx, stmt, plan, pos, orig))
        .collect();
    let Some(last) = positions.len().checked_sub(1) else {
        // No FROM item: one empty combination.
        return out.take(ctx, &[], outer);
    };
    // One frame per position reached so far; `combo[..=pos]` is the
    // combination under test.
    let mut combo: Vec<Rc<Frame>> = Vec::with_capacity(positions.len());
    let mut pos = 0;
    positions[0].open(ctx, &mut combo, 0, outer)?;
    loop {
        let position = &mut positions[pos];
        if !position.advance(ctx, &mut combo, pos)? {
            if pos == 0 {
                return Ok(());
            }
            pos -= 1;
        } else if passes(ctx, &combo[..=pos], position.applicable, outer)? {
            if pos == last {
                out.take(ctx, &combo, outer)?;
            } else {
                pos += 1;
                positions[pos].open(ctx, &mut combo, pos, outer)?;
            }
        }
    }
}

/// One FROM position of the running plan: how it finds candidates, the
/// rows they index, and the candidates still to try under the current
/// prefix.
struct Position<'a, 'p> {
    binding: &'p Ident,
    /// The table or view the position reads (`None` for `TABLE(…)`).
    name: Option<&'p Ident>,
    applicable: &'p [(usize, &'p Expr)],
    access: Access<'p>,
    /// A table's or view's rows, read on the position's first visit.
    source: Option<Source<'a>>,
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
    /// The elements of `TABLE(expr)`, with the shapes of their frames: one
    /// per object type met (a collection's elements share one) and one for
    /// scalar elements.
    Lateral { expr: &'p Expr, object: Option<Shape>, scalar: Option<Shape> },
}

/// What all frames of one table, view or element type share.
struct Shape {
    columns: Arc<[Ident]>,
    object_type: Option<Ident>,
}

/// A table's heap (borrowed) or a view's result rows (owned), and the
/// shape of their frames.
struct Source<'a> {
    rows: Cow<'a, [Row]>,
    shape: Shape,
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
    /// A collection's elements from `next` on.
    Elements { elements: Arc<Vec<Value>>, next: usize },
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
        plan: &'p SelectPlan,
        pos: usize,
        orig: usize,
    ) -> Position<'a, 'p> {
        let applicable = plan.applicable(pos);
        let (name, access) = match (&stmt.from[orig], &plan.paths[pos].0) {
            (FromItem::CollectionTable { expr, .. }, _) => {
                (None, Access::Lateral { expr, object: None, scalar: None })
            }
            (FromItem::Table { name, .. }, path) => {
                let hash = |probe, build| Access::Hash { probe, build, table: HashBuild::default() };
                let access = match path {
                    AccessPath::OidProbe { key } => Access::Oid { key },
                    AccessPath::IndexProbe { index, keys } if ctx.storage.index_is_fresh(index) => {
                        Access::Index { index, keys }
                    }
                    AccessPath::HashJoin { probe, build } => hash(*probe, *build),
                    AccessPath::IndexProbe { .. } => applicable
                        .first()
                        .filter(|_| pos > 0)
                        .and_then(|(_, c)| plan_hash_join(c, &plan.bindings, pos))
                        .map_or(Access::Scan, |(probe, build)| hash(probe, build)),
                    AccessPath::Scan => Access::Scan,
                };
                (Some(name), access)
            }
        };
        Position {
            binding: &plan.bindings[pos],
            name,
            applicable,
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
        combo: &mut Vec<Rc<Frame>>,
        pos: usize,
        outer: Option<&Env>,
    ) -> Result<(), DbError> {
        if let (Some(name), None) = (self.name, &self.source) {
            self.read(ctx, name, combo, pos, outer)?;
        }
        let storage = ctx.storage;
        let env = make_env(&combo[..pos], outer);
        let count = |ctx: &mut ExecCtx, n: usize| {
            if pos > 0 {
                ctx.stats.join_pairs += n as u64;
            }
        };
        self.todo = match &self.access {
            Access::Scan => {
                // invariant: `read` set the source of a table or view.
                let len = self.source.as_ref().map_or(0, |s| s.rows.len());
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
            Access::Lateral { expr, .. } => match eval_ref(ctx, &env, expr)?.as_ref() {
                Value::Null => Candidates::Range(0..0),
                Value::Coll { elements, .. } => {
                    ctx.stats.rows_scanned += elements.len() as u64;
                    count(ctx, elements.len());
                    Candidates::Elements { elements: Arc::clone(elements), next: 0 }
                }
                other => {
                    return Err(DbError::TypeMismatch {
                        expected: "collection".into(),
                        found: other.to_sql_literal(),
                    })
                }
            },
        };
        Ok(())
    }

    /// The first visit of a table or view position: read its rows (a view
    /// runs its stored query, with no outer environment: views are
    /// self-contained), count them, and hash them when the position probes
    /// a hash table — on `combo[pos]`, the position's one frame.
    fn read(
        &mut self,
        ctx: &mut ExecCtx<'a>,
        name: &Ident,
        combo: &mut Vec<Rc<Frame>>,
        pos: usize,
        outer: Option<&Env>,
    ) -> Result<(), DbError> {
        let (catalog, storage) = (ctx.catalog, ctx.storage);
        let source = if let Some(table) = catalog.get_table(name) {
            let data = storage
                .table(name)
                .ok_or_else(|| DbError::UnknownTable(name.as_str().to_string()))?;
            let shape = Shape {
                columns: catalog.column_names(table),
                object_type: table.of_type().cloned(),
            };
            Source { rows: Cow::Borrowed(&data.rows), shape }
        } else if let Some(view) = catalog.get_view(name) {
            let result = execute_select(ctx, &view.query, None)?;
            let columns = result.columns.iter().map(|c| Ident::internal(c)).collect();
            let rows =
                result.rows.into_iter().map(|values| Row { oid: None, values: Arc::new(values) });
            Source { rows: Cow::Owned(rows.collect()), shape: Shape { columns, object_type: None } }
        } else {
            return Err(DbError::UnknownTable(name.as_str().to_string()));
        };
        let len = source.rows.len();
        self.source = Some(source);
        let build = match &self.access {
            Access::Scan => {
                ctx.stats.rows_scanned += len as u64;
                return Ok(());
            }
            Access::Index { .. } => {
                ctx.stats.index_scans += 1;
                return Ok(());
            }
            Access::Oid { .. } | Access::Lateral { .. } => return Ok(()),
            Access::Hash { build, .. } => *build,
        };
        ctx.stats.rows_scanned += len as u64;
        ctx.stats.hash_join_builds += 1;
        let mut table = HashBuild { next: Vec::with_capacity(len), ..HashBuild::default() };
        for row in 0..len {
            self.place_row(combo, pos, row);
            let env = make_env(std::slice::from_ref(&combo[pos]), outer);
            table.push(eval_ref(ctx, &env, build)?.as_ref());
        }
        if let Access::Hash { table: built, .. } = &mut self.access {
            *built = table;
        }
        Ok(())
    }

    /// Put the next candidate in `combo[pos]`; false when none is left.
    fn advance(
        &mut self,
        ctx: &ExecCtx,
        combo: &mut Vec<Rc<Frame>>,
        pos: usize,
    ) -> Result<bool, DbError> {
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
            (Candidates::Elements { elements, next }, Access::Lateral { object, scalar, .. }) => {
                let Some(element) = elements.get(*next) else {
                    return Ok(false);
                };
                *next += 1;
                match element {
                    Value::Obj { type_name, attrs } => {
                        let shape = match object {
                            Some(shape) if shape.object_type.as_ref() == Some(type_name) => shape,
                            object => {
                                let def = ctx.catalog.get_type(type_name).ok_or_else(|| {
                                    DbError::UnknownType(type_name.as_str().to_string())
                                })?;
                                let columns =
                                    def.object_attrs().iter().map(|(n, _)| n.clone()).collect();
                                let object_type = Some(type_name.clone());
                                object.insert(Shape { columns, object_type })
                            }
                        };
                        place(combo, pos, self.binding, shape, Arc::clone(attrs), None, 0);
                    }
                    scalar_value => {
                        let shape = scalar.get_or_insert_with(|| Shape {
                            columns: Arc::from([Ident::internal("COLUMN_VALUE")]),
                            object_type: None,
                        });
                        let values = Arc::new(vec![scalar_value.clone()]);
                        place(combo, pos, self.binding, shape, values, None, 0);
                    }
                }
                return Ok(true);
            }
            (Candidates::Elements { .. }, _) => None,
        };
        let Some(row) = row else {
            return Ok(false);
        };
        self.place_row(combo, pos, row);
        Ok(true)
    }

    /// Put row `row` of the position's table or view in `combo[pos]`.
    fn place_row(&self, combo: &mut Vec<Rc<Frame>>, pos: usize, row: usize) {
        // invariant: a table or view position is read before any candidate.
        let Some(Source { rows, shape }) = &self.source else {
            unreachable!("a position's rows are read on its first visit")
        };
        let Row { oid, values } = &rows[row];
        place(combo, pos, self.binding, shape, Arc::clone(values), *oid, row);
    }
}

/// Make `combo[pos]` the frame of a row: the position's frame refilled in
/// place when nothing else holds it — the sink did not keep it — else a
/// new one.
fn place(
    combo: &mut Vec<Rc<Frame>>,
    pos: usize,
    binding: &Ident,
    shape: &Shape,
    values: Arc<Vec<Value>>,
    oid: Option<Oid>,
    slot: usize,
) {
    if let Some(frame) = combo.get_mut(pos).and_then(Rc::get_mut) {
        frame.values = values;
        frame.oid = oid;
        frame.slot = slot;
        if !Arc::ptr_eq(&frame.columns, &shape.columns) {
            frame.columns = Arc::clone(&shape.columns);
        }
        if frame.object_type != shape.object_type {
            frame.object_type = shape.object_type.clone();
        }
        return;
    }
    let frame = Rc::new(Frame {
        binding: binding.clone(),
        columns: Arc::clone(&shape.columns),
        values,
        oid,
        object_type: shape.object_type.clone(),
        slot,
    });
    match combo.get_mut(pos) {
        Some(kept) => *kept = frame,
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
