//! SELECT planning: WHERE conjuncts split and scheduled, the join order
//! chosen and one access path per FROM item — from the catalog alone, so
//! EXPLAIN ([`crate::exec::explain`]) renders exactly the plan the executor
//! ([`crate::exec::select`]) runs, and an empty store plans like a loaded one.
//!
//! What a conjunct reads is what [`Scope::resolve`] says its paths name: a
//! conjunct is scheduled at the position of the last FROM item it reads,
//! qualified or not, and one that reads an outer query or holds a subquery
//! is deferred to the residual. Whether a side is one of an item's own
//! columns — a key — is asked of its [`Bindings`] entry.

use crate::catalog::{Catalog, IndexDef, TableStats};
use crate::ident::Ident;
use crate::scope::{Bindings, Scope};
use crate::sql::ast::{BinOp, Expr, FromItem, SelectStmt};
use std::cmp::Reverse;

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
    /// no expansion, hash table or index. `conjunct` is the `REF(binding)
    /// = key` it was found by, which the row found satisfies.
    OidProbe { key: &'s Expr, conjunct: &'s Expr },
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
    /// The inverse of `order`: each FROM item's execution position.
    pub positions: Vec<usize>,
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
/// execution. `scope` holds the layouts of `stmt`'s FROM items, and
/// `bindings` what the level's paths name.
pub(crate) fn plan_select<'s>(
    catalog: &Catalog,
    scope: &Scope,
    bindings: &Bindings,
    stmt: &'s SelectStmt,
) -> SelectPlan<'s> {
    let n = stmt.from.len();
    let from_order: Vec<usize> = (0..n).collect();
    // The WHERE conjuncts, each with the position it is scheduled at below.
    let mut scheduled: Vec<(usize, &'s Expr)> = Vec::new();
    if let Some(pred) = &stmt.where_clause {
        split_and(pred, &mut scheduled);
    }

    // Join order. Only a FROM clause of distinct-binding plain tables can
    // be reordered: the executor restores FROM-order enumeration by heap
    // slot, which lateral TABLE(...) items and views do not have. The seeded
    // order comes first and needs no statistics; a seeded walk that is
    // FROM order already keeps it. Otherwise, with ANALYZE statistics for
    // every item, the cost-based greedy order.
    let mut order = from_order.clone();
    let mut join_order = JoinOrder::FromClause;
    if n > 1 && reorderable(catalog, stmt, scope) {
        match seeded_order(catalog, stmt, scope, bindings, &scheduled) {
            Some(seeded) if seeded == order => {}
            Some(seeded) => (order, join_order) = (seeded, JoinOrder::Seeded),
            None if stmt.from.iter().all(|item| analyzed(catalog, item)) => {
                order = cost_based_order(catalog, stmt, scope, bindings, &scheduled);
                join_order = JoinOrder::CostBased;
            }
            None => {}
        }
    }
    let reordered = order != from_order;
    let mut positions = from_order;
    for (pos, &orig) in order.iter().enumerate() {
        positions[orig] = pos;
    }

    // Schedule conjuncts at the earliest *execution* position where every
    // item they read is bound. A stable sort: one position's conjuncts
    // stay in WHERE order, the order they are evaluated in.
    for (pos, conjunct) in &mut scheduled {
        *pos = conjunct_position(scope, &order, conjunct);
    }
    scheduled.sort_by_key(|(pos, _)| *pos);

    let paths = order
        .iter()
        .enumerate()
        .map(|(pos, &orig)| {
            let applicable = scheduled_at(&scheduled, pos);
            plan_item_path(catalog, scope, bindings, &order, pos, &stmt.from[orig], applicable)
        })
        .collect();
    SelectPlan { order, positions, reordered, join_order, scheduled, paths }
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
fn reorderable(catalog: &Catalog, stmt: &SelectStmt, scope: &Scope) -> bool {
    let all_plain = stmt.from.iter().all(
        |item| matches!(item, FromItem::Table { name, .. } if catalog.get_table(name).is_some()),
    );
    let bindings = || scope.layouts.iter().map(|l| &l.binding);
    all_plain && bindings().all(|b| bindings().filter(|o| *o == b).count() == 1)
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
    scope: &Scope,
    bindings: &Bindings,
    conjuncts: &[(usize, &Expr)],
) -> Vec<usize> {
    let n = stmt.from.len();
    let est: Vec<u64> =
        (0..n).map(|i| local_estimate(catalog, stmt, scope, bindings, i, conjuncts)).collect();
    // Join graph: i ~ j when some conjunct reads both items.
    let mut adjacent = vec![vec![false; n]; n];
    for (_, conjunct) in conjuncts {
        let mut items = Vec::new();
        if scope.reads(conjunct, &mut |item, _| {
            items.push(item);
            true
        }) {
            for &i in &items {
                for &j in &items {
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
    scope: &Scope,
    bindings: &Bindings,
    conjuncts: &[(usize, &Expr)],
) -> Option<Vec<usize>> {
    let n = stmt.from.len();
    let ranks: Vec<ConstantAccess> =
        (0..n).map(|i| constant_access(catalog, stmt, scope, bindings, i, conjuncts)).collect();
    let best = *ranks.iter().min()?;
    if best == ConstantAccess::None {
        return None;
    }
    (0..n).filter(|&seed| ranks[seed] == best).find_map(|seed| {
        let mut order = vec![seed];
        while order.len() < n {
            let next = (0..n).find(|&i| {
                !order.contains(&i)
                    && one_row_probe(catalog, stmt, scope, bindings, &order, i, conjuncts)
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
    scope: &Scope,
    bindings: &Bindings,
    item: usize,
    conjuncts: &[(usize, &Expr)],
) -> ConstantAccess {
    let FromItem::Table { name, .. } = &stmt.from[item] else {
        return ConstantAccess::None;
    };
    let keyed: Vec<&Ident> =
        conjuncts.iter().filter_map(|(_, c)| constant_key(scope, bindings, item, c)).collect();
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
    scope: &Scope,
    bindings: &Bindings,
    placed: &[usize],
    item: usize,
    conjuncts: &[(usize, &Expr)],
) -> bool {
    let trial: Vec<usize> = placed.iter().copied().chain([item]).collect();
    let pos = placed.len();
    let applicable: Vec<(usize, &Expr)> = conjuncts
        .iter()
        .filter(|(_, c)| conjunct_position(scope, &trial, c) == pos)
        .copied()
        .collect();
    let FromItem::Table { name, .. } = &stmt.from[item] else {
        return false;
    };
    match plan_item_path(catalog, scope, bindings, &trial, pos, &stmt.from[item], &applicable).0 {
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
    scope: &Scope,
    bindings: &Bindings,
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
        let Some(col) = constant_key(scope, bindings, item, conjunct) else {
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

/// If `conjunct` is `column = expr` (or mirrored), where `column` names a
/// column of the FROM item at execution position `pos` with no further
/// step and `expr` reads only earlier positions or constants, return the
/// column and `expr`: a key of that item.
fn equality_key<'a>(
    scope: &Scope,
    bindings: &Bindings,
    order: &[usize],
    pos: usize,
    conjunct: &'a Expr,
) -> Option<(&'a Ident, &'a Expr)> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = conjunct else {
        return None;
    };
    let as_key = |side: &'a Expr, other: &'a Expr| -> Option<(&'a Ident, &'a Expr)> {
        let column = own_column(bindings, order[pos], side)?;
        reads_before(scope, order, pos, other).then_some((column, other))
    };
    as_key(lhs, rhs).or_else(|| as_key(rhs, lhs))
}

/// The name of the column `side` is, when it is a path to a column of the
/// FROM item `item` with no further step ([`crate::scope::Bound::own_column`]).
fn own_column<'a>(bindings: &Bindings, item: usize, side: &'a Expr) -> Option<&'a Ident> {
    let Expr::Path(parts) = side else { return None };
    bindings.get(side)?.own_column(item)?;
    parts.last()
}

/// The column of `conjunct` when it is `column = constant` (no FROM
/// reference on the other side) for the FROM item `item`.
fn constant_key<'a>(
    scope: &Scope,
    bindings: &Bindings,
    item: usize,
    conjunct: &'a Expr,
) -> Option<&'a Ident> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = conjunct else {
        return None;
    };
    let as_key = |side: &'a Expr, other: &'a Expr| {
        let column = own_column(bindings, item, side)?;
        reads_before(scope, &[], 0, other).then_some(column)
    };
    as_key(lhs, rhs).or_else(|| as_key(rhs, lhs))
}

/// If `conjunct` is `REF(binding) = expr` (or mirrored) where `binding` is
/// the FROM item at execution position `pos` and `expr` reads only earlier
/// positions or constants, return `expr`: the key of an OID probe.
fn oid_key<'a>(scope: &Scope, order: &[usize], pos: usize, conjunct: &'a Expr) -> Option<&'a Expr> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = conjunct else {
        return None;
    };
    let as_key = |side: &'a Expr, other: &'a Expr| -> Option<&'a Expr> {
        let Expr::RefOf(binding) = side else { return None };
        let bound = scope.binding(binding) == Some((0, order[pos]))
            && reads_before(scope, order, pos, other);
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
    scope: &Scope,
    bindings: &Bindings,
    order: &[usize],
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
            let oid_probe = applicable.iter().find_map(|&(_, conjunct)| {
                oid_key(scope, order, pos, conjunct)
                    .map(|key| AccessPath::OidProbe { key, conjunct })
            });
            if let Some(path) = oid_probe {
                return (path, stats.map(|_| 1));
            }
        }
        // The probe-side expression of the first conjunct keying `column`.
        let key_of = |column: &Ident| {
            applicable.iter().find_map(|(_, c)| {
                equality_key(scope, bindings, order, pos, c)
                    .filter(|(col, _)| *col == column)
                    .map(|(_, e)| e)
            })
        };
        // A key expression reads only earlier items; one that reads any.
        let join_keyed = |idx: &IndexDef| {
            idx.columns.iter().any(|c| key_of(c).is_some_and(|e| !reads_before(scope, order, 0, e)))
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
            applicable.first().and_then(|(_, c)| plan_hash_join(scope, order, pos, c))
        {
            return (AccessPath::HashJoin { probe, build }, est);
        }
    }
    (AccessPath::Scan, est)
}

/// If `conjunct` is an equality between an expression that reads only the
/// FROM item at execution position `pos` and one that reads only earlier
/// positions (or nothing), return `(probe_expr, build_expr)`: probe is
/// evaluated against each accumulated combination, build against the new
/// item's rows.
pub(crate) fn plan_hash_join<'a>(
    scope: &Scope,
    order: &[usize],
    pos: usize,
    conjunct: &'a Expr,
) -> Option<(&'a Expr, &'a Expr)> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = conjunct else {
        return None;
    };
    // A side that reads the item at `pos` and nothing else.
    let builds = |side: &Expr| {
        let mut here = false;
        scope.reads(side, &mut |item, _| {
            here = item == order[pos];
            here
        }) && here
    };
    if builds(lhs) && reads_before(scope, order, pos, rhs) {
        Some((rhs, lhs))
    } else if builds(rhs) && reads_before(scope, order, pos, lhs) {
        Some((lhs, rhs))
    } else {
        None
    }
}

/// Does `expr` read only FROM items placed at execution positions before
/// `pos` under `order` (nothing at all for `pos` 0)?
fn reads_before(scope: &Scope, order: &[usize], pos: usize, expr: &Expr) -> bool {
    scope.reads(expr, &mut |item, _| order.iter().position(|&o| o == item).is_some_and(|p| p < pos))
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

/// Earliest execution position after which a conjunct can be evaluated:
/// the last position of any item it reads. A conjunct that reads an item
/// `order` has not placed, or anything [`Scope::reads`] refuses, is deferred
/// (`usize::MAX`).
fn conjunct_position(scope: &Scope, order: &[usize], expr: &Expr) -> usize {
    let mut last = 0;
    let placed = scope.reads(expr, &mut |item, _| match order.iter().position(|&o| o == item) {
        Some(pos) => {
            last = last.max(pos);
            true
        }
        None => false,
    });
    if placed {
        last
    } else {
        usize::MAX
    }
}
