//! Names: what each FROM item exposes, and the one rule that says what a
//! dot path names.
//!
//! A FROM item's **layout** is derived from the catalog alone: its binding,
//! its column names and declared types, the object type of its rows and
//! whether they have OIDs. A table's layout is its catalog columns. A
//! view's is its stored query's output — the names [`output_names`] gives
//! and each item's static type — derived by the same function, recursively.
//! `TABLE(expr)` exposes the element type of the operand's declared
//! collection type: an object element its attributes, any other element
//! `COLUMN_VALUE`. Coercion makes every element of a collection exactly its
//! declared element type, so the layout holds for every element.
//!
//! The **resolver**, [`Scope::resolve`], answers what a path names: the
//! binding first, then the first FROM item that has the column, from the
//! innermost scope outward. The executor, the planner, EXPLAIN, DML and the
//! analyzer all ask it, so they cannot disagree.
//!
//! A view reached again while its own layout is being derived is a cycle:
//! the item gets no columns and the error [`DbError::ViewCycle`], which the
//! executor raises where it would first read the view, and derivation does
//! not recurse. Every view a view's query names counts, in subqueries too,
//! so no cycle is left for execution to recurse through.
//!
//! A statement derives each view once, however many queries of other views
//! name it: a view's output, once derived with no cycle escaping it, is the
//! same wherever the view is met again. Views nest at most
//! [`MAX_VIEW_NESTING`] deep: the view that would go one deeper is
//! [`DbError::ViewNesting`], handed up to the statement's own FROM item, so
//! a chain of any length is an error where the executor first reads it, not
//! a recursion as deep as the chain.
//!
//! **Bindings.** Each query level resolves its names once per execution:
//! [`Bindings`] asks the resolver about every path and `REF()` of
//! the level — select list, `TABLE()` operands, WHERE, ORDER BY — and keeps
//! what each names as a [`Bound`], looked up by the expression's address.
//! Evaluation reads the bound entry and never asks the resolver again.

use crate::catalog::{Catalog, TableDef, TypeDef, ViewDef};
use crate::error::DbError;
use crate::ident::Ident;
use crate::sql::ast::{Expr, FromItem, SelectItem, SelectStmt};
use crate::types::SqlType;
use crate::value::Value;
use std::collections::HashMap;

/// What one FROM item exposes to the names of its query.
#[derive(Debug, Clone)]
pub struct Layout<'c> {
    pub binding: Ident,
    columns: Columns<'c>,
    /// The object type of the item's rows — an object table's, or an
    /// object collection's element type: the bare binding then denotes the
    /// whole object.
    pub object_type: Option<&'c Ident>,
    /// The declared type of the bare binding: its object type, or the type
    /// of its one column.
    row_type: Option<SqlType>,
    /// The rows have OIDs (object tables), so `REF(binding)` works.
    pub has_oid: bool,
    /// Why the item cannot be read — a missing table or view, a view on a
    /// cycle. It then has no columns.
    pub error: Option<DbError>,
}

/// A layout's column names and declared types: borrowed from the catalog
/// for a table or an object element, derived for anything else (where a
/// type may be unknown).
#[derive(Debug, Clone)]
enum Columns<'c> {
    Declared(&'c [(Ident, SqlType)]),
    Derived(Vec<(Ident, Option<SqlType>)>),
}

impl<'c> Layout<'c> {
    /// The layout of catalog table `def`, bound as `binding`.
    pub fn table(catalog: &'c Catalog, binding: Ident, def: &'c TableDef) -> Layout<'c> {
        let columns = catalog.table_columns(def);
        let object_type = def.of_type();
        let row_type = match (object_type, columns) {
            (Some(t), _) => Some(SqlType::Object(t.clone())),
            (None, [(_, ty)]) => Some(ty.clone()),
            (None, _) => None,
        };
        Layout {
            binding,
            columns: Columns::Declared(columns),
            object_type,
            row_type,
            has_oid: def.is_object_table(),
            error: None,
        }
    }

    /// A layout over derived columns.
    fn derived(binding: Ident, columns: Vec<(Ident, Option<SqlType>)>) -> Layout<'c> {
        let row_type = match columns.as_slice() {
            [(_, ty)] => ty.clone(),
            _ => None,
        };
        let columns = Columns::Derived(columns);
        Layout { binding, columns, object_type: None, row_type, has_oid: false, error: None }
    }

    /// An item that fails with `error` when it is read.
    fn unreadable(binding: Ident, error: DbError) -> Layout<'c> {
        Layout { error: Some(error), ..Layout::derived(binding, Vec::new()) }
    }

    /// The number of columns.
    pub fn width(&self) -> usize {
        match &self.columns {
            Columns::Declared(columns) => columns.len(),
            Columns::Derived(columns) => columns.len(),
        }
    }

    /// The columns in order, each with its declared type when it has one.
    pub fn columns(&self) -> impl Iterator<Item = (&Ident, Option<&SqlType>)> {
        let (declared, derived) = match &self.columns {
            Columns::Declared(columns) => (*columns, &[][..]),
            Columns::Derived(columns) => (&[][..], columns.as_slice()),
        };
        let declared = declared.iter().map(|(name, ty)| (name, Some(ty)));
        declared.chain(derived.iter().map(|(name, ty)| (name, ty.as_ref())))
    }

    /// The index of column `name`.
    pub fn column(&self, name: &Ident) -> Option<usize> {
        match &self.columns {
            Columns::Declared(columns) => columns.iter().position(|(c, _)| c == name),
            Columns::Derived(columns) => columns.iter().position(|(c, _)| c == name),
        }
    }

    /// The declared type of column `index`.
    pub fn column_type(&self, index: usize) -> Option<&SqlType> {
        match &self.columns {
            Columns::Declared(columns) => columns.get(index).map(|(_, ty)| ty),
            Columns::Derived(columns) => columns.get(index).and_then(|(_, ty)| ty.as_ref()),
        }
    }
}

/// The FROM items visible to an expression, innermost query first: a
/// subquery sees its own items, then its enclosing query's.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    pub layouts: &'a [Layout<'a>],
    pub parent: Option<&'a Scope<'a>>,
}

/// What a path names: the FROM item at `item` of the scope `depth` levels
/// out, its column `column` (`None`: the bare binding, the whole row), the
/// steps left to navigate from there, and the declared type of what the
/// column (or the row) holds.
#[derive(Debug, Clone, Copy)]
pub struct Resolved<'l, 'p> {
    pub depth: usize,
    pub item: usize,
    pub column: Option<usize>,
    pub rest: &'p [Ident],
    pub ty: Option<&'l SqlType>,
}

impl<'a> Scope<'a> {
    /// No FROM item at all: the scope `INSERT … VALUES` evaluates in.
    pub const EMPTY: Scope<'static> = Scope { layouts: &[], parent: None };

    pub fn new(layouts: &'a [Layout<'a>], parent: Option<&'a Scope<'a>>) -> Scope<'a> {
        Scope { layouts, parent }
    }

    /// The layout of the FROM item at `item` of the scope `depth` levels
    /// out.
    pub fn layout(&self, depth: usize, item: usize) -> Option<&'a Layout<'a>> {
        let mut scope = self;
        for _ in 0..depth {
            scope = scope.parent?;
        }
        scope.layouts.get(item)
    }

    /// The item bound as `name`, as `(depth, item)`: the first of its
    /// scope, innermost scope first.
    pub fn binding(&self, name: &Ident) -> Option<(usize, usize)> {
        let mut scope = self;
        let mut depth = 0;
        loop {
            if let Some(item) = scope.layouts.iter().position(|l| l.binding == *name) {
                return Some((depth, item));
            }
            scope = scope.parent?;
            depth += 1;
        }
    }

    /// What `parts` names: `binding.column.…` when its head is a binding
    /// anywhere in scope, else `column.…` of the first FROM item that has
    /// the column, innermost scope first. `None` when it names nothing.
    pub fn resolve<'p>(&self, parts: &'p [Ident]) -> Option<Resolved<'a, 'p>> {
        #[cfg(test)]
        RESOLVES.with(|n| n.set(n.get() + 1));
        let (head, tail) = parts.split_first()?;
        if let Some((depth, item)) = self.binding(head) {
            let layout = self.layout(depth, item)?;
            let Some((column, rest)) = tail.split_first() else {
                let ty = layout.row_type.as_ref();
                return Some(Resolved { depth, item, column: None, rest: tail, ty });
            };
            let column = layout.column(column)?;
            let ty = layout.column_type(column);
            return Some(Resolved { depth, item, column: Some(column), rest, ty });
        }
        let mut scope = self;
        let mut depth = 0;
        loop {
            let layouts: &'a [Layout<'a>] = scope.layouts;
            for (item, layout) in layouts.iter().enumerate() {
                if let Some(column) = layout.column(head) {
                    let ty = layout.column_type(column);
                    return Some(Resolved { depth, item, column: Some(column), rest: tail, ty });
                }
            }
            scope = scope.parent?;
            depth += 1;
        }
    }

    /// Hand `read` every FROM item of this scope (not an outer one) that a
    /// path or `REF()` in `expr` names, with the name's first step, while it
    /// returns true; false when `expr` names anything else — an outer
    /// query's item, nothing at all — or holds a subquery. The planner
    /// schedules a conjunct by it, and the analyzer counts an alias used by
    /// it.
    pub fn reads(&self, expr: &Expr, read: &mut impl FnMut(usize, &Ident) -> bool) -> bool {
        let mut item = |found: Option<(usize, usize)>, head| match found {
            Some((0, item)) => read(item, head),
            _ => false,
        };
        match expr {
            // A binding whose column is missing still names its item, so a
            // conjunct on it runs there and fails on the item's first row.
            Expr::Path(parts) => {
                let found = self.resolve(parts).map(|r| (r.depth, r.item));
                item(found.or_else(|| self.binding(&parts[0])), &parts[0])
            }
            Expr::RefOf(binding) => item(self.binding(binding), binding),
            Expr::Call { args, .. } => args.iter().all(|arg| self.reads(arg, read)),
            Expr::Binary { lhs, rhs, .. } => self.reads(lhs, read) && self.reads(rhs, read),
            Expr::Not(inner) | Expr::Deref(inner) => self.reads(inner, read),
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => self.reads(expr, read),
            Expr::Literal(_) | Expr::CountStar => true,
            Expr::Subquery(_) | Expr::KeyRef(_) | Expr::CastMultiset { .. } | Expr::Exists(_) => {
                false
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    static RESOLVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many times this thread has called [`Scope::resolve`].
#[cfg(test)]
pub(crate) fn resolves() -> usize {
    RESOLVES.with(std::cell::Cell::get)
}

/// One step a bound path takes below the column it names.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// Into attribute `index` of an object of the declared type `of`.
    Attr { index: usize, of: &'a Ident, name: &'a Ident },
    /// By name: through a REF, or from a value of no declared object type.
    Name(&'a Ident),
}

impl Step<'_> {
    /// The attribute a static step reaches in `value`, read in place: `None`
    /// unless `value` is an object of the step's declared type, which then
    /// navigates by name ([`crate::exec::eval::navigate`]).
    pub(crate) fn attr<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        match (self, value) {
            (Step::Attr { index, of, .. }, Value::Obj { type_name, attrs }) if type_name == *of => {
                Some(crate::exec::cell(attrs, *index))
            }
            _ => None,
        }
    }

    /// The attribute this step names.
    pub(crate) fn name(&self) -> &Ident {
        match self {
            Step::Attr { name, .. } | Step::Name(name) => name,
        }
    }
}

/// What one path or `REF()` of a query level names, once per execution: the
/// FROM item at `item` of the scope `depth` levels out, its column (`None`:
/// the bare binding, the whole row) and the steps below it.
#[derive(Debug, Clone)]
pub struct Bound<'a> {
    pub(crate) depth: usize,
    pub(crate) item: usize,
    pub(crate) column: Option<usize>,
    pub(crate) steps: Vec<Step<'a>>,
}

impl Bound<'_> {
    /// The column this names when it is one of the FROM item `item`'s own
    /// columns with no further step: the side a key, a block filter or a
    /// hash build reads straight off a stored block.
    pub(crate) fn own_column(&self, item: usize) -> Option<usize> {
        let own = self.depth == 0 && self.item == item && self.steps.is_empty();
        self.column.filter(|_| own)
    }
}

/// The bound names of one query level, by the address of the path or
/// `REF()` expression they were bound for. A name that names nothing has no
/// entry, and fails when it is evaluated. They live beside the execution
/// that made them, never in the statement: a cached statement outlives the
/// catalog it was bound against.
#[derive(Debug, Default)]
pub struct Bindings<'a> {
    bound: Vec<(usize, Bound<'a>)>,
}

impl<'a> Bindings<'a> {
    /// No names at all: where `INSERT … VALUES` evaluates.
    pub(crate) const NONE: Bindings<'static> = Bindings { bound: Vec::new() };

    /// Bind every path and `REF()` of `stmt`'s own level (its subqueries
    /// bind their own): the select list, WHERE and ORDER BY in `scope`, and
    /// each `TABLE()` operand in the scope of the items before it.
    pub(crate) fn select(
        catalog: &'a Catalog,
        scope: &Scope,
        stmt: &'a SelectStmt,
    ) -> Bindings<'a> {
        let mut bindings = Bindings::default();
        for (idx, item) in stmt.from.iter().enumerate() {
            if let FromItem::CollectionTable { expr, .. } = item {
                let prefix = Scope::new(&scope.layouts[..idx], scope.parent);
                bindings.bind(catalog, &prefix, expr);
            }
        }
        let items = stmt.items.iter().map(|item| &item.expr);
        let rest = items.chain(&stmt.where_clause).chain(stmt.order_by.iter().map(|(e, _)| e));
        bindings.with(catalog, scope, rest)
    }

    /// Bind every path and `REF()` of `exprs` in `scope`: a DML statement's
    /// WHERE and SET, a table's CHECK constraints.
    pub(crate) fn exprs(
        catalog: &'a Catalog,
        scope: &Scope,
        exprs: impl IntoIterator<Item = &'a Expr>,
    ) -> Bindings<'a> {
        Bindings::default().with(catalog, scope, exprs)
    }

    /// Bind `exprs` as well, then order the entries by address for
    /// [`Bindings::get`].
    fn with(
        mut self,
        catalog: &'a Catalog,
        scope: &Scope,
        exprs: impl IntoIterator<Item = &'a Expr>,
    ) -> Bindings<'a> {
        for expr in exprs {
            self.bind(catalog, scope, expr);
        }
        self.bound.sort_unstable_by_key(|(key, _)| *key);
        self
    }

    /// What the path or `REF()` `expr` names, if anything.
    pub(crate) fn get(&self, expr: &Expr) -> Option<&Bound<'a>> {
        let key = expr as *const Expr as usize;
        let found = self.bound.binary_search_by_key(&key, |(k, _)| *k).ok()?;
        Some(&self.bound[found].1)
    }

    /// Bind the names in `expr`, not inside its subqueries.
    fn bind(&mut self, catalog: &'a Catalog, scope: &Scope, expr: &'a Expr) {
        let key = expr as *const Expr as usize;
        match expr {
            Expr::Path(parts) => {
                let Some(found) = scope.resolve(parts) else { return };
                let mut ty = found.ty.cloned();
                let steps = found
                    .rest
                    .iter()
                    .map(|name| {
                        let (step, next) = step(catalog, ty.take(), name);
                        ty = next;
                        step
                    })
                    .collect();
                let (depth, item, column) = (found.depth, found.item, found.column);
                self.bound.push((key, Bound { depth, item, column, steps }));
            }
            Expr::RefOf(binding) => {
                let Some((depth, item)) = scope.binding(binding) else { return };
                self.bound.push((key, Bound { depth, item, column: None, steps: Vec::new() }));
            }
            Expr::Call { args, .. } => args.iter().for_each(|arg| self.bind(catalog, scope, arg)),
            Expr::Binary { lhs, rhs, .. } => {
                self.bind(catalog, scope, lhs);
                self.bind(catalog, scope, rhs);
            }
            Expr::Not(inner)
            | Expr::Deref(inner)
            | Expr::IsNull { expr: inner, .. }
            | Expr::Like { expr: inner, .. } => self.bind(catalog, scope, inner),
            Expr::Literal(_)
            | Expr::CountStar
            | Expr::Subquery(_)
            | Expr::KeyRef(_)
            | Expr::CastMultiset { .. }
            | Expr::Exists(_) => {}
        }
    }
}

/// The step `name` from a value of declared type `ty`, and the declared type
/// of what it reaches: an attribute index through an object type, a name
/// through a REF (whose target's attributes type the next step) or through
/// anything undeclared.
fn step<'a>(
    catalog: &'a Catalog,
    ty: Option<SqlType>,
    name: &'a Ident,
) -> (Step<'a>, Option<SqlType>) {
    let attrs = |type_name: &Ident| match catalog.get_type(type_name) {
        Some(def @ TypeDef::Object { attrs, .. }) => {
            attrs.iter().position(|(attr, _)| attr == name).map(|index| (def, index, attrs))
        }
        _ => None,
    };
    match &ty {
        Some(SqlType::Object(type_name)) => match attrs(type_name) {
            Some((def, index, attrs)) => {
                (Step::Attr { index, of: def.name(), name }, Some(attrs[index].1.clone()))
            }
            None => (Step::Name(name), None),
        },
        Some(SqlType::Ref(type_name)) => {
            (Step::Name(name), attrs(type_name).map(|(_, index, attrs)| attrs[index].1.clone()))
        }
        _ => (Step::Name(name), None),
    }
}

/// The layouts of `stmt`'s FROM items, in FROM order, under the enclosing
/// query's scope `parent`.
pub fn layouts<'c>(
    catalog: &'c Catalog,
    stmt: &SelectStmt,
    parent: Option<&Scope>,
) -> Vec<Layout<'c>> {
    let mut deriver = Deriver { catalog, views: Vec::new(), done: HashMap::new() };
    match deriver.from(stmt, parent) {
        Ok(layouts) => layouts,
        // invariant: with no view on the stack, every escape ends at an item.
        Err(_) => unreachable!("a cycle or a nesting too deep escaped the query that found it"),
    }
}

/// The names of `stmt`'s result columns: `*` lays out the items' columns;
/// an item is named by its alias, else by a path's last step, else
/// `COUNT(*)` or `COLn`.
pub fn output_names(stmt: &SelectStmt, layouts: &[Layout]) -> Vec<Ident> {
    if stmt.star {
        return layouts.iter().flat_map(|l| l.columns().map(|(name, _)| name.clone())).collect();
    }
    stmt.items.iter().enumerate().map(|(i, item)| item_name(item, i)).collect()
}

fn item_name(item: &SelectItem, index: usize) -> Ident {
    if let Some(alias) = &item.alias {
        return alias.clone();
    }
    match &item.expr {
        // invariant: the parser never produces an empty dot path.
        Expr::Path(parts) => parts[parts.len() - 1].clone(),
        Expr::CountStar => Ident::internal("COUNT(*)"),
        _ => Ident::internal(&format!("COL{}", index + 1)),
    }
}

/// Views nest at most this deep: a view whose query reads a view, in a
/// subquery or not, is one level; the view that would be one more is
/// [`DbError::ViewNesting`]. A fixed bound, so that deriving and running a
/// chain of views costs a bounded stack — well inside the default 2 MiB
/// thread in an unoptimized build.
pub const MAX_VIEW_NESTING: usize = 64;

/// Why a view's layout could not be derived, handed up the views on the
/// stack to the item that ends it.
enum Escape {
    /// A view reached again while its layout was being derived: the index
    /// of its first entry on [`Deriver::views`]. Every view on the stack
    /// from there up is on the cycle.
    Cycle(usize),
    /// The view that would nest deeper than [`MAX_VIEW_NESTING`]: every view
    /// on the stack holds it, so it ends at the statement's own item.
    TooDeep(Ident),
}

/// Derives layouts, keeping the views whose layouts are being derived and
/// the output of every view derived so far, so that each view is derived
/// once however many queries of other views name it.
struct Deriver<'c> {
    catalog: &'c Catalog,
    views: Vec<Ident>,
    /// Only a derivation no cycle escaped is kept: it is the same whatever
    /// views are on the stack.
    done: HashMap<Ident, Vec<(Ident, Option<SqlType>)>>,
}

impl<'c> Deriver<'c> {
    /// The layouts of `stmt`'s FROM items. A view item whose cycle starts
    /// at the item itself, or at a view not on the stack, becomes
    /// unreadable; a cycle through a view on the stack is handed up, since
    /// that view is on it too.
    fn from(
        &mut self,
        stmt: &SelectStmt,
        parent: Option<&Scope>,
    ) -> Result<Vec<Layout<'c>>, Escape> {
        let catalog = self.catalog;
        let mut layouts = Vec::with_capacity(stmt.from.len());
        for item in &stmt.from {
            let binding = item.binding();
            let layout = match item {
                FromItem::Table { name, .. } => {
                    let unreadable = |binding, error: fn(String) -> DbError| {
                        Layout::unreadable(binding, error(name.as_str().to_string()))
                    };
                    match (catalog.get_table(name), catalog.get_view(name)) {
                        (Some(def), _) => Layout::table(catalog, binding, def),
                        (None, Some(view)) => match self.view(binding.clone(), name, view) {
                            Ok(layout) => layout,
                            Err(Escape::Cycle(start)) if start < self.views.len() => {
                                return Err(Escape::Cycle(start))
                            }
                            Err(Escape::Cycle(_)) => unreadable(binding, DbError::ViewCycle),
                            Err(Escape::TooDeep(view)) if !self.views.is_empty() => {
                                return Err(Escape::TooDeep(view))
                            }
                            Err(Escape::TooDeep(view)) => Layout::unreadable(
                                binding,
                                DbError::ViewNesting(view.as_str().to_string()),
                            ),
                        },
                        (None, None) => unreadable(binding, DbError::UnknownTable),
                    }
                }
                FromItem::CollectionTable { expr, .. } => {
                    let ty = self.ty(&Scope::new(&layouts, parent), expr)?;
                    self.collection(binding, ty)
                }
            };
            layouts.push(layout);
        }
        Ok(layouts)
    }

    /// A view's layout: its query's output names and their static types.
    fn view(&mut self, binding: Ident, name: &Ident, view: &ViewDef) -> Result<Layout<'c>, Escape> {
        if let Some(columns) = self.done.get(name) {
            return Ok(Layout::derived(binding, columns.clone()));
        }
        if let Some(start) = self.views.iter().position(|v| v == name) {
            return Err(Escape::Cycle(start));
        }
        if self.views.len() == MAX_VIEW_NESTING {
            return Err(Escape::TooDeep(name.clone()));
        }
        self.views.push(name.clone());
        let columns = self.output(&view.query);
        self.views.pop();
        let columns = columns?;
        self.done.insert(name.clone(), columns.clone());
        Ok(Layout::derived(binding, columns))
    }

    /// A view query's output columns, with every view its subqueries name
    /// derived too: any of them may be on a cycle.
    fn output(&mut self, query: &SelectStmt) -> Result<Vec<(Ident, Option<SqlType>)>, Escape> {
        let layouts = self.from(query, None)?;
        let scope = Scope::new(&layouts, None);
        self.subqueries(query, &scope)?;
        let names = output_names(query, &layouts);
        if query.star {
            let types = layouts.iter().flat_map(|l| l.columns().map(|(_, ty)| ty.cloned()));
            return Ok(names.into_iter().zip(types).collect());
        }
        let mut columns = Vec::with_capacity(names.len());
        for (name, item) in names.into_iter().zip(&query.items) {
            columns.push((name, self.ty(&scope, &item.expr)?));
        }
        Ok(columns)
    }

    /// Derive the layouts of every subquery of `query`, at any depth.
    fn subqueries(&mut self, query: &SelectStmt, scope: &Scope) -> Result<(), Escape> {
        let operands = query.from.iter().filter_map(|item| match item {
            FromItem::CollectionTable { expr, .. } => Some(expr),
            FromItem::Table { .. } => None,
        });
        let exprs = query.items.iter().map(|item| &item.expr);
        let exprs = exprs.chain(&query.where_clause).chain(query.order_by.iter().map(|(e, _)| e));
        for expr in exprs.chain(operands) {
            let mut found = Ok(());
            each_subquery(expr, &mut |sub| {
                if found.is_ok() {
                    found = self.from(sub, Some(scope)).and_then(|layouts| {
                        self.subqueries(sub, &Scope::new(&layouts, Some(scope)))
                    });
                }
            });
            found?;
        }
        Ok(())
    }

    /// The static type of `expr` in `scope`, for view columns and
    /// `TABLE()` operands: a literal's, a path's declared type, a
    /// constructor's or `CAST(MULTISET …)`'s type, a scalar subquery's one
    /// item's. `None` for anything else, which is scalar.
    fn ty(&mut self, scope: &Scope, expr: &Expr) -> Result<Option<SqlType>, Escape> {
        let catalog = self.catalog;
        Ok(match expr {
            Expr::Literal(Value::Str(s)) => Some(SqlType::Varchar(s.chars().count() as u32)),
            Expr::Literal(Value::Num(_)) => Some(SqlType::Number),
            Expr::Literal(Value::Date(_)) => Some(SqlType::Date),
            Expr::Path(parts) => {
                scope.resolve(parts).and_then(|r| path_type(catalog, r.ty?.clone(), r.rest))
            }
            Expr::Call { name, .. } | Expr::CastMultiset { target: name, .. } => {
                catalog.get_type(name).map(|def| match def {
                    TypeDef::Object { name, .. } => SqlType::Object(name.clone()),
                    TypeDef::Varray { name, .. } => SqlType::Varray(name.clone()),
                    TypeDef::NestedTable { name, .. } => SqlType::NestedTable(name.clone()),
                })
            }
            Expr::Subquery(query) => match query.items.as_slice() {
                [item] if !query.star => {
                    let layouts = self.from(query, Some(scope))?;
                    self.ty(&Scope::new(&layouts, Some(scope)), &item.expr)?
                }
                _ => None,
            },
            _ => None,
        })
    }

    /// The layout of `TABLE(expr)` when `expr` has type `ty`.
    fn collection(&self, binding: Ident, ty: Option<SqlType>) -> Layout<'c> {
        let catalog = self.catalog;
        let elem = match &ty {
            Some(SqlType::Varray(name) | SqlType::NestedTable(name) | SqlType::Object(name)) => {
                catalog.get_type(name).and_then(TypeDef::element_type)
            }
            _ => None,
        };
        if let Some(SqlType::Object(o)) = elem {
            if let Some(def @ TypeDef::Object { attrs, .. }) = catalog.get_type(o) {
                return Layout {
                    binding,
                    columns: Columns::Declared(attrs),
                    object_type: Some(def.name()),
                    row_type: Some(SqlType::Object(o.clone())),
                    has_oid: false,
                    error: None,
                };
            }
        }
        let elem = elem.map(|e| catalog.resolve_sql_type(e.clone()));
        Layout::derived(binding, vec![(Ident::internal("COLUMN_VALUE"), elem)])
    }
}

/// The declared type `rest` leads to from a value of type `ty`, through
/// object attributes and REFs.
fn path_type(catalog: &Catalog, ty: SqlType, rest: &[Ident]) -> Option<SqlType> {
    rest.iter().try_fold(ty, |ty, name| step(catalog, Some(ty), name).1)
}

/// Call `f` on every subquery directly inside `expr` (not inside those).
fn each_subquery(expr: &Expr, f: &mut impl FnMut(&SelectStmt)) {
    match expr {
        Expr::Subquery(query) | Expr::Exists(query) | Expr::CastMultiset { query, .. } => f(query),
        Expr::Call { args, .. } => args.iter().for_each(|arg| each_subquery(arg, f)),
        Expr::Binary { lhs, rhs, .. } => {
            each_subquery(lhs, f);
            each_subquery(rhs, f);
        }
        Expr::Not(inner) | Expr::Deref(inner) => each_subquery(inner, f),
        Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => each_subquery(expr, f),
        Expr::Literal(_) | Expr::Path(_) | Expr::CountStar | Expr::RefOf(_) | Expr::KeyRef(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::Stmt;
    use crate::sql::parser::parse_statement;
    use crate::{Database, DbMode};

    fn id(s: &str) -> Ident {
        Ident::internal(s)
    }

    /// What `path` names in `scope`: depth, item, column, the number of
    /// steps left, and the declared type.
    type Named = (usize, usize, Option<usize>, usize, Option<SqlType>);

    fn resolve(scope: &Scope, path: &str) -> Option<Named> {
        let parts: Vec<Ident> = path.split('.').map(id).collect();
        let r = scope.resolve(&parts)?;
        Some((r.depth, r.item, r.column, r.rest.len(), r.ty.cloned()))
    }

    fn query(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Stmt::Select(stmt) => stmt,
            other => panic!("not a SELECT: {other:?}"),
        }
    }

    fn db() -> Database {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(
            "CREATE TYPE T_C AS OBJECT (title VARCHAR(20), credits NUMBER);
             CREATE TYPE T_Cs AS TABLE OF T_C;
             CREATE TYPE T_Tags AS VARRAY(3) OF VARCHAR(10);
             CREATE TABLE A (x NUMBER, y VARCHAR(10));
             CREATE TABLE B (y NUMBER, cs T_Cs, tags T_Tags);
             CREATE VIEW V AS SELECT b.cs AS courses, T_C('t', 1) AS one, UPPER(b.y) FROM B b;",
        )
        .unwrap();
        db
    }

    /// The binding first, then the first FROM item that has the column.
    #[test]
    fn a_binding_wins_then_the_first_item_with_the_column() {
        let db = db();
        let catalog = db.catalog();
        let stmt = query("SELECT * FROM A y, B b");
        let layouts = layouts(&catalog, &stmt, None);
        let scope = Scope::new(&layouts, None);
        // `y` is a binding before it is a column.
        assert_eq!(resolve(&scope, "y.x"), Some((0, 0, Some(0), 0, Some(SqlType::Number))));
        assert_eq!(resolve(&scope, "y.y.z").map(|r| r.3), Some(1));
        // Unqualified: the first item that has it, whatever follows.
        let courses = Some(SqlType::NestedTable(id("T_Cs")));
        assert_eq!(resolve(&scope, "cs.title"), Some((0, 1, Some(1), 1, courses)));
        // A bare binding is the whole row; a missing column names nothing.
        assert_eq!(resolve(&scope, "b").map(|r| r.2), Some(None));
        assert_eq!(resolve(&scope, "b.nope"), None);
        assert_eq!(resolve(&scope, "nope"), None);
    }

    /// A subquery sees its own items first, then its enclosing query's;
    /// an inner binding shadows an outer one of the same name.
    #[test]
    fn scopes_are_searched_outward_and_the_inner_shadows_the_outer() {
        let db = db();
        let catalog = db.catalog();
        let outer_stmt = query("SELECT * FROM A t");
        let outer_layouts = layouts(&catalog, &outer_stmt, None);
        let outer = Scope::new(&outer_layouts, None);
        let inner_stmt = query("SELECT * FROM B t");
        let inner_layouts = layouts(&catalog, &inner_stmt, Some(&outer));
        let inner = Scope::new(&inner_layouts, Some(&outer));
        assert_eq!(resolve(&inner, "t.y"), Some((0, 0, Some(0), 0, Some(SqlType::Number))));
        assert_eq!(resolve(&inner, "x"), Some((1, 0, Some(0), 0, Some(SqlType::Number))));
    }

    /// A view is named and typed by its query; `TABLE()` exposes the
    /// element type's attributes, or `COLUMN_VALUE`.
    #[test]
    fn layouts_come_from_the_catalog() {
        let db = db();
        let catalog = db.catalog();
        let stmt = query(
            "SELECT * FROM V v, TABLE(v.courses) c, TABLE(v.one.title) s, B b, TABLE(b.tags) g",
        );
        let layouts = layouts(&catalog, &stmt, None);
        let columns = |l: &Layout| -> Vec<(String, Option<SqlType>)> {
            l.columns().map(|(n, t)| (n.as_str().to_string(), t.cloned())).collect()
        };
        assert_eq!(
            columns(&layouts[0]),
            [
                ("courses".into(), Some(SqlType::NestedTable(id("T_Cs")))),
                ("one".into(), Some(SqlType::Object(id("T_C")))),
                ("COL3".into(), None),
            ]
        );
        assert_eq!(layouts[1].object_type.map(Ident::as_str), Some("T_C"));
        assert_eq!(columns(&layouts[1])[1], ("credits".into(), Some(SqlType::Number)));
        // A VARCHAR is no collection: its "elements" are scalars.
        assert_eq!(columns(&layouts[2]), [("COLUMN_VALUE".into(), None)]);
        assert_eq!(columns(&layouts[4]), [("COLUMN_VALUE".into(), Some(SqlType::Varchar(10)))]);
        assert!(layouts.iter().all(|l| l.error.is_none()));
    }
}
