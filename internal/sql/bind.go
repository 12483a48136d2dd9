package sql

import (
	"repro/internal/catalog"
	"repro/internal/expr"
)

// Binding helpers exposed to the engine layer.

// BindExprToTable binds an AST expression against one table's schema
// (DML WHERE clauses and SET expressions); column refs become table-schema
// indexes.
func BindExprToTable(a AstExpr, t *catalog.Table) (expr.Expr, error) {
	sc := &scope{tables: []scopeTable{{alias: t.Name, table: t}}}
	return bindExpr(a, sc)
}

// BindLiteralExpr binds an expression with no column references (INSERT
// values, constants).
func BindLiteralExpr(a AstExpr) (expr.Expr, error) {
	return bindExpr(a, &scope{})
}
