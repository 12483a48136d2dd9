package cluster

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// DML: row routing and staged application at commit epoch. "Any ROS or WOS
// created by the committing transaction becomes visible to other
// transactions when the commit completes" (paper §5) — so all effects are
// staged on the transaction and applied under the commit epoch.

// StageInsert routes a flat, unselected batch of table rows to every
// projection of the table (including buddies) and stages each node's share —
// b's columns and a selection — as a WOS append or, when direct is true (or a
// WOS is saturated), as new ROS containers: "Direct Loading to the ROS" (§7).
func (c *Cluster) StageInsert(tx *txn.Txn, table string, b *vector.Batch, direct bool) error {
	if c.IsShutdown() {
		return fmt.Errorf("cluster: database is shut down")
	}
	if !c.HasQuorum() {
		return fmt.Errorf("cluster: no quorum, cannot accept DML")
	}
	t, err := c.cat.Table(table)
	if err != nil {
		return err
	}
	projs := c.cat.ProjectionsFor(table)
	if len(projs) == 0 {
		return fmt.Errorf("cluster: table %q has no projections; create a super projection first", table)
	}
	// Validate NOT NULL and arity once against the table schema.
	if b.NumCols() != t.Schema.Len() {
		return fmt.Errorf("cluster: row arity %d != table %s arity %d", b.NumCols(), table, t.Schema.Len())
	}
	for i, col := range t.Schema.Cols {
		if !col.Nullable && b.Cols[i].HasNulls() {
			return fmt.Errorf("cluster: NULL in NOT NULL column %q", col.Name)
		}
	}
	staged := map[*catalog.Projection][]*vector.Batch{}
	for _, p := range projs {
		if err := c.EnsureStorage(p); err != nil {
			return err
		}
		pb := &vector.Batch{Cols: make([]*vector.Vector, p.Schema.Len())}
		for i, name := range p.Columns {
			ci := t.Schema.ColIndex(name)
			if ci < 0 {
				return fmt.Errorf("cluster: projection %q column %q missing from table", p.Name, name)
			}
			pb.Cols[i] = b.Cols[ci]
		}
		if staged[p], err = c.shares(p, pb); err != nil {
			return err
		}
	}
	tx.StageCommit(true, func(epoch types.Epoch) error {
		for p, shares := range staged {
			for id, share := range shares {
				n := c.nodes[id]
				if share == nil || !n.Up() {
					continue // down nodes miss the DML; recovery replays it
				}
				mgr, err := n.Mgr(p, c.ManagerOpts())
				if err != nil {
					return err
				}
				if direct || mgr.WOS().Saturated() {
					if err := c.directLoad(p, mgr, share, epoch); err != nil {
						return err
					}
					c.Txn.Epochs.SetLGE(p.Name, epoch)
					continue
				}
				if _, err := mgr.WOS().AppendBatch(share, epoch); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return nil
}

// directLoad writes a share straight to ROS containers, bypassing the WOS.
// It runs inside a commit apply, so the containers are published at once; a
// failed write is returned and fails the commit.
func (c *Cluster) directLoad(p *catalog.Projection, mgr *storage.Manager, share *vector.Batch, epoch types.Epoch) error {
	share, n := share.Flatten(), share.Len()
	stored := append(share.Cols, vector.NewConst(types.NewInt(int64(epoch)), n).Expand(), vector.NewFromInts(types.Int64, make([]int64, n)))
	return c.writeStored(p, mgr, []*vector.Batch{{Cols: stored}})
}

// Placement compiles, from the catalog, how projection p's stored rows become
// ROS containers on any node: sort key, stored column specs, the anchor
// table's PARTITION BY expression rewritten onto the projection's columns
// (which must therefore store them — super projections always do) and the
// local segments the segmentation kernel assigns. Moveout, mergeout, direct
// load, recovery, refresh and rebalance all take what this returns.
func (c *Cluster) Placement(p *catalog.Projection) (*storage.Placement, error) {
	t, err := c.cat.Table(p.Anchor)
	if err != nil {
		return nil, err
	}
	pl := storage.NewPlacement(p.Name, p.Schema, p.SortKey(), p.Encodings)
	pl.LocalSegmentOf = func(b *vector.Batch) ([]int, error) {
		_, segs, err := c.segments(p, b)
		return segs, err
	}
	if t.PartitionExpr != nil {
		pe, err := onProjection(t, p, t.PartitionExpr)
		if err != nil {
			return nil, fmt.Errorf("cluster: projection %q cannot evaluate partition expression: %w", p.Name, err)
		}
		pl.PartitionOf = pe.Eval
	}
	return pl, nil
}

// writeStored places, writes and publishes stored batches of projection p on
// mgr — the whole of direct load's, recovery's, refresh's and rebalance's way
// into the ROS.
func (c *Cluster) writeStored(p *catalog.Projection, mgr *storage.Manager, batches []*vector.Batch) error {
	pl, err := c.Placement(p)
	if err != nil {
		return err
	}
	written, err := pl.WriteBatches(mgr, batches)
	if err != nil {
		return err
	}
	return mgr.PublishWritten(written)
}

// onProjection rewrites an expression over table t's columns (a DML
// predicate, the PARTITION BY expression) onto projection p's columns,
// matching by name. nil stays nil.
func onProjection(t *catalog.Table, p *catalog.Projection, e expr.Expr) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	m := map[int]int{}
	for i := 0; i < t.Schema.Len(); i++ {
		if pi := p.Schema.ColIndex(t.Schema.Col(i).Name); pi >= 0 {
			m[i] = pi
		}
	}
	return expr.Remap(e, m)
}

// StageDelete finds rows matching pred in every projection of the table on
// every up node and stages delete vectors (paper §3.7.1: deletes never
// modify data in place). Returns the number of logical table rows deleted
// (counted on super projections only, to avoid double counting).
func (c *Cluster) StageDelete(tx *txn.Txn, table string, pred expr.Expr, snapshot types.Epoch) (int64, error) {
	if !c.HasQuorum() {
		return 0, fmt.Errorf("cluster: no quorum, cannot accept DML")
	}
	t, err := c.cat.Table(table)
	if err != nil {
		return 0, err
	}
	var deleted int64
	countProj := ""
	for _, p := range c.cat.ProjectionsFor(table) {
		if err := c.EnsureStorage(p); err != nil {
			return 0, err
		}
		ppred, err := onProjection(t, p, pred)
		if err != nil {
			// Projection lacks predicate columns: it must still delete
			// matching rows; unsupported in this reproduction.
			return 0, fmt.Errorf("cluster: projection %q does not cover DELETE predicate columns: %w", p.Name, err)
		}
		if countProj == "" && p.IsSuper && !p.IsBuddy {
			countProj = p.Name
		}
		for _, n := range c.UpNodes() {
			mgr, err := n.Mgr(p, c.ManagerOpts())
			if err != nil {
				return 0, err
			}
			targets := map[string][]storage.DVEntry{}
			err = forEachMatch(mgr, ppred, snapshot, func(target string, first int64, b *vector.Batch) error {
				for _, i := range b.Sel {
					targets[target] = append(targets[target], storage.DVEntry{Pos: first + int64(i)})
				}
				if p.Name == countProj {
					deleted += int64(len(b.Sel))
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
			tx.StageCommit(true, func(epoch types.Epoch) error {
				for target, entries := range targets {
					for i := range entries {
						entries[i].Epoch = epoch
					}
					mgr.DVs().Add(target, entries)
				}
				return nil
			})
		}
	}
	return deleted, nil
}

// forEachMatch calls fn for each stored batch of a projection's local storage,
// its selection narrowed to the rows visible at snapshot that satisfy pred
// (nil matches every row) and skipped when that leaves none.
func forEachMatch(mgr *storage.Manager, pred expr.Expr, snapshot types.Epoch, fn func(target string, first int64, b *vector.Batch) error) error {
	var sel *expr.Selector
	if pred != nil {
		var err error
		if sel, err = expr.NewSelector(expr.Conjuncts(pred)); err != nil {
			return err
		}
	}
	return mgr.ForEachStored(0, snapshot, func(target string, first int64, b *vector.Batch) error {
		dels, live := b.Cols[b.NumCols()-1].Ints, b.Sel[:0]
		for _, i := range b.Sel {
			if d := types.Epoch(dels[i]); d == 0 || d > snapshot {
				live = append(live, i)
			}
		}
		var err error
		if sel != nil && len(live) > 0 {
			live, err = sel.Narrow(b.Cols, live, 0, b.FullLen(), live)
		}
		if err != nil || len(live) == 0 {
			return err
		}
		b.Sel = live
		return fn(target, first, b)
	})
}

// StageUpdate implements UPDATE as DELETE + INSERT (paper §3.7.1): matching
// rows are read at the snapshot, deleted, and re-inserted with the SET
// expressions applied.
func (c *Cluster) StageUpdate(tx *txn.Txn, table string, set map[int]expr.Expr, pred expr.Expr, snapshot types.Epoch) (int64, error) {
	t, err := c.cat.Table(table)
	if err != nil {
		return 0, err
	}
	// Gather the matching rows from a super projection across up nodes, its
	// columns put in table order.
	super, err := c.cat.SuperProjection(table)
	if err != nil {
		return 0, err
	}
	spred, err := onProjection(t, super, pred)
	if err != nil {
		return 0, err
	}
	order := make([]int, t.Schema.Len())
	for i := range order {
		order[i] = super.Schema.ColIndex(t.Schema.Col(i).Name)
	}
	matched := vector.NewBatchForSchema(t.Schema, 0)
	for _, n := range c.UpNodes() {
		mgr, err := n.Mgr(super, c.ManagerOpts())
		if err != nil {
			return 0, err
		}
		err = forEachMatch(mgr, spred, snapshot, func(_ string, _ int64, b *vector.Batch) error {
			for i, si := range order {
				matched.Cols[i].AppendFrom(b.Cols[si], b.Sel)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	n := matched.Len()
	updated := &vector.Batch{Cols: slices.Clone(matched.Cols)}
	for ci, e := range set {
		v, err := e.Eval(matched)
		if err != nil {
			return 0, err
		}
		if typ := t.Schema.Col(ci).Typ; v.Typ != typ {
			cv := vector.New(typ, n)
			for i := range n {
				cv.AppendValue(types.Coerce(v.ValueAt(i), typ))
			}
			v = cv
		}
		updated.Cols[ci] = v
	}
	if _, err := c.StageDelete(tx, table, pred, snapshot); err != nil {
		return 0, err
	}
	if n > 0 {
		if err := c.StageInsert(tx, table, updated, false); err != nil {
			return 0, err
		}
	}
	return int64(n), nil
}
