package cluster

import (
	"fmt"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Recovery, refresh, rebalance and backup (paper §5.2). Vertica keeps no
// transaction log: "the data+epoch itself serves as a log of past system
// activity", so a recovering node replays missed DML by copying epochs from
// buddy projections in two phases — a lock-free historical phase and a
// brief current phase under a Shared lock.

// ClearWOS is the memory loss of a node failure: buffered WOS rows that were
// never moved out, and the delete vectors naming them, are gone (this is why
// the LGE exists, §5.1).
func (n *Node) ClearWOS() {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, m := range n.mgrs {
		m.WOS().DrainUpTo(types.MaxEpoch)
		m.DVs().Rewrite(storage.WOSTarget, nil)
	}
}

// RecoverNode rejoins a failed node. Its memory died with it, so it starts
// from its ROS: per projection it catches up from a surviving source in a
// historical phase (no locks), then a current phase under a Shared lock,
// and finally rejoins the cluster and releases the AHM.
func (c *Cluster) RecoverNode(id int) error {
	n := c.nodes[id]
	if n.Up() {
		return fmt.Errorf("cluster: node %d is not down", id)
	}
	n.ClearWOS()
	eh := c.Txn.Epochs.Current() - 1
	for _, p := range c.cat.Projections() {
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		if err := c.catchUp(n, p, mgr, eh); err != nil {
			return err
		}
		// Current phase: Shared lock on the anchor table, copy the rest.
		rtx := c.Txn.Begin()
		if err := c.Txn.Locks.Acquire(rtx.ID, p.Anchor, txn.S); err != nil {
			return err
		}
		err = c.catchUp(n, p, mgr, c.Txn.Epochs.Current())
		c.Txn.Locks.ReleaseAll(rtx.ID)
		if err != nil {
			return err
		}
	}
	n.setUp(true)
	// Release the AHM hold once every node is back.
	if len(c.UpNodes()) == c.N() {
		c.Txn.Epochs.HoldAHM(false)
	}
	healthy := c.HasQuorum() && c.DataAvailable()
	c.mu.Lock()
	if healthy {
		c.shutdown = false
	}
	c.mu.Unlock()
	return nil
}

// catchUp brings node n's ROS of projection p up to epoch hi from a
// surviving source: rows of commit epochs the node holds nothing of are
// copied with their delete epochs, and rows it holds get the deletes it
// missed ("an execution plan similar to INSERT ... SELECT ... is used to
// move rows (including deleted rows) ... a separate plan is used to move
// delete vectors", §5.2). A commit's rows reach a node's ROS together — one
// direct load, or one moveout of a WOS prefix — so the epochs present say
// exactly what is missing, whichever of a direct load and older WOS rows got
// there first; the newest stored epoch does not. Deletes are matched by
// value and epoch. Running it twice copies nothing twice.
func (c *Cluster) catchUp(n *Node, p *catalog.Projection, dst *storage.Manager, hi types.Epoch) error {
	src, srcProj, err := c.sourceFor(n, p)
	if err != nil {
		return err
	}
	if src == nil {
		return nil // no source required (e.g. nothing segmented here)
	}
	srcMgr, err := src.Mgr(srcProj, c.ManagerOpts())
	if err != nil {
		return err
	}
	have := map[types.Epoch]bool{}
	seen := map[string]int{} // deletes the node already has, by row
	err = dst.ForEachStored(0, types.MaxEpoch, func(_ string, _ int64, b *vector.Batch) error {
		epochs, dels := b.Cols[b.NumCols()-2].Ints, b.Cols[b.NumCols()-1].Ints
		for _, i := range b.Sel {
			have[types.Epoch(epochs[i])] = true
			if dels[i] != 0 {
				seen[rowKey(b, i)]++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var missed []*vector.Batch
	want := map[string][]types.Epoch{} // deletes the node missed, by row
	err = srcMgr.ForEachStored(0, hi, func(_ string, _ int64, b *vector.Batch) error {
		shares, err := c.shares(p, b)
		if err != nil || shares[n.ID] == nil {
			return err
		}
		epochs, dels := b.Cols[b.NumCols()-2].Ints, b.Cols[b.NumCols()-1].Ints
		var sel []int
		for _, i := range shares[n.ID].Sel {
			switch {
			case !have[types.Epoch(epochs[i])]:
				sel = append(sel, i)
			case dels[i] != 0:
				if k := rowKey(b, i); seen[k] > 0 {
					seen[k]--
				} else {
					want[k] = append(want[k], types.Epoch(dels[i]))
				}
			}
		}
		if sel != nil {
			missed = append(missed, &vector.Batch{Cols: b.Cols, Sel: sel})
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(want) > 0 {
		stamp := map[string][]storage.DVEntry{}
		err = dst.ForEachStored(0, types.MaxEpoch, func(target string, first int64, b *vector.Batch) error {
			for _, i := range b.Sel {
				if b.Cols[b.NumCols()-1].Ints[i] != 0 {
					continue
				}
				if k := rowKey(b, i); len(want[k]) > 0 {
					stamp[target] = append(stamp[target], storage.DVEntry{Pos: first + int64(i), Epoch: want[k][0]})
					want[k] = want[k][1:]
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for target, entries := range stamp {
			dst.DVs().Add(target, entries)
			if err := dst.DVs().Persist(target); err != nil {
				return err
			}
		}
	}
	return c.writeStored(p, dst, missed)
}

// rowKey names physical row i of a stored batch by its user values and
// commit epoch: how catchUp matches deletes.
func rowKey(b *vector.Batch, i int) string {
	r := make(types.Row, b.NumCols()-1)
	for c := range r {
		r[c] = b.Cols[c].ValueAt(i)
	}
	return fmt.Sprint(r)
}

// sourceFor finds a surviving node and projection holding the rows node n
// needs for projection p.
func (c *Cluster) sourceFor(n *Node, p *catalog.Projection) (*Node, *catalog.Projection, error) {
	if p.Seg.Replicated {
		for _, s := range c.UpNodes() {
			if s.ID != n.ID {
				return s, p, nil
			}
		}
		return nil, nil, fmt.Errorf("cluster: no surviving replica of %q", p.Name)
	}
	if p.IsBuddy {
		// The buddy's rows on node n are the primary rows of node
		// (n - offset) mod N; find the owning primary projection.
		for _, primary := range c.cat.Projections() {
			if primary.Buddy != p.Name {
				continue
			}
			owner := (n.ID - p.Seg.Offset%c.N() + c.N()) % c.N()
			src := c.nodes[owner]
			if !src.Up() {
				return nil, nil, fmt.Errorf("cluster: primary source node %d for buddy %q is down", owner, p.Name)
			}
			return src, primary, nil
		}
		return nil, nil, fmt.Errorf("cluster: buddy projection %q has no primary", p.Name)
	}
	if p.Buddy == "" {
		// Unsafe (K=0) projection: nothing to recover from; accept the gap.
		return nil, nil, nil
	}
	buddy, err := c.cat.Projection(p.Buddy)
	if err != nil {
		return nil, nil, err
	}
	host := c.nodes[(n.ID+buddy.Seg.Offset)%c.N()]
	if !host.Up() {
		return nil, nil, fmt.Errorf("cluster: buddy host node %d is down", host.ID)
	}
	return host, buddy, nil
}

// Refresh populates a projection created after its anchor table was loaded
// (paper §5.2: "refresh is used to populate new projections"). Rows are read
// from another non-buddy super projection of the anchor across the cluster,
// routed by the new projection's segmentation and written with their
// original epochs. The caller holds the anchor's S lock, so no DML commits
// while the rows are copied.
func (c *Cluster) Refresh(projName string) error {
	p, err := c.cat.Projection(projName)
	if err != nil {
		return err
	}
	if err := c.EnsureStorage(p); err != nil {
		return err
	}
	var super *catalog.Projection
	for _, q := range c.cat.ProjectionsFor(p.Anchor) {
		if q.IsSuper && !q.IsBuddy && q.Name != p.Name {
			super = q
			break
		}
	}
	if super == nil {
		return fmt.Errorf("cluster: table %q has no super projection to refresh %q from", p.Anchor, p.Name)
	}

	// A super projection stores all of p's columns: pick them, then both epochs.
	idx := make([]int, len(p.Columns), len(p.Columns)+2)
	for i, name := range p.Columns {
		idx[i] = super.Schema.ColIndex(name)
	}
	idx = append(idx, super.Schema.Len(), super.Schema.Len()+1)
	staged := map[int][]*vector.Batch{}
	for i, src := range c.UpNodes() {
		if super.Seg.Replicated && i > 0 {
			break // one replica suffices
		}
		mgr, err := src.Mgr(super, c.ManagerOpts())
		if err != nil {
			return err
		}
		err = mgr.ForEachStored(0, c.Txn.Epochs.Current(), func(_ string, _ int64, b *vector.Batch) error {
			pb := &vector.Batch{Cols: make([]*vector.Vector, len(idx)), Sel: b.Sel}
			for i, si := range idx {
				pb.Cols[i] = b.Cols[si]
			}
			return c.stageShares(p, pb, staged)
		})
		if err != nil {
			return err
		}
	}
	return c.writeStaged(p, staged)
}

// stageShares stages each node's share of stored batch b under p.
func (c *Cluster) stageShares(p *catalog.Projection, b *vector.Batch, staged map[int][]*vector.Batch) error {
	shares, err := c.shares(p, b)
	for id, share := range shares {
		if share != nil {
			staged[id] = append(staged[id], share)
		}
	}
	return err
}

// writeStaged writes each up node's share of projection p into its ROS.
func (c *Cluster) writeStaged(p *catalog.Projection, staged map[int][]*vector.Batch) error {
	for id, batches := range staged {
		if !c.nodes[id].Up() {
			continue
		}
		mgr, err := c.nodes[id].Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		if err := c.writeStored(p, mgr, batches); err != nil {
			return err
		}
	}
	return nil
}

// AddNode grows the cluster by one node; call Rebalance to redistribute
// segments onto it (paper §5.2).
func (c *Cluster) AddNode() *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := len(c.nodes)
	n := &Node{
		ID:   id,
		Name: fmt.Sprintf("node%04d", id+1),
		Dir:  filepath.Join(c.cfg.Dir, fmt.Sprintf("node%04d", id+1)),
		up:   true,
		mgrs: map[string]*storage.Manager{},
	}
	c.nodes = append(c.nodes, n)
	return n
}

// Rebalance redistributes every segmented projection's rows across the
// current node set. The paper transfers whole local segments in native
// format; the simulation re-routes rows, which preserves the observable
// outcome (each row on its new ring owner).
func (c *Cluster) Rebalance() error {
	for _, p := range c.cat.Projections() {
		if p.Seg.Replicated {
			// New nodes need replica copies.
			if err := c.rebalanceReplicated(p); err != nil {
				return err
			}
			continue
		}
		if err := c.rebalanceSegmented(p); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) rebalanceReplicated(p *catalog.Projection) error {
	// Find a node with data and copy everything to nodes without any.
	var batches []*vector.Batch
	staged := map[int][]*vector.Batch{}
	for _, n := range c.UpNodes() {
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		if mgr.RowCount() == 0 && mgr.WOS().Len() == 0 {
			staged[n.ID] = nil
			continue
		}
		if batches == nil {
			err = mgr.ForEachStored(0, c.Txn.Epochs.Current(), func(_ string, _ int64, b *vector.Batch) error {
				batches = append(batches, b)
				return nil
			})
		}
		if err != nil {
			return err
		}
	}
	for id := range staged {
		staged[id] = batches
	}
	return c.writeStaged(p, staged)
}

func (c *Cluster) rebalanceSegmented(p *catalog.Projection) error {
	// Gather all rows cluster-wide, then rewrite each node's storage with
	// its new share.
	staged := map[int][]*vector.Batch{}
	for _, n := range c.UpNodes() {
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		err = mgr.ForEachStored(0, c.Txn.Epochs.Current(), func(_ string, _ int64, b *vector.Batch) error {
			return c.stageShares(p, b, staged)
		})
		if err != nil {
			return err
		}
		// Clear the node's current storage for this projection.
		var drop []string
		for _, cr := range mgr.Containers() {
			drop = append(drop, cr.Meta.ID)
		}
		if err := mgr.Remove(drop...); err != nil {
			return err
		}
		mgr.WOS().DrainUpTo(types.MaxEpoch)
	}
	return c.writeStaged(p, staged)
}

// Backup snapshots every node's storage via hard links (paper §5.2): data
// files cannot vanish while the backup image is copied away.
func (c *Cluster) Backup(destDir string) error {
	for _, n := range c.UpNodes() {
		n.mu.RLock()
		mgrs := make(map[string]*storage.Manager, len(n.mgrs))
		for k, v := range n.mgrs {
			mgrs[k] = v
		}
		n.mu.RUnlock()
		for pname, mgr := range mgrs {
			dst := filepath.Join(destDir, n.Name, pname)
			if err := mgr.SnapshotHardlink(dst); err != nil {
				return err
			}
		}
	}
	return nil
}
