// Package cluster implements the shared-nothing distribution layer of paper
// §3.6 and §5.2–5.3 as an in-process simulation: N nodes each own a storage
// directory; projections are replicated or ring-segmented across nodes;
// buddy projections provide K-safety; commits require a quorum; failed nodes
// are ejected and later recover via the historical/current two-phase copy
// from their buddies.
//
// The simulation preserves the paper's logical protocols exactly — the
// substitution is only that "network" message delivery is a method call,
// which makes failure injection deterministic and testable.
package cluster

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/catalog"
	"repro/internal/resmgr"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Node is one cluster member: private storage per projection plus liveness.
type Node struct {
	ID   int
	Name string
	Dir  string

	mu   sync.RWMutex
	up   bool
	mgrs map[string]*storage.Manager // projection name -> storage
}

// Up reports node liveness.
func (n *Node) Up() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.up
}

func (n *Node) setUp(up bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.up = up
}

// Mgr returns the node's storage manager for a projection, creating it on
// first use.
func (n *Node) Mgr(p *catalog.Projection, opts storage.ManagerOpts) (*storage.Manager, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m, ok := n.mgrs[p.Name]; ok {
		return m, nil
	}
	m, err := storage.NewManager(filepath.Join(n.Dir, p.Name), p.Schema, opts)
	if err != nil {
		return nil, err
	}
	n.mgrs[p.Name] = m
	return m, nil
}

// Config sets cluster-wide parameters.
type Config struct {
	Nodes int
	Dir   string
	// LocalSegments per node (paper §3.6; Figure 2 shows 3).
	LocalSegments int
	WOSMaxBytes   int64
	// Governor, when set, admission-controls query dispatch on the
	// coordinator and sizes operator memory budgets from its grants.
	Governor *resmgr.Governor
	// TempDir hosts operator spill files (default: system temp).
	TempDir string
}

// Cluster owns the node set, the shared epoch clock and group membership.
type Cluster struct {
	cfg Config
	cat *catalog.Catalog
	Txn *txn.Manager

	mu       sync.RWMutex
	nodes    []*Node
	shutdown bool
}

// New creates a cluster of cfg.Nodes nodes rooted at cfg.Dir.
func New(cfg Config, cat *catalog.Catalog, tm *txn.Manager) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.LocalSegments <= 0 {
		cfg.LocalSegments = 3
	}
	c := &Cluster{cfg: cfg, cat: cat, Txn: tm}
	for range cfg.Nodes {
		c.AddNode()
	}
	return c, nil
}

// Catalog returns the shared metadata catalog.
func (c *Cluster) Catalog() *catalog.Catalog { return c.cat }

// Governor returns the coordinator's resource governor (nil if ungoverned).
func (c *Cluster) Governor() *resmgr.Governor { return c.cfg.Governor }

// Nodes returns all nodes (up and down).
func (c *Cluster) Nodes() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Node{}, c.nodes...)
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.nodes) }

// UpNodes returns the currently live nodes.
func (c *Cluster) UpNodes() []*Node {
	var out []*Node
	for _, n := range c.Nodes() {
		if n.Up() {
			out = append(out, n)
		}
	}
	return out
}

// QuorumSize is the agreement protocol's N/2+1 requirement (paper §5.3).
func (c *Cluster) QuorumSize() int { return c.N()/2 + 1 }

// HasQuorum reports whether enough nodes are up to accept commits.
func (c *Cluster) HasQuorum() bool { return len(c.UpNodes()) >= c.QuorumSize() }

// IsShutdown reports whether the cluster performed a safety shutdown.
func (c *Cluster) IsShutdown() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shutdown
}

// FailNode ejects a node from the cluster ("failure to receive a message
// will cause a node to be ejected"). The AHM freezes so recovery can replay
// missed DML (§5.1), and the cluster shuts down if quorum or data coverage
// is lost (§5.3).
func (c *Cluster) FailNode(id int) error {
	n := c.nodes[id]
	if !n.Up() {
		return fmt.Errorf("cluster: node %d is already down", id)
	}
	n.setUp(false)
	c.Txn.Epochs.HoldAHM(true)
	if !c.HasQuorum() {
		c.mu.Lock()
		c.shutdown = true
		c.mu.Unlock()
		return fmt.Errorf("cluster: lost quorum (%d/%d up): safety shutdown", len(c.UpNodes()), c.N())
	}
	if !c.DataAvailable() {
		c.mu.Lock()
		c.shutdown = true
		c.mu.Unlock()
		return fmt.Errorf("cluster: segment coverage lost: database shutdown until recovery")
	}
	return nil
}

// DataAvailable verifies that every segmented projection still has every
// segment reachable: each down node's rows must be on its buddy's host,
// node (id + offset) mod N, and that node must be up. Replicated
// projections need any single live node.
func (c *Cluster) DataAvailable() bool {
	for _, p := range c.cat.Projections() {
		if p.IsBuddy {
			continue
		}
		if p.Seg.Replicated {
			if len(c.UpNodes()) == 0 {
				return false
			}
			continue
		}
		buddy, err := c.cat.Projection(p.Buddy)
		for _, n := range c.nodes {
			if n.Up() {
				continue
			}
			if err != nil || !c.nodes[(n.ID+buddy.Seg.Offset)%c.N()].Up() {
				return false // no buddy (K = 0), or its host is down too
			}
		}
	}
	return true
}

// ManagerOpts returns the storage options nodes use.
func (c *Cluster) ManagerOpts() storage.ManagerOpts {
	return storage.ManagerOpts{
		WOSMaxBytes:   c.cfg.WOSMaxBytes,
		LocalSegments: c.cfg.LocalSegments,
	}
}

// EnsureStorage materializes storage managers for a projection on every
// node (idempotent).
func (c *Cluster) EnsureStorage(p *catalog.Projection) error {
	for _, n := range c.nodes {
		if _, err := n.Mgr(p, c.ManagerOpts()); err != nil {
			return err
		}
	}
	return nil
}

// segments evaluates p's segmentation expression over every physical row of
// b, in p's column order, and returns each row's ring node (moved by p's
// offset) and its local segment there (paper §3.6), for the cluster size at
// call time. Replicated and unsegmented projections put every row on node 0,
// segment 0.
func (c *Cluster) segments(p *catalog.Projection, b *vector.Batch) (nodes, segs []int, err error) {
	nodes, segs = make([]int, b.FullLen()), make([]int, b.FullLen())
	if p.Seg.Replicated || p.Seg.Expr == nil {
		return nodes, segs, nil
	}
	v, err := p.Seg.Expr.Eval(b)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: segmentation expression: %w", err)
	}
	if !v.Typ.IsIntegral() {
		return nil, nil, fmt.Errorf("cluster: segmentation expression must be integral, got %s", v.Typ)
	}
	v, n := v.Expand(), c.N()
	for i := range nodes {
		var h uint64
		if !v.NullAt(i) {
			h = uint64(v.Ints[i])
		}
		node, off, width := types.Ring(h, ^uint64(0), n)
		nodes[i] = (node + p.Seg.Offset) % n
		segs[i], _, _ = types.Ring(off, width, c.cfg.LocalSegments)
	}
	return nodes, segs, nil
}

// shares splits the live rows of b (p's columns, then any others) by the node
// storing them under p: out[id] is b itself if node id stores every one, a
// view with a selection if some, nil if none; a replicated p goes everywhere.
func (c *Cluster) shares(p *catalog.Projection, b *vector.Batch) ([]*vector.Batch, error) {
	out := make([]*vector.Batch, c.N())
	nodes, _, err := c.segments(p, b)
	if err != nil || b.Len() == 0 {
		return out, err
	}
	phys := func(j int) int {
		if b.Sel != nil {
			return b.Sel[j]
		}
		return j
	}
	counts := make([]int, c.N())
	for j := range b.Len() {
		counts[nodes[phys(j)]]++
	}
	for id, k := range counts {
		switch {
		case p.Seg.Replicated || k == b.Len():
			out[id] = b
		case k > 0:
			out[id] = &vector.Batch{Cols: b.Cols, Sel: make([]int, 0, k)}
		}
	}
	for j := range b.Len() {
		if i := phys(j); out[nodes[i]] != b {
			out[nodes[i]].Sel = append(out[nodes[i]].Sel, i)
		}
	}
	return out, nil
}
