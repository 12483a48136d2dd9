package cluster

// Rejoin marks a failed node up again without a recovery pass. The recovery
// oracle uses it to let each buddy serve reads in turn: the node missed
// nothing, and its WOS must survive for the next moveout to see.
func (n *Node) Rejoin() { n.setUp(true) }
