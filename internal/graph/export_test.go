package graph

// StaleCount reports how many nodes wait for Settle.
func (g *Graph) StaleCount() int { return len(g.stale) }
