// Package graph builds and measures the contractual social network of
// §4.2: users are nodes, and a contract links its maker and taker. Raw
// connections ignore direction; an inbound connection from n to m exists
// when m accepts a contract made by n, and an outbound connection when n
// makes a contract to m. Bidirectional contract types (EXCHANGE, TRADE)
// count as both inbound and outbound for both parties.
package graph

import "turnup/internal/forum"

// Network is the contractual graph. Degrees count distinct counterparty
// users, as the paper defines them, so edges must be deduplicated: one
// flat seen-set keyed by directed user pair carries a bitmask of the
// connection kinds already recorded for that pair, and per-user degree
// counters advance only when a pair gains a new kind. This replaces the
// per-user nested adjacency sets the first implementation used — same
// semantics, one map instead of one map per user per kind. Each kind's
// maximum and total degree advance with the counters, so Stats reads
// them without a scan.
type Network struct {
	seen       map[pair]uint8
	deg        [numKinds]map[forum.UserID]int
	max, total [numKinds]int
}

// pair is a directed user pair. A struct key (not packed integers) so IDs
// wider than 32 bits can never collide.
type pair struct{ from, to forum.UserID }

// New returns an empty network.
func New() *Network {
	n := &Network{seen: make(map[pair]uint8)}
	for k := range n.deg {
		n.deg[k] = make(map[forum.UserID]int)
	}
	return n
}

// Build constructs the network over the given contracts. Only accepted
// contracts create connections: a contract that was denied or expired never
// linked two users. (Callers filter to created-and-accepted or completed
// sets as the analysis requires.)
func Build(contracts []*forum.Contract) *Network {
	n := New()
	for _, c := range contracts {
		n.Add(c)
	}
	return n
}

// connected reports whether the contract's parties ever entered the deal.
func connected(c *forum.Contract) bool {
	switch c.Status {
	case forum.StatusPending, forum.StatusDenied, forum.StatusExpired:
		return false
	}
	return true
}

// Add incorporates one contract into the network.
func (n *Network) Add(c *forum.Contract) {
	if !connected(c) {
		return
	}
	n.link(c.Maker, c.Taker, Raw)
	n.link(c.Taker, c.Maker, Raw)
	// Maker initiates: outbound maker→taker, inbound for taker from maker.
	n.link(c.Maker, c.Taker, Outbound)
	n.link(c.Taker, c.Maker, Inbound)
	if c.Type.Bidirectional() {
		// Goods flow both ways: both parties gain both connection kinds.
		n.link(c.Taker, c.Maker, Outbound)
		n.link(c.Maker, c.Taker, Inbound)
	}
}

// link records that the pair (from, to) has a connection of kind k; the
// seen-set bit of kind k is 1<<k. Raw edges are recorded in both
// directions, so the raw bit on (u,v) means v is among u's distinct
// counterparties.
func (n *Network) link(from, to forum.UserID, k DegreeKind) {
	p, bit := pair{from, to}, uint8(1)<<k
	if n.seen[p]&bit != 0 {
		return
	}
	n.seen[p] |= bit
	d := n.deg[k][from] + 1
	n.deg[k][from] = d
	n.total[k]++
	n.max[k] = max(n.max[k], d)
}

// Nodes returns the number of users with at least one raw connection.
func (n *Network) Nodes() int { return len(n.deg[Raw]) }

// DegreeKind selects which degree notion to read.
type DegreeKind int

// The three degree notions of §4.2.
const (
	Raw DegreeKind = iota
	Inbound
	Outbound
	numKinds
)

// String names the degree kind.
func (k DegreeKind) String() string {
	switch k {
	case Raw:
		return "raw"
	case Inbound:
		return "inbound"
	case Outbound:
		return "outbound"
	default:
		return "unknown"
	}
}

// DegreeStats summarises a degree distribution.
type DegreeStats struct {
	Kind  DegreeKind
	Max   int
	Mean  float64
	Nodes int
}

// Stats returns max and mean degree of the given kind over raw-graph
// nodes. Every inbound or outbound connection is also a raw one, so the
// raw-graph nodes are every node with a degree of any kind.
func (n *Network) Stats(k DegreeKind) DegreeStats {
	s := DegreeStats{Kind: k, Max: n.max[k], Nodes: n.Nodes()}
	if s.Nodes > 0 {
		s.Mean = float64(n.total[k]) / float64(s.Nodes)
	}
	return s
}

// DegreeSlice returns all degrees of a kind as a slice (for distribution
// fitting and histograms).
func (n *Network) DegreeSlice(k DegreeKind) []int {
	out := make([]int, 0, n.Nodes())
	for u := range n.deg[Raw] {
		out = append(out, n.deg[k][u])
	}
	return out
}
