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
// semantics, one map instead of one map per user per kind.
type Network struct {
	seen   map[pair]uint8
	degRaw map[forum.UserID]int
	degIn  map[forum.UserID]int
	degOut map[forum.UserID]int
}

// pair is a directed user pair. A struct key (not packed integers) so IDs
// wider than 32 bits can never collide.
type pair struct{ from, to forum.UserID }

// Connection-kind bits in the seen-set. Raw edges are recorded in both
// directions, so the raw bit on (u,v) means v is among u's distinct
// counterparties.
const (
	bitRaw uint8 = 1 << iota
	bitIn
	bitOut
)

// New returns an empty network.
func New() *Network {
	return &Network{
		seen:   make(map[pair]uint8),
		degRaw: make(map[forum.UserID]int),
		degIn:  make(map[forum.UserID]int),
		degOut: make(map[forum.UserID]int),
	}
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
	n.link(c.Maker, c.Taker, bitRaw)
	n.link(c.Taker, c.Maker, bitRaw)
	// Maker initiates: outbound maker→taker, inbound for taker from maker.
	n.link(c.Maker, c.Taker, bitOut)
	n.link(c.Taker, c.Maker, bitIn)
	if c.Type.Bidirectional() {
		// Goods flow both ways: both parties gain both connection kinds.
		n.link(c.Taker, c.Maker, bitOut)
		n.link(c.Maker, c.Taker, bitIn)
	}
}

func (n *Network) link(from, to forum.UserID, bit uint8) {
	p := pair{from, to}
	if n.seen[p]&bit != 0 {
		return
	}
	n.seen[p] |= bit
	switch bit {
	case bitRaw:
		n.degRaw[from]++
	case bitIn:
		n.degIn[from]++
	case bitOut:
		n.degOut[from]++
	}
}

// Nodes returns the number of users with at least one raw connection.
func (n *Network) Nodes() int { return len(n.degRaw) }

// DegreeKind selects which degree notion to read.
type DegreeKind int

// The three degree notions of §4.2.
const (
	Raw DegreeKind = iota
	Inbound
	Outbound
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

func (n *Network) deg(k DegreeKind) map[forum.UserID]int {
	switch k {
	case Inbound:
		return n.degIn
	case Outbound:
		return n.degOut
	default:
		return n.degRaw
	}
}

// DegreeStats summarises a degree distribution.
type DegreeStats struct {
	Kind  DegreeKind
	Max   int
	Mean  float64
	Nodes int
}

// Stats computes max and mean degree of the given kind over raw-graph nodes.
func (n *Network) Stats(k DegreeKind) DegreeStats {
	s := DegreeStats{Kind: k, Nodes: len(n.degRaw)}
	kind := n.deg(k)
	total := 0
	for u := range n.degRaw {
		d := kind[u]
		total += d
		if d > s.Max {
			s.Max = d
		}
	}
	if s.Nodes > 0 {
		s.Mean = float64(total) / float64(s.Nodes)
	}
	return s
}

// DegreeSlice returns all degrees of a kind as a slice (for distribution
// fitting and histograms).
func (n *Network) DegreeSlice(k DegreeKind) []int {
	kind := n.deg(k)
	out := make([]int, 0, len(n.degRaw))
	for u := range n.degRaw {
		out = append(out, kind[u])
	}
	return out
}
