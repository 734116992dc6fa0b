package graph

import "turnup/internal/forum"

// Degree returns user u's degree of the given kind.
func (n *Network) Degree(u forum.UserID, k DegreeKind) int { return n.deg[k][u] }

// Degrees returns the degree of every user that appears in the raw graph
// (users with zero inbound or outbound degree report 0, matching the
// paper's "zero point" in the outbound distribution).
func (n *Network) Degrees(k DegreeKind) map[forum.UserID]int {
	out := make(map[forum.UserID]int, n.Nodes())
	for u := range n.deg[Raw] {
		out[u] = n.deg[k][u]
	}
	return out
}
