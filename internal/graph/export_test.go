package graph

import "turnup/internal/forum"

// Degree returns user u's degree of the given kind.
func (n *Network) Degree(u forum.UserID, k DegreeKind) int { return n.deg(k)[u] }

// Degrees returns the degree of every user that appears in the raw graph
// (users with zero inbound or outbound degree report 0, matching the
// paper's "zero point" in the outbound distribution).
func (n *Network) Degrees(k DegreeKind) map[forum.UserID]int {
	kind := n.deg(k)
	out := make(map[forum.UserID]int, len(n.degRaw))
	for u := range n.degRaw {
		out[u] = kind[u]
	}
	return out
}
