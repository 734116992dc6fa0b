package graph

import (
	"testing"
	"time"

	"turnup/internal/forum"
)

var g0 = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

func accepted(t *testing.T, id int, typ forum.ContractType, maker, taker forum.UserID) *forum.Contract {
	t.Helper()
	c, err := forum.NewContract(forum.ContractID(id), typ, maker, taker, g0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Accept(g0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	return c
}

func pending(t *testing.T, id int, maker, taker forum.UserID) *forum.Contract {
	t.Helper()
	c, err := forum.NewContract(forum.ContractID(id), forum.Sale, maker, taker, g0, true)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDirectedDegreesOneWay(t *testing.T) {
	// User 1 makes SALEs to users 2 and 3.
	n := Build([]*forum.Contract{
		accepted(t, 1, forum.Sale, 1, 2),
		accepted(t, 2, forum.Sale, 1, 3),
	})
	if d := n.Degree(1, Outbound); d != 2 {
		t.Errorf("maker outbound = %d", d)
	}
	if d := n.Degree(1, Inbound); d != 0 {
		t.Errorf("maker inbound = %d", d)
	}
	if d := n.Degree(2, Inbound); d != 1 {
		t.Errorf("taker inbound = %d", d)
	}
	if d := n.Degree(2, Outbound); d != 0 {
		t.Errorf("taker outbound = %d", d)
	}
	if d := n.Degree(1, Raw); d != 2 {
		t.Errorf("maker raw = %d", d)
	}
}

func TestBidirectionalCountsBothWays(t *testing.T) {
	n := Build([]*forum.Contract{accepted(t, 1, forum.Exchange, 1, 2)})
	for _, u := range []forum.UserID{1, 2} {
		if d := n.Degree(u, Inbound); d != 1 {
			t.Errorf("user %d inbound = %d", u, d)
		}
		if d := n.Degree(u, Outbound); d != 1 {
			t.Errorf("user %d outbound = %d", u, d)
		}
	}
}

func TestRepeatContractsDoNotInflateDegree(t *testing.T) {
	// Degrees count distinct counterparties, not contracts.
	n := Build([]*forum.Contract{
		accepted(t, 1, forum.Sale, 1, 2),
		accepted(t, 2, forum.Sale, 1, 2),
		accepted(t, 3, forum.Sale, 1, 2),
	})
	if d := n.Degree(1, Raw); d != 1 {
		t.Errorf("raw degree = %d after repeat contracts", d)
	}
	if d := n.Degree(1, Outbound); d != 1 {
		t.Errorf("outbound degree = %d after repeat contracts", d)
	}
}

func TestUnacceptedContractsExcluded(t *testing.T) {
	den := pending(t, 2, 3, 4)
	_ = den.Deny(g0.Add(time.Hour))
	exp := pending(t, 3, 5, 6)
	_ = exp.Expire(g0.Add(80 * time.Hour))
	n := Build([]*forum.Contract{pending(t, 1, 1, 2), den, exp})
	if n.Nodes() != 0 {
		t.Errorf("unaccepted contracts created %d nodes", n.Nodes())
	}
}

func TestStats(t *testing.T) {
	n := Build([]*forum.Contract{
		accepted(t, 1, forum.Sale, 1, 2),
		accepted(t, 2, forum.Sale, 3, 2),
		accepted(t, 3, forum.Sale, 4, 2),
	})
	s := n.Stats(Inbound)
	if s.Max != 3 {
		t.Errorf("max inbound = %d", s.Max)
	}
	if s.Nodes != 4 {
		t.Errorf("nodes = %d", s.Nodes)
	}
	// Mean inbound: user 2 has 3, others 0 → 0.75.
	if s.Mean != 0.75 {
		t.Errorf("mean inbound = %v", s.Mean)
	}
	raw := n.Stats(Raw)
	if raw.Max != 3 || raw.Mean != 1.5 {
		t.Errorf("raw stats = %+v", raw)
	}
}

// TestStatsMatchScanAsNetworkGrows checks the running maximum and total
// behind Stats against a scan of every node's degree after each contract
// of a network with repeat pairs and both contract directions.
func TestStatsMatchScanAsNetworkGrows(t *testing.T) {
	types := []forum.ContractType{forum.Sale, forum.Purchase, forum.Exchange, forum.Trade}
	n := New()
	x := uint64(7)
	for id := 1; id <= 400; id++ {
		x = x*6364136223846793005 + 1442695040888963407
		maker, taker := forum.UserID(1+x>>33%40), forum.UserID(1+x>>45%40)
		if maker == taker {
			continue
		}
		n.Add(accepted(t, id, types[x>>20%4], maker, taker))
		for _, k := range []DegreeKind{Raw, Inbound, Outbound} {
			want := DegreeStats{Kind: k, Nodes: n.Nodes()}
			total := 0
			for _, d := range n.Degrees(k) {
				total += d
				want.Max = max(want.Max, d)
			}
			want.Mean = float64(total) / float64(want.Nodes)
			if got := n.Stats(k); got != want {
				t.Fatalf("after contract %d, %v: Stats %+v, scan %+v", id, k, got, want)
			}
		}
	}
}

func TestDegreesIncludeZeroOutbound(t *testing.T) {
	n := Build([]*forum.Contract{accepted(t, 1, forum.Sale, 1, 2)})
	degs := n.Degrees(Outbound)
	if len(degs) != 2 {
		t.Fatalf("degrees over %d nodes", len(degs))
	}
	if degs[2] != 0 {
		t.Errorf("taker outbound = %d, want 0", degs[2])
	}
	slice := n.DegreeSlice(Outbound)
	if len(slice) != 2 {
		t.Errorf("DegreeSlice len = %d", len(slice))
	}
}

func TestIncrementalAddMatchesBuild(t *testing.T) {
	cs := []*forum.Contract{
		accepted(t, 1, forum.Sale, 1, 2),
		accepted(t, 2, forum.Exchange, 2, 3),
		accepted(t, 3, forum.Trade, 3, 1),
	}
	built := Build(cs)
	inc := New()
	for _, c := range cs {
		inc.Add(c)
	}
	for _, k := range []DegreeKind{Raw, Inbound, Outbound} {
		for u := forum.UserID(1); u <= 3; u++ {
			if built.Degree(u, k) != inc.Degree(u, k) {
				t.Errorf("user %d %v: %d vs %d", u, k, built.Degree(u, k), inc.Degree(u, k))
			}
		}
	}
}

func TestDegreeKindString(t *testing.T) {
	if Raw.String() != "raw" || Inbound.String() != "inbound" || Outbound.String() != "outbound" {
		t.Error("degree kind names wrong")
	}
}
