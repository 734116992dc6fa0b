//go:build !race

package analysis

import (
	"runtime"
	"testing"

	"turnup/internal/dataset"
	"turnup/internal/market"
)

// groupBuildMaxBytes bounds what building a fresh Index's eager groups
// may allocate over the bench corpus (seed 99, scale 0.05). A build from
// the rows allocates about 1.2 MB; one that first projects the corpus
// into columns (interning four string fields and a party table) took
// about 3 MB.
const groupBuildMaxBytes = 2 << 20

// TestIndexGroupBuildAllocs guards the group build's allocation volume:
// a fresh dataset value per run, so nothing a previous run derived can
// be reused, and the least of three runs against the bound, so one
// allocation elsewhere in the process cannot fail it. It is left out of
// race builds, whose instrumentation inflates allocations.
func TestIndexGroupBuildAllocs(t *testing.T) {
	d, _, err := market.Generate(market.Config{Seed: 99, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(1<<63 - 1)
	for run := 0; run < 3; run++ {
		fresh := &dataset.Dataset{Users: d.Users, Contracts: d.Contracts}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewIndex(fresh).ByMonth()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("group build allocated %d bytes", least)
	if least > groupBuildMaxBytes {
		t.Errorf("group build allocated %d bytes, over the %d bound", least, groupBuildMaxBytes)
	}
}
