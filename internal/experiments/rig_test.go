//go:build !race

package experiments

import (
	"runtime"
	"testing"
	"time"

	"rchdroid/internal/benchapp"
)

// TestChangeCostIndependentOfHistory pins that one Rig.Change costs the
// same however many changes the rig has already handled: it must not
// copy the whole handling-time history to read its last entry. It is
// built without -race: the race runtime allocates on its own schedule,
// so exact allocation counts are only meaningful without it.
func TestChangeCostIndependentOfHistory(t *testing.T) {
	rig := NewRig(benchapp.New(benchapp.Config{Images: 8, TaskDelay: time.Hour}), ModeRCHDroid)
	rotate := func() {
		if _, err := rig.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	// perChange returns the allocations and bytes of one Rotate,
	// averaged over a batch so amortised slice growth evens out.
	perChange := func() (allocs, bytes uint64) {
		const batch = 64
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < batch; i++ {
			rotate()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / batch, (after.TotalAlloc - before.TotalAlloc) / batch
	}

	for rig.Sys.HandlingCount() < 10 {
		rotate()
	}
	allocsEarly, bytesEarly := perChange()
	for rig.Sys.HandlingCount() < 1000 {
		rotate()
	}
	allocsLate, bytesLate := perChange()

	if allocsLate != allocsEarly {
		t.Errorf("allocs per change: %d after 10 changes, %d after 1000", allocsEarly, allocsLate)
	}
	// Copying a 1000-entry history twice costs 16 KB per change; allow
	// a quarter of that for amortised growth of the rig's own series.
	if bytesLate > bytesEarly+4096 {
		t.Errorf("bytes per change grew with history: %d after 10 changes, %d after 1000", bytesEarly, bytesLate)
	}
}
