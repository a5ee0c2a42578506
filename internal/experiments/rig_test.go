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
//
// The check compares whole-batch totals, not rounded per-change means:
// the early batch meets more amortised slice doublings than the late
// one and each total jitters by a few allocations, so two per-change
// means can round to neighbouring integers with no defect present.
func TestChangeCostIndependentOfHistory(t *testing.T) {
	rig := NewRig(benchapp.New(benchapp.Config{Images: 8, TaskDelay: time.Hour}), ModeRCHDroid)
	rotate := func() {
		if _, err := rig.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	// batchCost returns the allocations and bytes of a batch of
	// Rotates, so amortised slice growth evens out.
	const batch = 64
	batchCost := func() (allocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < batch; i++ {
			rotate()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}

	for rig.Sys.HandlingCount() < 10 {
		rotate()
	}
	allocsEarly, bytesEarly := batchCost()
	for rig.Sys.HandlingCount() < 1000 {
		rotate()
	}
	allocsLate, bytesLate := batchCost()

	// The allocation count must not grow with history; half an
	// allocation per change covers jitter and amortised growth. (A
	// history copy allocates twice per change at any length, so the
	// byte check below is the one that catches it.)
	if allocsLate > allocsEarly+batch/2 {
		t.Errorf("allocs per batch of %d changes grew with history: %d after 10 changes, %d after 1000",
			batch, allocsEarly, allocsLate)
	}
	// Copying a 1000-entry history twice costs 16 KB per change; allow
	// a quarter of that for amortised growth of the rig's own series.
	if bytesLate > bytesEarly+4096*batch {
		t.Errorf("bytes per batch of %d changes grew with history: %d after 10 changes, %d after 1000",
			batch, bytesEarly, bytesLate)
	}
}
