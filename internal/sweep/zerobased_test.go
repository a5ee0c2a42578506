package sweep

import (
	"testing"

	"rchdroid/internal/obs"
)

// TestZeroBasedStart pins the two Start-coercion contracts: a seeded
// sweep treats 0 as "off" and starts at 1, while the schedule-space
// explorer's index walks (ZeroBased) keep 0 as a real first index — the
// empty schedule.
func TestZeroBasedStart(t *testing.T) {
	runner := func(seed uint64, _ *obs.Shard) Outcome {
		return Outcome{OK: true, Detail: "ran"}
	}

	plain := RunObs(Config{Mode: "oracle", Start: 0, Count: 3, Workers: 1}, runner)
	if plain.Start != 1 {
		t.Errorf("seeded sweep Start = %d, want 1 (seed 0 is the chaos-off sentinel)", plain.Start)
	}
	if got := plain.Results[0].Seed; got != 1 {
		t.Errorf("seeded sweep first seed = %d, want 1", got)
	}

	zero := RunObs(Config{Mode: "explore", Start: 0, Count: 3, Workers: 1, ZeroBased: true}, runner)
	if zero.Start != 0 {
		t.Errorf("zero-based sweep Start = %d, want 0", zero.Start)
	}
	for i, r := range zero.Results {
		if r.Seed != uint64(i) {
			t.Errorf("zero-based sweep Results[%d].Seed = %d, want %d", i, r.Seed, i)
		}
	}

	// A non-zero Start is never touched either way.
	if rep := RunObs(Config{Start: 7, Count: 1, Workers: 1, ZeroBased: true}, runner); rep.Start != 7 {
		t.Errorf("ZeroBased perturbed a non-zero Start: %d", rep.Start)
	}
	if rep := RunObs(Config{Start: 7, Count: 1, Workers: 1}, runner); rep.Start != 7 {
		t.Errorf("plain sweep perturbed a non-zero Start: %d", rep.Start)
	}
}
