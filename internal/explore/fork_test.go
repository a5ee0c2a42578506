package explore

import (
	"testing"

	"rchdroid/internal/device"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle/corpus"
)

// TestExploreForkByteIdentical pins the fork facility on the schedule
// walk: exploring a scenario's depth-1 space through forked worlds
// (one stock and one RCHDroid template per scenario, every schedule a
// fork) merges to the same report and canonical metrics — byte for
// byte — as the fresh-build walk over a nil cache, sequentially and
// under a pool.
func TestExploreForkByteIdentical(t *testing.T) {
	for _, name := range []string{"backstack", "quarantine-recovery"} {
		sc, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("scenario %s missing from corpus", name)
		}
		t.Run(name, func(t *testing.T) {
			walk := func(forker *device.TemplateCache, workers int) (string, string) {
				reg := obs.NewRegistry()
				res := explore(&sc, Options{Depth: 1, Workers: workers, Obs: reg}, forker)
				return res.String(), string(reg.Snapshot().MarshalCanonical())
			}
			freshRep, freshCanon := walk(nil, 1)
			for _, workers := range []int{1, 4} {
				forkRep, forkCanon := walk(device.NewTemplateCache(), workers)
				if forkRep != freshRep {
					t.Fatalf("workers=%d: forked walk differs from fresh build:\n--- fresh\n%s--- fork\n%s",
						workers, freshRep, forkRep)
				}
				if forkCanon != freshCanon {
					t.Fatalf("workers=%d: forked canonical metrics differ from fresh build:\n--- fresh\n%s\n--- fork\n%s",
						workers, freshCanon, forkCanon)
				}
			}
		})
	}
}
