package sweep

import (
	"testing"

	"rchdroid/internal/obs"
)

// sweepBytes runs fn over [1, count] at the given worker count and
// returns everything the byte-identity contract covers: the merged
// report, the failure output, and the canonical metrics dump.
func sweepBytes(mode, replay string, fn ObsRunner, count, workers int) [3]string {
	reg := obs.NewRegistry()
	rep := RunObs(Config{Mode: mode, Start: 1, Count: count, Replay: replay, Workers: workers, Obs: reg}, fn)
	return [3]string{rep.String(), rep.FailureOutput(), string(reg.Snapshot().MarshalCanonical())}
}

// assertForkMatchesFresh byte-compares a forked sweep against the fresh
// reference: merged report, failure output and canonical metrics dump.
func assertForkMatchesFresh(t *testing.T, label string, fresh, fork [3]string) {
	t.Helper()
	for i, what := range []string{"report", "failure output", "canonical metrics"} {
		if fork[i] != fresh[i] {
			t.Fatalf("%s: forked %s differs from fresh build:\n--- fresh\n%s\n--- fork\n%s",
				label, what, fresh[i], fork[i])
		}
	}
}

// TestForkSweepByteIdentical is the fork path's acceptance gate: a
// 64-seed sweep through forked worlds produces the same merged report,
// failure output, and canonical metrics dump — byte for byte — as the
// fresh-build reference (a nil template cache), for both differential
// modes, sequentially and under a worker pool (which also makes this
// the race-detector pass over concurrent Template.Fork calls).
func TestForkSweepByteIdentical(t *testing.T) {
	const seeds = 64
	for _, tc := range []struct {
		mode, replay string
		fresh, fork  func() ObsRunner
	}{
		{"oracle", ReplayOracle, func() ObsRunner { return oracleRunner(nil) }, OracleRunner},
		{"guard", ReplayGuard, func() ObsRunner { return guardRunner(nil) }, GuardRunner},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			fresh := sweepBytes(tc.mode, tc.replay, tc.fresh(), seeds, 1)
			for _, workers := range []int{1, 8} {
				assertForkMatchesFresh(t, tc.mode, fresh, sweepBytes(tc.mode, tc.replay, tc.fork(), seeds, workers))
			}
		})
	}
}

// TestForkOracleSweep512 is the full-size fork gate scripts/ci.sh runs:
// the 512-seed oracle sweep at GOMAXPROCS workers, forked worlds against
// the fresh-build reference.
func TestForkOracleSweep512(t *testing.T) {
	if testing.Short() {
		t.Skip("512-seed gate; TestForkSweepByteIdentical covers short mode")
	}
	const seeds = 512
	fresh := sweepBytes("oracle", ReplayOracle, oracleRunner(nil), seeds, 0)
	assertForkMatchesFresh(t, "oracle", fresh, sweepBytes("oracle", ReplayOracle, OracleRunner(), seeds, 0))
}
