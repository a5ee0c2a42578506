package explore

import (
	"testing"

	"rchdroid/internal/chaos"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
)

// TestVerdictTextPinned pins the literal text of failing verdicts on
// both judges the explorer relies on. The byte-identity gates only run
// green explorations, so they never render a failure; these rows freeze
// the failure wording and order.
func TestVerdictTextPinned(t *testing.T) {
	schedule := func(t *testing.T, name string, depth int, sched string, inst oracle.Installer) string {
		t.Helper()
		sc, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("corpus lost %s", name)
		}
		sp := SpaceFor(&sc, depth)
		parsed, err := sp.ParseSchedule(sched)
		if err != nil {
			t.Fatalf("schedule %s: %v", sched, err)
		}
		idx, ok := sp.IndexOf(parsed)
		if !ok {
			t.Fatalf("schedule %s not in the depth-%d space", sched, depth)
		}
		v := RunSchedule(&sc, sp, idx, inst, nil)
		return v.String()
	}
	cases := []struct {
		name string
		run  func(t *testing.T) string
		want string
	}{
		{
			// Stock on both sides (TestClassifierHasTeeth): per-bucket
			// losses with the stock-loss tally.
			name: "stock-as-rch/double-rotation",
			run: func(t *testing.T) string {
				return schedule(t, "double-rotation", 0, "[]", oracle.Installer{Name: "Android-10-as-RCH"})
			},
			want: "idx=0 sched=[] stock[crashed=false loss=4] rch[crashed=false applied=7 handlings=1 inj=0] stockLoss{view/saved=0 view/unsaved=3 nonview/saved=0 nonview/unsaved=1}\n  FAIL: Android-10-as-RCH lost user state: Editor.row [view/unsaved]: want \"2\", got \"-1\"\n  FAIL: Android-10-as-RCH lost user state: Editor.status [view/unsaved]: want \"editing\", got \"idle\"\n  FAIL: Android-10-as-RCH lost user state: Editor.volume [view/unsaved]: want \"40\", got \"0\"",
		},
		{
			// The flip-pinning ablation on its race schedule: a missing
			// foreground at the end of the scenario.
			name: "nopin/theme-switch",
			run: func(t *testing.T) string {
				return schedule(t, "theme-switch", 2, raceSchedule, flipPinningAblatedInstaller())
			},
			want: "idx=450 sched=[e3:config e5:config] stock[crashed=false loss=1] rch[crashed=false applied=6 handlings=1 inj=2] stockLoss{view/saved=0 view/unsaved=0 nonview/saved=0 nonview/unsaved=1}\n  FAIL: RCHDroid-nopin: no foreground activity at end of scenario",
		},
		{
			// The supersession ablation on its chaos reproduction: a
			// guarded verdict with its supervision summary.
			name: "nosupersede/seed889",
			run: func(t *testing.T) string {
				v := oracle.DifferentialWith(regressionSeed, supersessionAblatedInstaller(), chaos.Guarded(), nil)
				return v.String()
			},
			want: "seed=889 stock[crashed=false applied=6 handlings=8] rch[crashed=false applied=6 handlings=8 inj=14] guard[anrs=2 retries=0 xferFail=0 quarantines=2 recoveries=2 breaker=0]\n  FAIL: RCHDroid-guarded-nosupersede invariant: step 5 (burst): 2 visible activities system-wide, want ≤ 1\n  FAIL: essence diverged:\n    Android-10: {app:private={counter=1}, view:11={cursor=6, text=\"s2.s7.\"}, view:12={checked=true}} tree: CheckBox×1 DecorView×1 EditText×1 ImageView×4 LinearLayout×1 ListView×1 SeekBar×1\n    RCHDroid-guarded-nosupersede: {app:private={counter=0}, view:11={cursor=3, text=\"s7.\"}, view:12={checked=true}} tree: CheckBox×1 DecorView×1 EditText×1 ImageView×4 LinearLayout×1 ListView×1 SeekBar×1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Fatalf("verdict text drifted:\n got: %q\nwant: %q", got, tc.want)
			}
		})
	}
}
