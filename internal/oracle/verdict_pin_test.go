package oracle_test

import (
	"testing"

	"rchdroid/internal/chaos"
	"rchdroid/internal/oracle"
)

// TestVerdictTextPinned pins the literal text of failing verdicts. The
// byte-identity gates only run green sweeps, so they never render a
// judge failure; these rows freeze the failure wording and order of
// each judge clause family the oracle prints.
func TestVerdictTextPinned(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
		inst oracle.Installer
		opts chaos.Options
		want string
	}{
		{
			// TestOracleHasTeeth's first failing seed: full-state loss and
			// the essence divergence.
			name: "lossy-mutant",
			seed: 1,
			inst: lossyInstaller(),
			opts: chaos.Light(),
			want: "seed=1 stock[crashed=false applied=8 handlings=6] rch[crashed=false applied=8 handlings=6 inj=7]\n  FAIL: RCHDroid-lossy lost user state: actual {Text: Cursor:0 Checked:false Seek:19 SelRow:1 Counter:0}, expected {Text:s8.s9. Cursor:6 Checked:false Seek:19 SelRow:1 Counter:0}\n  FAIL: essence diverged:\n    Android-10: {app:private={counter=0}, view:11={cursor=9, text=\"s2.s8.s9.\"}, view:12={checked=false}} tree: CheckBox×1 DecorView×1 EditText×1 ImageView×1 LinearLayout×1 ListView×1 SeekBar×1\n    RCHDroid-lossy: {app:private={counter=0}, view:11={cursor=0, text=\"\"}, view:12={checked=false}} tree: CheckBox×1 DecorView×1 EditText×1 ImageView×1 LinearLayout×1 ListView×1 SeekBar×1",
		},
		{
			// A guard-off seed under the Guarded preset (from
			// TestGuardSavesRawFailures): state loss, an unexcused handling
			// violation and the essence divergence, in judge order.
			name: "guard-off-raw",
			seed: 13,
			inst: rchInstaller(),
			opts: chaos.Guarded(),
			want: "seed=13 stock[crashed=false applied=5 handlings=3] rch[crashed=false applied=5 handlings=3 inj=3]\n  FAIL: RCHDroid lost user state: actual {Text:s8. Cursor:3 Checked:false Seek:0 SelRow:-1 Counter:0}, expected {Text:s8. Cursor:3 Checked:false Seek:45 SelRow:0 Counter:0}\n  FAIL: RCHDroid: handling 2 took 1.065122s, want (0, 1s]\n  FAIL: essence diverged:\n    Android-10: {app:private={counter=0}, view:11={cursor=6, text=\"s3.s8.\"}, view:12={checked=false}} tree: CheckBox×1 DecorView×1 EditText×1 ImageView×6 LinearLayout×1 ListView×1 SeekBar×1\n    RCHDroid: {app:private={counter=0}, view:11={cursor=3, text=\"s8.\"}, view:12={checked=false}} tree: CheckBox×1 DecorView×1 EditText×1 ImageView×6 LinearLayout×1 ListView×1 SeekBar×1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := oracle.DifferentialWith(tc.seed, tc.inst, tc.opts, nil)
			if got := v.String(); got != tc.want {
				t.Fatalf("verdict text drifted:\n got: %q\nwant: %q", got, tc.want)
			}
		})
	}
}
