package serve

import (
	"testing"
	"time"
)

// TestGuardDeltasCountedOnce: the shard mirrors a session guard's tally
// into the serve_guard_* counters by delta, so a quarantine forced
// before two drives is counted exactly once, not once per drive.
func TestGuardDeltasCountedOnce(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Drain(5 * time.Second)

	if r := submit(s, Request{Op: OpBoot, Device: "g", Handler: HandlerGuarded, Seed: 5}); !r.OK {
		t.Fatalf("guarded boot: %+v", r)
	}
	// The boot reply happens after the shard stored the session, and the
	// next Submit happens before the shard touches it again, so the idle
	// session may be read and quarantined from here.
	sh := s.route(Request{Device: "g"})
	sess := sh.sessions["g"]
	if sess == nil || sess.rch == nil || sess.rch.Guard == nil {
		t.Fatal("guarded session has no guard")
	}
	fg := sess.world.Proc.Thread().ForegroundActivity()
	if fg == nil {
		t.Fatal("guarded session has no foreground activity")
	}
	sess.rch.Guard.Quarantine(fg.Class().Name, "test: forced")

	for i := 0; i < 2; i++ {
		if r := submit(s, Request{Op: OpDrive, Device: "g", Kind: KindRotate}); !r.OK {
			t.Fatalf("drive %d: %+v", i, r)
		}
	}
	got := sh.reg.CounterValue("serve_guard_quarantines_total")
	if got != 1 {
		t.Fatalf("serve_guard_quarantines_total = %d, want 1 (one forced quarantine)", got)
	}
	if want := sess.rch.Guard.Summary().Quarantines; got != int64(want) {
		t.Fatalf("serve_guard_quarantines_total = %d, guard tally %d", got, want)
	}
}
