package core

import (
	"rchdroid/internal/atms"
	"rchdroid/internal/config"
	"rchdroid/internal/trace"
)

// CoinFlipPolicy is RCHDroid's ATMS side (§3.4): on a sunny start request
// it searches the task stack for a still-alive shadow record. If one
// matches the new configuration it is reordered to the top and its state
// flipped with the requester's; otherwise a second record for the same
// activity is created — the modification that relaxes the stock
// "same-activity start creates nothing" rule.
//
// Each of the three outcomes below (cancel, flip, create) is the one
// emit site of its decision: it counts it and, only for an enabled
// tracer, builds the coinFlip instant's arguments.
type CoinFlipPolicy struct {
	// sum holds the Coin* fields of the Summary; the policy is shared by
	// every process on its server, so RCHDroid.Summary reads them here.
	sum Summary
}

// HandleSunnyStart implements atms.StarterPolicy.
func (p *CoinFlipPolicy) HandleSunnyStart(a *atms.ATMS, task *atms.TaskRecord, from *atms.ActivityRecord, newCfg config.Configuration) {
	p.sum.CoinSearches++
	shadowRec := task.FindShadow()
	model := a.Model()

	if top := topNonShadowOf(task); top != nil && top != from {
		// The requester was covered by another activity start while its
		// sunny request was in flight. Granting it would push the
		// replacement over the activity the user just navigated to and
		// invert the back stack (back would then finish the wrong
		// activity), so the start is cancelled; the app side demotes the
		// waiting shadow back to a stopped live instance.
		p.sum.CoinCancels++
		if tr := a.Tracer(); tr.Enabled() {
			tr.Instant(a.Track(), "coinFlip", "rch",
				trace.Arg{Key: "decision", Val: "cancel"},
				trace.Arg{Key: "reason", Val: "covered"})
		}
		a.ChargeServer(model.ATMSStackSearch)
		a.RunOnServer("sunnyCancelReply", 0, func() {
			a.Bus().Transact(from.Proc.Endpoint(), "cancelSunny", 64, 0, func() {
				from.Proc.Thread().ScheduleSunnyCancel(from.Token)
			})
		})
		return
	}

	if shadowRec != nil && shadowRec.Config.Equal(newCfg) {
		// Coin flip: reorder the shadow record to the top, clear its
		// shadow state, and push the requester into the shadow state.
		p.sum.CoinFlips++
		if tr := a.Tracer(); tr.Enabled() {
			tr.Instant(a.Track(), "coinFlip", "rch",
				trace.Arg{Key: "decision", Val: "flip"},
				trace.Arg{Key: "shadowConfig", Val: shadowRec.Config.String()},
				trace.Arg{Key: "newConfig", Val: newCfg.String()})
		}
		task.MoveToTop(shadowRec)
		shadowRec.SetShadow(false)
		from.SetShadow(true)
		// Charge the stack search, then answer in a follow-up server
		// message so the charge delays the reply.
		a.ChargeServer(model.ATMSStackSearch)
		a.RunOnServer("flipReply", 0, func() {
			a.Bus().Transact(shadowRec.Proc.Endpoint(), "scheduleFlip", 128, 0, func() {
				shadowRec.Proc.Thread().ScheduleFlip(shadowRec.Token, newCfg)
			})
		})
		return
	}

	// First-time change (or stale/missing shadow): create a second record
	// for the same activity class and mark the requester shadow.
	p.sum.CoinCreates++
	if tr := a.Tracer(); tr.Enabled() {
		reason := "noShadow"
		if shadowRec != nil {
			reason = "staleShadow"
		}
		tr.Instant(a.Track(), "coinFlip", "rch",
			trace.Arg{Key: "decision", Val: "create"},
			trace.Arg{Key: "reason", Val: reason},
			trace.Arg{Key: "newConfig", Val: newCfg.String()})
	}
	a.ChargeServer(model.ATMSStackSearch)
	rec := a.Starter().CreateRecord(from.Class, from.Proc, task)
	from.SetShadow(true)
	a.RunOnServer("sunnyLaunchReply", 0, func() {
		a.Bus().Transact(from.Proc.Endpoint(), "scheduleSunnyLaunch", 256, 0, func() {
			from.Proc.Thread().ScheduleSunnyLaunch(rec.Class, rec.Token, newCfg)
		})
	})
}

// topNonShadowOf returns the topmost record that is not shadow-flagged —
// the activity the user actually sees.
func topNonShadowOf(task *atms.TaskRecord) *atms.ActivityRecord {
	rs := task.Records()
	for i := len(rs) - 1; i >= 0; i-- {
		if !rs[i].Shadow() {
			return rs[i]
		}
	}
	return nil
}

// alwaysCreatePolicy is the coin-flip ablation: every sunny start creates
// a fresh record, so every runtime change pays the RCHDroid-init cost.
type alwaysCreatePolicy struct{}

// HandleSunnyStart implements atms.StarterPolicy.
func (alwaysCreatePolicy) HandleSunnyStart(a *atms.ATMS, task *atms.TaskRecord, from *atms.ActivityRecord, newCfg config.Configuration) {
	a.ChargeServer(a.Model().ATMSStackSearch)
	rec := a.Starter().CreateRecord(from.Class, from.Proc, task)
	from.SetShadow(true)
	a.RunOnServer("sunnyLaunchReply", 0, func() {
		a.Bus().Transact(from.Proc.Endpoint(), "scheduleSunnyLaunch", 256, 0, func() {
			from.Proc.Thread().ScheduleSunnyLaunch(rec.Class, rec.Token, newCfg)
		})
	})
}
