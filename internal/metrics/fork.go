package metrics

import "rchdroid/internal/sim"

// Clone returns an independent meter with the same window and accumulated
// busy slots. Used by the device fork facility so a forked process's CPU
// accounting continues exactly where the template's stopped.
func (c *CPUMeter) Clone() *CPUMeter {
	return &CPUMeter{window: c.window, busy: append([]slotBusy(nil), c.busy...)}
}

// Clone returns an independent meter stamping future samples with sched's
// clock, carrying over the current level and recorded series.
func (m *MemoryMeter) Clone(sched *sim.Scheduler) *MemoryMeter {
	out := &MemoryMeter{sched: sched, current: m.current}
	out.series.Name = m.series.Name
	out.series.Points = make([]Point, len(m.series.Points))
	copy(out.series.Points, m.series.Points)
	return out
}
