package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"rchdroid/internal/sim"
)

func TestSeriesAddAndQuery(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(sim.Time(10*time.Millisecond), 1)
	s.Add(sim.Time(20*time.Millisecond), 5)
	s.Add(sim.Time(30*time.Millisecond), 3)

	if s.Last(0) != 3 {
		t.Fatalf("Last = %v", s.Last(0))
	}
	if got := s.At(sim.Time(25*time.Millisecond), -1); got != 5 {
		t.Fatalf("At(25ms) = %v", got)
	}
	if got := s.At(sim.Time(5*time.Millisecond), -1); got != -1 {
		t.Fatalf("At(5ms) = %v, want default", got)
	}
	if s.Max() != 5 {
		t.Fatalf("Max = %v", s.Max())
	}
}

func TestEmptySeries(t *testing.T) {
	s := &Series{}
	if s.Last(7) != 7 || s.Max() != 0 || s.At(0, 9) != 9 {
		t.Fatal("empty series defaults wrong")
	}
}

func TestRecorderStampsWithClock(t *testing.T) {
	sched := sim.NewScheduler()
	r := NewRecorder(sched)
	r.Record("mem", 10)
	sched.Advance(50 * time.Millisecond)
	r.Record("mem", 20)
	r.Record("cpu", 1)

	mem := r.Series("mem")
	if len(mem.Points) != 2 || mem.Points[1].At != sim.Time(50*time.Millisecond) {
		t.Fatalf("mem points = %v", mem.Points)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "mem" || names[1] != "cpu" {
		t.Fatalf("Names = %v", names)
	}
	if r.Series("missing") != nil {
		t.Fatal("missing series not nil")
	}
}

func TestCPUMeterSingleWindow(t *testing.T) {
	m := NewCPUMeter(10 * time.Millisecond)
	m.OnBusy(sim.Time(2*time.Millisecond), 5*time.Millisecond, "work")
	if got := m.UsageAt(sim.Time(5 * time.Millisecond)); got != 50 {
		t.Fatalf("UsageAt = %v, want 50", got)
	}
	if got := m.UsageAt(sim.Time(15 * time.Millisecond)); got != 0 {
		t.Fatalf("next window = %v, want 0", got)
	}
}

func TestCPUMeterSplitsAcrossWindows(t *testing.T) {
	m := NewCPUMeter(10 * time.Millisecond)
	// Busy from 5ms to 25ms: 5ms in window 0, 10ms in window 1, 5ms in window 2.
	m.OnBusy(sim.Time(5*time.Millisecond), 20*time.Millisecond, "w")
	if m.UsageAt(0) != 50 {
		t.Fatalf("w0 = %v", m.UsageAt(0))
	}
	if m.UsageAt(sim.Time(10*time.Millisecond)) != 100 {
		t.Fatalf("w1 = %v", m.UsageAt(sim.Time(10*time.Millisecond)))
	}
	if m.UsageAt(sim.Time(20*time.Millisecond)) != 50 {
		t.Fatalf("w2 = %v", m.UsageAt(sim.Time(20*time.Millisecond)))
	}
	tr := m.TraceSeries("cpu")
	if len(tr.Points) != 3 {
		t.Fatalf("trace points = %d", len(tr.Points))
	}
}

func TestCPUMeterDefaultWindow(t *testing.T) {
	m := NewCPUMeter(0)
	if m.Window() != 10*time.Millisecond {
		t.Fatalf("default window = %v", m.Window())
	}
}

func TestMemoryMeter(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMemoryMeter(sched, "app")
	m.Set(64 << 20)
	sched.Advance(time.Second)
	m.Adjust(-(32 << 20))
	if m.CurrentBytes() != 32<<20 {
		t.Fatalf("CurrentBytes = %d", m.CurrentBytes())
	}
	if m.CurrentMB() != 32 {
		t.Fatalf("CurrentMB = %v", m.CurrentMB())
	}
	tr := m.TraceSeries()
	if len(tr.Points) != 2 || tr.Points[0].Value != 64 {
		t.Fatalf("trace = %v", tr.Points)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	one := Summarize([]float64{3})
	if one.StdDev != 0 || one.Mean != 3 {
		t.Fatalf("single summary = %+v", one)
	}
	if (Summary{}).RelStdDev() != 0 {
		t.Fatal("RelStdDev of zero mean should be 0")
	}
}

func TestRelStdDev(t *testing.T) {
	s := Summary{Mean: 100, StdDev: 4}
	if s.RelStdDev() != 0.04 {
		t.Fatalf("RelStdDev = %v", s.RelStdDev())
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("extremes wrong")
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

// Property: total busy time recorded by the CPU meter is conserved across
// window splitting.
func TestCPUMeterConservationProperty(t *testing.T) {
	f := func(startMicros uint16, costMicros uint16) bool {
		m := NewCPUMeter(time.Millisecond)
		start := sim.Time(time.Duration(startMicros) * time.Microsecond)
		cost := time.Duration(costMicros) * time.Microsecond
		m.OnBusy(start, cost, "w")
		var total time.Duration
		for _, p := range m.busy {
			slot, d := p.slot, p.busy
			if d < 0 || d > time.Millisecond || slot < 0 {
				return false
			}
			total += d
		}
		return total == cost
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mapCPUMeter is the reference model for CPUMeter: the original
// map-of-windows implementation.
type mapCPUMeter struct {
	window  time.Duration
	busy    map[int64]time.Duration
	maxSlot int64
}

func (c *mapCPUMeter) OnBusy(start sim.Time, cost time.Duration) {
	t := start.Duration()
	for cost > 0 {
		slot := int64(t / c.window)
		slotEnd := time.Duration(slot+1) * c.window
		chunk := cost
		if t+chunk > slotEnd {
			chunk = slotEnd - t
		}
		c.busy[slot] += chunk
		if slot > c.maxSlot {
			c.maxSlot = slot
		}
		t += chunk
		cost -= chunk
	}
}

func (c *mapCPUMeter) UsageAt(t sim.Time) float64 {
	return 100 * float64(c.busy[int64(t.Duration()/c.window)]) / float64(c.window)
}

func (c *mapCPUMeter) TraceSeries(name string) *Series {
	s := &Series{Name: name}
	for slot := int64(0); slot <= c.maxSlot; slot++ {
		s.Add(sim.Time(time.Duration(slot)*c.window), 100*float64(c.busy[slot])/float64(c.window))
	}
	return s
}

// Property: fed the same busy intervals in any order — in time order,
// overlapping, or reaching back before earlier ones — the meter reports
// exactly what the map model does, window by window; so does its Clone.
func TestCPUMeterMatchesMapModelProperty(t *testing.T) {
	type interval struct {
		StartMicros uint16
		CostMicros  uint16
	}
	f := func(ivs []interval) bool {
		const window = time.Millisecond
		m := NewCPUMeter(window)
		ref := &mapCPUMeter{window: window, busy: map[int64]time.Duration{}}
		for _, iv := range ivs {
			start := sim.Time(time.Duration(iv.StartMicros) * time.Microsecond)
			cost := time.Duration(iv.CostMicros) * time.Microsecond
			m.OnBusy(start, cost, "w")
			ref.OnBusy(start, cost)
		}
		for _, meter := range []*CPUMeter{m, m.Clone()} {
			for at := time.Duration(0); at < 70*time.Millisecond; at += window / 2 {
				if meter.UsageAt(sim.Time(at)) != ref.UsageAt(sim.Time(at)) {
					return false
				}
			}
			got, want := meter.TraceSeries("cpu"), ref.TraceSeries("cpu")
			if len(got.Points) != len(want.Points) {
				return false
			}
			for i := range got.Points {
				if got.Points[i] != want.Points[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize bounds — min ≤ mean ≤ max for any non-empty input.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
