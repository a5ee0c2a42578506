package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Batch workload sizing. Workers match a 2-core box; a sweep chunk is
// about half a second there, so a run takes a median over enough
// chunks to shrug off one descheduled chunk.
const (
	batchWorkers  = 2
	sweepChunk    = 1536
	replaySamples = 1000 // the fewest samples that support a p99
	exploreDepth  = 3
	exploreChunk  = 2000
)

// sweepStart maps a workload seed to the first sweep seed: each of a
// million workload seeds owns its own disjoint million-seed range.
func sweepStart(seed uint64) uint64 { return 1 + seed%1_000_000*1_000_000 }

// sweepArgs are the rchsweep arguments of an oracle sweep over n seeds.
func sweepArgs(start uint64, n int, extra ...string) []string {
	return append([]string{"-mode=oracle", fmt.Sprintf("-workers=%d", batchWorkers),
		fmt.Sprintf("-start=%d", start), fmt.Sprintf("-seeds=%d", n)}, extra...)
}

// runSweep measures sweep-oracle end to end through rchsweep.
func runSweep(e *env, r *report) error {
	bin, args := e.path("rchsweep"), sweepArgs
	start := sweepStart(e.seed)

	// Warm up caches and CPU frequency; not counted.
	if _, err := sweepInvoke(r, bin, e.work, args(start+900_000, 256)); err != nil {
		return err
	}

	var rates, cpus, rss []float64
	next := start
	began := time.Now()
	for time.Since(began) < time.Duration(e.seconds)*time.Second || len(rates) < 3 {
		p, err := sweepInvoke(r, bin, e.work, args(next, sweepChunk))
		if err != nil {
			return err
		}
		r.Attempted += sweepChunk
		rates = append(rates, sweepChunk/p.Wall.Seconds())
		cpus = append(cpus, float64(p.CPU)/float64(time.Microsecond)/sweepChunk)
		rss = append(rss, float64(p.MaxRSS)/(1<<20))
		next += sweepChunk
	}

	// One-seed invocations: the command a failing seed's replay line
	// asks a developer to run.
	rng := rand.New(rand.NewSource(int64(e.seed)))
	var lat []time.Duration
	for i := 0; i < replaySamples; i++ {
		s := start + 500_000 + uint64(rng.Intn(400_000))
		p, err := sweepInvoke(r, bin, e.work, args(s, 1))
		if err != nil {
			return err
		}
		r.Attempted++
		lat = append(lat, p.Wall)
	}

	r.check("sweep exits 0", true, "%d chunks of %d seeds from %d, %d one-seed replays", len(rates), sweepChunk, start, replaySamples)
	recordBatch(r, "seeds_per_s", median(rates), median(cpus), median(rss), lat)
	r.info("sweep.chunks", "count", float64(len(rates)))
	return nil
}

// sweepInvoke runs rchsweep once and gates on its exit status.
func sweepInvoke(r *report, bin, dir string, args []string) (procRun, error) {
	p, err := runProc(dir, bin, args...)
	if err != nil {
		return p, err
	}
	if p.Code != 0 {
		r.Failed++
		return p, fmt.Errorf("rchsweep %s exited %d: %s", strings.Join(args, " "), p.Code, tail(p.Stdout, p.Stderr))
	}
	return p, nil
}

// recordBatch stores the metrics of a batch workload. Set-up time is
// the median one-op invocation: start-up and any lazy initialisation
// are most of it, so work moved into either shows.
func recordBatch(r *report, rateName string, rate, cpuUS, rssMB float64, oneOp []time.Duration) {
	lat := summarize(ms(oneOp))
	r.metric("ops_per_s", "1/s", rate)
	r.metric("cpu_us_per_op", "us", cpuUS)
	r.metric("max_rss_mb", "MB", rssMB)
	r.metric("setup_s", "s", lat.P50/1000)
	r.info(rateName, "1/s", rate)
	r.info("replay_p50_ms", "ms", lat.P50)
	r.info("replay_p90_ms", "ms", lat.P90)
	r.info("replay_p99_ms", "ms", lat.P99)
	r.info("replay_samples", "count", float64(lat.N))
}

// scenarioSpace is one corpus scenario and its schedule-space size at
// the benchmark depth.
type scenarioSpace struct {
	name string
	size int
}

// listCorpus asks rchexplore for the corpus and each space size.
func listCorpus(bin, dir string) ([]scenarioSpace, error) {
	p, err := runProc(dir, bin, "-list", fmt.Sprintf("-depth=%d", exploreDepth))
	if err != nil {
		return nil, err
	}
	if p.Code != 0 {
		return nil, fmt.Errorf("rchexplore -list exited %d: %s", p.Code, tail(p.Stdout, p.Stderr))
	}
	var out []scenarioSpace
	sc := bufio.NewScanner(bytes.NewReader(p.Stdout))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 5 {
			continue
		}
		for _, f := range fields[1:] {
			if v, ok := strings.CutPrefix(f, "space="); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("rchexplore -list: bad space %q", f)
				}
				out = append(out, scenarioSpace{fields[0], n})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rchexplore -list printed no scenarios")
	}
	return out, nil
}

// runExplore measures explore-depth3 end to end through rchexplore.
// Scenarios are explored exhaustively, one after another, in resumable
// chunks of exploreChunk schedules (-chunk with a -checkpoint frontier,
// the way a large space is split across CI jobs), until the run time
// is spent and the whole corpus has been explored at least once. The
// rate prices the whole corpus at each scenario's measured time per
// schedule; peak RSS is the median over chunk invocations, since one
// invocation's peak depends on when its collector happened to run.
func runExplore(e *env, r *report) error {
	bin := e.path("rchexplore")
	corpus, err := listCorpus(bin, e.work)
	if err != nil {
		return err
	}
	// Warm-up, not counted: one chunk of the first scenario.
	frontier := filepath.Join(e.work, "explore.frontier.json")
	os.Remove(frontier)
	if _, err := exploreInvoke(r, bin, e.work, corpus[0].name, "-chunk=500", "-checkpoint="+frontier); err != nil {
		return err
	}

	wall := make([]float64, len(corpus))
	cpu := make([]float64, len(corpus))
	done := make([]int, len(corpus))
	var rss []float64
	began := time.Now()
	first := int(e.seed % uint64(len(corpus)))
	for pass := 0; pass == 0 || time.Since(began) < time.Duration(e.seconds)*time.Second; pass++ {
		for i := range corpus {
			k := (first + i) % len(corpus)
			if pass > 0 && time.Since(began) >= time.Duration(e.seconds)*time.Second {
				break
			}
			os.Remove(frontier)
			for left := corpus[k].size; left > 0; left -= exploreChunk {
				p, err := exploreInvoke(r, bin, e.work, corpus[k].name,
					fmt.Sprintf("-chunk=%d", exploreChunk), "-checkpoint="+frontier)
				if err != nil {
					return err
				}
				n := min(left, exploreChunk)
				r.Attempted += int64(n)
				done[k] += n
				wall[k] += p.Wall.Seconds()
				cpu[k] += float64(p.CPU) / float64(time.Microsecond)
				rss = append(rss, float64(p.MaxRSS)/(1<<20))
			}
		}
	}
	os.Remove(frontier)
	var total int
	var corpusWall, corpusCPU float64
	for k, s := range corpus {
		total += s.size
		corpusWall += wall[k] / float64(done[k]) * float64(s.size)
		corpusCPU += cpu[k] / float64(done[k]) * float64(s.size)
		r.info("explore."+s.name+"_schedules_per_s", "1/s", float64(done[k])/wall[k])
	}

	// One-schedule invocations, uniform over the corpus.
	rng := rand.New(rand.NewSource(int64(e.seed)))
	var lat []time.Duration
	for i := 0; i < replaySamples; i++ {
		k := rng.Intn(total)
		sc := corpus[0]
		for _, s := range corpus {
			if k < s.size {
				sc = s
				break
			}
			k -= s.size
		}
		p, err := runProc(e.work, bin, "-scenario="+sc.name, fmt.Sprintf("-depth=%d", exploreDepth), fmt.Sprintf("-schedule=%d", k))
		if err != nil {
			return err
		}
		r.Attempted++
		if p.Code != 0 || !bytes.Contains(p.Stdout, []byte("PASS")) {
			r.Failed++
			return fmt.Errorf("rchexplore -scenario=%s -schedule=%d exited %d: %s", sc.name, k, p.Code, tail(p.Stdout, p.Stderr))
		}
		lat = append(lat, p.Wall)
	}

	r.check("explore exits 0", true, "%d scenarios, %d schedules per pass, %d chunks, %d one-schedule replays", len(corpus), total, len(rss), replaySamples)
	recordBatch(r, "schedules_per_s", float64(total)/corpusWall, corpusCPU/float64(total), median(rss), lat)
	return nil
}

// exploreInvoke explores one scenario, or the next chunk of it, and
// gates on the exit status.
func exploreInvoke(r *report, bin, dir, scenario string, extra ...string) (procRun, error) {
	args := append([]string{"-scenario=" + scenario, fmt.Sprintf("-depth=%d", exploreDepth),
		fmt.Sprintf("-workers=%d", batchWorkers)}, extra...)
	p, err := runProc(dir, bin, args...)
	if err != nil {
		return p, err
	}
	if p.Code != 0 {
		r.Failed++
		return p, fmt.Errorf("rchexplore %s exited %d: %s", strings.Join(args, " "), p.Code, tail(p.Stdout, p.Stderr))
	}
	return p, nil
}

// tail returns the last lines of a failed command's output.
func tail(stdout, stderr []byte) string {
	s := strings.TrimSpace(string(stdout) + "\n" + string(stderr))
	lines := strings.Split(s, "\n")
	if len(lines) > 6 {
		lines = lines[len(lines)-6:]
	}
	return strings.Join(lines, " | ")
}
