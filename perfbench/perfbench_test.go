package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"gompresso/internal/loadgen"
)

// tinyConfig shrinks every phase so a run takes about a second.
func tinyConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.DataBytes = 256 << 10
	cfg.IngestSlice = 64 << 10
	cfg.Objects = 6
	cfg.MinObject = 32 << 10
	cfg.MaxObject = 128 << 10
	cfg.CacheBytes = 128 << 10
	cfg.RPS = 100
	cfg.Warmup = 300 * time.Millisecond
	cfg.Segments = 2
	cfg.SegmentWarmup = 10
	cfg.LadderSteps = 8
	cfg.MaxProbes = 3
	cfg.ProbeSeconds = 0.3
	cfg.SetupReps = 2
	cfg.MinRounds = 2
	cfg.Workdir = t.TempDir()
	return cfg
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99.9}, {10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95},
		{200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && float64(c.n)*(100-got)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// queueModel is a synthetic latency source: an M/M/1 queue served at mu
// requests per second, whose p99 sojourn time is ln(100)/(mu−λ).
func queueModel(mu float64) func(rps float64) probe {
	return func(rps float64) probe {
		p := probe{rps: rps, offered: 1000, completed: 1}
		if rps >= mu {
			p.p99Ms, p.completed, p.driftMs = math.Inf(1), 0.9, 1000
			return p
		}
		p.p99Ms = math.Log(100) / (mu - rps) * 1000
		return p
	}
}

func TestCapacityLadder(t *testing.T) {
	crit := criteria{limitMs: 50, minCompleted: 0.98}
	rungs := ladder(200, 1.04, 60)
	for i := 1; i < len(rungs); i++ {
		if step := rungs[i]/rungs[i-1] - 1; step > 0.08+1e-12 {
			t.Fatalf("ladder step %d is %.3f apart, more than 8%%", i, step)
		}
	}
	for _, mu := range []float64{250, 400, 734.5, 1100, 5000} {
		source := queueModel(mu)
		// The answer by exhaustive scan: the highest passing rung.
		want := 0.0
		for _, r := range rungs {
			if crit.pass(source(r)) {
				want = r
			}
		}
		probed := 0
		got, probes := capacity(rungs, crit, 10, func(r float64) probe { probed++; return source(r) })
		if got != want {
			t.Errorf("mu=%g: capacity %g, want %g", mu, got, want)
		}
		if probed > 10 || len(probes) != probed {
			t.Errorf("mu=%g: %d probes made, %d reported, budget 10", mu, probed, len(probes))
		}

		// One spurious failure per rung does not move the answer.
		seen := map[float64]bool{}
		flaky := func(r float64) probe {
			if !seen[r] {
				seen[r] = true
				return probe{rps: r, offered: 1000, p99Ms: 1e3, completed: 1}
			}
			return source(r)
		}
		if got, _ := capacity(rungs, crit, 22, flaky); got != want {
			t.Errorf("mu=%g: capacity with one spurious failure per rung %g, want %g", mu, got, want)
		}
	}

	// Failing the first rung twice ends the search at 0 without probing
	// another rung.
	got, probes := capacity(rungs, crit, 10, func(r float64) probe {
		if r != rungs[0] {
			t.Fatalf("probed %g after the first rung failed", r)
		}
		return queueModel(100)(r)
	})
	if got != 0 || len(probes) != 2 {
		t.Errorf("capacity below the ladder = %g after %d probes, want 0 after 2", got, len(probes))
	}

	// Each criterion on its own fails a step.
	ok := probe{rps: 300, offered: 1000, p99Ms: 20, completed: 1}
	for name, p := range map[string]probe{
		"p99":       {rps: 300, offered: 1000, p99Ms: 50.1, completed: 1},
		"completed": {rps: 300, offered: 1000, p99Ms: 20, completed: 0.97},
		"backlog":   {rps: 300, offered: 1000, p99Ms: 20, completed: 1, driftMs: 26},
		"empty":     {rps: 300},
	} {
		if crit.pass(p) {
			t.Errorf("%s: step %+v passed", name, p)
		}
	}
	if !crit.pass(ok) {
		t.Errorf("step %+v failed", ok)
	}
}

func TestPhaseProbe(t *testing.T) {
	ms := time.Millisecond
	ph := phase{dur: 1000 * ms}
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * 10 * ms
		lat := 5 * ms
		if i >= 75 {
			lat = 40 * ms // a backlog building over the last quarter
		}
		ph.outs = append(ph.outs, outcome{due: due, sent: due, done: due + lat, ok: i != 10 && i != 50})
	}
	p := window{rps: 100, segs: []phase{ph}}.probe(50)
	if p.offered != 100 || p.completed != 0.98 {
		t.Errorf("offered %d completed %g, want 100 and 0.98", p.offered, p.completed)
	}
	if p.p99Ms < float64(requestTimeout/ms) {
		t.Errorf("p99 %g ms does not count the failed request as late", p.p99Ms)
	}
	if p.driftMs != 35 {
		t.Errorf("drift %g ms, want 35", p.driftMs)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return b
}

// TestTinyRuns runs every workload, untraced and traced, at a tiny size
// under two seeds. Every operation must succeed, every metric must be
// finite, every end-to-end metric positive, and each run must report
// exactly the metrics BENCHMARK.json declares for its mode.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	declared := map[bool]map[string]string{false: {}, true: {}} // by traced: name → unit
	for _, m := range bf.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
	}
	for _, seed := range []uint64{1, 2} {
		for _, name := range workloadNames() {
			for _, traced := range []bool{false, true} {
				cfg := tinyConfig(t)
				measure := run
				if traced {
					measure = trace
				}
				rep, err := measure(context.Background(), cfg, name, seed, time.Second)
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", name, seed, traced, err)
				}
				if rep.attempted == 0 || rep.failed != 0 {
					t.Errorf("%s seed %d traced=%v: fail_frac %d/%d, want 0 of at least one", name, seed, traced, rep.failed, rep.attempted)
				}
				units := declared[traced]
				for n := range units {
					if _, ok := rep.metrics[n]; !ok {
						t.Errorf("%s traced=%v: BENCHMARK.json declares %s, which the run does not report", name, traced, n)
					}
				}
				for _, n := range rep.names {
					m := rep.metrics[n]
					if u, ok := units[n]; !ok || u != m.Unit {
						t.Errorf("%s traced=%v: metric %s [%s] not declared for this mode in BENCHMARK.json (declared unit %q)", name, traced, n, m.Unit, u)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: metric %s = %g", name, n, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, n, m.Value)
					}
				}
				var out bytes.Buffer
				if err := rep.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
					t.Errorf("%s: last line %q is not a correct result: %v", name, lines[len(lines)-1], err)
				}
			}
		}
	}
}

// TestSeedChangesInputs checks that the seed reaches every input: a
// second seed gives other datasets, other corpus contents and another
// schedule.
func TestSeedChangesInputs(t *testing.T) {
	cfg := tinyConfig(t)
	for _, name := range workloadNames() {
		a, b := generate(cfg, name, 1), generate(cfg, name, 2)
		if bytes.Equal(a.raw, b.raw) {
			t.Errorf("dataset %s is the same under seeds 1 and 2", name)
		}
		if again := generate(cfg, name, 1); !bytes.Equal(again.raw, a.raw) {
			t.Errorf("dataset %s differs between two runs of seed 1", name)
		}
	}
	// One dataset under both seeds: the offsets the objects are cut at
	// must follow the seed too.
	raw := generate(cfg, "wiki", 1).raw
	ca, cb := &serveEnv{dir: t.TempDir()}, &serveEnv{dir: t.TempDir()}
	if err := ca.buildCorpus(cfg, raw, 1); err != nil {
		t.Fatal(err)
	}
	if err := cb.buildCorpus(cfg, raw, 2); err != nil {
		t.Fatal(err)
	}
	for i := range ca.raws {
		if bytes.Equal(ca.raws[i], cb.raws[i]) {
			t.Errorf("corpus object %d is the same under seeds 1 and 2", i)
		}
	}
	oa := ca.objs
	sa, _ := loadgen.NewSchedule(oa, cfg.RPS, zipfS, nil, 1)
	sb, _ := loadgen.NewSchedule(oa, cfg.RPS, zipfS, nil, 2)
	same := true
	for i := 0; i < 20; i++ {
		if sa.Next() != sb.Next() {
			same = false
		}
	}
	if same {
		t.Error("the first 20 requests are the same under seeds 1 and 2")
	}
}

func TestQuietest(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0.2, 0, 0.06, 0.001, 0.5}, []int{1, 2, 3}}, // too few quiet: the least-stolen half
		{[]float64{0, 0.05, 0.002, 0.3}, []int{0, 1, 2}},      // every quiet unit
		{[]float64{0.2}, []int{0}},
		{nil, []int{}},
	} {
		if got := quietest(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("quietest(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestStealLog(t *testing.T) {
	ms := time.Millisecond
	t0 := time.Unix(1000, 0)
	// The counter grows by 2 ticks between the second and third samples:
	// 20 ms stolen, taken at most 20 ms (plus one tick of rounding) before
	// the second sample.
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	close(s.done)
	s.at = []time.Time{t0, t0.Add(10 * ms), t0.Add(20 * ms), t0.Add(30 * ms)}
	s.ticks = []uint64{5, 5, 7, 7}
	l := s.finish()
	if len(l.spans) != 1 {
		t.Fatalf("spans %+v, want one", l.spans)
	}
	sp := l.spans[0]
	if !sp.from.Equal(t0.Add(-20*ms)) || !sp.to.Equal(t0.Add(20*ms)) || sp.stolen != 20*ms {
		t.Errorf("span %v..%v stolen %v, want -20ms..20ms stolen 20ms", sp.from.Sub(t0), sp.to.Sub(t0), sp.stolen)
	}
	for _, c := range []struct {
		from, to time.Duration
		want     float64
	}{
		{-20 * ms, 20 * ms, 0.5}, // the whole span: 20 of 40 ms
		{0, 10 * ms, 0.5},        // a quarter of the span's stolen time over 10 ms
		{20 * ms, 40 * ms, 0},    // after it
		{-60 * ms, -20 * ms, 0},  // before it
		{-60 * ms, 20 * ms, 0.25},
		{5 * ms, 5 * ms, 0}, // empty
	} {
		if got := l.share(t0.Add(c.from), t0.Add(c.to)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("share(%v, %v) = %g, want %g", c.from, c.to, got, c.want)
		}
	}
}

// TestReferenceScale checks that a phase's scale comes from the quiet
// reference samples taken since its mark.
func TestReferenceScale(t *testing.T) {
	r := &reference{
		speed: []float64{9, 0.08, 0.12, 0.01},
		steal: []float64{0, 0, 0.01, 0.5}, // the last sample was stolen from
	}
	if got, want := r.scale(1), refGBps/0.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("scale = %g, want %g", got, want)
	}
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	m := ref.begin()
	ref.tick() // too soon after begin: no sample
	if s := ref.end(m); ref.mark()-m != 2 || !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("begin/tick/end took %d samples, scale %g; want 2 and a finite positive scale", ref.mark()-m, s)
	}
}
