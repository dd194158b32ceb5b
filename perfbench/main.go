// Command perfbench is the repository benchmark. It generates one seeded
// dataset — the workload — and drives it through gompresso's public API
// in a single process, in three phases: scan (full sequential decode),
// ingest (compression) and serve (open-loop ranged GETs against an
// in-process server). It prints every metric by name with its unit, then
// one JSON result line:
//
//	perfbench --workload wiki|matrix --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, timed with no
// instrumentation in the measured path. With --trace 1 it runs the same
// inputs again through the benchmark's own spans around each layer's
// public functions and reports the per-layer metrics instead. README.md
// in this directory defines every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"gompresso/internal/datagen"
)

// workloads maps each workload name to the generator of its dataset: the
// paper's two inputs, Wikipedia XML text and a Matrix Market graph.
var workloads = map[string]func(n int, seed uint64) []byte{
	"wiki":   datagen.WikiXML,
	"matrix": datagen.MatrixMarket,
}

// The measured window is split over a run's phases in these shares.
const (
	scanShare   = 0.25
	ingestShare = 0.25
	serveShare  = 0.5
)

// config sizes every phase. defaultConfig is the benchmark; tests use
// tinyConfig so every workload runs in seconds.
type config struct {
	DataBytes   int // bytes of the workload's dataset
	IngestSlice int // bytes per timed ingest pass

	Objects    int   // serve corpus objects, cut from the dataset
	MinObject  int64 // serve object size range (decompressed bytes)
	MaxObject  int64
	CacheBytes int64         // serve decoded-block cache budget
	RPS        float64       // serve fixed arrival rate
	Warmup     time.Duration // traffic sent in set-up, after the server starts

	Segments      int // popularity rankings each serve window is split over
	SegmentWarmup int // untimed requests that open each segment

	LadderSteps  int     // capacity ladder rungs above RPS
	MaxProbes    int     // ladder probes per run, rung 0 included
	ProbeSeconds float64 // timed seconds per ladder probe

	SetupReps int // set-ups per run; setup_s is their median
	MinRounds int // minimum measured rounds per throughput phase

	Workdir string // scratch space for the serve corpus and span files
}

func defaultConfig() config {
	return config{
		DataBytes:     32 << 20,
		IngestSlice:   2 << 20,
		Objects:       48,
		MinObject:     512 << 10,
		MaxObject:     2 << 20,
		CacheBytes:    16 << 20,
		RPS:           200,
		Warmup:        time.Second,
		Segments:      32,
		SegmentWarmup: 15,
		LadderSteps:   60,
		MaxProbes:     9,
		ProbeSeconds:  2.5,
		SetupReps:     3,
		MinRounds:     2,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome: operations attempted and failed,
// and the metrics in the order they were added.
type report struct {
	attempted, failed int64
	names             []string
	metrics           map[string]metric
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one operation; ok is false when it errored or its output
// did not match the oracle.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failFrac is failed operations over attempted ones.
func (r *report) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable table and then the JSON result line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "%-34s %14.6g %s\n", "fail_frac", r.failFrac(), "1")
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// bench is one run's set-up: the dataset in its stored forms and the
// server over a corpus cut from it.
type bench struct {
	d   *dataset
	srv *serveEnv
}

// setup generates workload's dataset, then stores it and starts the
// server side by side. With a tracer, the server records spans into it.
func setup(ctx context.Context, cfg config, workload string, seed uint64, tr *tracer) (*bench, error) {
	b := &bench{d: generate(cfg, workload, seed)}
	err := parallelDo(b.d.store, func() (err error) {
		b.srv, err = setupServe(ctx, cfg, b.d.raw, seed, tr)
		return err
	})
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) close() {
	if b.srv != nil {
		b.srv.close()
	}
}

// run measures every end-to-end metric: cfg.SetupReps set-ups, then the
// scan, ingest and serve phases in turn over their shares of dur.
func run(ctx context.Context, cfg config, workload string, seed uint64, dur time.Duration) (*report, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	b, setupS, err := timedSetups(cfg.SetupReps,
		func() (*bench, error) { return setup(ctx, cfg, workload, seed, nil) }, (*bench).close)
	if err != nil {
		return nil, err
	}
	defer b.close()
	// Each phase starts from a collected heap (timedSetups ends with a
	// collection), so the garbage one phase leaves, such as the 13 bytes
	// per byte ingest allocates, is not collected on the next one's time.
	rep := newReport()
	if err := runScan(ctx, rep, ref, cfg, b.d, share(dur, scanShare)); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := runIngest(ctx, rep, ref, cfg, b.d, share(dur, ingestShare)); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := runServe(ctx, rep, ref, cfg, b.srv, seed, share(dur, serveShare)); err != nil {
		return nil, err
	}
	scale := ref.scale(0)
	rep.add("setup_s", setupS/scale, "s")
	rep.note("setup: median of %d set-ups; run's reference %.4f GB/s, scale %.4f; as measured: setup_s %.4f",
		cfg.SetupReps, refGBps/scale, scale, setupS)
	return rep, nil
}

// trace measures every per-layer metric: one traced set-up, then the
// traced scan, ingest and serve phases, and writes the spans under
// cfg.Workdir.
func trace(ctx context.Context, cfg config, workload string, seed uint64, dur time.Duration) (*report, error) {
	tr := newTracer()
	b, err := setup(ctx, cfg, workload, seed, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep := newReport()
	if err := traceScan(ctx, rep, tr, cfg, b.d, share(dur, scanShare)); err != nil {
		return nil, err
	}
	if err := traceIngest(ctx, rep, tr, cfg, b.d, share(dur, ingestShare)); err != nil {
		return nil, err
	}
	if err := traceServe(ctx, rep, cfg, b.srv, seed, share(dur, serveShare)); err != nil {
		return nil, err
	}
	if path, err := tr.write(cfg.Workdir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)); err == nil {
		rep.note("spans: %s", path)
	}
	return rep, nil
}

func share(dur time.Duration, f float64) time.Duration {
	return time.Duration(float64(dur) * f)
}

func main() {
	workload := flag.String("workload", "", "workload to run: wiki or matrix")
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from the traced run")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for generated files")
	flag.Parse()

	_, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	procs := limitProcs()
	cfg := defaultConfig()
	cfg.Workdir = *workdir

	env := environment(procs)
	env["workload"], env["seed"], env["seconds"], env["trace"] = *workload, *seed, *seconds, *traced
	line, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", line)

	measure := run
	if *traced == 1 {
		measure = trace
	}
	sw := watchSteal()
	rep, err := measure(context.Background(), cfg, *workload, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rep.note("cpu: the host stole %.1f%% of the time the CPUs had work during the run", 100*sw.share())
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed\n", *workload, rep.failed, rep.attempted)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// limitProcs caps GOMAXPROCS at the CPUs this process may run on and
// returns the result, which is also every workload's "nproc" worker count.
func limitProcs() int {
	n := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) < n {
		n = runtime.GOMAXPROCS(0)
	}
	runtime.GOMAXPROCS(n)
	return n
}

// nproc is the worker count of the parallel passes.
func nproc() int { return runtime.GOMAXPROCS(0) }

// timedSetups runs setup reps times and returns the last environment and
// the median set-up time in seconds. Earlier environments are released
// before the next set-up starts, so only one is resident at a time.
func timedSetups[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var env T
	var times []float64
	for i := 0; i < max(reps, 1); i++ {
		if i > 0 {
			release(env)
			var zero T
			env = zero
			runtime.GC()
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	runtime.GC()
	return env, median(times), nil
}

// allocMeter measures heap bytes allocated between start and stop.
type allocMeter struct{ before uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{before: ms.TotalAlloc}
}

func (a allocMeter) bytes() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc - a.before)
}

// parallelDo runs fns concurrently and returns the first error.
func parallelDo(fns ...func() error) error {
	errs := make([]error, len(fns))
	done := make(chan struct{})
	for i, fn := range fns {
		go func() {
			defer func() { done <- struct{}{} }()
			errs[i] = fn()
		}()
	}
	for range fns {
		<-done
	}
	return errors.Join(errs...)
}
