package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gompresso"
	"gompresso/internal/loadgen"
	"gompresso/internal/obs"
	"gompresso/internal/parallel"
	"gompresso/internal/server"
)

// The serve phase's traffic and latency limit.
const (
	zipfS       = 1.1                            // popularity exponent
	rangeMix    = "60:4k-64k,30:64k-1m,10:1m-4m" // loadgen range classes
	limitMs     = 50                             // p99 limit of a capacity rung
	ladderRatio = 1.05                           // capacity rungs are 5% apart
	// requestTimeout bounds one request; a request that exceeds it fails.
	requestTimeout = 10 * time.Second
)

// serveEnv is an in-process server over a generated corpus, with the
// client the load is sent through and the in-memory oracle the bodies
// are checked against.
type serveEnv struct {
	dir    string
	objs   []loadgen.Object
	raws   [][]byte
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
	mix    []loadgen.RangeClass
	inst   *instrument // nil unless traced
}

// setupServe writes the corpus, cut from raw, starts the server on
// loopback, and sends cfg.Warmup of the serve traffic. With a
// tracer, the server's handler and object source record spans into it
// while the instrument is on.
func setupServe(ctx context.Context, cfg config, raw []byte, seed uint64, tr *tracer) (*serveEnv, error) {
	if err := os.MkdirAll(cfg.Workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.Workdir, "serve-corpus-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir}
	if err := e.start(ctx, cfg, raw, seed, tr); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// corpusShapeSeed fixes the corpus's object sizes: every run serves the
// objects loadgen.SpecObjects draws for this spec seed, cut from the
// run's dataset. With 48 log-uniform sizes drawn per seed, a run's
// latency and capacity would hinge on a few sizes and vary by a third
// from seed to seed.
const corpusShapeSeed = 0

// buildCorpus writes the corpus under e.dir: each object is a run of raw
// at an offset drawn from seed, stored the way loadgen.BuildCorpus stores
// its objects — indexed GPZ1 with the Bit variant, DEStrict and 64 KiB
// blocks. The raw runs stay in memory as the oracle. Objects may overlap
// in raw; the server caches each object's blocks on their own.
func (e *serveEnv) buildCorpus(cfg config, raw []byte, seed uint64) error {
	e.objs = loadgen.SpecObjects(loadgen.CorpusSpec{
		Objects: cfg.Objects, MinSize: cfg.MinObject, MaxSize: cfg.MaxObject, Seed: corpusShapeSeed,
	})
	e.raws = make([][]byte, len(e.objs))
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	for i, o := range e.objs {
		if o.Size > int64(len(raw)) {
			return fmt.Errorf("object %s of %d B is larger than the %d B dataset", o.Name, o.Size, len(raw))
		}
		off := rng.Int64N(int64(len(raw)) - o.Size + 1)
		e.raws[i] = raw[off : off+o.Size]
	}
	errs := make([]error, len(e.objs))
	opts := gompresso.Options{Variant: gompresso.VariantBit, DE: gompresso.DEStrict, BlockSize: 64 << 10, Index: true, Workers: 1}
	parallel.For(len(e.objs), nproc(), func(i int) {
		o := e.objs[i]
		comp, _, err := gompresso.Compress(e.raws[i], opts)
		if err == nil {
			err = os.WriteFile(filepath.Join(e.dir, o.Name), comp, 0o644)
		}
		errs[i] = err
	})
	return errors.Join(errs...)
}

func (e *serveEnv) start(ctx context.Context, cfg config, raw []byte, seed uint64, tr *tracer) error {
	err := e.buildCorpus(cfg, raw, seed)
	if err != nil {
		return err
	}
	if e.mix, err = loadgen.ParseRangeMix(rangeMix); err != nil {
		return err
	}

	opts := server.Options{
		Root:       e.dir,
		CacheBytes: cfg.CacheBytes,
		Workers:    nproc(),
		Source:     server.NewDirSource(e.dir),
	}
	if tr != nil {
		e.inst = &instrument{tr: tr}
		opts.Source = tracedSource{opts.Source, e.inst}
	}
	if e.srv, err = server.New(opts); err != nil {
		return err
	}
	h := e.srv.Handler()
	if tr != nil {
		h = e.inst.handler(h)
	}
	e.hs = httptest.NewServer(h)
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = nproc()
	t.MaxIdleConnsPerHost = nproc()
	e.client = &http.Client{Transport: t}

	sched, err := loadgen.NewSchedule(e.objs, cfg.RPS, zipfS, e.mix, segmentSeed(seed, 0))
	if err != nil {
		return err
	}
	if ph := e.run(ctx, sched, cfg.Warmup); ph.failed() > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", ph.failed(), len(ph.outs))
	}
	return nil
}

func (e *serveEnv) close() {
	if e.hs != nil {
		e.hs.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	os.RemoveAll(e.dir)
}

// outcome is one request of a phase; times are since the phase started.
type outcome struct {
	due, sent, done time.Duration
	ok              bool
	bytes           int64
}

// phase is one open-loop run of a schedule: the requests timed over dur,
// those sent before them to warm the cache, and the host's steal share
// during the run (stealWatch.share).
type phase struct {
	start time.Time // the instant times in outs count from
	dur   time.Duration
	outs  []outcome
	warm  []outcome
	steal float64
}

// bytes is the body bytes of the phase's requests, warm and timed.
func (p phase) bytes() int64 {
	var n int64
	for _, outs := range [][]outcome{p.warm, p.outs} {
		for _, o := range outs {
			n += o.bytes
		}
	}
	return n
}

func (p phase) failed() int {
	n := 0
	for _, o := range p.outs {
		if !o.ok {
			n++
		}
	}
	return n
}

// run sends sched's requests due before dur, each at its due time
// whether or not earlier ones have completed, and waits for all of them.
func (e *serveEnv) run(ctx context.Context, sched *loadgen.Schedule, dur time.Duration) phase {
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for ctx.Err() == nil {
		req := sched.Next()
		due := time.Duration(req.At * float64(time.Second))
		if due >= dur {
			break
		}
		if d := time.Until(start.Add(due)); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Since(start)
			ok, n := e.issue(ctx, req)
			o := outcome{due: due, sent: sent, done: time.Since(start), ok: ok, bytes: n}
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return phase{start: start, dur: dur, outs: outs}
}

var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}

// issue sends one scheduled request and reports whether it succeeded with
// the expected status and a body equal to the oracle's bytes.
func (e *serveEnv) issue(ctx context.Context, req loadgen.Request) (bool, int64) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	obj := e.objs[req.Obj]
	want, status := e.raws[req.Obj], http.StatusOK
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, e.hs.URL+"/"+obj.Name, nil)
	if err != nil {
		return false, 0
	}
	if req.Len >= 0 {
		hr.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", req.Off, req.Off+req.Len-1))
		want, status = want[req.Off:req.Off+req.Len], http.StatusPartialContent
	}
	resp, err := e.client.Do(hr)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	n, same := compareBody(resp.Body, want)
	return same && resp.StatusCode == status, n
}

// compareBody reads r to the end and reports the byte count and whether
// the bytes equal want.
func compareBody(r io.Reader, want []byte) (int64, bool) {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	buf := *bp
	var n int64
	same := true
	for {
		k, err := r.Read(buf)
		if k > 0 {
			if n+int64(k) > int64(len(want)) || !bytes.Equal(buf[:k], want[n:n+int64(k)]) {
				same = false
			}
			n += int64(k)
		}
		if errors.Is(err, io.EOF) {
			return n, same && n == int64(len(want))
		}
		if err != nil {
			return n, false
		}
	}
}

// window is one measurement at one rate: the timed part of each of its
// segments.
type window struct {
	rps  float64
	segs []phase
}

// quiet returns the window cut to the segments quietest selects by their
// steal share.
func (w window) quiet() window {
	steal := make([]float64, len(w.segs))
	for i, p := range w.segs {
		steal[i] = p.steal
	}
	q := window{rps: w.rps}
	for _, i := range quietest(steal) {
		q.segs = append(q.segs, w.segs[i])
	}
	return q
}

// bytes is the body bytes of every request the window sent, the
// cache-priming ones included.
func (w window) bytes() int64 {
	var n int64
	for _, p := range w.segs {
		n += p.bytes()
	}
	return n
}

// latenciesMs returns every timed request's open-loop latency in
// milliseconds, clocked from its due time, sorted. A failed request counts
// as at least requestTimeout late, so it misses any latency limit.
func (w window) latenciesMs() []float64 {
	var out []float64
	for _, p := range w.segs {
		for _, o := range p.outs {
			out = append(out, o.latencyMs())
		}
	}
	sort.Float64s(out)
	return out
}

func (o outcome) latencyMs() float64 {
	lat := o.done - o.due
	if !o.ok {
		lat = max(lat, requestTimeout)
	}
	return float64(lat) / 1e6
}

// quietLatenciesMs returns, sorted, the open-loop latencies of the timed
// requests quietest selects by the share of their lifetime, from due to
// done, that the host stole according to l, and the number of timed
// requests they were chosen from.
func (w window) quietLatenciesMs(l stealLog) (lat []float64, all int) {
	var outs []outcome
	var steal []float64
	for _, p := range w.segs {
		for _, o := range p.outs {
			outs = append(outs, o)
			steal = append(steal, l.share(p.start.Add(o.due), p.start.Add(o.done)))
		}
	}
	for _, i := range quietest(steal) {
		lat = append(lat, outs[i].latencyMs())
	}
	sort.Float64s(lat)
	return lat, len(outs)
}

// probe is one capacity-ladder step's verdict inputs.
type probe struct {
	rps       float64
	offered   int
	p99Ms     float64 // open-loop p99, failures counted as late
	completed float64 // share of offered requests done OK within their segment plus the limit
	driftMs   float64 // median over segments of the last quarter's median latency minus the first quarter's
}

// criteria is the latency limit a ladder step must meet.
type criteria struct {
	limitMs      float64 // p99 limit
	minCompleted float64 // completions over offered
}

// pass reports whether p meets the limit: p99 within it, enough
// completions, and no backlog growing across a segment (the median
// latency may not climb by more than half the limit).
func (c criteria) pass(p probe) bool {
	return p.offered > 0 && p.p99Ms <= c.limitMs && p.completed >= c.minCompleted && p.driftMs <= c.limitMs/2
}

func (w window) probe(limitMs float64) probe {
	pr := probe{rps: w.rps}
	var done int
	var drifts []float64
	for _, p := range w.segs {
		deadline := p.dur + time.Duration(limitMs*float64(time.Millisecond))
		var first, last []float64
		for _, o := range p.outs {
			if o.ok && o.done <= deadline {
				done++
			}
			lat := float64(o.done-o.due) / 1e6
			switch {
			case o.due < p.dur/4:
				first = append(first, lat)
			case o.due >= p.dur*3/4:
				last = append(last, lat)
			}
		}
		pr.offered += len(p.outs)
		drifts = append(drifts, median(last)-median(first))
	}
	if pr.offered == 0 {
		return pr
	}
	pr.p99Ms = quantile(w.latenciesMs(), 0.99)
	pr.completed = float64(done) / float64(pr.offered)
	pr.driftMs = median(drifts)
	return pr
}

// ladder returns the capacity ladder's rates: base·ratio^i, i = 0..steps.
func ladder(base, ratio float64, steps int) []float64 {
	out := make([]float64, steps+1)
	for i := range out {
		out[i] = base * math.Pow(ratio, float64(i))
	}
	return out
}

// capacity returns the highest rung that meets c, found by bisection
// over the ladder after rungs[0] passes. probeAt measures one rung. A rung
// that fails is probed once more and fails only if both tries do, so one
// burst of noise cannot end the search early; at most maxProbes probes
// are made in all. It returns 0 when rungs[0] fails, and every probe it
// made.
func capacity(rungs []float64, c criteria, maxProbes int, probeAt func(rps float64) probe) (float64, []probe) {
	var probes []probe
	passes := func(rps float64) bool {
		for try := 0; try < 2 && len(probes) < maxProbes; try++ {
			p := probeAt(rps)
			probes = append(probes, p)
			if c.pass(p) {
				return true
			}
		}
		return false
	}
	if !passes(rungs[0]) {
		return 0, probes
	}
	lo, hi := 0, len(rungs) // rungs[lo] passes; rungs[hi] is taken to fail
	for hi-lo > 1 && len(probes) < maxProbes {
		mid := (lo + hi) / 2
		if passes(rungs[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rungs[lo], probes
}

// segmentSeed derives segment k's schedule seed from the run's seed.
func segmentSeed(seed uint64, k int) uint64 {
	return seed ^ uint64(k)*0x9e3779b97f4a7c15
}

// measure times about requests requests at rps, split over cfg.Segments
// open-loop segments. Segment k follows its own schedule, seeded by
// segmentSeed, so each draws its own popularity ranking. Segment k's
// schedule is the same at every rate, so the windows of one run differ
// only in rate.
func (e *serveEnv) measure(ctx context.Context, rep *report, cfg config, rps float64, requests int, seed uint64) (window, error) {
	w := window{rps: rps}
	per := (requests + cfg.Segments - 1) / cfg.Segments
	for k := 0; k < cfg.Segments && ctx.Err() == nil; k++ {
		seg, err := e.segment(ctx, rep, cfg, rps, per, segmentSeed(seed, k))
		if err != nil {
			return w, err
		}
		w.segs = append(w.segs, seg)
	}
	return w, ctx.Err()
}

// segment runs one open-loop segment at rps on the schedule seeded by
// seed: cfg.SegmentWarmup requests that prime the cache for the segment's
// popularity ranking, checked but not timed, then about timed requests.
// Every request counts in rep.
func (e *serveEnv) segment(ctx context.Context, rep *report, cfg config, rps float64, timed int, seed uint64) (phase, error) {
	sched, err := loadgen.NewSchedule(e.objs, rps, zipfS, e.mix, seed)
	if err != nil {
		return phase{}, err
	}
	warm := time.Duration(float64(cfg.SegmentWarmup) / rps * float64(time.Second))
	dur := time.Duration(float64(timed) / rps * float64(time.Second))
	sw := watchSteal()
	ph := e.run(ctx, sched, warm+dur)
	seg := phase{start: ph.start.Add(warm), dur: dur, steal: sw.share()}
	for _, o := range ph.outs {
		rep.op(o.ok)
		if o.due < warm {
			seg.warm = append(seg.warm, o)
			continue
		}
		o.due, o.sent, o.done = o.due-warm, o.sent-warm, o.done-warm
		seg.outs = append(seg.outs, o)
	}
	return seg, nil
}

// runServe is the serve phase: open-loop ranged GETs at cfg.RPS. Its
// latencies are scaled by the reference's speed over the run so far.
func runServe(ctx context.Context, rep *report, ref *reference, cfg config, env *serveEnv, seed uint64, dur time.Duration) error {
	am := startAlloc()
	ss := sampleSteal()
	main, err := env.measure(ctx, rep, cfg, cfg.RPS, int(cfg.RPS*dur.Seconds()), seed)
	stolen := ss.finish()
	if err != nil {
		return err
	}
	alloc := am.bytes()
	lat, timed := main.quietLatenciesMs(stolen)
	scale := ref.scale(0)
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	rep.add("p50_ms", p50/scale, "ms")
	rep.add("p99_ms", p99/scale, "ms")
	rep.add("serve_alloc_per_byte", alloc/float64(max(main.bytes(), 1)), "B/B")
	tail := tailPercentile(len(lat))
	all := main.latenciesMs()
	rep.note("serve: p50/p99 over the %d of %d timed requests (%d segments at %g rps) the host stole at most %.0f%% of; highest percentile with ten samples beyond it: p%g = %.3f ms; over every timed request p50 %.3f, p99 %.3f ms",
		len(lat), timed, len(main.segs), cfg.RPS, 100*quietSteal, tail, quantile(lat, tail/100), quantile(all, 0.5), quantile(all, 0.99))
	rep.note("serve: latency quantiles p90 %.2f, p95 %.2f, p98 %.2f, p99 %.2f, p99.5 %.2f, max %.2f ms",
		quantile(lat, 0.90), quantile(lat, 0.95), quantile(lat, 0.98), quantile(lat, 0.99), quantile(lat, 0.995), quantile(lat, 1))
	rep.note("serve: run's reference %.4f GB/s, scale %.4f; as measured: p50_ms %.4f p99_ms %.4f", refGBps/scale, scale, p50, p99)
	return nil
}

// measureCapacity runs the capacity ladder from cfg.RPS and reports
// capacity_rps with a note per probe. Every rung, the first included, is
// measured the same way: the run's segment schedules at the rung's rate,
// cfg.ProbeSeconds of timed traffic.
func (e *serveEnv) measureCapacity(ctx context.Context, rep *report, cfg config, seed uint64) error {
	crit := criteria{limitMs: limitMs, minCompleted: 0.98}
	var err error
	capRPS, probes := capacity(ladder(cfg.RPS, ladderRatio, cfg.LadderSteps), crit, cfg.MaxProbes,
		func(rps float64) probe {
			w, perr := e.measure(ctx, rep, cfg, rps, int(rps*cfg.ProbeSeconds), seed)
			if perr != nil {
				err = perr
			}
			return w.quiet().probe(limitMs)
		})
	if err != nil {
		return err
	}
	rep.add("capacity_rps", capRPS, "1/s")
	for _, p := range probes {
		rep.note("serve ladder: %.1f rps: %d requests, p99 %.2f ms, completed %.4f, drift %.2f ms, pass %v",
			p.rps, p.offered, p.p99Ms, p.completed, p.driftMs, crit.pass(p))
	}
	return nil
}

// instrument wraps the server's two public seams — the handler and the
// object source — with spans, recorded while on is set.
type instrument struct {
	on atomic.Bool
	tr *tracer
}

// handler wraps next: each object request becomes a server.Handler span,
// and each body write through the ResponseWriter an http.Write span
// under it.
func (in *instrument) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !in.on.Load() || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		id := in.tr.begin("server.Handler", -1)
		tw := &timedWriter{ResponseWriter: w, tr: in.tr, parent: id}
		next.ServeHTTP(tw, r)
		in.tr.end(id, tw.bytes)
	})
}

// timedWriter times body writes. Unwrap lets http.ResponseController
// reach the real writer, so the server's write deadlines still apply.
type timedWriter struct {
	http.ResponseWriter
	tr     *tracer
	parent int32
	bytes  int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	id := w.tr.begin("http.Write", w.parent)
	n, err := w.ResponseWriter.Write(p)
	w.tr.end(id, int64(n))
	w.bytes += int64(n)
	return n, err
}

func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// tracedSource wraps a server.Source so every ReadAt on its files
// becomes a source.ReadAt span.
type tracedSource struct {
	server.Source
	in *instrument
}

func (s tracedSource) Open(name string) (server.File, error) {
	f, err := s.Source.Open(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{f, s.in}, nil
}

type tracedFile struct {
	server.File
	in *instrument
}

func (f tracedFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.in.on.Load() {
		return f.File.ReadAt(p, off)
	}
	id := f.in.tr.begin("source.ReadAt", -1)
	n, err := f.File.ReadAt(p, off)
	f.in.tr.end(id, int64(n))
	return n, err
}

// scrape reads the server's /metrics?format=json.
func (e *serveEnv) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.hs.URL+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return m, nil
}

// topStages are the server stages that do not nest inside another stage
// (block_decode and source_read run inside cache_lookup).
var topStages = []string{"queue_wait", "resolve", "cache_lookup", "seq_decode", "body_write"}

// traceServe reports the serve phase's per-layer metrics: half the
// window untraced, then half with the handler and source spans on, at
// cfg.RPS, and then the capacity ladder. env must have been
// set up with a tracer.
func traceServe(ctx context.Context, rep *report, cfg config, env *serveEnv, seed uint64, dur time.Duration) error {
	// Each segment schedule runs twice, untraced and traced, so the two
	// windows send the same requests; which of the two goes first
	// alternates from segment to segment, so neither always finds the
	// cache the other left. The cache counters and the server's stage
	// histograms are read around each traced segment.
	plain, traced := window{rps: cfg.RPS}, window{rps: cfg.RPS}
	per := int(cfg.RPS*dur.Seconds()/2) / cfg.Segments
	var cache gompresso.CacheStats
	stages := map[string]float64{}
	runPlain := func(seed uint64) error {
		seg, err := env.segment(ctx, rep, cfg, cfg.RPS, per, seed)
		plain.segs = append(plain.segs, seg)
		return err
	}
	runTraced := func(seed uint64) error {
		m0, err := env.scrape(ctx)
		if err != nil {
			return err
		}
		c0 := env.srv.Codec().CacheStats()
		env.inst.on.Store(true)
		seg, err := env.segment(ctx, rep, cfg, cfg.RPS, per, seed)
		env.inst.on.Store(false)
		if err != nil {
			return err
		}
		traced.segs = append(traced.segs, seg)
		c1 := env.srv.Codec().CacheStats()
		m1, err := env.scrape(ctx)
		if err != nil {
			return err
		}
		cache.Hits += c1.Hits - c0.Hits
		cache.Misses += c1.Misses - c0.Misses
		cache.Coalesced += c1.Coalesced - c0.Coalesced
		cache.Evictions += c1.Evictions - c0.Evictions
		for name, v := range m1 {
			stages[name] += v - m0[name]
		}
		return nil
	}
	for k := 0; k < cfg.Segments; k++ {
		first, second := runPlain, runTraced
		if k%2 == 1 {
			first, second = runTraced, runPlain
		}
		if err := first(segmentSeed(seed, k)); err != nil {
			return err
		}
		if err := second(segmentSeed(seed, k)); err != nil {
			return err
		}
	}

	tr := env.inst.tr
	handlerMs := tr.durations("server.Handler")
	sort.Float64s(handlerMs)
	tHandler, served, requests := tr.sum("server.Handler")
	tWrite, _, _ := tr.sum("http.Write")
	tSource, srcBytes, _ := tr.sum("source.ReadAt")
	// Handler spans cover every traced request, the warm-up ones too.
	var latSum time.Duration
	var lags []float64
	ok, offered := 0, 0
	for _, p := range traced.segs {
		for _, o := range append(p.warm, p.outs...) {
			latSum += o.done - o.due
			lags = append(lags, float64(o.sent-o.due)/1e6)
			offered++
			if o.ok {
				ok++
			}
		}
	}
	sort.Float64s(lags)
	dReq := stages["requests_total"]

	rep.add("server.handler_p50_ms", quantile(handlerMs, 0.50), "ms")
	rep.add("server.handler_p99_ms", quantile(handlerMs, 0.99), "ms")
	rep.add("http.outside_share", (latSum-tHandler).Seconds()/latSum.Seconds(), "1")
	rep.add("http.body_write_share", tWrite.Seconds()/tHandler.Seconds(), "1")
	rep.add("source.read_share", tSource.Seconds()/tHandler.Seconds(), "1")
	rep.add("source.bytes_per_served_byte", float64(srcBytes)/float64(max(served, 1)), "B/B")
	rep.add("blockcache.hit_rate", cache.HitRate(), "1")
	rep.add("blockcache.coalesced_frac", float64(cache.Coalesced)/float64(max(cache.Misses, 1)), "1")
	rep.add("blockcache.evictions_per_req", float64(cache.Evictions)/float64(max(requests, 1)), "count")
	var staged float64
	for _, st := range obs.Stages() {
		ns := stages["stage_"+st+"_ns_sum"]
		rep.add("server.stage_"+st+"_ms", ns/max(dReq, 1)/1e6, "ms")
		if slices.Contains(topStages, st) {
			staged += ns
		}
	}
	rep.add("server.unattributed_share", 1-staged/float64(tHandler.Nanoseconds()), "1")
	rep.add("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms")
	rep.add("loadgen.achieved_ratio", float64(ok)/float64(max(offered, 1)), "1")
	p50Plain := quantile(plain.latenciesMs(), 0.50)
	p50Traced := quantile(traced.latenciesMs(), 0.50)
	rep.add("trace.serve_overhead", p50Traced/p50Plain-1, "1")
	rep.note("serve trace: %d handler spans, %d requests counted by the server; p50 untraced %.3f ms, traced %.3f ms on the same schedules",
		requests, int64(dReq), p50Plain, p50Traced)
	return env.measureCapacity(ctx, rep, cfg, seed)
}
