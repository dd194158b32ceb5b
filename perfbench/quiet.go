package main

import (
	"context"
	"sort"
	"time"
)

// On a shared virtual machine the host takes CPU time from the guest in
// bursts; on the machine this benchmark was tuned on, there were minutes
// when the host took 40% of the time the guest's CPUs had work to run,
// and throughput fell by a third. Such interference only ever slows a
// measurement, and it is visible as steal time in /proc/stat. Every timed
// unit — a decode or encode pass, a serve segment — therefore records the
// steal share while it ran, and a metric is computed from the units taken
// on a quiet host, falling back to the least-disturbed half when too few
// were. The selection looks only at the host's steal, never at the
// measured values. A throughput pass also leaves the stolen share out of
// its time: the time its work was runnable but could not run. A serve
// segment's latencies stay wall-clock, since a request waits through the
// host's steal.

// quietSteal is the steal share up to which a unit counts as quiet.
const quietSteal = 0.05

// stealWatch measures the host's steal from the moment it was started.
type stealWatch struct{ total, idle, steal uint64 }

func watchSteal() stealWatch {
	t, i, s := cpuTimes()
	return stealWatch{t, i, s}
}

// share returns the share the host stole of the time the machine's CPUs
// were not idle: of the time the guest had work to run, the part it could
// not run it. An idle CPU is not runnable, so it has no steal, and a
// machine-wide share would understate the steal a one-worker pass or a
// lightly loaded server suffers.
func (w stealWatch) share() float64 {
	t, i, s := cpuTimes()
	if t <= w.total {
		return 0
	}
	busy := (t - w.total) - (i - w.idle)
	if busy == 0 {
		return 0
	}
	return float64(s-w.steal) / float64(busy)
}

// quietest returns the indices of the units to use, given each unit's
// steal share: those at or below quietSteal, or, when fewer than half of
// them are, the least-stolen half (rounded up).
func quietest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := 0
	for n < len(idx) && steal[idx[n]] <= quietSteal {
		n++
	}
	n = max(n, (len(idx)+1)/2)
	out := idx[:n]
	sort.Ints(out)
	return out
}

// pass is one timed pass of a series over one part.
type pass struct {
	secs  float64 // wall time less the stolen share
	steal float64 // stealWatch.share over the pass
}

// passes holds a series' timed passes, per part of its input: a dataset,
// or a slice of one.
type passes [][]pass

func newPasses(parts int) passes { return make(passes, parts) }

// time runs fn as one pass over part d and records it.
func (p passes) time(d int, fn func()) {
	w := watchSteal()
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	steal := w.share()
	p[d] = append(p[d], pass{secs: wall * (1 - steal), steal: steal})
}

// quietPasses returns the passes quietest selects.
func quietPasses(ps []pass) []pass {
	steal := make([]float64, len(ps))
	for i, x := range ps {
		steal[i] = x.steal
	}
	var out []pass
	for _, i := range quietest(steal) {
		out = append(out, ps[i])
	}
	return out
}

// seconds returns, summed over parts, the median time of the quietest
// passes over each: the time one pass over every part takes.
func (p passes) seconds() float64 {
	var total float64
	for _, ps := range p {
		var secs []float64
		for _, x := range quietPasses(ps) {
			secs = append(secs, x.secs)
		}
		total += median(secs)
	}
	return total
}

// kept counts the passes seconds uses, out of all.
func (p passes) kept() (kept, all int) {
	for _, ps := range p {
		kept += len(quietPasses(ps))
		all += len(ps)
	}
	return kept, all
}

// merge appends q's passes to p's.
func (p passes) merge(q passes) {
	for d := range p {
		p[d] = append(p[d], q[d]...)
	}
}

// measureRounds times rounds of passes over every part for every series:
// at least minRounds rounds, and more while the next round, as long as
// the last, still ends within dur. Within a round each part is run by
// every series in turn, so drift hits all series alike, and the reference
// ref, if any, is sampled between passes. pass runs series i over part p
// in the given round and wraps the work to be timed in timed; what it
// does outside timed is not counted. It returns each series' passes,
// indexed by part.
func measureRounds(ctx context.Context, ref *reference, nSeries, nParts int, dur time.Duration, minRounds int,
	pass func(round, i, p int, timed func(func()))) []passes {
	out := make([]passes, nSeries)
	for i := range out {
		out[i] = newPasses(nParts)
	}
	t0 := time.Now()
	var last time.Duration // the previous round's length
	for round := 0; round < minRounds || time.Since(t0)+last <= dur; round++ {
		if ctx.Err() != nil {
			break
		}
		r0 := time.Now()
		for p := 0; p < nParts; p++ {
			for i := range out {
				ref.tick()
				pass(round, i, p, func(fn func()) { out[i].time(p, fn) })
			}
		}
		last = time.Since(r0)
	}
	return out
}

// A serve segment lasts about a second, long enough for a steal burst to
// touch only a few of its requests, yet those few set its p99: the host
// takes a virtual CPU away for whole scheduling quanta of about 10 ms, and
// a request that waits out one reads that much later. So the serve phase
// also samples the host's steal every stealPoll and judges each request
// by the steal around it.

// stealPoll is how often the steal counter is sampled while serving.
const stealPoll = 10 * time.Millisecond

// clockTick is one unit of /proc/stat.
const clockTick = 10 * time.Millisecond

// stealSampler samples the machine's cumulative steal until finished.
type stealSampler struct {
	stop, done chan struct{}
	at         []time.Time
	ticks      []uint64
}

func sampleSteal() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(stealPoll)
		defer t.Stop()
		for {
			_, _, steal := cpuTimes()
			s.at, s.ticks = append(s.at, time.Now()), append(s.ticks, steal)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stolenSpan is an interval in which the host stole stolen CPU time.
type stolenSpan struct {
	from, to time.Time
	stolen   time.Duration
}

// stealLog is the spans a sampler saw, in order of their ends, and the
// longest of them.
type stealLog struct {
	spans   []stolenSpan
	longest time.Duration
}

// finish stops the sampler and returns the spans in which the host stole
// time. Steal is booked after the fact, when the virtual CPU runs again,
// so time booked between two samples was taken at most that much before
// the first of them; a span reaches back that far, and one tick more for
// the counter's rounding.
func (s *stealSampler) finish() stealLog {
	close(s.stop)
	<-s.done
	var l stealLog
	for i := 1; i < len(s.ticks); i++ {
		if d := s.ticks[i] - s.ticks[i-1]; d > 0 {
			stolen := time.Duration(d) * clockTick
			sp := stolenSpan{from: s.at[i-1].Add(-stolen - clockTick), to: s.at[i], stolen: stolen}
			l.spans = append(l.spans, sp)
			l.longest = max(l.longest, sp.to.Sub(sp.from))
		}
	}
	return l
}

// share returns the share of [from, to] the host stole, as far as the
// spans tell: each span's stolen time, spread evenly over the span, in
// proportion to its overlap with the interval.
func (l stealLog) share(from, to time.Time) float64 {
	if !to.After(from) {
		return 0
	}
	i := sort.Search(len(l.spans), func(i int) bool { return l.spans[i].to.After(from) })
	var stolen float64
	for ; i < len(l.spans) && l.spans[i].to.Before(to.Add(l.longest)); i++ {
		s := l.spans[i]
		lo, hi := from, to
		if s.from.After(lo) {
			lo = s.from
		}
		if s.to.Before(hi) {
			hi = s.to
		}
		if hi.After(lo) {
			stolen += float64(s.stolen) * float64(hi.Sub(lo)) / float64(s.to.Sub(s.from))
		}
	}
	return min(stolen/float64(to.Sub(from)), 1)
}
