package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"time"

	"gompresso/internal/datagen"
)

// The machine this benchmark was tuned on also changes speed with no
// steal to show for it: over a few minutes every throughput of a run rose
// or fell together by up to a third, while the ratio of GPZ1 to gzip
// decode speed within each run held to 2%. Whatever the host does to
// shared caches and clocks, it slows all work alike. So every throughput
// is also scaled by a reference: fixed work that depends neither on the
// code under test nor on the seed — the standard library's compress/flate
// decoding 4 MiB of WikiXML text generated from seed 0, on every CPU at
// once — timed every refEvery throughout its phase, between the phase's
// own timed passes. The host can slow one virtual CPU and not the other,
// which a reference on one CPU would miss while a two-worker pass feels
// it. A throughput is reported as it would read on a machine where the
// reference decodes at refGBps per CPU: as measured, times refGBps over
// the reference's speed during the phase, the median of its quiet samples
// (quietest). Latencies and the set-up time are divided by the same
// factor taken over every sample of the run, as the serve phase and the
// set-ups have no passes to sample between. The notes give every scaled
// figure as measured as well.

const (
	refBytes = 4 << 20
	refGBps  = 0.1 // the reference speed figures are scaled to
	refEvery = 250 * time.Millisecond
)

// reference times the fixed reference work.
type reference struct {
	comp  []byte
	dec   []refDecoder // one per CPU
	speed []float64    // GB/s per CPU of each sample, less its stolen share
	steal []float64    // stealWatch.share over each sample
	last  time.Time
}

type refDecoder struct {
	zr  io.ReadCloser
	out []byte
}

func newReference() (*reference, error) {
	raw := datagen.WikiXML(refBytes, 0)
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	r := &reference{comp: buf.Bytes(), dec: make([]refDecoder, nproc())}
	for i := range r.dec {
		r.dec[i] = refDecoder{zr: flate.NewReader(nil), out: make([]byte, len(raw))}
	}
	if err := r.decode(); err != nil || !bytes.Equal(r.dec[0].out, raw) {
		return nil, fmt.Errorf("reference decode does not match its input: %v", err)
	}
	return r, nil
}

// decode runs the reference work on every CPU at once.
func (r *reference) decode() error {
	fns := make([]func() error, len(r.dec))
	for i := range r.dec {
		d := &r.dec[i]
		fns[i] = func() error {
			if err := d.zr.(flate.Resetter).Reset(bytes.NewReader(r.comp), nil); err != nil {
				return err
			}
			_, err := io.ReadFull(d.zr, d.out)
			return err
		}
	}
	return parallelDo(fns...)
}

// sample times the reference n times. Like a pass, a sample's time is
// its wall time less its steal share: the passes it scales have had
// their stolen time taken out already.
func (r *reference) sample(n int) {
	for i := 0; i < n; i++ {
		w := watchSteal()
		t0 := time.Now()
		err := r.decode()
		wall := time.Since(t0).Seconds()
		steal := w.share()
		if err == nil && steal < 1 {
			r.speed = append(r.speed, refBytes/(wall*(1-steal))/1e9)
			r.steal = append(r.steal, steal)
		}
	}
	r.last = time.Now()
}

// tick samples the reference once if refEvery has passed since the last
// sample. It does nothing on a nil reference: traced runs do not scale.
func (r *reference) tick() {
	if r != nil && time.Since(r.last) >= refEvery {
		r.sample(1)
	}
}

// mark returns a position for speedSince and scale.
func (r *reference) mark() int { return len(r.speed) }

// begin opens a phase: it samples the reference and returns the mark the
// phase's scale counts from.
func (r *reference) begin() int {
	m := r.mark()
	r.sample(1)
	return m
}

// end closes a phase opened at mark: it samples the reference and
// returns the phase's scale.
func (r *reference) end(mark int) float64 {
	r.sample(1)
	return r.scale(mark)
}

// speedSince returns the median speed of the quiet samples taken since mark.
func (r *reference) speedSince(mark int) float64 {
	var quiet []float64
	for _, i := range quietest(r.steal[mark:]) {
		quiet = append(quiet, r.speed[mark+i])
	}
	return median(quiet)
}

// scale is the factor a phase's throughputs are multiplied by, and its
// times divided by: refGBps over the reference's speed since mark.
func (r *reference) scale(mark int) float64 { return refGBps / r.speedSince(mark) }
