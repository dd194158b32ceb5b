package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"gompresso"
	"gompresso/internal/core"
	"gompresso/internal/format"
	"gompresso/internal/lz77"
)

// encodePass compresses raw through Codec.NewWriter into buf.
func encodePass(c *gompresso.Codec, raw []byte, buf *bytes.Buffer) error {
	buf.Reset()
	w := c.NewWriter(buf)
	_, err := w.Write(raw)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// ingestSeries is one encode configuration of the ingest phase.
type ingestSeries struct {
	metric string
	codec  *gompresso.Codec
}

func newIngestSeries() ([]ingestSeries, error) {
	var out []ingestSeries
	for _, s := range []struct {
		metric  string
		workers int
	}{{"encode_gbps", nproc()}, {"encode_w1_gbps", 1}} {
		c, err := storeCodec(s.workers)
		if err != nil {
			return nil, err
		}
		out = append(out, ingestSeries{s.metric, c})
	}
	return out, nil
}

// cut cuts raw into runs of at most n bytes, in order.
func cut(raw []byte, n int) [][]byte {
	var out [][]byte
	for off := 0; off < len(raw); off += n {
		out = append(out, raw[off:min(off+n, len(raw))])
	}
	return out
}

// measureIngest runs measureRounds over the dataset cut into slices of
// slice bytes, for every series: each pass compresses one slice as a
// stream of its own. Timing slices rather than the whole dataset gives
// each series many short units, so the quiet selection has enough of them
// to choose from. Each output is decoded and compared with its input
// after its timed pass. It returns each series' passes, the raw bytes
// encoded, the heap bytes the timed passes allocated, and the stored size
// of one pass over the dataset by the first series.
func measureIngest(ctx context.Context, rep *report, ref *reference, series []ingestSeries, d *dataset, slice int, dur time.Duration, minRounds int) (out []passes, processed int64, alloc float64, stored int64, err error) {
	dec, err := gompresso.New()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	parts := cut(d.raw, slice)
	var buf bytes.Buffer
	buf.Grow(slice)
	out = measureRounds(ctx, ref, len(series), len(parts), dur, minRounds, func(round, i, p int, timed func(func())) {
		raw := parts[p]
		am := startAlloc()
		var err error
		timed(func() { err = encodePass(series[i].codec, raw, &buf) })
		alloc += am.bytes()
		processed += int64(len(raw))
		if round == 0 && i == 0 {
			stored += int64(buf.Len())
		}
		ok := err == nil
		if ok {
			got, _, derr := dec.Decompress(buf.Bytes())
			ok = derr == nil && bytes.Equal(got, raw)
		}
		rep.op(ok)
	})
	return out, processed, alloc, stored, nil
}

// runIngest is the ingest phase: the dataset compressed through
// Codec.NewWriter at nproc and 1 workers.
func runIngest(ctx context.Context, rep *report, ref *reference, cfg config, d *dataset, dur time.Duration) error {
	series, err := newIngestSeries()
	if err != nil {
		return err
	}
	mark := ref.begin()
	res, processed, alloc, stored, err := measureIngest(ctx, rep, ref, series, d, cfg.IngestSlice, dur, cfg.MinRounds)
	if err != nil {
		return err
	}
	scale := ref.end(mark)
	raw := float64(len(d.raw))
	measured := ""
	for i, s := range series {
		gbps := raw / res[i].seconds() / 1e9
		rep.add(s.metric, gbps*scale, "GB/s")
		measured += fmt.Sprintf(" %s %.5f", s.metric, gbps)
	}
	rep.add("ratio", raw/float64(stored), "x")
	rep.add("ingest_alloc_per_byte", alloc/float64(processed), "B/B")
	kept, all := res[0].kept()
	rep.note("ingest: %d encode passes per series over %d slices of %d B, %d of them quiet enough to use; GB/s from the median pass per slice",
		all, len(res[0]), cfg.IngestSlice, kept)
	rep.note("ingest: reference %.4f GB/s (%d samples), scale %.4f; as measured:%s", refGBps/scale, ref.mark()-mark, scale, measured)
	return nil
}

// lzOptions projects the codec's normalized compression options onto the
// LZ77 parser's, field for field as core.EncodeBlockRecord does.
func lzOptions(o gompresso.Options) lz77.Options {
	return lz77.Options{
		Window:    o.Window,
		MinMatch:  o.MinMatch,
		MaxMatch:  o.MaxMatch,
		MaxChain:  o.MaxChain,
		DE:        o.DE,
		Staleness: o.Staleness,
	}
}

// traceIngest reports the ingest phase's per-layer metrics: a
// one-goroutine replay of every input block through the LZ77 parser, the
// Bit-variant entropy coder and the whole block encoder, plus the
// Writer pipeline's speed-up and efficiency against that replay.
func traceIngest(ctx context.Context, rep *report, tr *tracer, cfg config, d *dataset, dur time.Duration) error {
	series, err := newIngestSeries()
	if err != nil {
		return err
	}
	res, _, _, _, err := measureIngest(ctx, rep, nil, series, d, cfg.IngestSlice, dur/2, 1)
	if err != nil {
		return err
	}
	raw := float64(len(d.raw))
	encN, encW1 := raw/res[0].seconds()/1e9, raw/res[1].seconds()/1e9

	o := series[1].codec.Options()
	lzo := lzOptions(o)
	blocks := cut(d.raw, o.BlockSize)

	// Each block goes through the parser, the entropy coder and the whole
	// block encoder back to back, so a drift in the machine's speed hits
	// all three alike. The block encoder runs once more timed by the clock
	// alone: the baseline for the tracing overhead.
	var tParse, tEntropy, tRecord, tPlain time.Duration
	var parseAlloc, entropyAlloc float64
	var seqs, matches, lits, matchBytes int64
	var rec []byte
	for i, b := range blocks {
		var ts *lz77.TokenStream
		am := startAlloc()
		tParse += tr.do("lz77.Parse", int64(len(b)), func() { ts, err = lz77.Parse(b, lzo) })
		parseAlloc += am.bytes()
		if err != nil {
			return fmt.Errorf("parse block %d: %w", i, err)
		}
		am = startAlloc()
		tEntropy += tr.do("format.EncodeBit", int64(len(b)), func() { _, err = format.EncodeBit(ts, o.CWL, o.SeqsPerSub) })
		entropyAlloc += am.bytes()
		if err != nil {
			return fmt.Errorf("entropy-code block %d: %w", i, err)
		}
		seqs += int64(len(ts.Seqs))
		lits += int64(len(ts.Literals))
		for _, s := range ts.Seqs {
			if s.MatchLen > 0 {
				matches++
				matchBytes += int64(s.MatchLen)
			}
		}

		tRecord += tr.do("core.EncodeBlockRecord", int64(len(b)), func() { rec, _, err = core.EncodeBlockRecord(rec[:0], b, o) })
		rep.op(err == nil && len(rec) > 0)
		if err != nil {
			return fmt.Errorf("encode block %d: %w", i, err)
		}
		t0 := time.Now()
		rec, _, _ = core.EncodeBlockRecord(rec[:0], b, o)
		tPlain += time.Since(t0)
	}

	wallN := raw / (encN * 1e9)
	rep.add("lz77.parse_gbps", raw/tParse.Seconds()/1e9, "GB/s")
	rep.add("format.encode_bit_gbps", raw/tEntropy.Seconds()/1e9, "GB/s")
	rep.add("core.block_record_gbps", raw/tRecord.Seconds()/1e9, "GB/s")
	rep.add("core.other_share", (tRecord-tParse-tEntropy).Seconds()/tRecord.Seconds(), "1")
	rep.add("writer.speedup", encN/encW1, "x")
	rep.add("writer.efficiency", tRecord.Seconds()/(wallN*float64(nproc())), "1")
	rep.add("lz77.seqs_per_kb", float64(seqs)/(raw/1024), "count")
	rep.add("lz77.literal_frac", float64(lits)/raw, "1")
	rep.add("lz77.mean_match_len", float64(matchBytes)/float64(max(matches, 1)), "B")
	rep.add("lz77.alloc_per_byte", parseAlloc/raw, "B/B")
	rep.add("format.encode_alloc_per_byte", entropyAlloc/raw, "B/B")
	rep.add("trace.encode_overhead", tRecord.Seconds()/tPlain.Seconds()-1, "1")
	rep.note("ingest trace: %d blocks of %d B; pipeline %.4f / w1 %.4f GB/s", len(blocks), o.BlockSize, encN, encW1)
	return nil
}
