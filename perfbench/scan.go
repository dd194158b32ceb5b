package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"gompresso"
	"gompresso/internal/deflate"
	"gompresso/internal/format"
	"gompresso/internal/lz77"
)

// dataset is the workload's input with its stored forms.
type dataset struct {
	name string
	raw  []byte
	sum  uint32 // CRC-32C of raw, the oracle every decoded stream is hashed against
	gpz  []byte // GPZ1: default codec, Bit variant, DEStrict
	gz   []byte // compress/gzip at its default level
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// generate builds the workload's raw dataset from seed, cfg.DataBytes
// long.
func generate(cfg config, name string, seed uint64) *dataset {
	d := &dataset{name: name, raw: workloads[name](cfg.DataBytes, seed)}
	d.sum = crc32.Checksum(d.raw, castagnoli)
	return d
}

// storeCodec is the GPZ1 configuration both scan and ingest use: the
// default codec (Bit variant) with the DEStrict parse.
func storeCodec(workers int) (*gompresso.Codec, error) {
	return gompresso.New(gompresso.WithDE(gompresso.DEStrict), gompresso.WithWorkers(workers))
}

// store compresses the dataset as GPZ1, with this commit's encoder, and
// as stdlib gzip, the two side by side.
func (d *dataset) store() error {
	enc, err := storeCodec(nproc())
	if err != nil {
		return err
	}
	return parallelDo(func() error {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(d.raw); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		d.gz = buf.Bytes()
		return nil
	}, func() error {
		var err error
		if d.gpz, _, err = enc.Compress(d.raw); err != nil {
			return fmt.Errorf("compress %s: %w", d.name, err)
		}
		return nil
	})
}

// scanSeries is one decode configuration of the scan phase.
type scanSeries struct {
	metric string
	gz     bool
	codec  *gompresso.Codec
}

func newScanSeries() ([]scanSeries, error) {
	var out []scanSeries
	for _, s := range []struct {
		metric  string
		gz      bool
		workers int
	}{
		{"gpz_gbps", false, nproc()},
		{"gpz_w1_gbps", false, 1},
		{"gz_gbps", true, nproc()},
		{"gz_w1_gbps", true, 1},
	} {
		c, err := gompresso.New(gompresso.WithWorkers(s.workers))
		if err != nil {
			return nil, err
		}
		out = append(out, scanSeries{s.metric, s.gz, c})
	}
	return out, nil
}

// decodePass decodes one stored stream through Codec.NewReader and
// io.Copy, hashing the output, and reports whether the output matched the
// raw input.
func decodePass(c *gompresso.Codec, comp []byte, d *dataset) bool {
	r, err := c.NewReader(bytes.NewReader(comp))
	if err != nil {
		return false
	}
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, r)
	cerr := r.Close()
	return err == nil && cerr == nil && n == int64(len(d.raw)) && h.Sum32() == d.sum
}

// measureScan runs measureRounds over the dataset for every series, each
// pass a full decode of one stored form. It returns each series' passes
// and the raw bytes decoded.
func measureScan(ctx context.Context, rep *report, ref *reference, series []scanSeries, d *dataset, dur time.Duration, minRounds int) ([]passes, int64) {
	var processed int64
	out := measureRounds(ctx, ref, len(series), 1, dur, minRounds, func(_, i, _ int, timed func(func())) {
		s := series[i]
		comp := d.gpz
		if s.gz {
			comp = d.gz
		}
		var ok bool
		timed(func() { ok = decodePass(s.codec, comp, d) })
		rep.op(ok)
		processed += int64(len(d.raw))
	})
	return out, processed
}

// runScan is the scan phase: full decodes of the stored dataset, GPZ1
// and gzip, at nproc and 1 workers.
func runScan(ctx context.Context, rep *report, ref *reference, cfg config, d *dataset, dur time.Duration) error {
	series, err := newScanSeries()
	if err != nil {
		return err
	}
	mark := ref.begin()
	am := startAlloc()
	res, processed := measureScan(ctx, rep, ref, series, d, dur, cfg.MinRounds)
	alloc := am.bytes()
	scale := ref.end(mark)
	raw := float64(len(d.raw))
	measured := ""
	for i, s := range series {
		gbps := raw / res[i].seconds() / 1e9
		rep.add(s.metric, gbps*scale, "GB/s")
		measured += fmt.Sprintf(" %s %.4f", s.metric, gbps)
	}
	rep.add("scan_alloc_per_byte", alloc/float64(processed), "B/B")
	kept, all := res[0].kept()
	rep.note("scan: %d decode passes per series, %d of them quiet enough to use; GB/s from the median pass",
		all, kept)
	rep.note("scan: reference %.4f GB/s (%d samples), scale %.4f; as measured:%s", refGBps/scale, ref.mark()-mark, scale, measured)
	rep.note("scan: %s raw %d B, gpz %d B (%.3f), gzip %d B (%.3f)", d.name, len(d.raw),
		len(d.gpz), raw/float64(len(d.gpz)), len(d.gz), raw/float64(len(d.gz)))
	return nil
}

// replayBlock is one GPZ1 block prepared for the decode replay: its
// parsed form, its raw bytes, and the sequences recorded from the
// reference decoder.
type replayBlock struct {
	bb         *format.BitBlock
	tables     *format.BitBlock // bb with no sequences: decoding it only builds the tables
	want       []byte
	seqs       []lz77.Seq
	matchBytes int64 // bytes the sequences copy
}

// prepareReplay parses the dataset's GPZ1 container and records every
// block's token stream with (*BitBlock).DecodeBit, checked against the
// raw input.
func prepareReplay(d *dataset) ([]replayBlock, error) {
	f, err := format.ParseFile(d.gpz)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	var blocks []replayBlock
	off := 0
	for i := range f.Blocks {
		n := f.Blocks[i].RawLen
		bb := f.BitBlockOf(i)
		ts, err := bb.DecodeBit(n)
		if err != nil {
			return nil, fmt.Errorf("%s block %d: %w", d.name, i, err)
		}
		got, err := ts.Decompress(nil)
		if err != nil || !bytes.Equal(got, d.raw[off:off+n]) {
			return nil, fmt.Errorf("%s block %d: reference decode does not match the input", d.name, i)
		}
		hdr := *bb
		hdr.NumSeqs = 0
		b := replayBlock{bb: bb, tables: &hdr, want: d.raw[off : off+n], seqs: ts.Seqs}
		for _, s := range ts.Seqs {
			b.matchBytes += int64(s.MatchLen)
		}
		blocks = append(blocks, b)
		off += n
	}
	return blocks, nil
}

// traceScan reports the scan phase's per-layer metrics: a one-goroutine
// replay of every GPZ1 block through the block decoder, the Huffman table
// builder and the match copier, the container parser, the deflate
// decoder, and the Reader pipeline's speed-up and efficiency against that
// replay.
func traceScan(ctx context.Context, rep *report, tr *tracer, cfg config, d *dataset, dur time.Duration) error {
	series, err := newScanSeries()
	if err != nil {
		return err
	}
	blocks, err := prepareReplay(d)
	if err != nil {
		return err
	}

	// Blocks decode into one block-sized buffer, as the Reader's do.
	var copyBytes, payloadBits int64
	var maxLen int
	for _, b := range blocks {
		maxLen = max(maxLen, len(b.want))
		copyBytes += b.matchBytes
		for _, v := range b.bb.SubBits {
			payloadBits += v
		}
	}
	replayBytes := int64(len(d.raw))

	buf := make([]byte, maxLen)
	sc := new(format.DecodeScratch)
	var parse, decode, plain, table, copyT, inflate []float64
	pipe := make([]passes, len(series))
	for i := range pipe {
		pipe[i] = newPasses(1)
	}
	start := time.Now()
	// Each round runs one untraced pass of every pipeline series beside
	// the replays, so the pipeline and the layers it is compared with see
	// the same machine state.
	for r := 0; r < cfg.MinRounds || time.Since(start) < dur; r++ {
		if ctx.Err() != nil {
			break
		}
		one, _ := measureScan(ctx, rep, nil, series, d, 0, 1)
		for i := range pipe {
			pipe[i].merge(one[i])
		}
		t := tr.do("format.ParseFile", int64(len(d.gpz)), func() {
			_, err = format.ParseFile(d.gpz)
		})
		if err != nil {
			return err
		}
		parse = append(parse, t.Seconds())

		// The same decode loop timed once, without a span per block: the
		// baseline for the tracing overhead.
		t0 := time.Now()
		for _, b := range blocks {
			err = b.bb.DecodeBitInto(buf[:len(b.want)], sc)
		}
		plain = append(plain, time.Since(t0).Seconds())

		t = 0
		ok := err == nil
		for _, b := range blocks {
			out := buf[:len(b.want)]
			t += tr.do("format.DecodeBitInto", int64(len(out)), func() { err = b.bb.DecodeBitInto(out, sc) })
			ok = ok && err == nil && bytes.Equal(out, b.want)
		}
		rep.op(ok)
		decode = append(decode, t.Seconds())

		// Table build: DecodeBitInto on the block with its sequence count
		// set to zero builds exactly the tables the full decode builds —
		// huffman.FillTable for the literal/length and offset codes, and
		// the literal-pair widening — and decodes nothing.
		t = 0
		for _, b := range blocks {
			t += tr.do("huffman.tables", 1, func() { err = b.tables.DecodeBitInto(buf[:0], sc) })
			if err != nil {
				return err
			}
		}
		table = append(table, t.Seconds())

		// Match copies replay into a buffer already holding the block's
		// output, so literals need no placement and only CopyWithin is
		// timed. Its cost does not depend on the bytes it copies.
		t = 0
		for _, b := range blocks {
			out := buf[:len(b.want)]
			copy(out, b.want)
			t += tr.do("lz77.CopyWithin", b.matchBytes, func() {
				pos := 0
				for _, s := range b.seqs {
					pos += int(s.LitLen)
					if s.MatchLen > 0 {
						pos = lz77.CopyWithin(out, pos, int(s.Offset), int(s.MatchLen))
					}
				}
			})
		}
		copyT = append(copyT, t.Seconds())

		var out []byte
		t = tr.do("deflate.Decompress", int64(len(d.raw)), func() {
			out, err = deflate.Decompress(d.gz, deflate.FormatGzip, deflate.Options{Workers: 1})
		})
		rep.op(err == nil && crc32.Checksum(out, castagnoli) == d.sum && len(out) == len(d.raw))
		inflate = append(inflate, t.Seconds())
	}

	gbps := func(p passes) float64 { return float64(replayBytes) / p.seconds() / 1e9 }
	gpzN, gpzW1, gzN, gzW1 := gbps(pipe[0]), gbps(pipe[1]), gbps(pipe[2]), gbps(pipe[3])
	tDecode, tTable, tCopy, tParse := median(decode), median(table), median(copyT), median(parse)
	wallN := float64(replayBytes) / (gpzN * 1e9)
	wallW1 := float64(replayBytes) / (gpzW1 * 1e9)

	rep.add("format.block_decode_gbps", float64(replayBytes)/tDecode/1e9, "GB/s")
	rep.add("huffman.table_build_us", tTable/float64(len(blocks))*1e6, "us")
	rep.add("huffman.table_share", tTable/tDecode, "1")
	rep.add("lz77.copy_gbps", float64(copyBytes)/tCopy/1e9, "GB/s")
	rep.add("lz77.copy_share", tCopy/tDecode, "1")
	rep.add("format.seq_share", (tDecode-tTable-tCopy)/tDecode, "1")
	rep.add("format.parse_us", tParse*1e6, "us")
	rep.add("format.bits_per_byte", float64(payloadBits)/float64(replayBytes), "bit/B")
	rep.add("pipeline.speedup", gpzN/gpzW1, "x")
	rep.add("pipeline.efficiency", tDecode/(wallN*float64(nproc())), "1")
	rep.add("pipeline.other_share", (wallW1-tParse-tDecode)/wallW1, "1")
	rep.add("deflate.decode_gbps", float64(replayBytes)/median(inflate)/1e9, "GB/s")
	rep.add("deflate.speedup", gzN/gzW1, "x")
	rep.add("trace.decode_overhead", tDecode/median(plain)-1, "1")
	rep.note("scan trace: %d blocks, %d replay rounds; pipeline gpz %.4f / w1 %.4f GB/s, gzip %.4f / w1 %.4f GB/s",
		len(blocks), len(decode), gpzN, gpzW1, gzN, gzW1)
	return nil
}
