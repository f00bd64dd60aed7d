package ckpt

// Durability-path benchmarks at the serving layer's reference shape
// (n=512 series, window 4096). TestCheckpointAllocs and TestWALAppendAllocs
// pin the allocation counts; perfbench's poll-durable workload reports
// checkpoint time and size (ckpt.checkpoint_ms, ckpt.checkpoint_mb) end to
// end.

import (
	"io"
	"testing"

	"pfg/internal/stream"
	"pfg/internal/ws"
)

const (
	benchN      = 512
	benchWindow = 4096
)

// benchEngine builds the reference-shape engine with a short fill: the ring
// and band frames are allocated (and therefore encoded) at full window×n and
// n×n size regardless of fill, so 24 pushes buy the exact wire volume of a
// filled window without 4096 trips through the O(n²) push path in setup.
func benchEngine(b *testing.B) *stream.Engine {
	b.Helper()
	return buildEngine(b, benchN, benchWindow, 64, 24, 7)
}

func BenchmarkCheckpoint(b *testing.B) {
	b.Run("float64", func(b *testing.B) {
		e := benchEngine(b)
		var n int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := CheckpointTo(io.Discard, e, testParams)
			if err != nil {
				b.Fatal(err)
			}
			n = m
		}
		b.SetBytes(n)
	})
}

func BenchmarkWALAppend(b *testing.B) {
	run := func(b *testing.B, policy SyncPolicy) {
		w, err := NewWALWriter(io.Discard, 0, policy)
		if err != nil {
			b.Fatal(err)
		}
		sample := feed(1, benchN, 1)[0]
		b.ReportAllocs()
		b.SetBytes(int64(8 + 8*benchN))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Append(uint64(i+1), sample); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("float64", func(b *testing.B) { run(b, SyncNone) })
}

func BenchmarkRestore(b *testing.B) {
	b.Run("float64", func(b *testing.B) {
		e := benchEngine(b)
		var buf writeBuffer
		if _, err := CheckpointTo(&buf, e, testParams); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(buf.data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, _, err := RestoreEngine(&byteReader{data: buf.data}, ws.New())
			if err != nil {
				b.Fatal(err)
			}
			r.Release()
		}
	})
}

// writeBuffer / byteReader avoid bytes.Buffer's grow bookkeeping showing up
// in the profile.
type writeBuffer struct{ data []byte }

func (w *writeBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
