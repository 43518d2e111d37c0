package trace

import (
	"bytes"
	"io"
	"runtime/debug"
	"testing"

	"rubix/internal/workload"
)

// must unwraps constructor results; tests treat construction failure as a
// fatal setup bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestRoundTrip(t *testing.T) {
	gen := must(workload.NewStride(100, 64, 8))
	var buf bytes.Buffer
	if err := Record(&buf, gen, 50); err != nil {
		t.Fatal(err)
	}
	ref := must(workload.NewStride(100, 64, 8))
	r, err := NewReader("stride", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		want := ref.Next()
		if got := r.Next(); got != want {
			t.Fatalf("record %d: got %d, want %d", i, got, want)
		}
		if r.InBurst() != ref.InBurst() {
			t.Fatalf("record %d: burst flag mismatch", i)
		}
	}
	if r.Replayed() != 50 {
		t.Fatalf("replayed = %d", r.Replayed())
	}
}

func TestBurstFlagsPreserved(t *testing.T) {
	p, err := workload.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen := must(workload.NewSpec(p, 0, 9))
	var buf bytes.Buffer
	if err := Record(&buf, gen, 2000); err != nil {
		t.Fatal(err)
	}
	ref := must(workload.NewSpec(p, 0, 9))
	r, err := NewReader("gcc", &buf)
	if err != nil {
		t.Fatal(err)
	}
	bursty := 0
	for i := 0; i < 2000; i++ {
		if got, want := r.Next(), ref.Next(); got != want {
			t.Fatalf("record %d: address mismatch", i)
		}
		if r.InBurst() != ref.InBurst() {
			t.Fatalf("record %d: burst mismatch", i)
		}
		if r.InBurst() {
			bursty++
		}
	}
	if bursty == 0 {
		t.Fatal("gcc trace recorded no bursts")
	}
}

// seekBuffer is a bytes.Reader-backed read-seeker.
type seekBuffer struct{ *bytes.Reader }

func TestRewindOnSeeker(t *testing.T) {
	gen := must(workload.NewStream(0, 8))
	var buf bytes.Buffer
	if err := Record(&buf, gen, 8); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader("stream", seekBuffer{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		want := uint64(i % 8)
		if got := r.Next(); got != want {
			t.Fatalf("access %d: got %d, want %d (rewind broken)", i, got, want)
		}
	}
	if !r.Wrapped() {
		t.Fatal("reader should have wrapped")
	}
}

func TestExhaustedUnseekableRepeatsLast(t *testing.T) {
	gen := must(workload.NewStream(40, 4))
	var buf bytes.Buffer
	if err := Record(&buf, gen, 4); err != nil {
		t.Fatal(err)
	}
	// Wrap in a plain reader (no Seek).
	r, err := NewReader("stream", io.NopCloser(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		r.Next()
	}
	if got := r.Next(); got != 43 {
		t.Fatalf("exhausted trace returned %d, want last access 43", got)
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := NewReader("x", bytes.NewReader([]byte("NOPE!"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader("x", bytes.NewReader([]byte{'R', 'B', 'T', 'R', 99})); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := NewReader("x", bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestEmptyTraceHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 5 {
		t.Fatalf("empty trace = %d bytes, want 5-byte header", buf.Len())
	}
	if _, err := NewReader("empty", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty trace unreadable: %v", err)
	}
}

// TestRecordlessSeekableTraceEnds pins that a seekable trace with a valid
// header and no complete record ends instead of rewinding forever: Next
// returns the zero access, Wrapped reports the one fruitless rewind, and
// nothing is replayed. The stack cap turns a rewind loop into a prompt
// fatal error rather than a gigabyte of stack.
func TestRecordlessSeekableTraceEnds(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	var header bytes.Buffer
	if err := NewWriter(&header).Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{nil, {flagInBurst, 1, 2, 3}} {
		src := append(append([]byte(nil), header.Bytes()...), tail...)
		r, err := NewReader("empty", bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if got := r.Next(); got != 0 || r.InBurst() {
				t.Fatalf("tail %v, access %d: got (%d, %v), want (0, false)", tail, i, got, r.InBurst())
			}
		}
		if !r.Wrapped() || r.Replayed() != 0 {
			t.Fatalf("tail %v: wrapped = %v, replayed = %d; want true, 0", tail, r.Wrapped(), r.Replayed())
		}
	}
}

// FuzzTraceReader feeds arbitrary bytes through a seekable source: NewReader
// either rejects them or Next runs without a panic, and the reader never
// replays more records than the source holds before it wraps.
func FuzzTraceReader(f *testing.F) {
	var buf bytes.Buffer
	if err := Record(&buf, must(workload.NewStream(40, 4)), 3); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:5])
	f.Add(buf.Bytes()[:12])
	f.Add([]byte("NOPE!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		records := uint64(len(data)-5) / 9
		for i := 0; i < 64; i++ {
			r.Next()
			if !r.Wrapped() && r.Replayed() > records {
				t.Fatalf("replayed %d records from a %d-record source", r.Replayed(), records)
			}
		}
		if records == 0 && r.Replayed() != 0 {
			t.Fatalf("replayed %d records from a record-less source", r.Replayed())
		}
	})
}
