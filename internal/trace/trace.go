// Package trace records and replays memory-access traces. A recorded trace
// captures a workload generator's line-address stream together with its
// burst structure, so a replay drives the simulator identically to the live
// generator — the trace-driven work-flow of conventional architecture
// simulators (the paper's gem5 methodology replays SPEC traces the same
// way).
//
// Format (little-endian):
//
//	magic "RBTR" | version u8 | record*
//	record: flags u8 | line u64
//	flags bit0: the NEXT access continues this access's burst (InBurst)
//
// The format is deliberately simple and stream-friendly; wrap the writer in
// a compressing writer if size matters.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rubix/internal/workload"
)

var magic = [4]byte{'R', 'B', 'T', 'R'}

// Version is the current trace-format version.
const Version = 1

const flagInBurst = 1

// Writer serializes a trace.
type Writer struct {
	w     *bufio.Writer
	n     uint64
	begun bool
}

// NewWriter starts a trace stream on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Append records one access. inBurst reports whether the FOLLOWING access
// belongs to the same burst (workload.Generator.InBurst semantics).
func (t *Writer) Append(line uint64, inBurst bool) error {
	if !t.begun {
		if _, err := t.w.Write(magic[:]); err != nil {
			return err
		}
		if err := t.w.WriteByte(Version); err != nil {
			return err
		}
		t.begun = true
	}
	flags := byte(0)
	if inBurst {
		flags = flagInBurst
	}
	if err := t.w.WriteByte(flags); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], line)
	if _, err := t.w.Write(buf[:]); err != nil {
		return err
	}
	t.n++
	return nil
}

// Records reports how many accesses have been appended.
func (t *Writer) Records() uint64 { return t.n }

// Flush flushes buffered records to the underlying writer.
func (t *Writer) Flush() error {
	if !t.begun {
		// An empty trace still needs its header.
		if _, err := t.w.Write(magic[:]); err != nil {
			return err
		}
		if err := t.w.WriteByte(Version); err != nil {
			return err
		}
		t.begun = true
	}
	return t.w.Flush()
}

// Record captures n accesses from gen into w.
func Record(w io.Writer, gen workload.Generator, n int) error {
	tw := NewWriter(w)
	for i := 0; i < n; i++ {
		line := gen.Next()
		if err := tw.Append(line, gen.InBurst()); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Reader replays a trace as a workload.Generator. When the trace is
// exhausted it rewinds transparently if the source supports seeking,
// otherwise it keeps replaying the last access (a finite simulation should
// size its instruction budget to the trace length). A trace with no
// complete record has nothing to rewind to: it ends after the first rewind,
// the same as an exhausted unseekable source.
type Reader struct {
	name    string
	src     io.Reader
	r       *bufio.Reader
	seeker  io.Seeker
	line    uint64
	inBurst bool
	n       uint64
	wrapped bool
}

type record struct {
	line    uint64
	inBurst bool
}

// NewReader opens a trace stream. name labels the generator.
func NewReader(name string, src io.Reader) (*Reader, error) {
	t := &Reader{name: name, src: src}
	if s, ok := src.(io.Seeker); ok {
		t.seeker = s
	}
	if err := t.start(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Reader) start() error {
	t.r = bufio.NewReaderSize(t.src, 1<<16)
	var hdr [5]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return errors.New("trace: bad magic")
	}
	if hdr[4] != Version {
		return fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	return nil
}

func (t *Reader) read() (record, error) {
	var buf [9]byte
	if _, err := io.ReadFull(t.r, buf[:]); err != nil {
		return record{}, err
	}
	return record{
		line:    binary.LittleEndian.Uint64(buf[1:]),
		inBurst: buf[0]&flagInBurst != 0,
	}, nil
}

// Name implements workload.Generator.
func (t *Reader) Name() string { return t.name }

// Next implements workload.Generator.
func (t *Reader) Next() uint64 {
	rec, err := t.read()
	if err != nil && t.rewind() {
		if rec, err = t.read(); err != nil {
			t.seeker = nil // no complete record: the trace ends here
		}
	}
	if err != nil {
		// Exhausted: repeat the last access.
		t.inBurst = false
		return t.line
	}
	t.line, t.inBurst = rec.line, rec.inBurst
	t.n++
	return t.line
}

// rewind restarts a seekable source at its header, reporting success.
func (t *Reader) rewind() bool {
	if t.seeker == nil {
		return false
	}
	if _, err := t.seeker.Seek(0, io.SeekStart); err != nil || t.start() != nil {
		return false
	}
	t.wrapped = true
	return true
}

// InBurst implements workload.Generator: the recorded burst flag.
func (t *Reader) InBurst() bool { return t.inBurst }

// Replayed reports the number of records consumed (across rewinds).
func (t *Reader) Replayed() uint64 { return t.n }

// Wrapped reports whether the trace has rewound at least once.
func (t *Reader) Wrapped() bool { return t.wrapped }

var _ workload.Generator = (*Reader)(nil)
