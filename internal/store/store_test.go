package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// keyOf derives a well-formed key from any label, the way callers derive
// keys from canonical preimages.
func keyOf(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t)
	key := keyOf("spec-a")
	payload := []byte(`{"mean_ipc":1.25}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("Get before Put reported a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	// Overwrite with new content (e.g. after a format upgrade recompute).
	if err := s.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(key); string(got) != "v2" {
		t.Fatalf("overwrite not visible: got %q", got)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t)
	bad := []string{
		"",
		"short",
		strings.Repeat("g", 64),               // non-hex
		strings.Repeat("A", 64),               // uppercase hex is not canonical
		"../../../../etc/passwd" + keyOf("x"), // traversal attempt
		keyOf("x")[:63] + "/",                 // separator
	}
	for _, key := range bad {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit on an invalid key", key)
		}
	}
}

// TestCorruptEntryIsMiss pins the durability contract: flipped payload
// bits, a mangled header, and a foreign format version all read as misses,
// never as errors or wrong data.
func TestCorruptEntryIsMiss(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"payload bit flip", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0x40
			return out
		}},
		{"checksum mangled", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len("rubixstore v1 ")] = 'z' // not hex
			return out
		}},
		{"future format version", func(raw []byte) []byte {
			return append([]byte("rubixstore v999 "), raw[len("rubixstore v1 "):]...)
		}},
		{"no header newline", func(raw []byte) []byte {
			return bytes.ReplaceAll(raw, []byte("\n"), []byte(" "))
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			s := mustOpen(t)
			key := keyOf("victim-" + c.name)
			if err := s.Put(key, []byte(`{"rows":[1,2,3]}`)); err != nil {
				t.Fatal(err)
			}
			path := s.path(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.mut(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry read back as a hit: %q", got)
			}
			// The recovery path: a fresh Put over the bad entry heals it.
			if err := s.Put(key, []byte("healed")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || string(got) != "healed" {
				t.Fatalf("re-Put over corrupt entry did not heal: ok=%v got=%q", ok, got)
			}
		})
	}
}

// TestTruncatedEntryIsMiss cuts a valid entry at every length from zero to
// full-minus-one; all of them must miss. This is the crash-mid-write file
// state an atomic rename is supposed to prevent — if it ever shows up
// anyway (torn sector, copied store), it must not decode.
func TestTruncatedEntryIsMiss(t *testing.T) {
	s := mustOpen(t)
	key := keyOf("truncate-me")
	if err := s.Put(key, []byte(`{"payload":"0123456789abcdef"}`)); err != nil {
		t.Fatal(err)
	}
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(raw); n++ {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("entry truncated to %d/%d bytes read back as a hit", n, len(raw))
		}
	}
}

// TestCrashBeforeRenameLeavesNoEntry simulates a crash between the
// temp-file write and the rename: a fully written temp file with the
// payload sitting in the entry's directory. The entry must stay invisible
// — to Get and to Len — and a later Put must succeed over it.
func TestCrashBeforeRenameLeavesNoEntry(t *testing.T) {
	s := mustOpen(t)
	key := keyOf("crashed")
	payload := []byte("almost made it")
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Reproduce Put's temp-file state byte-for-byte, then "crash" (no rename).
	sum := sha256.Sum256(payload)
	tmpContent := fmt.Sprintf("%s%s\n%s", formatHeader, hex.EncodeToString(sum[:]), payload)
	if err := os.WriteFile(filepath.Join(dir, ".put-crashed123"), []byte(tmpContent), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("orphaned temp file visible as an entry")
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v; want 0 entries (temp files don't count)", n, err)
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put after simulated crash: %v", err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Put after crash not readable: ok=%v got=%q", ok, got)
	}
}

// TestConcurrentSharedDirectory hammers one directory through two separate
// Store handles (stand-ins for two processes): concurrent Puts of the same
// and different keys must never interleave into a partial or mixed entry —
// every Get sees a complete, verifiable payload.
func TestConcurrentSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	const rounds = 25
	payload := func(k int) []byte {
		// Big enough that a torn write would be detectable.
		return bytes.Repeat([]byte(fmt.Sprintf("key%d|", k)), 512)
	}
	var wg sync.WaitGroup
	for _, st := range []*Store{a, b} {
		wg.Add(1)
		go func(st *Store) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := keyOf(fmt.Sprintf("shared-%d", k))
					if err := st.Put(key, payload(k)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					if got, ok := st.Get(key); ok && !bytes.Equal(got, payload(k)) {
						t.Errorf("Get returned a torn/mixed entry for key %d", k)
						return
					}
				}
			}
		}(st)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		key := keyOf(fmt.Sprintf("shared-%d", k))
		got, ok := a.Get(key)
		if !ok || !bytes.Equal(got, payload(k)) {
			t.Fatalf("final Get of key %d: ok=%v, intact=%v", k, ok, bytes.Equal(got, payload(k)))
		}
	}
	if n, err := a.Len(); err != nil || n != keys {
		t.Fatalf("Len = %d, %v; want %d", n, err, keys)
	}
}

// TestEntryFormatGolden pins the on-disk envelope byte-for-byte, so a
// format change cannot happen without bumping the version string and this
// test together.
func TestEntryFormatGolden(t *testing.T) {
	s := mustOpen(t)
	payload := []byte("golden payload")
	key := keyOf("golden")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	// 99b2f5… is sha256("golden payload") — independently checkable with
	// `printf 'golden payload' | sha256sum`.
	want := "rubixstore v1 99b2f51b5b653a94d7bb1b0d069192a6ff6f1089ab696b64d00581440cb8e31f\ngolden payload"
	if string(raw) != want {
		t.Fatalf("entry envelope changed:\n got: %q\nwant: %q\n(bump the format version and regenerate)", raw, want)
	}
}

// FuzzStoreEntry feeds arbitrary bytes to the entry decoder. It must not
// panic; it may accept an entry only when the header carries the SHA-256 of
// the payload that follows it; and an accepted payload written with Put
// must come back from Get byte-identical.
func FuzzStoreEntry(f *testing.F) {
	payload := []byte(`{"mean_ipc":1.25}`)
	sum := sha256.Sum256(payload)
	valid := append([]byte(formatHeader+hex.EncodeToString(sum[:])+"\n"), payload...)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte(formatHeader + "\n"))
	f.Add([]byte("rubixstore v0 " + hex.EncodeToString(sum[:]) + "\n"))
	f.Add([]byte{})

	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := keyOf("fuzz")
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, ok := decodeEntry(raw)
		if !ok {
			return
		}
		header, body, _ := bytes.Cut(raw, []byte("\n"))
		sum := sha256.Sum256(body)
		if string(header) != formatHeader+hex.EncodeToString(sum[:]) || !bytes.Equal(got, body) {
			t.Fatalf("accepted entry whose header %q does not carry the payload's SHA-256", header)
		}
		if err := s.Put(key, got); err != nil {
			t.Fatal(err)
		}
		if back, ok := s.Get(key); !ok || !bytes.Equal(back, got) {
			t.Fatalf("Put/Get round trip = (%q, %v), want (%q, true)", back, ok, got)
		}
	})
}
