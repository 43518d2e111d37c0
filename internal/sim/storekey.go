// Store-tier glue for the experiment Suite: the canonical key that names a
// simulation result in a persistent store, and the wire encoding of a
// Result. The store itself (internal/store) is payload-agnostic; THIS file
// decides what "the same run" means.
//
// A RunSpec alone is NOT a sufficient store key: two Suites with different
// Options run different simulations for the same spec. The key therefore
// hashes the spec together with every Options field that can change a
// Result:
//
//   - Seed (resolved: the default-seed substitution happens before
//     hashing, so "unset" and "explicitly the default" share an entry, as
//     they share a simulation),
//   - Scale (hex float formatting — exact, no decimal rounding),
//   - Cores,
//   - Geometry (all six shape fields).
//
// Deliberately excluded, with the reason each exclusion is sound:
//
//   - Workloads/Mixes: sweep enumeration inputs; the spec names the one
//     workload that runs.
//   - Paranoid: an attached checker can fail a run but never changes a
//     successful Result, and only successful Results are stored.
//   - The callbacks (OnRunDone etc.): observers.
//
// The preimage is versioned and built from fixed-order %q/%d/%x writes —
// no maps, no floats in decimal — so the same configuration hashes
// identically across processes, platforms, and Go versions. Adding a
// result-determining Options field REQUIRES extending storePreimage and
// bumping storeKeyVersion; TestStoreKeyGolden exists to make forgetting
// that a test failure instead of silent cross-version cache poisoning.

package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// ResultStore is the persistence interface the Suite's store tier runs on.
// internal/store.Store satisfies it; tests substitute in-memory fakes. Get
// reports misses (including corrupt or truncated entries) as ok=false, and
// implementations must be safe for concurrent use — Prefetch calls from
// every worker.
type ResultStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
}

// storeKeyVersion is the canonical-preimage format version. Bump it
// whenever storePreimage changes shape or a new result-determining field
// joins the hash, so entries written under the old derivation become misses
// instead of mismatched hits.
const storeKeyVersion = 2

// storePreimage renders the canonical hash preimage for (spec, opts). opts
// must already be normalized (withDefaults); StoreKey handles that for
// external callers.
func storePreimage(spec RunSpec, o Options) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "rubix-result v%d\n", storeKeyVersion)
	fmt.Fprintf(&b, "workload=%q\n", spec.Workload)
	fmt.Fprintf(&b, "mapping=%q\n", spec.Mapping)
	fmt.Fprintf(&b, "mitigation=%q\n", spec.Mitigation)
	fmt.Fprintf(&b, "trh=%d\n", spec.TRH)
	fmt.Fprintf(&b, "linecensus=%t\n", spec.LineCensus)
	fmt.Fprintf(&b, "seed=%d\n", o.Seed)
	// Hex float formatting is exact: every float64 has one canonical 'x'
	// rendering, unlike shortest-decimal which is library-dependent.
	fmt.Fprintf(&b, "scale=%s\n", strconv.FormatFloat(o.Scale, 'x', -1, 64))
	fmt.Fprintf(&b, "cores=%d\n", o.Cores)
	fmt.Fprintf(&b, "geometry=%d/%d/%d/%d/%d/%d\n",
		o.Geometry.Channels, o.Geometry.Ranks, o.Geometry.Banks,
		o.Geometry.RowsPerBank, o.Geometry.RowBytes, o.Geometry.LineBytes)
	return []byte(b.String())
}

// StoreKey derives the content-addressed store key for one simulation:
// hex SHA-256 of the canonical (RunSpec + result-determining Options)
// preimage. Equal keys mean "a stored Result may be served instead of
// simulating"; the derivation is stable across processes and restarts.
func StoreKey(spec RunSpec, opts Options) string {
	sum := sha256.Sum256(storePreimage(spec, opts.withDefaults()))
	return hex.EncodeToString(sum[:])
}

// storeKey is the Suite-internal variant: s.opts is normalized at NewSuite,
// so the withDefaults re-normalization is skipped.
func (s *Suite) storeKey(spec RunSpec) string {
	sum := sha256.Sum256(storePreimage(spec, s.opts))
	return hex.EncodeToString(sum[:])
}

// EncodeResult renders a Result as its canonical wire form: compact JSON
// with struct-ordered fields. The encoding is deterministic for
// deterministic content (encoding/json sorts the map keys inside a metrics
// snapshot; every other field is a struct, slice, or scalar), and it
// round-trips: DecodeResult(EncodeResult(r)) re-encodes to the same bytes.
// The sweep service stores and serves these exact bytes, which is what
// makes "fresh simulation", "memory cache", and "store hit" byte-identical
// over HTTP.
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("sim: encode nil Result")
	}
	return json.Marshal(r)
}

// DecodeResult parses EncodeResult output. A payload that does not decode,
// or decodes to something that cannot be a simulation result, is an error —
// the store tier treats that as a miss and resimulates.
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("sim: decode stored result: %w", err)
	}
	if r.DRAM == nil || len(r.IPC) == 0 {
		return nil, fmt.Errorf("sim: decode stored result: missing core fields")
	}
	return &r, nil
}
