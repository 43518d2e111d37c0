package dram

import (
	"runtime"
	"testing"
	"time"

	"rubix/internal/geom"
)

// finalizedStats runs a few accesses on a fresh module, registers a
// finalizer that closes released, and returns only the module's final
// stats. Kept out of line so no stack slot of the caller holds the module.
//
//go:noinline
func finalizedStats(released chan struct{}) *Stats {
	m := New(Config{Geometry: geom.DDR4_16GB(), Timing: DDR4_2400(), TRH: 128, LineCensus: true})
	now := 0.0
	for i := uint64(0); i < 64; i++ {
		now = m.Access(lineAt(m.Geom, i*7, int(i%4)), now).Completion
	}
	runtime.SetFinalizer(m, func(*Module) { close(released) })
	return m.Finalize()
}

// TestFinalizeReleasesModule pins the retention fix: the Stats a run keeps
// (Result.DRAM) must not hold its Module reachable. An interior pointer into
// the Module would pin the bank array and the census slot table of every
// cached Result, so a sweep's heap grew with each finished run.
func TestFinalizeReleasesModule(t *testing.T) {
	released := make(chan struct{})
	st := finalizedStats(released)
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			if st.Accesses != 64 {
				t.Fatalf("stats copy reports %d accesses, want 64", st.Accesses)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	runtime.KeepAlive(st)
	t.Fatal("Module still reachable from the Stats returned by Finalize")
}
