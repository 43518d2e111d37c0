package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rubix/internal/sim"
)

// recordingExec is a batchExec double that records every batch it receives
// and answers each spec with a synthetic outcome derived from its workload.
type recordingExec struct {
	mu      sync.Mutex
	batches [][]sim.RunSpec // guarded by mu
	block   chan struct{}   // when non-nil, exec waits on it before returning
}

func (e *recordingExec) exec(specs []sim.RunSpec) map[sim.RunSpec]RunOutcome {
	e.mu.Lock()
	e.batches = append(e.batches, append([]sim.RunSpec(nil), specs...))
	block := e.block
	e.mu.Unlock()
	if block != nil {
		<-block
	}
	out := make(map[sim.RunSpec]RunOutcome, len(specs))
	for _, s := range specs {
		out[s] = RunOutcome{Data: []byte("result:" + s.Workload)}
	}
	return out
}

func (e *recordingExec) batchSizes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	sizes := make([]int, len(e.batches))
	for i, b := range e.batches {
		sizes[i] = len(b)
	}
	return sizes
}

func testSpec(i int) sim.RunSpec {
	return sim.RunSpec{Workload: fmt.Sprintf("wl%d", i), Mapping: "coffeelake", Mitigation: "none", TRH: 128}
}

// recv reads one outcome with a test-sized deadline so a batcher bug hangs
// the test visibly instead of forever.
func recv(t *testing.T, ch <-chan RunOutcome) RunOutcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(10 * time.Second):
		t.Fatal("no outcome delivered within 10s")
		return RunOutcome{}
	}
}

func TestBatcherValidation(t *testing.T) {
	exec := &recordingExec{}
	if _, err := NewBatcher(0, time.Second, exec.exec); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewBatcher(4, 0, exec.exec); err == nil {
		t.Fatal("zero wait accepted")
	}
}

// TestBatcherSizeTrigger: hitting the size threshold flushes immediately,
// long before the max wait.
func TestBatcherSizeTrigger(t *testing.T) {
	exec := &recordingExec{}
	b, err := NewBatcher(3, time.Hour, exec.exec)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var chans []<-chan RunOutcome
	for i := 0; i < 3; i++ {
		ch, err := b.Submit(testSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	// The hour-long max wait cannot have elapsed: delivery proves the size
	// trigger fired.
	for i, ch := range chans {
		out := recv(t, ch)
		if want := "result:wl" + fmt.Sprint(i); string(out.Data) != want {
			t.Fatalf("outcome %d = %q, want %q", i, out.Data, want)
		}
	}
	if sizes := exec.batchSizes(); len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batch sizes = %v, want [3]", sizes)
	}
}

// TestBatcherWaitTrigger: a partial batch flushes once the oldest request
// has waited long enough.
func TestBatcherWaitTrigger(t *testing.T) {
	exec := &recordingExec{}
	b, err := NewBatcher(100, 20*time.Millisecond, exec.exec)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ch1, err := b.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := b.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	recv(t, ch1)
	recv(t, ch2)
	if sizes := exec.batchSizes(); len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("batch sizes = %v, want [2]", sizes)
	}
}

// TestBatcherDedupe: duplicate specs inside one batch reach the executor
// once, and every requester receives the shared outcome.
func TestBatcherDedupe(t *testing.T) {
	exec := &recordingExec{}
	b, err := NewBatcher(3, time.Hour, exec.exec)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	spec := testSpec(7)
	var chans []<-chan RunOutcome
	for i := 0; i < 3; i++ {
		ch, err := b.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		out := recv(t, ch)
		if string(out.Data) != "result:wl7" {
			t.Fatalf("outcome = %q", out.Data)
		}
	}
	e := exec
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.batches) != 1 || len(e.batches[0]) != 1 {
		t.Fatalf("executor saw batches %v, want one batch of one spec", e.batches)
	}
}

// TestBatcherCloseDrains: Close flushes queued requests, waits for in-flight
// batches, and rejects later Submits.
func TestBatcherCloseDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	exec := &recordingExec{block: release}
	b, err := NewBatcher(1, time.Hour, exec.exec)
	if err != nil {
		t.Fatal(err)
	}
	// size 1: this dispatches immediately and blocks in the executor.
	inflight, err := b.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was still executing")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the batch finished")
	}
	// The in-flight outcome must already be delivered: Close waited for it.
	select {
	case out := <-inflight:
		if string(out.Data) != "result:wl1" {
			t.Fatalf("outcome = %q", out.Data)
		}
	default:
		t.Fatal("Close returned before the outcome was delivered")
	}
	if _, err := b.Submit(testSpec(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	b.Close() // second Close is a no-op
	settleGoroutines(t, base)
}

// settleGoroutines fails the test unless the goroutine count falls back to
// base within two seconds. Run it after the code under test has been shut
// down: a goroutine still running then has leaked.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, %d before the test:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatcherQueuedFlushOnClose: requests still waiting for the size or
// wait trigger are flushed by Close, not dropped.
func TestBatcherQueuedFlushOnClose(t *testing.T) {
	base := runtime.NumGoroutine()
	exec := &recordingExec{}
	b, err := NewBatcher(100, time.Hour, exec.exec)
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan RunOutcome
	for i := 0; i < 3; i++ {
		ch, err := b.Submit(testSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	b.Close()
	for i, ch := range chans {
		select {
		case out := <-ch:
			if want := "result:wl" + fmt.Sprint(i); string(out.Data) != want {
				t.Fatalf("outcome %d = %q, want %q", i, out.Data, want)
			}
		default:
			t.Fatalf("outcome %d not delivered by Close", i)
		}
	}
	if sizes := exec.batchSizes(); len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batch sizes = %v, want [3]", sizes)
	}
	settleGoroutines(t, base)
}

// TestBatcherMissingOutcome: an executor that loses a spec yields an error
// outcome instead of a hang.
func TestBatcherMissingOutcome(t *testing.T) {
	b, err := NewBatcher(1, time.Hour, func(specs []sim.RunSpec) map[sim.RunSpec]RunOutcome {
		return nil // drop everything
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ch, err := b.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if out := recv(t, ch); out.Err == nil {
		t.Fatal("missing outcome did not surface as an error")
	}
}
