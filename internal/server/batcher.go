// The request batcher: the piece of rubixd that turns many concurrent
// HTTP requests into few, well-shaped simulation batches. Requests
// accumulate until either the batch is full (size trigger) or the oldest
// request has waited long enough (max-wait trigger); each flush dispatches
// one executor call and fans the per-spec outcomes back out over
// per-request response channels. Duplicate specs inside a batch are
// collapsed before the executor sees them, and duplicates ACROSS in-flight
// batches coalesce one level down, on the Suite's per-spec sync.Once — the
// batcher deliberately re-uses that existing idiom instead of duplicating
// in-flight tracking.
package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rubix/internal/sim"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("server: batcher closed")

// RunOutcome is one spec's terminal state: the canonical encoded Result on
// success, or the error that run produced.
type RunOutcome struct {
	Data []byte // sim.EncodeResult bytes; nil on error
	Err  error
}

// batchExec executes one deduplicated batch and reports an outcome for
// every spec it was handed. Implementations run specs concurrently (the
// Suite fans out and coalesces); the batcher imposes no ordering.
type batchExec func(specs []sim.RunSpec) map[sim.RunSpec]RunOutcome

// request pairs a spec with its private response channel. The channel is
// buffered (capacity 1) so delivery never blocks the dispatch goroutine on
// a slow or departed reader.
type request struct {
	spec sim.RunSpec
	resp chan RunOutcome
}

// Batcher groups submitted RunSpecs into executor batches by size and
// maximum wait.
type Batcher struct {
	size int
	wait time.Duration
	exec batchExec

	mu     sync.Mutex
	closed bool         // guarded by mu
	reqs   chan request // senders serialize under mu; closed by Close

	loopDone chan struct{}  // closed when the collection loop drains and exits
	flights  sync.WaitGroup // in-flight dispatched batches
}

// NewBatcher builds a running batcher. size is the flush threshold (at
// least 1); wait bounds how long the oldest queued request waits before a
// partial batch flushes anyway.
func NewBatcher(size int, wait time.Duration, exec batchExec) (*Batcher, error) {
	if size < 1 {
		return nil, fmt.Errorf("server: batch size %d, want >= 1", size)
	}
	if wait <= 0 {
		return nil, fmt.Errorf("server: batch wait %v, want > 0", wait)
	}
	b := &Batcher{
		size:     size,
		wait:     wait,
		exec:     exec,
		reqs:     make(chan request),
		loopDone: make(chan struct{}),
	}
	go b.loop()
	return b, nil
}

// Submit enqueues one spec and returns the channel its outcome will arrive
// on. The send into the collection loop happens under the mutex, so a
// Submit that observed closed==false always completes its handoff before
// Close can close the channel — the loop keeps receiving until then.
func (b *Batcher) Submit(spec sim.RunSpec) (<-chan RunOutcome, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	r := request{spec: spec, resp: make(chan RunOutcome, 1)}
	b.reqs <- r
	return r.resp, nil
}

// Close drains the batcher: no new Submits are accepted, every queued
// request is flushed, and Close blocks until all dispatched batches have
// executed and delivered their outcomes. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	if !already {
		close(b.reqs)
	}
	b.mu.Unlock()
	<-b.loopDone
	b.flights.Wait()
}

// loop is the collection goroutine: it owns the pending batch and the
// max-wait timer, and never blocks on execution (dispatch hands the batch
// to its own goroutine).
func (b *Batcher) loop() {
	defer close(b.loopDone)
	var batch []request
	var timer *time.Timer
	var timeout <-chan time.Time
	flush := func() {
		if timer != nil {
			timer.Stop()
			timer, timeout = nil, nil
		}
		if len(batch) > 0 {
			b.dispatch(batch)
			batch = nil
		}
	}
	for {
		select {
		case r, ok := <-b.reqs:
			if !ok {
				flush()
				return
			}
			batch = append(batch, r)
			if len(batch) >= b.size {
				flush()
			} else if timer == nil {
				// The max-wait clock starts at the batch's FIRST request:
				// a trickle of singletons pays at most `wait` latency each,
				// while a burst still flushes early on size.
				timer = time.NewTimer(b.wait)
				timeout = timer.C
			}
		case <-timeout:
			flush()
		}
	}
}

// dispatch executes one batch asynchronously and fans outcomes back to the
// waiting requests. Duplicate specs collapse to a single executor entry;
// every requester of that spec receives the same outcome.
func (b *Batcher) dispatch(batch []request) {
	// Add runs in the spawning function, before the go statement: dispatch
	// runs on the collection goroutine, which Close joins via loopDone
	// before calling flights.Wait.
	b.flights.Add(1)
	go func() {
		defer b.flights.Done()
		specs := make([]sim.RunSpec, 0, len(batch))
		seen := make(map[sim.RunSpec]bool, len(batch))
		for _, r := range batch {
			if !seen[r.spec] {
				seen[r.spec] = true
				specs = append(specs, r.spec)
			}
		}
		outcomes := b.exec(specs)
		for _, r := range batch {
			out, ok := outcomes[r.spec]
			if !ok {
				out = RunOutcome{Err: fmt.Errorf("server: executor returned no outcome for %s", r.spec)}
			}
			// resp is made with capacity 1 in Submit and receives exactly
			// one send, so delivery never blocks even if the requester
			// departed.
			r.resp <- out
		}
	}()
}
