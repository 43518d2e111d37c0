// Package dram is a miniature simulation-state package (classified by
// basename): writes into its structs and calls into its functions are
// observereffect sinks, and its error-returning constructors feed the
// errdiscard testdata.
package dram

import "errors"

// Bank is a sliver of simulation state.
type Bank struct {
	Threshold uint64
	Rows      []uint64
}

// Attach wires an opaque probe handle into the bank; metrics-typed
// arguments are exempt at this sink.
func Attach(b *Bank, probe any) {}

// Activate touches a row — simulation behavior.
func (b *Bank) Activate(row uint64) {
	b.Rows[row&(uint64(len(b.Rows))-1)]++
}

// New builds a bank, rejecting non-positive sizes.
func New(rows int) (*Bank, error) {
	if rows <= 0 {
		return nil, errors.New("dram: rows must be positive")
	}
	return &Bank{Rows: make([]uint64, rows)}, nil
}

// Check validates invariants.
func Check() error { return nil }
