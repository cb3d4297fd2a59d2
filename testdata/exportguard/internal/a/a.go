// Package a holds one planted export that nothing calls, among exports
// the guard must accept.
package a

import "fmt"

// Used is called from cmd/x.
func Used() { helper() }

// Unused is the planted export: only a test calls it.
func Unused() {}

// T's String satisfies fmt.Stringer, so it needs no caller.
type T struct{}

func (T) String() string { return fmt.Sprint("t") }

// Called is a method cmd/x calls.
func (T) Called() {}

// Recursive calls only itself; cmd/x calls it too.
func Recursive(n int) int {
	if n > 0 {
		return Recursive(n - 1)
	}
	return 0
}

func helper() {}
