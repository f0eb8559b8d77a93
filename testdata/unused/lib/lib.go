// Package lib holds the cases the check must and must not report.
package lib

import "io"

// OnlyTestsCall is called only from lib_test.go and itself: reported.
func OnlyTestsCall(n int) int {
	if n == 0 {
		return 0
	}
	return OnlyTestsCall(n - 1)
}

// Reader is converted to io.Reader by cmd/app.
type Reader struct{}

// Read satisfies io.Reader and is called only through it: not reported.
func (Reader) Read(p []byte) (int, error) { return 0, nil }

// Nowhere is called by nothing: reported.
func (Reader) Nowhere() {}

// Doc is passed to json.Marshal by cmd/app.
type Doc struct{}

// MarshalJSON satisfies json.Marshaler: not reported.
func (Doc) MarshalJSON() ([]byte, error) { return []byte("{}"), nil }

// Map is used only through an instantiation: not reported.
func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

// Box is a generic type.
type Box[T any] struct{ v T }

// Get is called only on Box[int]: not reported.
func (b Box[T]) Get() T { return b.v }

// Read satisfies io.Reader only through Box[byte], which cmd/app copies
// from: not reported.
func (b Box[T]) Read(p []T) (int, error) { return 0, io.EOF }

// Unused is called on no instance: reported.
func (b Box[T]) Unused() {}

// Orphan is named only by its own method's receiver: reported, and so is
// the method.
type Orphan struct{}

// Touch is called by nothing: reported.
func (o *Orphan) Touch() {}
