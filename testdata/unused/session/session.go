// Package session declares the type the facade aliases.
package session

// S is aliased by the facade.
type S struct{}

// Attach is reached only through the facade's alias: not reported.
func (S) Attach() {}
