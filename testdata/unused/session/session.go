// Package session declares the type the facade aliases.
package session

// S is aliased by the facade.
type S struct{}

// Attach is reachable through the facade's alias, but nothing calls it:
// reported.
func (S) Attach() {}
