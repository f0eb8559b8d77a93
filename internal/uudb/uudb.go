// Package uudb implements the UNICORE user database. Paper §5.2: "a mapping
// process has been implemented in the form of a Java servlet which maps the
// user's distinguished name to the corresponding user-id. Each UNICORE site
// administration therefore maintains a user data base for the local
// mapping."
//
// The database is per Usite: for every certificate DN it records, per Vsite,
// the local login (uid, groups, default project). This eliminates the need
// for uniform uid/gid pairs across sites (§4) — the same DN may map to
// "alice" at FZJ and "a.ex23" at LRZ.
package uudb

import (
	"errors"
	"fmt"
	"sync"

	"unicore/internal/core"
)

// Errors reported by lookups and updates.
var (
	ErrUnknownUser  = errors.New("uudb: distinguished name not registered")
	ErrNoMapping    = errors.New("uudb: no login mapping for vsite")
	ErrDuplicateMap = errors.New("uudb: mapping already present")
)

// Login is the local identity a DN incarnates to at one Vsite.
type Login struct {
	UID     string   `json:"uid"`
	Groups  []string `json:"groups,omitempty"`
	Project string   `json:"project,omitempty"` // the "user account group" of the AJO
}

// entry is the per-user record.
type entry struct {
	Email    string
	Mappings map[core.Vsite]Login
}

// DB is one site's user database. It is safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	entries map[core.DN]*entry
}

// New creates an empty database.
func New() *DB {
	return &DB{entries: make(map[core.DN]*entry)}
}

// AddUser registers a DN (idempotent).
func (db *DB) AddUser(dn core.DN, email string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.entries[dn]; !ok {
		db.entries[dn] = &entry{Email: email, Mappings: map[core.Vsite]Login{}}
	}
}

// AddMapping installs the login for dn at vsite. The DN is registered if
// needed. Re-mapping an existing (dn, vsite) pair fails with ErrDuplicateMap.
func (db *DB) AddMapping(dn core.DN, vsite core.Vsite, login Login) error {
	if login.UID == "" {
		return fmt.Errorf("uudb: empty uid for %s at %s", dn, vsite)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.entries[dn]
	if !ok {
		e = &entry{Mappings: map[core.Vsite]Login{}}
		db.entries[dn] = e
	}
	if _, dup := e.Mappings[vsite]; dup {
		return fmt.Errorf("%w: %s at %s", ErrDuplicateMap, dn, vsite)
	}
	e.Mappings[vsite] = login
	return nil
}

// Map translates a DN to the local login at vsite. This is the gateway's
// central operation (paper §4.2).
func (db *DB) Map(dn core.DN, vsite core.Vsite) (Login, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.entries[dn]
	if !ok {
		return Login{}, fmt.Errorf("%w: %s", ErrUnknownUser, dn)
	}
	login, ok := e.Mappings[vsite]
	if !ok {
		return Login{}, fmt.Errorf("%w: %s at %s", ErrNoMapping, dn, vsite)
	}
	return login, nil
}
