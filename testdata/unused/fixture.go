// Package fixture is the facade of the module TestNothingIsUnusedFixture
// checks: its exported names and the methods of the types it aliases are API,
// used or not.
package fixture

import "fixture/session"

// Session is the facade's handle; session.S.Attach is API although nothing
// in the module calls it.
type Session = session.S

// Version is API although nothing in the module reads it.
const Version = "1"
