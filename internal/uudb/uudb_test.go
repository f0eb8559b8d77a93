package uudb

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"unicore/internal/core"
)

var (
	alice = core.MakeDN("Alice", "FZJ", "DE")
	bob   = core.MakeDN("Bob", "RUS", "DE")
)

func newDB() *DB { return New() }

func TestMapHappyPath(t *testing.T) {
	db := newDB()
	if err := db.AddMapping(alice, "T3E", Login{UID: "alice", Groups: []string{"hpc"}, Project: "zam"}); err != nil {
		t.Fatal(err)
	}
	login, err := db.Map(alice, "T3E")
	if err != nil {
		t.Fatal(err)
	}
	if login.UID != "alice" || login.Project != "zam" {
		t.Fatalf("login = %+v", login)
	}
}

func TestMapUnknownDN(t *testing.T) {
	db := newDB()
	if _, err := db.Map(alice, "T3E"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapNoVsiteMapping(t *testing.T) {
	db := newDB()
	_ = db.AddMapping(alice, "T3E", Login{UID: "alice"})
	if _, err := db.Map(alice, "SX4"); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("err = %v", err)
	}
}

func TestDifferentUIDsPerVsite(t *testing.T) {
	// The point of the mapping: no uniform uid/gid pairs needed (paper §4).
	db := newDB()
	_ = db.AddMapping(alice, "T3E", Login{UID: "alice"})
	_ = db.AddMapping(alice, "VPP", Login{UID: "a_ex23"})
	l1, _ := db.Map(alice, "T3E")
	l2, _ := db.Map(alice, "VPP")
	if l1.UID == l2.UID {
		t.Fatal("expected distinct local uids per vsite")
	}
}

func TestDuplicateMappingRejected(t *testing.T) {
	db := newDB()
	_ = db.AddMapping(alice, "T3E", Login{UID: "alice"})
	if err := db.AddMapping(alice, "T3E", Login{UID: "other"}); !errors.Is(err, ErrDuplicateMap) {
		t.Fatalf("err = %v", err)
	}
	if l, _ := db.Map(alice, "T3E"); l.UID != "alice" {
		t.Fatalf("uid after rejected re-map = %q", l.UID)
	}
}

func TestEmptyUIDRejected(t *testing.T) {
	db := newDB()
	if err := db.AddMapping(alice, "T3E", Login{}); err == nil {
		t.Fatal("empty uid accepted")
	}
}

// Property: Map succeeds exactly for the (dn, vsite) pairs added, and the
// first login added for a pair is the one it maps to, for any sequence of
// adds.
func TestQuickMapReflectsMutations(t *testing.T) {
	type op struct {
		User  uint8
		Vsite uint8
		UID   uint8
	}
	f := func(ops []op) bool {
		db := newDB()
		want := map[string]string{}
		for _, o := range ops {
			dn := core.MakeDN(fmt.Sprintf("u%d", o.User%5), "O", "DE")
			vs := core.Vsite(fmt.Sprintf("v%d", o.Vsite%4))
			key := string(dn) + "|" + string(vs)
			uid := fmt.Sprintf("x%d", o.UID)
			err := db.AddMapping(dn, vs, Login{UID: uid})
			if _, dup := want[key]; dup != errors.Is(err, ErrDuplicateMap) {
				return false
			}
			if err == nil {
				want[key] = uid
			}
		}
		for u := 0; u < 5; u++ {
			for v := 0; v < 4; v++ {
				dn := core.MakeDN(fmt.Sprintf("u%d", u), "O", "DE")
				vs := core.Vsite(fmt.Sprintf("v%d", v))
				l, err := db.Map(dn, vs)
				if uid, ok := want[string(dn)+"|"+string(vs)]; ok != (err == nil) || l.UID != uid {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
