// Package core defines the domain vocabulary shared by every UNICORE
// component: site and job identifiers and the distinguished-name helpers
// used for user identity.
//
// Paper terminology (§4): a Usite is "a computer center offering a UNICORE
// server and execution hosts grouped in so called Vsites"; a Vsite is a set
// of systems at one Usite sharing the same data space; a user is identified
// uniquely by the distinguished name of their X.509 certificate.
package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Usite names a UNICORE site (a computer centre running a gateway + NJS).
type Usite string

// Vsite names a virtual site — an execution system (or cluster sharing one
// data space) within a Usite. Vsite names are unique within their Usite.
type Vsite string

// Target addresses a Vsite globally.
type Target struct {
	Usite Usite
	Vsite Vsite
}

// String renders a target as "USITE/VSITE".
func (t Target) String() string { return string(t.Usite) + "/" + string(t.Vsite) }

// IsZero reports whether the target is unset.
func (t Target) IsZero() bool { return t.Usite == "" && t.Vsite == "" }

// ParseTarget parses "USITE/VSITE".
func ParseTarget(s string) (Target, error) {
	u, v, ok := strings.Cut(s, "/")
	if !ok || u == "" || v == "" {
		return Target{}, fmt.Errorf("core: malformed target %q (want USITE/VSITE)", s)
	}
	return Target{Usite(u), Vsite(v)}, nil
}

// JobID identifies a consigned UNICORE job. IDs are assigned by the NJS that
// accepted the consignment and are prefixed with its Usite name, so they are
// globally unique across a deployment (e.g. "FZJ-000042").
type JobID string

// AppendSeq appends n (n >= 0) to b in decimal, zero-padded to width
// digits: what fmt's %0*d prints, without boxing its arguments. The job and
// action IDs are built with it in a caller's stack buffer.
func AppendSeq(b []byte, n int64, width int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], n, 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// DN is an X.509 distinguished name in RFC-2253-ish rendering. In UNICORE
// the user's certificate DN is the unique UNICORE user identification
// (paper §4); the gateway maps it to a local login per Vsite.
type DN string

// MakeDN assembles a distinguished name from common name, organisation and
// country. Empty parts are omitted.
func MakeDN(cn, org, country string) DN {
	var parts []string
	if cn != "" {
		parts = append(parts, "CN="+cn)
	}
	if org != "" {
		parts = append(parts, "O="+org)
	}
	if country != "" {
		parts = append(parts, "C="+country)
	}
	return DN(strings.Join(parts, ","))
}
