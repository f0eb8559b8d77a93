package ajo

import (
	"encoding/binary"
	"errors"
	"testing"

	"unicore/internal/bin"
	"unicore/internal/bin/bintest"
)

// TestHostileCountsAreRefused: an AJO whose count claims an entry for each
// of the 1 MiB of bytes behind it is refused by name before the list or map
// is made, so the decode allocates no more than its budget. Unbudgeted, the
// dependency list alone took 56 MiB and the site-security map 80 MiB.
func TestHostileCountsAreRefused(t *testing.T) {
	// A job with empty header, target, DN and project: the field before the
	// count is the site-security map, its actions or its dependencies.
	job := func(before ...byte) []byte {
		p := append([]byte{formatTag, codeJob, 0, 0, 0, 0, 0, 0}, before...)
		return append(binary.AppendUvarint(p, 1<<20), make([]byte, 1<<20)...)
	}
	for name, doc := range map[string][]byte{
		"walkStrMap (site security)": job(),
		"dependencies":               job(0, 0), // no site security, no actions
	} {
		if _, err := Unmarshal(doc); !errors.Is(err, bin.ErrOverBudget) {
			t.Errorf("%s: a 1 MiB AJO claiming 1 Mi entries decoded with %v, want %v", name, err, bin.ErrOverBudget)
		}
		bintest.WithinBudget(t, name, len(doc), func() { Unmarshal(doc) })
	}
}
