package uspace

import (
	"errors"
	"path"
	"testing"
)

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the race detector's own.
var raceEnabled bool

// TestJobPathMatchesJoin: the one-string job path names exactly what
// path.Join names, and every escape is refused.
func TestJobPathMatchesJoin(t *testing.T) {
	s := newSpace(t)
	if _, err := s.CreateJobDir("J1"); err != nil {
		t.Fatal(err)
	}
	dir := s.JobDir("J1")
	for _, rel := range []string{"f", "sub/f", "a/b/c.dat", ".", "", "./f", "sub/../f", "sub/", "a//b", "..a", "a..", "sub/..", "x/./y"} {
		got, err := s.jobPath("J1", rel)
		if err != nil {
			t.Errorf("jobPath(%q): %v", rel, err)
			continue
		}
		if want := path.Join(dir, rel); got != want {
			t.Errorf("jobPath(%q) = %q, want %q", rel, got, want)
		}
	}
	for _, rel := range []string{"..", "../J2", "../../x", "/etc/passwd", "a/../../J2"} {
		if _, err := s.jobPath("J1", rel); !errors.Is(err, ErrEscape) {
			t.Errorf("jobPath(%q) err = %v, want ErrEscape", rel, err)
		}
	}
	if _, err := s.jobPath("GHOST", "f"); !errors.Is(err, ErrNoJobDir) {
		t.Errorf("jobPath on a missing job dir: %v, want ErrNoJobDir", err)
	}
}

// TestReadJobFileRangeAllocatesOnlyItsPath gates the §5.6 chunked read: one
// ranged read of a Uspace file allocates at most its path string.
func TestReadJobFileRangeAllocatesOnlyItsPath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	s := newSpace(t)
	if _, err := s.CreateJobDir("FZJ-000001"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJobFile("FZJ-000001", "out/result.dat", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, _, _, err := s.ReadJobFileRange("FZJ-000001", "out/result.dat", 1024, 1024); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, read); n > 1 {
		t.Errorf("ReadJobFileRange allocates %.0f times, want at most 1", n)
	}
}
