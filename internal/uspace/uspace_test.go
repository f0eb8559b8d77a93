package uspace

import (
	"bytes"
	"errors"
	"testing"

	"unicore/internal/sim"
	"unicore/internal/vfs"
)

func newSpace(t *testing.T) *Space {
	t.Helper()
	fs := vfs.New(sim.NewVirtualClock())
	s, err := New(fs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateJobDir(t *testing.T) {
	s := newSpace(t)
	dir, err := s.CreateJobDir("FZJ-000001")
	if err != nil {
		t.Fatal(err)
	}
	if dir != "/uspace/FZJ-000001" {
		t.Fatalf("dir = %q", dir)
	}
	if _, err := s.CreateJobDir("FZJ-000001"); !errors.Is(err, ErrJobExists) {
		t.Fatalf("duplicate job dir: %v", err)
	}
}

func TestImportInlineAndRead(t *testing.T) {
	s := newSpace(t)
	_, _ = s.CreateJobDir("J1")
	data := []byte("workstation payload")
	if err := s.ImportInline("J1", "in/data.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadJobFile("J1", "in/data.txt")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestImportXspaceIsLocalCopy(t *testing.T) {
	s := newSpace(t)
	_, _ = s.CreateJobDir("J1")
	if err := s.WriteXspace("/home/alice/in.dat", []byte("xdata")); err != nil {
		t.Fatal(err)
	}
	if err := s.ImportXspace("J1", "in.dat", "/home/alice/in.dat"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ReadJobFile("J1", "in.dat")
	if string(got) != "xdata" {
		t.Fatalf("imported = %q", got)
	}
	// The original must be untouched (copy, not move).
	orig, err := s.ReadXspace("/home/alice/in.dat")
	if err != nil || string(orig) != "xdata" {
		t.Fatalf("original = %q, %v", orig, err)
	}
}

func TestExport(t *testing.T) {
	s := newSpace(t)
	_, _ = s.CreateJobDir("J1")
	_ = s.WriteJobFile("J1", "result.dat", []byte("results"))
	fi, err := s.Export("J1", "result.dat", "/home/alice/results/r.dat")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 7 {
		t.Fatalf("exported info = %+v", fi)
	}
	got, _ := s.ReadXspace("/home/alice/results/r.dat")
	if string(got) != "results" {
		t.Fatalf("exported = %q", got)
	}
}

func TestEscapeRejected(t *testing.T) {
	s := newSpace(t)
	_, _ = s.CreateJobDir("J1")
	_, _ = s.CreateJobDir("J2")
	_ = s.WriteJobFile("J2", "secret.txt", []byte("other job's data"))

	cases := []string{"../J2/secret.txt", "../../home/alice/x", "/etc/passwd"}
	for _, rel := range cases {
		if err := s.ImportInline("J1", rel, []byte("x")); !errors.Is(err, ErrEscape) {
			t.Errorf("ImportInline(%q) err = %v, want ErrEscape", rel, err)
		}
		if _, err := s.ReadJobFile("J1", rel); !errors.Is(err, ErrEscape) {
			t.Errorf("ReadJobFile(%q) err = %v, want ErrEscape", rel, err)
		}
	}
	// Export destinations are confined inside the Xspace: a path that looks
	// like another job's Uspace is re-rooted under the Xspace, never written
	// to the real Uspace tree.
	_ = s.WriteJobFile("J1", "f", []byte("x"))
	if _, err := s.Export("J1", "f", "/uspace/J2/steal"); err != nil {
		t.Errorf("confined export failed: %v", err)
	}
	if s.FS().Exists("/uspace/J2/steal") {
		t.Error("export escaped into the Uspace tree")
	}
	if !s.FS().Exists("/home/uspace/J2/steal") {
		t.Error("confined export did not land under the Xspace root")
	}
	// Import sources are confined the same way: the other job's real Uspace
	// file is unreachable (the confined path simply does not exist).
	if err := s.ImportXspace("J1", "f2", "/uspace/J2/secret.txt"); err == nil {
		t.Error("import reached another job's Uspace")
	}
	if data, err := s.ReadJobFile("J1", "f2"); err == nil {
		t.Errorf("leaked data: %q", data)
	}
	// The empty Xspace path is rejected outright.
	if _, err := s.Export("J1", "f", ""); !errors.Is(err, ErrEscape) {
		t.Errorf("empty Xspace path: %v", err)
	}
}

func TestMissingJobDir(t *testing.T) {
	s := newSpace(t)
	if err := s.ImportInline("GHOST", "f", []byte("x")); !errors.Is(err, ErrNoJobDir) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.StatJobFile("GHOST", "f"); !errors.Is(err, ErrNoJobDir) {
		t.Fatalf("stat err = %v", err)
	}
}

func TestStatJobFile(t *testing.T) {
	s := newSpace(t)
	_, _ = s.CreateJobDir("J1")
	_ = s.WriteJobFile("J1", "f", []byte("abc"))
	fi, err := s.StatJobFile("J1", "f")
	if err != nil || fi.Size != 3 {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
}

func TestTransferBetweenSpaces(t *testing.T) {
	// Simulates the §5.6 Uspace→Uspace transfer at the data layer: read at
	// the source Vsite, write at the destination Vsite.
	src := newSpace(t)
	dst := newSpace(t)
	_, _ = src.CreateJobDir("S")
	_, _ = dst.CreateJobDir("D")
	_ = src.WriteJobFile("S", "stage1.out", []byte("intermediate"))
	data, err := src.ReadJobFile("S", "stage1.out")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteJobFile("D", "stage1.out", data); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.ReadJobFile("D", "stage1.out")
	if string(got) != "intermediate" {
		t.Fatalf("transferred = %q", got)
	}
}
