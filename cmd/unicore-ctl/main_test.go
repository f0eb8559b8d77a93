package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenOutput holds what `unicore-ctl validate` and `diff` print to
// the bytes of testdata/*.golden: live.json declares every optional Vsite
// field, and desired.json differs from it by one change of every kind the
// differ reports. Regenerate with `go test ./cmd/unicore-ctl -update`.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name, golden string
		run          func(io.Writer, []string) error
		args         []string
	}{
		{"validate", "validate.golden", runValidate,
			[]string{"-f", "testdata/live.json"}},
		{"diff", "diff.golden", runDiff,
			[]string{"-f", "testdata/desired.json", "-current", "testdata/live.json"}},
		{"diff-none", "diff-none.golden", runDiff,
			[]string{"-f", "testdata/live.json", "-current", "testdata/live.json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := tc.run(&out, tc.args); err != nil {
				t.Fatalf("%s %v: %v", tc.name, tc.args, err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%s output differs from %s:\n--- got ---\n%s--- want ---\n%s", tc.name, path, out.Bytes(), want)
			}
		})
	}
}

// TestValidateRefusesPolicyField: a topology file that still declares a
// pool "policy" is refused, and the error names the field, so an operator
// knows which line to delete.
func TestValidateRefusesPolicyField(t *testing.T) {
	var out bytes.Buffer
	err := runValidate(&out, []string{"-f", "testdata/policy.json"})
	if err == nil || !strings.Contains(err.Error(), `unknown field "policy"`) {
		t.Fatalf("validate of a spec with a policy field: err = %v, want it refused by name", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a refused spec printed a summary:\n%s", out.Bytes())
	}
}
