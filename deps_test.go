package unicore_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoPackageImportsGob keeps the repository at two serialisation schemes:
// the binary codec built on internal/bin, and JSON for signed envelopes and
// the CLI. encoding/gob carried the AJO and the journal record once; a new
// import of it, in code or in a test, would be a third scheme growing back.
func TestNoPackageImportsGob(t *testing.T) {
	const format = `{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}`
	out, err := exec.Command("go", "list", "-f", format, "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 10 {
		t.Fatalf("go list named only %d packages:\n%s", len(lines), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, imp := range fields[1:] {
			if imp == "encoding/gob" {
				t.Errorf("%s imports encoding/gob", fields[0])
			}
		}
	}
}
