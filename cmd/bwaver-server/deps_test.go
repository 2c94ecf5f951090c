package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBinariesLinkNoTestPackages: no command or example links a test helper.
// The gateway reaches its embedded fallback server through its own
// in-process transport (internal/cluster/upstream.go), so net/http/httptest
// and testing belong to _test.go files only.
func TestBinariesLinkNoTestPackages(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "bwaver/cmd/...", "bwaver/examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "net/http/httptest" || pkg == "testing" {
			t.Errorf("a command or example links %s", pkg)
		}
	}
}
