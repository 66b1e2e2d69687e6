package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// paperOnly are the packages that exist to reproduce the paper's figures
// and tables (cmd/experiments). The serving binary must link none of them:
// a server that imports one is carrying code no request can reach.
var paperOnly = []string{
	"dct", "wavelet", "vq", "gzipref", "sampling", "datacube", "robust", "viz", "experiments",
}

// TestServingPathDeps fails if seqserver's transitive imports reach a
// paper-only package.
func TestServingPathDeps(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		name, ok := strings.CutPrefix(pkg, "seqstore/internal/")
		name, _, _ = strings.Cut(name, "/")
		if ok && slices.Contains(paperOnly, name) {
			t.Errorf("seqserver links %s, a paper-only package", pkg)
		}
	}
}
