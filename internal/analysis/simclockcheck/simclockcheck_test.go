package simclockcheck

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lifeguard/internal/analysis/analysistest"
)

func TestSimclockcheck(t *testing.T) {
	analysistest.Run(t, ".", Analyzer, "a", "clean", "ignore")
}

func TestAllowlist(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"lifeguard/internal/runner", true},
		// Test variants as the vet driver names them.
		{"lifeguard/internal/runner [lifeguard/internal/runner.test]", true},
		{"lifeguard/internal/runner_test [lifeguard/internal/runner.test]", true},
		// The exporter may read the wall clock; the obs core may not.
		{"lifeguard/internal/obs/obshttp", true},
		{"lifeguard/internal/obs/obshttp_test [lifeguard/internal/obs/obshttp.test]", true},
		{"lifeguard/internal/obs", false},
		{"lifeguard/internal/bgp", false},
		{"lifeguard/internal/runnerx", false},
		{"lifeguard/internal/nettest", false},
		{"lifeguard/internal/monitor", false},
		{"lifeguard/cmd/lgexp", false},
		{"lifeguard", false},
	}
	for _, c := range cases {
		if got := allowlisted(c.path); got != c.want {
			t.Errorf("allowlisted(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestAllowlistEntriesAreLive holds every Allowlist entry to its stated
// reason: it must name a package directory of this module whose non-test
// sources import "time". An entry that outlives its package, or that never
// touched the clock, is an exemption nobody is reading.
func TestAllowlistEntriesAreLive(t *testing.T) {
	const module = "lifeguard"
	root := filepath.Join("..", "..", "..")
	for _, entry := range Allowlist {
		rel, ok := strings.CutPrefix(entry, module+"/")
		if !ok {
			t.Errorf("Allowlist entry %q is outside module %s", entry, module)
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(rel))
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("Allowlist entry %q: %v", entry, err)
			continue
		}
		usesTime := false
		for _, ent := range ents {
			name := ent.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				usesTime = usesTime || imp.Path.Value == `"time"`
			}
		}
		if !usesTime {
			t.Errorf("Allowlist entry %q: no non-test source in %s imports \"time\"", entry, dir)
		}
	}
}
