package lifeguard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// settableCount is the number of settable configuration values (DESIGN.md
// §13): the exported, non-embedded fields of the exported struct types
// named *Config or *Options in the module's non-test Go files outside
// benchmark/ and testdata/. A change to the count is a design decision, so it is made
// here and in DESIGN.md together.
const settableCount = 49

// settableValues names them, so a failing count says which value moved.
var settableValues = []string{
	"lifeguard.Config.DisableAutoRepair",
	"lifeguard.Config.Origin",
	"lifeguard.Config.Remedy",
	"lifeguard.Config.Targets",
	"lifeguard.Config.VPs",
	"lifeguard.NetworkOptions.BGP",
	"lifeguard.NetworkOptions.Journal",
	"lifeguard.NetworkOptions.Obs",
	"lifeguard.NetworkOptions.OriginateBlocks",
	"lifeguard.NetworkOptions.Seed",
	"lifeguard.NetworkOptions.SkipConverge",
	"lifeguard.SessionConfig.NoGracefulRestart",
	"lifeguard.SessionConfig.Tenant",
	"lifeguard/internal/bgp.Config.Dampening",
	"lifeguard/internal/bgp.Config.MRAI",
	"lifeguard/internal/bgp.Config.MRAIJitter",
	"lifeguard/internal/bgp.Config.Obs",
	"lifeguard/internal/bgp.Config.PropJitter",
	"lifeguard/internal/bgp.Config.Seed",
	"lifeguard/internal/bgp.OriginConfig.Pattern",
	"lifeguard/internal/bgp.OriginConfig.PerNeighbor",
	"lifeguard/internal/bgp.OriginConfig.Withhold",
	"lifeguard/internal/chaos.GenConfig.Intensity",
	"lifeguard/internal/chaos.GenConfig.N",
	"lifeguard/internal/chaos.GenConfig.Seed",
	"lifeguard/internal/chaos.Options.Obs",
	"lifeguard/internal/chaos.Options.Reach",
	"lifeguard/internal/core/remedy.Config.MinOutageAge",
	"lifeguard/internal/core/remedy.Config.Origin",
	"lifeguard/internal/core/remedy.Config.SentinelInterval",
	"lifeguard/internal/outage.Config.MaxDuration",
	"lifeguard/internal/outage.Config.MeanInterarrival",
	"lifeguard/internal/outage.Config.MinDuration",
	"lifeguard/internal/outage.Config.N",
	"lifeguard/internal/outage.Config.Seed",
	"lifeguard/internal/topogen.Config.Large",
	"lifeguard/internal/topogen.Config.NumStub",
	"lifeguard/internal/topogen.Config.NumTier1",
	"lifeguard/internal/topogen.Config.NumTransit",
	"lifeguard/internal/topogen.Config.Seed",
	"lifeguard/internal/topogen.Config.StubMultihomeProb",
	"lifeguard/internal/topogen.Config.TransitExtraProviderProb",
	"lifeguard/internal/topogen.Config.TransitPeerProb",
	"lifeguard/internal/traffic.Config.Churn",
	"lifeguard/internal/traffic.Config.Dests",
	"lifeguard/internal/traffic.Config.Epoch",
	"lifeguard/internal/traffic.Config.Flows",
	"lifeguard/internal/traffic.Config.Seed",
	"lifeguard/internal/traffic.Config.Vantages",
}

// TestSettableValueCount parses the module's sources and holds the
// settable values to the list above, naming each one added or gone.
func TestSettableValueCount(t *testing.T) {
	got := countSettable(t, ".")
	added, gone := diffNames(got, settableValues)
	for _, v := range added {
		t.Errorf("new settable value %s (DESIGN.md §13 counts %d)", v, settableCount)
	}
	for _, v := range gone {
		t.Errorf("settable value %s is gone (DESIGN.md §13 counts %d)", v, settableCount)
	}
	if len(got) != settableCount || len(settableValues) != settableCount {
		t.Errorf("%d settable values in the sources, %d listed, want %d", len(got), len(settableValues), settableCount)
	}
}

// countSettable returns "importpath.Type.Field" for each settable value
// under root, sorted.
func countSettable(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata" || p == filepath.Join(root, "benchmark")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := path.Join("lifeguard", filepath.ToSlash(dir))
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				name := ts.Name.Name
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ast.IsExported(name) || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names { // embedded fields have none
						if id.IsExported() {
							out = append(out, pkg+"."+name+"."+id.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// diffNames returns the names in got but not in want, and in want but not
// in got.
func diffNames(got, want []string) (added, gone []string) {
	for _, g := range got {
		if !slices.Contains(want, g) {
			added = append(added, g)
		}
	}
	for _, w := range want {
		if !slices.Contains(got, w) {
			gone = append(gone, w)
		}
	}
	return added, gone
}
