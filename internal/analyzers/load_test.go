package analyzers

import (
	"go/types"
	"path/filepath"
	"testing"
)

// TestLoaderCrossPackage type-checks a synthetic two-package module
// under testdata and verifies the loader resolved the module-internal
// import itself: flow.Window's result must be the named type
// unitmod/stat.Micros, with full type information on both sides.
func TestLoaderCrossPackage(t *testing.T) {
	dir := filepath.Join("testdata", "module", "flow")
	pkgs, err := Load([]string{dir})
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "unitmod/flow" {
		t.Errorf("import path = %q, want %q", p.Path, "unitmod/flow")
	}
	obj := p.Types.Scope().Lookup("Window")
	if obj == nil {
		t.Fatal("flow.Window not found in package scope")
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		t.Fatalf("Window is %T, want *types.Signature", obj.Type())
	}
	res := sig.Results().At(0).Type()
	if got := res.String(); got != "unitmod/stat.Micros" {
		t.Errorf("Window result type = %q, want %q", got, "unitmod/stat.Micros")
	}
	named, ok := res.(*types.Named)
	if !ok {
		t.Fatalf("result is %T, want *types.Named", res)
	}
	if b, ok := named.Underlying().(*types.Basic); !ok || b.Kind() != types.Float64 {
		t.Errorf("underlying type = %v, want float64", named.Underlying())
	}
}

// TestLoaderSharesDependency loads both synthetic packages in one call
// and verifies stat is type-checked once: the *types.Package inside
// flow's import table is the same object Load returned for stat.
func TestLoaderSharesDependency(t *testing.T) {
	pkgs, err := Load([]string{
		filepath.Join("testdata", "module", "stat"),
		filepath.Join("testdata", "module", "flow"),
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	flow := byPath["unitmod/flow"]
	stat := byPath["unitmod/stat"]
	if flow == nil || stat == nil {
		t.Fatalf("missing package: %v", byPath)
	}
	for _, imp := range flow.Types.Imports() {
		if imp.Path() == "unitmod/stat" && imp != stat.Types {
			t.Error("flow imports a different stat instance; loader failed to memoize")
		}
	}
}

// BenchmarkRunAll times a whole lint run over the repository — the
// cost CI pays per lint run, dominated by the one typed load.
func BenchmarkRunAll(b *testing.B) {
	pattern := []string{filepath.Join("..", "..", "...")}
	for i := 0; i < b.N; i++ {
		if _, err := Run(pattern); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}
