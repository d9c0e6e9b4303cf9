package compilesim

import (
	"strings"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/obs"
	"repro/internal/pch"
	"repro/internal/vfs"
)

func smallTree() *vfs.FS {
	fs := vfs.New()
	fs.Write("lib/big.hpp", strings.Repeat(`
template <class T> struct Box { T v; T get() const { return v; } };
inline int helper(int x) { Box<int> b{x}; return b.get(); }
`, 200))
	fs.Write("main.cpp", `#include <big.hpp>
int main() {
  int x = helper(1);
  return x;
}
`)
	return fs
}

func TestCompileProducesStats(t *testing.T) {
	fs := smallTree()
	obj, err := New(fs, "lib").Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Stats.LOC < 400 || obj.Stats.Headers != 1 || obj.Stats.Tokens == 0 {
		t.Fatalf("stats = %+v", obj.Stats)
	}
	if obj.Stats.MainFuncDefs != 1 {
		t.Fatalf("MainFuncDefs = %d", obj.Stats.MainFuncDefs)
	}
	if obj.Stats.TemplateUses < 200 {
		t.Fatalf("TemplateUses = %d", obj.Stats.TemplateUses)
	}
	if obj.Phases.Total() <= 0 {
		t.Fatal("no time charged")
	}
}

func TestPhasesSumToTotal(t *testing.T) {
	fs := smallTree()
	obj, err := New(fs, "lib").Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	p := obj.Phases
	sum := p.Startup + p.Preprocess + p.LexParse + p.Sema + p.PCHLoad + p.Instantiate + p.Backend
	if sum != p.Total() {
		t.Fatalf("sum %v != total %v", sum, p.Total())
	}
}

func TestPCHReducesFrontendNotBackend(t *testing.T) {
	fs := smallTree()
	def, err := New(fs, "lib").Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := New(fs, "lib").Frontend("lib/big.hpp")
	if err != nil {
		t.Fatal(err)
	}
	cc := New(fs, "lib")
	cc.PCH = pch.New("lib/big.hpp", unit, nil)
	withPCH, err := cc.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if withPCH.Phases.Backend != def.Phases.Backend {
		t.Fatalf("backend changed under PCH: %v vs %v (Fig. 7a: identical)",
			withPCH.Phases.Backend, def.Phases.Backend)
	}
	if withPCH.Phases.Instantiate != def.Phases.Instantiate {
		t.Fatalf("instantiation changed under PCH: %v vs %v",
			withPCH.Phases.Instantiate, def.Phases.Instantiate)
	}
	if withPCH.Phases.LexParse >= def.Phases.LexParse {
		t.Fatalf("PCH did not cut parse time: %v vs %v",
			withPCH.Phases.LexParse, def.Phases.LexParse)
	}
	if withPCH.Phases.PCHLoad <= 0 {
		t.Fatal("PCH load not charged")
	}
	if withPCH.Stats.UserTokens >= withPCH.Stats.Tokens {
		t.Fatal("token attribution failed")
	}
}

func TestOptLevelScalesBackend(t *testing.T) {
	fs := smallTree()
	c0 := New(fs, "lib")
	c0.OptLevel = 0
	o0, err := c0.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	c3 := New(fs, "lib")
	c3.OptLevel = 3
	o3, err := c3.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if o0.Phases.Backend >= o3.Phases.Backend {
		t.Fatalf("-O0 backend %v >= -O3 %v", o0.Phases.Backend, o3.Phases.Backend)
	}
	if o0.Phases.LexParse != o3.Phases.LexParse {
		t.Fatal("opt level must not change frontend")
	}
}

func TestLinkCost(t *testing.T) {
	fs := smallTree()
	cc := New(fs, "lib")
	a, err := cc.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	one := cc.Link(a)
	two := cc.Link(a, a)
	if two <= one {
		t.Fatalf("linking two objects (%v) not costlier than one (%v)", two, one)
	}
}

func TestMissingMainFile(t *testing.T) {
	fs := vfs.New()
	if _, err := New(fs).Compile("nope.cpp"); err == nil {
		t.Fatal("want error")
	}
}

func TestDeterministicTimes(t *testing.T) {
	fs := smallTree()
	a, err := New(fs, "lib").Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(fs, "lib").Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if a.Phases.Total() != b.Phases.Total() {
		t.Fatalf("non-deterministic: %v vs %v", a.Phases.Total(), b.Phases.Total())
	}
}

func TestGCCModelSlowerFrontendSameShape(t *testing.T) {
	fs := smallTree()
	clang := New(fs, "lib")
	obj1, err := clang.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	gcc := New(fs, "lib")
	gcc.Model = GCCCostModel()
	obj2, err := gcc.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if obj2.Phases.LexParse <= obj1.Phases.LexParse {
		t.Fatalf("gcc lexparse %v <= clang %v", obj2.Phases.LexParse, obj1.Phases.LexParse)
	}
	if obj2.Phases.Total() <= obj1.Phases.Total() {
		t.Fatalf("gcc total %v <= clang %v", obj2.Phases.Total(), obj1.Phases.Total())
	}
	// The statistics are compiler-independent facts.
	if obj1.Stats != obj2.Stats {
		t.Fatalf("stats differ: %+v vs %+v", obj1.Stats, obj2.Stats)
	}
}

func TestCacheDoesNotChangeOutputs(t *testing.T) {
	fs := smallTree()
	cold, err := New(fs, "lib").Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	bc := buildcache.New()
	warmCC := New(fs, "lib")
	warmCC.Cache = bc
	miss, err := warmCC.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	hit, err := warmCC.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats != miss.Stats || cold.Stats != hit.Stats {
		t.Fatalf("stats diverge: cold %+v miss %+v hit %+v", cold.Stats, miss.Stats, hit.Stats)
	}
	if cold.Phases != miss.Phases || cold.Phases != hit.Phases {
		t.Fatalf("phases diverge: cold %+v miss %+v hit %+v", cold.Phases, miss.Phases, hit.Phases)
	}
	st := bc.Stats()
	if st.TUMisses != 1 || st.TUHits != 1 {
		t.Fatalf("cache stats = %+v, want 1 TU miss + 1 TU hit", st)
	}
}

func TestCacheInvalidatedByEdit(t *testing.T) {
	fs := smallTree()
	bc := buildcache.New()
	cc := New(fs, "lib")
	cc.Cache = bc
	before, err := cc.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := fs.Read("main.cpp")
	fs.Write("main.cpp", src+"\nint extra() { return 2; }\n")
	after, err := cc.Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats == before.Stats {
		t.Fatal("edit did not change the compile — stale cache hit")
	}
	if after.Stats.MainFuncDefs != before.Stats.MainFuncDefs+1 {
		t.Fatalf("MainFuncDefs = %d, want %d", after.Stats.MainFuncDefs, before.Stats.MainFuncDefs+1)
	}
	if bc.Stats().TUMisses != 2 {
		t.Fatalf("cache stats = %+v, want 2 misses", bc.Stats())
	}
}

func TestCacheHitAcrossClones(t *testing.T) {
	fs := smallTree()
	bc := buildcache.New()
	cc1 := New(fs, "lib")
	cc1.Cache = bc
	if _, err := cc1.Compile("main.cpp"); err != nil {
		t.Fatal(err)
	}
	// A clone with identical content (a different dev-cycle FS) hits.
	cc2 := New(fs.Clone(), "lib")
	cc2.Cache = bc
	if _, err := cc2.Compile("main.cpp"); err != nil {
		t.Fatal(err)
	}
	if st := bc.Stats(); st.TUHits != 1 {
		t.Fatalf("cache stats = %+v, want a cross-clone hit", st)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	obj, err := New(smallTree(), "lib").Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	want := obj.Stats
	want.UserTokens, want.PCHBlobBytes = 0, 0 // per-compile, not cached
	got, err := decodeStats(encodeStats(obj.Stats))
	if err != nil || got != want {
		t.Fatalf("decode(encode(%+v)) = %+v, %v", want, got, err)
	}
}

// TestStatsFallbackOnUnreadableAux seeds the cache with the unit's
// entry but stats that are missing, of another version, truncated or
// followed by trailing bytes, and no AST (as an entry adopted from the remote tier arrives): Compile
// must re-derive exactly the statistics and phases a cold compile
// produces, and record the re-parse that took.
func TestStatsFallbackOnUnreadableAux(t *testing.T) {
	fs := smallTree()
	cold, err := New(fs, "lib").Compile("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := New(fs, "lib").Frontend("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	good := encodeStats(cold.Stats)
	for name, aux := range map[string][]byte{
		"missing":   nil,
		"version":   append([]byte{statsVersion + 1}, good[1:]...),
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 0),
	} {
		bc := buildcache.New()
		cc := New(fs, "lib")
		cc.Cache = bc
		seed := func() (*buildcache.TU, []buildcache.Dep, error) {
			return &buildcache.TU{Result: unit.Result, Aux: aux}, buildcache.Manifest(fs, "main.cpp", unit.Result), nil
		}
		if _, _, err := bc.TranslationUnit(cc.configKey("main.cpp"), buildcache.Validator(fs), seed); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		cc.Obs = obs.New(nil, reg)
		got, err := cc.Compile("main.cpp")
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != cold.Stats || got.Phases != cold.Phases {
			t.Errorf("%s aux: stats %+v phases %+v, want %+v %+v", name, got.Stats, got.Phases, cold.Stats, cold.Phases)
		}
		if n := reg.Snapshot().Counters["parser.units"]; n != 1 {
			t.Errorf("%s aux: parser.units = %d, want the one fallback re-parse", name, n)
		}
	}
}
