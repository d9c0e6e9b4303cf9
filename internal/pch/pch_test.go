package pch_test

import (
	"testing"
	"testing/quick"

	"repro/internal/compilesim"
	"repro/internal/cpp/token"
	"repro/internal/obs"
	"repro/internal/pch"
	"repro/internal/vfs"
)

func buildFS() *vfs.FS {
	fs := vfs.New()
	fs.Write("lib/core.hpp", `#pragma once
#include <detail.hpp>
namespace lib { template <class T> class Thing { T v; }; }
`)
	fs.Write("lib/detail.hpp", "#pragma once\nnamespace lib { class Detail {}; }")
	return fs
}

// build runs the compiler's frontend over header and builds its PCH.
func build(t *testing.T, fs *vfs.FS, header string, o *obs.Obs) *pch.PCH {
	t.Helper()
	unit, err := compilesim.New(fs, "lib").Frontend(header)
	if err != nil {
		t.Fatal(err)
	}
	return pch.New(header, unit, o)
}

func TestBuildCoversTransitiveIncludes(t *testing.T) {
	reg := obs.NewRegistry()
	p := build(t, buildFS(), "lib/core.hpp", obs.New(nil, reg))
	if !p.Covers("lib/core.hpp") || !p.Covers("lib/detail.hpp") {
		t.Fatalf("coverage = %v", p.Files)
	}
	if p.Covers("main.cpp") {
		t.Fatal("should not cover main")
	}
	if p.SizeBytes() == 0 {
		t.Fatalf("pch = %+v", p)
	}
	snap := reg.Snapshot()
	if snap.Counters["pch.builds"] != 1 || snap.Histograms["pch.blob_bytes"].Count != 1 {
		t.Fatalf("pch metrics not recorded: %+v", snap)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	toks := []token.Token{
		{Kind: token.Keyword, Text: "class", Pos: token.Pos{Offset: 0}},
		{Kind: token.Identifier, Text: "X", Pos: token.Pos{Offset: 6}},
		{Kind: token.Semi, Text: ";", Pos: token.Pos{Offset: 7}},
		{Kind: token.EOF},
	}
	got, err := pch.Deserialize(pch.Serialize(toks))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(toks) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range toks {
		if got[i].Kind != toks[i].Kind || got[i].Text != toks[i].Text ||
			got[i].Pos.Offset != toks[i].Pos.Offset {
			t.Fatalf("token %d = %+v, want %+v", i, got[i], toks[i])
		}
	}
}

func TestDeserializeBadMagic(t *testing.T) {
	if _, err := pch.Deserialize([]byte("NOPE")); err == nil {
		t.Fatal("want magic error")
	}
	if _, err := pch.Deserialize(nil); err == nil {
		t.Fatal("want error on empty blob")
	}
}

func TestDeserializeTruncated(t *testing.T) {
	p := build(t, buildFS(), "lib/core.hpp", nil)
	for _, cut := range []int{5, 8, len(p.Blob) / 2} {
		if cut >= len(p.Blob) {
			continue
		}
		if _, err := pch.Deserialize(p.Blob[:cut]); err == nil {
			t.Fatalf("want error for blob truncated at %d", cut)
		}
	}
}

func TestPropertySerializeRoundTrips(t *testing.T) {
	f := func(texts []string) bool {
		var toks []token.Token
		for i, s := range texts {
			toks = append(toks, token.Token{Kind: token.Identifier, Text: s, Pos: token.Pos{Offset: int32(i)}})
		}
		got, err := pch.Deserialize(pch.Serialize(toks))
		if err != nil || len(got) != len(toks) {
			return false
		}
		for i := range toks {
			if got[i].Text != toks[i].Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBuildMissingHeader: a header the frontend cannot read yields no
// unit, so no PCH can be built from it.
func TestBuildMissingHeader(t *testing.T) {
	if _, err := compilesim.New(vfs.New()).Frontend("nope.hpp"); err == nil {
		t.Fatal("want error")
	}
}
