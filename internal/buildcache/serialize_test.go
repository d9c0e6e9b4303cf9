package buildcache

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpp/lexer"
	"repro/internal/cpp/preprocessor"
	"repro/internal/vfs"
)

func TestTokenRoundTrip(t *testing.T) {
	const src = "#define N 3\nint add(int a, int b) { return a + b + N; }\n// done\n"
	toks, err := lexer.Tokenize("a.cpp", src)
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeTokens(toks)
	got, err := DecodeTokens(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(toks, got) {
		t.Fatalf("round trip differs:\n got %v\nwant %v", got, toks)
	}
	// Same process, same intern tables: symbols and file IDs must have
	// re-interned to identical values.
	for i := range toks {
		if toks[i].Sym != got[i].Sym || toks[i].Pos.File != got[i].Pos.File {
			t.Fatalf("token %d re-interned differently: %+v vs %+v", i, toks[i], got[i])
		}
	}
}

func TestTokenEncodeDeterministic(t *testing.T) {
	toks, err := lexer.Tokenize("a.cpp", "int x = 1; int y = x;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeTokens(toks), EncodeTokens(toks)) {
		t.Fatal("encoding is not deterministic")
	}
}

// realTU preprocesses a small program with macro tracking on so every
// Result field is populated, and returns the TU plus its manifest.
func realTU(t *testing.T) (*TU, []Dep) {
	t.Helper()
	fs := vfs.New()
	fs.Write("main.cpp", "#include \"a.hpp\"\n#include <missing.h>\nint main() { return N + a(); }\n")
	fs.Write("lib/a.hpp", "#pragma once\n#define N 3\n#define SQ(x) ((x)*(x))\nint a();\nint nine = SQ(N);\n")
	pp := preprocessor.New(fs, "lib")
	pp.TrackMacros = true
	res, err := pp.Preprocess("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MacroDefs) == 0 || len(res.MacroUses) == 0 {
		t.Fatal("test program exercised no macro tracking")
	}
	if len(res.MissingIncludes) == 0 || len(res.AbsentDeps) == 0 {
		t.Fatal("test program exercised no negative probes")
	}
	return &TU{Result: res}, Manifest(fs, "main.cpp", res)
}

func TestTURoundTrip(t *testing.T) {
	tu, deps := realTU(t)
	payload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	got, gotDeps, err := DecodeTU(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tu.Result, got.Result) {
		t.Fatalf("preprocessor result differs after round trip:\n got %+v\nwant %+v", got.Result, tu.Result)
	}
	if !reflect.DeepEqual(deps, gotDeps) {
		t.Fatalf("manifest differs after round trip:\n got %+v\nwant %+v", gotDeps, deps)
	}
	if got.AST != nil {
		t.Fatal("decode parsed eagerly; the AST must be lazy")
	}
	if got.Aux != nil {
		t.Fatal("no aux bytes were set, so Aux must decode to nil")
	}
	unit := got.Unit(nil)
	if unit == nil {
		t.Fatal("Unit() did not re-parse the decoded stream")
	}
	if again := got.Unit(nil); again != unit {
		t.Fatal("Unit() re-parsed instead of memoizing")
	}
	want := tu.Unit(nil)
	if len(unit.Decls) != len(want.Decls) {
		t.Fatalf("lazy re-parse found %d decls, builder had %d", len(unit.Decls), len(want.Decls))
	}
}

// TestTUAuxRoundTrip checks the aux section is carried as opaque bytes:
// whatever the builder stored arrives byte for byte, and an empty aux
// arrives as nil.
func TestTUAuxRoundTrip(t *testing.T) {
	tu, deps := realTU(t)
	tu.Aux = []byte{1, 0, 0xff, 7}
	payload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeTU(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Aux, tu.Aux) {
		t.Fatalf("Aux did not round trip: %v, want %v", got.Aux, tu.Aux)
	}

	tu.Aux = []byte{}
	if payload, err = EncodeTU(tu, deps); err != nil {
		t.Fatal(err)
	}
	if got, _, err = DecodeTU(payload); err != nil || got.Aux != nil {
		t.Fatalf("empty Aux: got %#v, err %v; want nil, nil", got.Aux, err)
	}
}

// withMagic re-frames a payload under another format magic and re-seals
// its integrity trailer, as a node of another wire version would send.
func withMagic(payload []byte, magic string) []byte {
	body := append([]byte(nil), payload[:len(payload)-hashLen]...)
	copy(body, magic)
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// TestTUMixedVersionDegrades: a node of the previous wire version (the
// codec-named aux section, magic YTU2) publishes an entry. This node
// must reject the payload by magic and build locally — mixed fleets
// degrade to local builds instead of mis-decoding each other's entries.
func TestTUMixedVersionDegrades(t *testing.T) {
	tu, deps := realTU(t)
	payload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	old := withMagic(payload, "YTU2")
	if _, _, err := DecodeTU(old); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("old-version payload decoded; err = %v", err)
	}

	be := newFakeBackend()
	key := ConfigKey("k")
	be.data[NSTU+"/"+key] = old
	c := New()
	c.Remote = be
	builds := 0
	val, cached, err := c.TranslationUnit(key, func(Dep) bool { return true }, func() (*TU, []Dep, error) {
		builds++
		return tu, deps, nil
	})
	if err != nil || val != tu || cached || builds != 1 {
		t.Fatalf("val=%p cached=%v builds=%d err=%v; want one local build", val, cached, builds, err)
	}
	if st := c.Stats(); st.RemoteErrors == 0 || st.TUMisses != 1 {
		t.Fatalf("stats = %+v, want the old payload counted as a remote error and one miss", st)
	}
}

// TestTUAuxCorruptBlobRejected re-seals a payload whose aux length runs
// past the end of the records: the integrity hash passes, so the aux
// framing itself must refuse the payload.
func TestTUAuxCorruptBlobRejected(t *testing.T) {
	tu, deps := realTU(t)
	tu.Aux = []byte{0xEB, 0xEB, 0xEB} // a needle ASCII payloads can't contain
	payload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	// The aux section is a one-byte length (3) then the bytes; claim a
	// longer blob than the records hold.
	broken := append([]byte(nil), payload[:len(payload)-hashLen]...)
	at := bytes.Index(broken, []byte{3, 0xEB, 0xEB, 0xEB})
	if at < 0 {
		t.Fatal("aux section not found in payload")
	}
	broken[at] = 0x7f
	sum := sha256.Sum256(broken)
	broken = append(broken, sum[:]...)
	if _, _, err := DecodeTU(broken); err == nil || !strings.Contains(err.Error(), "aux") {
		t.Fatalf("corrupt aux section decoded; err = %v", err)
	}
}

func TestTUEncodeDeterministic(t *testing.T) {
	tu, deps := realTU(t)
	a, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("TU encoding is not deterministic (map iteration leaked in?)")
	}
}

func TestEncodeTURequiresResult(t *testing.T) {
	if _, err := EncodeTU(&TU{}, nil); err == nil {
		t.Fatal("nil Result must not encode")
	}
	if _, err := EncodeTU(nil, nil); err == nil {
		t.Fatal("nil TU must not encode")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tu, deps := realTU(t)
	tuPayload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := lexer.Tokenize("a.cpp", "int x;\n")
	if err != nil {
		t.Fatal(err)
	}
	tokPayload := EncodeTokens(toks)

	check := func(name string, payload []byte, decodeTok bool, wantErr string) {
		t.Helper()
		var derr error
		if decodeTok {
			_, derr = DecodeTokens(payload)
		} else {
			_, _, derr = DecodeTU(payload)
		}
		if derr == nil {
			t.Fatalf("%s: corrupt payload decoded cleanly", name)
		}
		if wantErr != "" && !strings.Contains(derr.Error(), wantErr) {
			t.Fatalf("%s: err = %v, want substring %q", name, derr, wantErr)
		}
	}

	// Bit flips anywhere in the body fail the integrity hash.
	for _, at := range []int{0, 5, len(tokPayload) / 2, len(tokPayload) - hashLen - 1} {
		flipped := append([]byte(nil), tokPayload...)
		flipped[at] ^= 0x40
		check("tok bit flip", flipped, true, "integrity hash")
	}
	flipped := append([]byte(nil), tuPayload...)
	flipped[len(tuPayload)/3] ^= 0x01
	check("tu bit flip", flipped, false, "integrity hash")

	// A flipped trailer byte is the same rejection from the other side.
	flipped = append([]byte(nil), tuPayload...)
	flipped[len(flipped)-1] ^= 0xff
	check("tu trailer flip", flipped, false, "integrity hash")

	// Truncations: mid-body fails the hash, shorter than the fixed
	// framing fails the length check.
	check("tok truncated body", tokPayload[:len(tokPayload)-hashLen-3], true, "")
	check("tu truncated body", tuPayload[:len(tuPayload)/2], false, "")
	check("tiny", tokPayload[:7], true, "truncated")
	check("empty", nil, true, "truncated")

	// A valid payload of the wrong kind is rejected by magic, not
	// misdecoded: namespaces can never cross.
	check("tok decoded as TU", tokPayload, false, "magic")
	check("tu decoded as tokens", tuPayload, true, "magic")
}
