// Package pch implements the pre-compiled-header baseline the paper
// compares against (§2.2, §5.3). A PCH is what the compiler's own
// frontend produced for the expensive header, written to disk: New takes
// the header's translation unit from compilesim.Compiler.Frontend and
// serializes its token stream. A compilation that uses the PCH skips
// re-lexing/re-parsing the header's files and instead pays a
// deserialization cost proportional to the PCH size — which is why PCH
// helps the frontend but "the AST must still be loaded from the PCH file
// on disk which is expensive" and the backend time is unchanged
// (Fig. 7a).
package pch

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buildcache"
	"repro/internal/cpp/token"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// PCH is one built pre-compiled header.
type PCH struct {
	Header string
	// Files covered by the PCH (the header and everything it includes).
	Files map[string]bool
	// Blob is the serialized form; its length models the on-disk size
	// (the paper notes PCH files reach hundreds of megabytes).
	Blob []byte
}

// New builds the PCH for header from the header's frontend unit, inside
// a "pch.build" span, and records the build and blob-size metrics. A nil
// handle disables recording at zero cost.
func New(header string, unit *buildcache.TU, o *obs.Obs) *PCH {
	sp := o.Start("pch.build")
	sp.SetStr("header", header)
	defer sp.End()
	res := unit.Result
	p := &PCH{
		Header: vfs.Clean(header),
		Files:  map[string]bool{vfs.Clean(header): true},
		Blob:   Serialize(res.Tokens),
	}
	for _, inc := range res.Includes {
		p.Files[inc] = true
	}
	o.Counter("pch.builds").Add(1)
	o.Observe("pch.blob_bytes", float64(len(p.Blob)))
	sp.SetInt("blob_bytes", int64(len(p.Blob)))
	sp.SetInt("files", int64(len(p.Files)))
	return p
}

// Serialize encodes a token stream into the PCH on-disk format: a small
// header, then length-prefixed records (kind, position, spelling).
func Serialize(toks []token.Token) []byte {
	buf := make([]byte, 0, len(toks)*16)
	var tmp [10]byte
	magic := []byte("YPCH")
	buf = append(buf, magic...)
	n := binary.PutUvarint(tmp[:], uint64(len(toks)))
	buf = append(buf, tmp[:n]...)
	for _, t := range toks {
		n = binary.PutUvarint(tmp[:], uint64(t.Kind))
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(t.Pos.Offset))
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(len(t.Text)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, t.Text...)
	}
	return buf
}

// Deserialize decodes a serialized token stream; it is the work a
// PCH-using compile performs instead of re-parsing the header.
func Deserialize(blob []byte) ([]token.Token, error) {
	if len(blob) < 4 || string(blob[:4]) != "YPCH" {
		return nil, fmt.Errorf("pch: bad magic")
	}
	b := blob[4:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("pch: truncated count")
	}
	b = b[n:]
	toks := make([]token.Token, 0, count)
	for i := uint64(0); i < count; i++ {
		kind, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("pch: truncated kind at %d", i)
		}
		b = b[n:]
		off, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("pch: truncated offset at %d", i)
		}
		b = b[n:]
		tlen, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("pch: truncated length at %d", i)
		}
		b = b[n:]
		if uint64(len(b)) < tlen {
			return nil, fmt.Errorf("pch: truncated text at %d", i)
		}
		toks = append(toks, token.Token{
			Kind: token.Kind(kind),
			Pos:  token.Pos{Offset: int32(off)},
			Text: string(b[:tlen]),
		})
		b = b[tlen:]
	}
	return toks, nil
}

// Covers reports whether the PCH covers the given file.
func (p *PCH) Covers(file string) bool { return p.Files[file] }

// SizeBytes is the modeled on-disk size.
func (p *PCH) SizeBytes() int { return len(p.Blob) }
