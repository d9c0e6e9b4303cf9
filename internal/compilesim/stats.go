package compilesim

import (
	"encoding/binary"
	"fmt"
)

// The frontend's unit statistics ride in the build cache entry as
// TU.Aux, so a cache hit — local or adopted from the remote tier —
// serves them without re-walking (or, for an adopted entry, re-parsing)
// the translation unit. The encoding is a version byte followed by one
// varint per field in statsFields order; any field addition or reorder
// must bump statsVersion, so entries from older nodes fail to decode and
// Compile falls back to re-deriving the statistics.
const statsVersion = 1

// statsFields lists the frontend-derived Stats fields in wire order.
// UserTokens and PCHBlobBytes depend on the PCH configuration and are
// recomputed per compile, so they are not part of the cached entry.
func statsFields(st *Stats) []*int {
	return []*int{
		&st.LOC, &st.Headers, &st.Tokens, &st.Decls, &st.FuncDefs,
		&st.MainFuncDefs, &st.BodyTokens, &st.TemplateUses, &st.MissingIncl,
	}
}

// encodeStats renders the frontend statistics as TU.Aux bytes.
func encodeStats(st Stats) []byte {
	blob := []byte{statsVersion}
	for _, f := range statsFields(&st) {
		blob = binary.AppendVarint(blob, int64(*f))
	}
	return blob
}

// decodeStats parses encodeStats output; missing bytes, another version
// or a malformed varint are errors.
func decodeStats(blob []byte) (Stats, error) {
	var st Stats
	if len(blob) == 0 || blob[0] != statsVersion {
		return st, fmt.Errorf("compilesim: no version-%d stats", statsVersion)
	}
	pos := 1
	for _, f := range statsFields(&st) {
		v, n := binary.Varint(blob[pos:])
		if n <= 0 {
			return Stats{}, fmt.Errorf("compilesim: malformed stats varint at %d", pos)
		}
		*f = int(v)
		pos += n
	}
	if pos != len(blob) {
		return Stats{}, fmt.Errorf("compilesim: %d trailing bytes after stats", len(blob)-pos)
	}
	return st, nil
}
