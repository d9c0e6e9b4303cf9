// Package split implements automatic god-header decomposition via
// multi-view static analysis — the "other answer" to the compile-cost
// problem the paper attacks with header substitution. Where the paper
// hides a god header behind a generated lightweight header, split
// rewrites the corpus itself: it builds a multi-view symbol graph over
// each subject — (view 1) the include graph from the preprocessor's
// dependency manifests, (view 2) def-use edges from sema recording
// which translation units reference which declarations (reusing
// internal/inval's per-decl interface keys as the unit of work), and
// (view 3) symbol co-usage, declarations referenced together within one
// TU — then partitions the god header's declarations with deterministic
// seeded label propagation and emits N smaller part headers plus a
// compatibility umbrella through internal/rewrite, minimally updating
// every consumer's #include list from the def-use view.
//
// Determinism is a hard requirement: partitions are byte-identical at
// any -j, across process runs, and under declaration reorderings that
// preserve the graph, because every iteration order and tie-break keys
// on inval decl keys rather than map order or source position.
//
// Soundness over cleverness: after rewriting, every recorded name
// resolution in every TU is re-checked against the rewritten corpus; a
// single changed resolution, new parse error, or new missing include
// aborts the decomposition with the original files untouched.
package split

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/iwyu"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// ErrNotDecomposable marks headers the analysis refuses to touch: ones
// that do not lex/parse in isolation, declare nothing, or carry
// preprocessor structure (conditional blocks, mid-file defines) that
// extent-level slicing cannot preserve. Callers treat it as "skip",
// not as a failure.
var ErrNotDecomposable = errors.New("split: header is not decomposable")

// Options configures one decomposition.
type Options struct {
	// FS is the corpus tree; it is only mutated after the rewritten
	// corpus passes verification.
	FS *vfs.FS
	// SearchPaths and Sources mirror the subject's compile setup.
	SearchPaths []string
	Sources     []string
	// Header is the god header's spelled include target (the subject's
	// Header field), resolved against SearchPaths.
	Header string
	// MaxParts caps the part count via agglomerative merging of the
	// most-connected clusters (0 = uncapped).
	MaxParts int
	// Jobs bounds parallel TU analysis (<=1 = sequential). The
	// partition is byte-identical at any value.
	Jobs int
	Obs  *obs.Obs
}

// Decl is one clustered declaration unit (an inval interface key; an
// overload set is one unit).
type Decl struct {
	// Key is inval's per-decl interface key ("kind scope::name").
	Key string `json:"key"`
	// Name and Scope locate the unit ("parallel_for", "Kokkos::").
	Name  string `json:"name"`
	Scope string `json:"scope,omitempty"`
	// Part is the index of the part header holding the unit.
	Part int `json:"part"`
	// UsedBy lists the consumer files referencing the unit, sorted.
	UsedBy []string `json:"used_by,omitempty"`
}

// Part is one emitted part header.
type Part struct {
	// File is the part's path in the corpus tree; Target the spelled
	// include target consumers use for it.
	File   string `json:"file"`
	Target string `json:"target"`
	// Name is the cluster's canonical name: its smallest decl key.
	Name string `json:"name"`
	// Decls lists the member unit keys, sorted.
	Decls []string `json:"decls"`
	// Includes holds the original header include lines this part
	// claimed (its decls reference symbols they provide), verbatim.
	Includes []string `json:"includes,omitempty"`
	// DependsOn lists part indices this part includes (decl-level
	// dependencies crossing the partition).
	DependsOn []int `json:"depends_on,omitempty"`
	// Used reports whether any TU references a decl in this part (the
	// unused remainder merges into one "rest" part nobody includes).
	Used bool `json:"used"`
}

// Result describes one successful decomposition.
type Result struct {
	// HeaderPath is the god header's resolved path; Header the spelled
	// target it was found under.
	HeaderPath string `json:"header_path"`
	Header     string `json:"header"`
	Parts      []Part `json:"parts"`
	Decls      []Decl `json:"decls"`
	// Consumers maps each rewritten consumer file to the include
	// targets that replaced its god-header include, in emission order.
	Consumers map[string][]string `json:"consumers"`
	// Files holds every written file's new content (parts, umbrella,
	// consumers) — the byte-level artifact determinism tests compare.
	Files map[string]string `json:"-"`
	// Graph holds include-graph metrics for the header's own TU
	// (iwyu's view-1 summary).
	Graph []iwyu.HeaderMetrics `json:"-"`
	// PartitionJSON is the canonical partition rendering; Digest its
	// sha256. Both are byte-identical across runs and -j values.
	PartitionJSON string `json:"-"`
	Digest        string `json:"digest"`
	// ComposedTarget is the spelled target of the used part with the
	// largest preprocessed closure — the header substitution targets
	// when composing decompose + yalla ("" when no part is used).
	ComposedTarget string `json:"composed_target,omitempty"`
}

// Decompose partitions the subject's god header and rewrites the corpus
// in opts.FS. On ErrNotDecomposable or verification failure the tree is
// untouched.
func Decompose(opts Options) (*Result, error) {
	if opts.FS == nil || opts.Header == "" {
		return nil, fmt.Errorf("split: FS and Header are required")
	}
	sp := opts.Obs.Start("split.decompose")
	defer sp.End()
	sp.SetStr("header", opts.Header)

	hdrPath, err := opts.FS.Resolve(opts.Header, opts.SearchPaths)
	if err != nil {
		return nil, err
	}
	content, err := opts.FS.Read(hdrPath)
	if err != nil {
		return nil, err
	}

	g, err := buildGraph(opts, hdrPath, content)
	if err != nil {
		return nil, err
	}
	if len(g.units) < 2 {
		return nil, fmt.Errorf("%w: %d declaration units", ErrNotDecomposable, len(g.units))
	}
	sp.SetInt("units", int64(len(g.units)))
	sp.SetInt("tus", int64(len(g.tus)))

	clusters := cluster(g, opts.MaxParts)
	sp.SetInt("parts", int64(len(clusters)))

	res, err := emit(opts, g, clusters)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// canonicalPartition renders the partition in canonical form (parts
// sorted by canonical name, decl keys sorted within each part) and
// returns the JSON plus its sha256 digest.
func canonicalPartition(header string, parts []Part) (string, string) {
	type ppart struct {
		Name  string   `json:"name"`
		Decls []string `json:"decls"`
		Used  bool     `json:"used"`
	}
	doc := struct {
		Header string  `json:"header"`
		Parts  []ppart `json:"parts"`
	}{Header: header}
	for _, p := range parts {
		doc.Parts = append(doc.Parts, ppart{Name: p.Name, Decls: p.Decls, Used: p.Used})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic("split: canonical partition marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return string(b) + "\n", hex.EncodeToString(sum[:])
}

// swapBase replaces the basename of a spelled include target, keeping
// any directory prefix ("rapidjson/rapidjson.hpp" + "rapidjson.part0.hpp"
// -> "rapidjson/rapidjson.part0.hpp").
func swapBase(target, newBase string) string {
	if i := strings.LastIndexByte(target, '/'); i >= 0 {
		return target[:i+1] + newBase
	}
	return newBase
}

// partBase derives a part file's basename from the header's
// ("Kokkos_Core.hpp", 2 -> "Kokkos_Core.part2.hpp").
func partBase(hdrBase string, idx int) string {
	ext := ""
	stem := hdrBase
	if i := strings.LastIndexByte(hdrBase, '.'); i >= 0 {
		stem, ext = hdrBase[:i], hdrBase[i:]
	}
	return fmt.Sprintf("%s.part%d%s", stem, idx, ext)
}

func baseName(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// guardMacro sanitizes a file basename into an include-guard macro.
func guardMacro(base string) string {
	var b strings.Builder
	for i := 0; i < len(base); i++ {
		c := base[i]
		switch {
		case c >= 'a' && c <= 'z':
			b.WriteByte(c - 'a' + 'A')
		case (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'):
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return "YSPLIT_" + b.String()
}
