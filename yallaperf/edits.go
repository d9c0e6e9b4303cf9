package main

import (
	"fmt"
	"math/rand"
	"path"
	"regexp"
	"strings"

	"repro/internal/corpus"
	"repro/internal/daemon"
	"repro/internal/vfs"
)

// editKind is one class of the seeded edit stream.
type editKind int

const (
	// srcBody rewrites a statement inside the compiled source's
	// run_<subject>() body.
	srcBody editKind = iota
	// srcComment rewrites a trailing comment of the compiled source.
	srcComment
	// hdrBenign rewrites a comment or an inline function body in the
	// substituted header: early cutoff keeps the prepared setup.
	hdrBenign
	// hdrInterface adds a new #define to the substituted header, which
	// changes its interface and forces a re-Prepare.
	hdrInterface
)

func (k editKind) String() string {
	return [...]string{"src-body", "src-comment", "hdr-benign", "hdr-interface"}[k]
}

// isSource reports whether the kind edits the compiled source, where
// every edit must rebuild the translation unit.
func (k editKind) isSource() bool { return k == srcBody || k == srcComment }

// editBlock is the edit-loop mix per 50 ops: 60% source body edits, 20%
// source comment edits, 18% benign header edits, 2% interface edits.
var editBlock = []struct {
	kind editKind
	n    int
}{{srcBody, 30}, {srcComment, 10}, {hdrBenign, 9}, {hdrInterface, 1}}

const editBlockSize = 50

// card is one op of the stream: which session, which kind of edit.
type card struct {
	session int
	kind    editKind
}

// editDeck deals the seeded edit-loop stream in rounds. A round holds
// one block of the mix per session, so every round carries exactly the
// stated mix on every session (instead of a binomial draw of it) and
// re-Prepares each session once. The seed shuffles the round, except
// that its interface edits — the re-Prepares, which allocate and retain
// more than the rest of the round together — sit at the end of each
// quarter of it: a round's heap then grows at the same points whatever
// the seed, and so does the collector's work during it.
type editDeck struct {
	rng      *rand.Rand
	sessions int
	cards    []card
}

func (d *editDeck) roundSize() int { return editBlockSize * d.sessions }

func (d *editDeck) next() card {
	if len(d.cards) == 0 {
		var rest, iface []card
		for s := 0; s < d.sessions; s++ {
			for _, b := range editBlock {
				for i := 0; i < b.n; i++ {
					if b.kind == hdrInterface {
						iface = append(iface, card{s, b.kind})
					} else {
						rest = append(rest, card{s, b.kind})
					}
				}
			}
		}
		d.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		d.rng.Shuffle(len(iface), func(i, j int) { iface[i], iface[j] = iface[j], iface[i] })
		per := len(rest) / len(iface)
		for i, c := range iface {
			d.cards = append(d.cards, rest[i*per:(i+1)*per]...)
			d.cards = append(d.cards, c)
		}
		d.cards = append(d.cards, rest[len(iface)*per:]...)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// session is the client's view of one yalla daemon session: the files
// it edits and the markers its edits have written so far. Every edit is
// a pure function of a base text plus the current markers, so the
// expected final tree can be rebuilt from a cold one-shot run.
type session struct {
	name   string
	subj   *corpus.Subject
	header string // resolved path of the substituted header
	main   string // the compiled source, yalla_out/<subject>/<main>.cpp
	target string // where source edits go: main, or the uncompiled source when planted

	// mainBase is the compiled source as the last Prepare generated it.
	mainBase string
	// hdrBase is the pristine header plus every interface edit so far.
	hdrBase string
	// Markers: the current numbers written by each edit kind, -1 when
	// absent. A re-Prepare regenerates the compiled source, which drops
	// its markers.
	body, note, hnote, hbody int
}

var runOpen = regexp.MustCompile(`(?m)^int run_[A-Za-z0-9_]+\(\) \{\n`)

// newSession resolves the paths a session edits. plant aims source edits
// at the subject's own source file, which yalla mode never compiles —
// the flaw the rebuild check must catch.
func newSession(name string, s *corpus.Subject, plant bool) (*session, error) {
	hdr := ""
	for _, sp := range s.SearchPaths {
		cand := vfs.Clean(sp + "/" + s.Header)
		if s.FS.Exists(cand) {
			hdr = cand
			break
		}
	}
	if hdr == "" {
		return nil, fmt.Errorf("%s: cannot resolve header %q", s.Name, s.Header)
	}
	text, err := s.FS.Read(hdr)
	if err != nil {
		return nil, err
	}
	ss := &session{
		name: name, subj: s, header: hdr,
		main:    vfs.Clean(s.OutDir() + "/" + path.Base(s.MainFile)),
		hdrBase: text,
		body:    -1, note: -1, hnote: -1, hbody: -1,
	}
	ss.target = ss.main
	if plant {
		ss.target = vfs.Clean(s.MainFile)
	}
	return ss, nil
}

// reload refreshes the compiled source after a (re-)Prepare generated it
// anew; the markers it carried are gone.
func (ss *session) reload(c *daemon.Client) error {
	text, err := c.ReadFile(ss.name, ss.target)
	if err != nil {
		return fmt.Errorf("%s: read %s: %w", ss.name, ss.target, err)
	}
	if !runOpen.MatchString(text) {
		return fmt.Errorf("%s: %s has no run_<subject>() body to edit", ss.name, ss.target)
	}
	ss.mainBase, ss.body, ss.note = text, -1, -1
	return nil
}

// edit produces the (path, content) of one edit of the given kind,
// numbered n (unique per daemon, so no edit ever reproduces earlier
// bytes and every source edit must miss the cache).
func (ss *session) edit(kind editKind, n int) (string, string) {
	switch kind {
	case srcBody:
		ss.body = n
		return ss.target, sourceText(ss.mainBase, ss.body, ss.note)
	case srcComment:
		ss.note = n
		return ss.target, sourceText(ss.mainBase, ss.body, ss.note)
	case hdrBenign:
		// Alternate a comment rewrite and an inline-body rewrite. The
		// first benign edit plants the probe (an unused inline
		// function), which no consumer references either.
		if ss.hbody < 0 || n%2 == 0 {
			ss.hbody = n
		} else {
			ss.hnote = n
		}
	case hdrInterface:
		ss.hdrBase += fmt.Sprintf("\n#define YALLAPERF_IFACE_%d %d\n", n, n)
	}
	return ss.header, headerText(ss.hdrBase, ss.hnote, ss.hbody)
}

// sourceText is the compiled source with the body and comment markers.
func sourceText(base string, body, note int) string {
	out := base
	if body >= 0 {
		loc := runOpen.FindStringIndex(out)
		if loc != nil {
			out = out[:loc[1]] + fmt.Sprintf("  int yallaperf_edit = %d;\n", body) + out[loc[1]:]
		}
	}
	if note >= 0 {
		out += fmt.Sprintf("// yallaperf note %d\n", note)
	}
	return out
}

// headerText is the header with the benign-edit probe region appended.
func headerText(base string, note, body int) string {
	if note < 0 && body < 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	if note >= 0 {
		fmt.Fprintf(&b, "\n// yallaperf header note %d\n", note)
	}
	if body >= 0 {
		fmt.Fprintf(&b, "\ninline int yallaperf_probe() { return %d; }\n", body)
	}
	return b.String()
}

// verify compares the session's generated files with a cold one-shot
// build of the same tree (pristine subject plus the client's header),
// and its compiled source with that build's output plus the markers the
// client wrote since the last Prepare. It returns "" when all match.
func (ss *session) verify(c *daemon.Client) string {
	tree := map[string]string{ss.header: headerText(ss.hdrBase, ss.hnote, ss.hbody)}
	if ss.target != ss.main {
		tree[ss.target] = sourceText(ss.mainBase, ss.body, ss.note)
	}
	want, err := coldBuild(ss.subj, tree)
	if err != nil {
		return fmt.Sprintf("%s: cold build: %v", ss.name, err)
	}
	for p, w := range want {
		if p == ss.main && ss.target == ss.main {
			w = sourceText(w, ss.body, ss.note)
		}
		got, err := c.ReadFile(ss.name, p)
		if err != nil {
			return fmt.Sprintf("%s: read %s: %v", ss.name, p, err)
		}
		if got != w {
			return fmt.Sprintf("%s: %s differs from a cold one-shot build of the same tree", ss.name, p)
		}
	}
	return ""
}
