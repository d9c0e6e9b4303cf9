package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/buildcache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/devcycle"
	"repro/internal/vfs"
)

// golden holds the committed paper results every cold-matrix op is
// checked against: per subject × mode the virtual compile/link/run
// costs ("compile,link,run" as the CSVs print them), and per subject
// the Table 3 unit statistics. The files are read, never written.
type golden struct {
	cycle map[string]string // "subject/mode" → "compile_ms,link_ms,run_ms"
	stats map[string][4]string
}

var goldenModeFile = map[devcycle.Mode]string{
	devcycle.Default: "normal", devcycle.PCH: "pch", devcycle.Yalla: "yalla",
}

func loadGolden(repo string) (*golden, error) {
	g := &golden{cycle: map[string]string{}, stats: map[string][4]string{}}
	for mode, name := range goldenModeFile {
		for _, group := range []string{"kokkos", "other"} {
			rows, err := readCSV(filepath.Join(repo, "results", "compilation_"+group+"_"+name+".csv"))
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				if len(r) != 4 {
					return nil, fmt.Errorf("golden: malformed row %q", r)
				}
				g.cycle[r[0]+"/"+mode.String()] = strings.Join(r[1:], ",")
			}
		}
	}
	rows, err := readCSV(filepath.Join(repo, "results", "stats.csv"))
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if len(r) != 5 {
			return nil, fmt.Errorf("golden: malformed stats row %q", r)
		}
		g.stats[r[0]] = [4]string{r[1], r[2], r[3], r[4]}
	}
	return g, nil
}

// readCSV returns the data rows (header dropped).
func readCSV(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("golden: %s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("golden: %s is empty", path)
	}
	return rows[1:], nil
}

// verify compares one prepared-and-cycled subject × mode with the
// committed rows; it returns "" when everything matches.
func (g *golden) verify(s *corpus.Subject, mode devcycle.Mode, t devcycle.Times, st *devcycle.Setup) string {
	key := s.Name + "/" + mode.String()
	got := fmt.Sprintf("%.3f,%.3f,%.3f", ms(t.Compile), ms(t.Link), ms(t.Run))
	if want, ok := g.cycle[key]; !ok {
		return key + ": no committed row"
	} else if got != want {
		return fmt.Sprintf("%s: cycle %s, committed %s", key, got, want)
	}
	row, ok := g.stats[s.Name]
	if !ok {
		return key + ": no committed stats row"
	}
	var wantLOC, wantHeaders string
	switch mode {
	case devcycle.Default:
		wantLOC, wantHeaders = row[0], row[2]
	case devcycle.Yalla:
		wantLOC, wantHeaders = row[1], row[3]
	default:
		return ""
	}
	stats := st.Stats()
	if gotStats := fmt.Sprintf("%d,%d", stats.LOC, stats.Headers); gotStats != wantLOC+","+wantHeaders {
		return fmt.Sprintf("%s: loc,headers %s, committed %s,%s", key, gotStats, wantLOC, wantHeaders)
	}
	return ""
}

// coldBuild is the one-shot reference for a daemon session: a fresh
// substitution over the pristine subject tree with the given files
// overwritten, run with a private cache — what the yalla CLI would
// produce for the same tree. It returns the generated files by path.
func coldBuild(s *corpus.Subject, overrides map[string]string) (map[string]string, error) {
	fs := s.FS.Overlay()
	for p, c := range overrides {
		fs.Write(p, c)
	}
	res, err := core.Substitute(core.Options{
		FS:          fs,
		SearchPaths: s.SearchPaths,
		Sources:     s.Sources,
		Header:      s.Header,
		OutDir:      s.OutDir(),
		TokenCache:  buildcache.New(),
	})
	if err != nil {
		return nil, err
	}
	paths := []string{res.LightweightPath, res.WrappersPath}
	for _, p := range res.ModifiedSources {
		paths = append(paths, p)
	}
	out := map[string]string{}
	for _, p := range paths {
		c, err := fs.Read(p)
		if err != nil {
			return nil, err
		}
		out[vfs.Clean(p)] = c
	}
	return out, nil
}
