package check

import (
	"fmt"
	"path"
	"strings"
	"sync"

	"repro/internal/cpp/parser"
	"repro/internal/cpp/preprocessor"
	"repro/internal/cpp/sema"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Options configures one standalone checker run (the same input shape
// core.Substitute takes, minus output naming).
type Options struct {
	// FS holds the project tree (sources + all headers).
	FS *vfs.FS
	// SearchPaths are the -I include directories.
	SearchPaths []string
	// Sources are the user files that would be transformed.
	Sources []string
	// Header is the include target to substitute, as spelled in the
	// #include directive; ExtraHeaders are additional ones.
	Header       string
	ExtraHeaders []string
	// Defines are -D style predefined macros.
	Defines map[string]string
	// Passes restricts which checks run (nil = all registered).
	Passes []string
	// Jobs bounds per-TU parallelism (<=0 picks GOMAXPROCS).
	Jobs int
	// TokenCache, when set, memoizes per-file lexing (wall-clock only).
	TokenCache preprocessor.TokenCache
	// Obs records per-pass histograms/counters and frontend spans.
	Obs *obs.Obs
}

// Run builds one TU per source (each with its own frontend, so TUs are
// independent and check in parallel) and executes the passes. It fails
// if no source includes the header — a silent "safe" on a typo'd header
// name would be worse than an error.
func Run(opts Options) (*Result, error) {
	if opts.FS == nil {
		return nil, fmt.Errorf("check: Options.FS is required")
	}
	if len(opts.Sources) == 0 {
		return nil, fmt.Errorf("check: at least one source file is required")
	}
	if opts.Header == "" {
		return nil, fmt.Errorf("check: Options.Header is required")
	}
	sp := opts.Obs.Start("check")
	sp.SetStr("header", opts.Header)
	defer sp.End()
	o := sp.Obs()

	tus, err := buildTUs(opts, o)
	if err != nil {
		return nil, err
	}
	anyHeader := false
	for _, tu := range tus {
		if len(tu.HeaderOwned) > 0 {
			anyHeader = true
			break
		}
	}
	if !anyHeader {
		return nil, fmt.Errorf("check: header %q is not included by any source", opts.Header)
	}
	res, err := CheckTUs(tus, opts.Passes, opts.Jobs, o)
	if err != nil {
		return nil, err
	}
	sp.SetInt("diagnostics", int64(len(res.Diagnostics)))
	return res, nil
}

// buildTUs runs the frontend for every source on the bounded pool.
func buildTUs(opts Options, o *obs.Obs) ([]*TU, error) {
	sources := map[string]bool{}
	for _, s := range opts.Sources {
		sources[vfs.Clean(s)] = true
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = 4
	}
	tus := make([]*TU, len(opts.Sources))
	errs := make([]error, len(opts.Sources))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, src := range opts.Sources {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, src string) {
			defer wg.Done()
			defer func() { <-sem }()
			tus[i], errs[i] = frontendTU(opts, o, src, sources)
		}(i, src)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("check: %s: %v", opts.Sources[i], err)
		}
	}
	return tus, nil
}

// frontendTU preprocesses (with macro tracking), parses, and analyzes
// one source into a self-contained TU.
func frontendTU(opts Options, o *obs.Obs, src string, sources map[string]bool) (*TU, error) {
	pp := preprocessor.New(opts.FS, opts.SearchPaths...)
	pp.Obs = o
	pp.Cache = opts.TokenCache
	pp.TrackMacros = true
	for k, v := range opts.Defines {
		pp.Define(k, v)
	}
	res, err := pp.Preprocess(src)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %v", err)
	}
	owned := map[string]bool{}
	for _, target := range append([]string{opts.Header}, opts.ExtraHeaders...) {
		if hf := FindHeaderFile(res, target); hf != "" {
			MarkOwned(owned, res.DirectDeps, hf)
		}
	}
	p := parser.New(res.Tokens)
	p.Obs = o
	tu, err := p.Parse()
	if err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	tables := sema.NewTable()
	tables.Obs = o
	tables.AddUnit(tu)
	return &TU{
		Source:      vfs.Clean(src),
		AST:         tu,
		Tables:      tables,
		HeaderOwned: owned,
		Sources:     sources,
		MacroDefs:   res.MacroDefs,
		MacroUses:   res.MacroUses,
		FS:          opts.FS,
	}, nil
}

// FindHeaderFile locates the resolved path of an include target among a
// TU's includes. It is the one matching rule shared by the safety gate
// and the substitution engine, so the two always agree on which file is
// the substituted header.
func FindHeaderFile(res *preprocessor.Result, target string) string {
	suffix := "/" + path.Base(target)
	for _, inc := range res.Includes {
		if inc == vfs.Clean(target) || strings.HasSuffix("/"+inc, suffix) {
			return inc
		}
	}
	return ""
}

// MarkOwned adds hf and everything reachable from it through deps (a
// preprocessor result's DirectDeps) to owned: the files a substituted
// header owns.
func MarkOwned(owned map[string]bool, deps map[string][]string, hf string) {
	if owned[hf] {
		return
	}
	owned[hf] = true
	for _, d := range deps[hf] {
		MarkOwned(owned, deps, d)
	}
}
