package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// factCacheSchema versions the on-disk cache layout; bump it whenever
// the cached shape or any analyzer's semantics change so stale entries
// self-invalidate.
const factCacheSchema = 2

// RunOptions configures one driver-level run of the analyzer suite.
type RunOptions struct {
	Root      string // module root directory
	Module    string // module path
	Tests     bool   // analyze _test.go files
	Patterns  []string
	Analyzers []*Analyzer
	// CacheDir holds fact-cache entries (one JSON file per run key).
	// Empty disables caching, as does NoCache.
	CacheDir string
	NoCache  bool
	// WantFacts forces a full analysis (facts are not cached) and
	// returns the computed fact store on the result.
	WantFacts bool
}

// PackageError is one package that failed to parse or type-check.
type PackageError struct {
	Path string
	Err  error
}

// RunResult is the outcome of Run.
type RunResult struct {
	Diags []Diagnostic
	// Broken lists packages whose analysis was refused because they do
	// not type-check; when non-empty the run is unreliable and the
	// driver exits 2.
	Broken []PackageError
	// FromCache reports that the diagnostics were served from a warm
	// fact cache without loading any package.
	FromCache bool
	// Facts is the computed fact store (nil on a cache hit unless
	// WantFacts, which forces computation).
	Facts *Facts
}

// cachedDiag is one diagnostic in its serialized form: the path is
// root-relative with forward slashes so cache entries survive a moved
// checkout (the hash key does not depend on the root's absolute path).
type cachedDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// cacheEntry is one run's memo: the content fingerprint of every
// package directory the pattern set matched, plus the diagnostics that
// analysis produced.
type cacheEntry struct {
	Schema    int               `json:"schemaVersion"`
	Toolchain string            `json:"toolchain"`
	Snapshot  map[string]string `json:"snapshot"` // rel dir -> content hash
	Diags     []cachedDiag      `json:"diagnostics"`
}

// Run executes the analyzer suite over the packages the patterns
// denote, with whole-repo interprocedural facts, consulting and
// refreshing the on-disk fact cache: when every matched directory's
// content hash is unchanged since the last clean run with the same
// options, the recorded diagnostics are returned without parsing or
// type-checking anything.
func Run(opts RunOptions) (*RunResult, error) {
	if len(opts.Analyzers) == 0 {
		opts.Analyzers = All()
	}
	useCache := !opts.NoCache && opts.CacheDir != "" && !opts.WantFacts

	var dirs []string
	var snap map[string]string
	var cachePath string
	if useCache {
		var err error
		dirs, err = MatchDirs(opts.Root, opts.Patterns)
		if err != nil {
			return nil, err
		}
		snap, err = snapshotDirs(opts.Root, dirs)
		if err != nil {
			return nil, err
		}
		cachePath = filepath.Join(opts.CacheDir, cacheKey(opts)+".json")
		if res := tryCache(cachePath, opts.Root, snap); res != nil {
			return res, nil
		}
	}

	loader := NewLoader(opts.Root, opts.Module, opts.Tests)
	pkgs, err := loader.LoadPatterns(opts.Patterns)
	if err != nil {
		return nil, err
	}
	res := &RunResult{}
	var clean []*Package
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			for _, e := range pkg.Errors {
				res.Broken = append(res.Broken, PackageError{Path: pkg.Path, Err: e})
			}
			continue
		}
		clean = append(clean, pkg)
	}
	facts := ComputeFacts(clean)
	for _, pkg := range clean {
		res.Diags = append(res.Diags, RunPackageFacts(pkg, opts.Analyzers, facts)...)
	}
	sortDiagnostics(res.Diags)
	if opts.WantFacts {
		res.Facts = facts
	}
	if useCache && len(res.Broken) == 0 {
		writeCache(cachePath, opts.Root, snap, res.Diags)
	}
	return res, nil
}

// cacheKey fingerprints everything besides file contents that shapes a
// run's diagnostics: module identity, pattern set, flags, the analyzer
// suite, and the toolchain.
func cacheKey(opts RunOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\nmodule=%s\ntests=%t\n", factCacheSchema, opts.Module, opts.Tests)
	fmt.Fprintf(h, "patterns=%s\n", strings.Join(opts.Patterns, "\x00"))
	names := make([]string, len(opts.Analyzers))
	for i, a := range opts.Analyzers {
		names[i] = a.Name
	}
	fmt.Fprintf(h, "analyzers=%s\ngo=%s\n", strings.Join(names, ","), runtime.Version())
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// snapshotDirs fingerprints every matched directory: a hash over the
// names and contents of its .go files. Any edit, addition, or removal
// of a Go file changes the hash; non-Go files are irrelevant to
// analysis and excluded.
func snapshotDirs(root string, dirs []string) (map[string]string, error) {
	snap := make(map[string]string, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			if os.IsNotExist(err) {
				// A named (non-...) pattern may point at a directory that
				// load-time will reject; leave that error to the loader.
				continue
			}
			return nil, err
		}
		h := sha256.New()
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
			h.Write(data)
		}
		snap[filepath.ToSlash(rel)] = hex.EncodeToString(h.Sum(nil))
	}
	return snap, nil
}

// tryCache returns the memoized result when the entry at path matches
// the current snapshot, nil otherwise (missing, unreadable, stale, or
// different schema — all treated as a plain miss).
func tryCache(path, root string, snap map[string]string) *RunResult {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var entry cacheEntry
	if json.Unmarshal(data, &entry) != nil ||
		entry.Schema != factCacheSchema || entry.Toolchain != runtime.Version() {
		return nil
	}
	if len(entry.Snapshot) != len(snap) {
		return nil
	}
	for dir, h := range snap {
		if entry.Snapshot[dir] != h {
			return nil
		}
	}
	res := &RunResult{FromCache: true}
	for _, d := range entry.Diags {
		res.Diags = append(res.Diags, Diagnostic{
			Pos: token.Position{
				Filename: filepath.Join(root, filepath.FromSlash(d.File)),
				Line:     d.Line,
				Column:   d.Col,
			},
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return res
}

// writeCache persists one run's memo atomically (temp file + rename);
// failures are deliberately silent — the cache is an accelerator, never
// a correctness dependency.
func writeCache(path, root string, snap map[string]string, diags []Diagnostic) {
	entry := cacheEntry{
		Schema:    factCacheSchema,
		Toolchain: runtime.Version(),
		Snapshot:  snap,
		Diags:     make([]cachedDiag, 0, len(diags)),
	}
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			return
		}
		entry.Diags = append(entry.Diags, cachedDiag{
			File:     filepath.ToSlash(rel),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	data, err := json.Marshal(entry)
	if err != nil {
		return
	}
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".cache-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
	}
}

// sortDiagnostics orders diags by (file, line, col, analyzer) — the
// byte-stable order the -json schema pins.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
