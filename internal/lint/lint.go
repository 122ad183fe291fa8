// Package lint is predlint: a project-specific static-analysis pass that
// makes the reproduction's core contracts mechanical. The sweep engine
// promises byte-identical output at any worker count with observability on
// or off; nothing but convention stops a future change from slipping
// time.Now, global math/rand, or an unordered map iteration into an output
// path. predlint turns those conventions into checks that run as part of
// `make check`:
//
//   - determinism: no wall-clock reads, global randomness, environment
//     reads, or order-sensitive map iteration in the deterministic packages;
//   - hotpath: functions annotated //predlint:hotpath stay free of
//     per-event allocation and fmt traffic;
//   - obsnil: obs handles are used only through their nil-safe methods
//     outside internal/obs;
//   - panicfree: library packages return errors instead of panicking;
//   - exhaustive: switches over the taxonomy enums cover every constant;
//   - guardedby: fields annotated //predlint:guardedby mu are only
//     touched while that mutex is held on every path through the function;
//   - atomiconly: sync/atomic-typed fields (and //predlint:atomic
//     annotations) are never plain-accessed, copied, or address-escaped;
//   - goroutineown: //predlint:owned values are not touched after being
//     handed off to another goroutine (send, pool Put, pointer Swap);
//   - testonly: every exported name and method of a library package is
//     used by some non-test file of the module (or implements an
//     interface method), so the surface carries no API only tests keep
//     alive;
//   - staleignore: every predlint directive still earns its keep — dead
//     ignores and dangling annotations are findings.
//
// guardedby and goroutineown are path-sensitive, and share one forward
// statement interpreter (walk, in flow.go): guardedby threads a lock set
// through each function, joined by intersection, and goroutineown a set
// of handed-off variables, joined by union. Both merge paths by one rule.
// A path that returns, panics, branches or blocks in an empty select
// ends; an if joins its arms that do not end; a switch joins its clauses
// that do not end, plus its entry facts when it has no default; a select
// joins only its cases that do not end; a loop joins its entry facts
// with those after one pass of its body.
//
// Every finding is suppressible at the site with a
// "//predlint:ignore <check> reason" comment, so intentional exceptions
// are visible and greppable — and the staleignore check flags any such
// comment the moment it stops suppressing anything, so the exception list
// cannot rot. The analyzer uses only the standard library
// (go/parser, go/ast, go/types): the module stays dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic: a location, the check that fired, a stable
// machine code, and a message. File paths are relative to the module root
// so output is stable across checkouts. Code is "check/kind" — the part
// CI annotations key on, guaranteed not to change when messages are
// reworded. Directive carries the verbatim comment text when the finding
// is about a directive itself (the staleignore check).
type Finding struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Check     string `json:"check"`
	Code      string `json:"code"`
	Message   string `json:"message"`
	Directive string `json:"directive,omitempty"`
}

// String renders the finding in the classic file:line:col form, keyed by
// the stable code when the check set one.
func (f Finding) String() string {
	label := f.Code
	if label == "" {
		label = f.Check
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, label, f.Message)
}

// Result is the machine-readable outcome of a lint run (the -json
// document).
type Result struct {
	Module     string    `json:"module"`
	Packages   int       `json:"packages"`
	Findings   []Finding `json:"findings"`
	Suppressed int       `json:"suppressed"`
}

// Config parameterises a run. Every project-specific list lives here so
// the checks themselves stay generic and the fixture tests can retarget
// them at small test modules.
type Config struct {
	// Root is the module root directory; ModulePath its import path
	// (read from go.mod by LoadConfig).
	Root       string
	ModulePath string

	// DeterministicPkgs are the import paths subject to the determinism
	// check — the packages whose results must be byte-identical run to
	// run.
	DeterministicPkgs []string
	// DeterminismSkipFiles are file base names exempt from the
	// determinism check (benchmark probes legitimately read the clock).
	DeterminismSkipFiles []string
	// ClockAllowlist lists "importpath.FuncName" entries allowed to call
	// time.Now/time.Since inside deterministic packages: the sweep
	// engine's observability timing, which feeds metrics but never
	// results.
	ClockAllowlist map[string]bool

	// ObsPkg is the observability package; ObsHandleTypes its nil-safe
	// handle types, which must not have fields accessed (or literals
	// constructed) outside ObsPkg.
	ObsPkg         string
	ObsHandleTypes []string

	// LibraryPrefixes are import-path prefixes counted as library code
	// for the panicfree and testonly checks (command and example mains
	// are exempt).
	LibraryPrefixes []string

	// EnumTypes are "importpath.TypeName" entries whose switch
	// statements must either cover every declared constant or carry a
	// default case.
	EnumTypes []string

	// RequiredHotpaths are "importpath.FuncName" (or
	// "importpath.Receiver.Method") entries that MUST carry the
	// //predlint:hotpath annotation: the serving and evaluation kernels
	// whose allocation discipline the throughput floors rest on. A
	// missing function or a stripped annotation is a finding, so the
	// hot-path guarantee cannot silently rot out of the lint's sight.
	RequiredHotpaths []string

	// Checks restricts the run to the named checks; empty means all.
	Checks []string
}

// DefaultConfig returns the project configuration for the cohpredict
// module rooted at root.
func DefaultConfig(root, modulePath string) *Config {
	internal := func(names ...string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = modulePath + "/internal/" + n
		}
		return out
	}
	return &Config{
		Root:       root,
		ModulePath: modulePath,
		DeterministicPkgs: internal("bitmap", "codec", "trace", "cache", "machine", "eval",
			"search", "metrics", "workload", "topology", "online", "cosmos",
			"report", "experiments", "serve", "fault", "client", "flight",
			"traffic", "cluster"),
		DeterminismSkipFiles: []string{"bench.go"},
		ClockAllowlist: map[string]bool{
			// The sweep engine times tasks and worker busy-ns for the obs
			// registry; the readings feed metrics only, never results.
			modulePath + "/internal/search.EvaluateSchemesObserved": true,
			modulePath + "/internal/search.runIndexTrace":           true,
			// Suite.evaluate wraps every sweep in a wall-time SweepRecord.
			modulePath + "/internal/experiments.evaluate": true,
			// flight.Nanos is the serving layer's single clock: every stage
			// stamp and busy-ns reading in serve derives from it, and the
			// readings feed metrics and trace records only, never results.
			modulePath + "/internal/flight.Nanos": true,
		},
		ObsPkg:          modulePath + "/internal/obs",
		ObsHandleTypes:  []string{"Counter", "Gauge", "Histogram", "Registry"},
		LibraryPrefixes: []string{modulePath + "/internal/"},
		EnumTypes: []string{
			modulePath + "/internal/core.Function",
			modulePath + "/internal/core.UpdateMode",
		},
		RequiredHotpaths: []string{
			// The predictor kernel and the sweep's per-event step.
			modulePath + "/internal/core.FlatTable.Predict",
			modulePath + "/internal/core.FlatTable.Train",
			modulePath + "/internal/core.UpdateMode.Schedule",
			modulePath + "/internal/search.groupState.step",
			// The offline evaluation kernel.
			modulePath + "/internal/eval.Apply",
			modulePath + "/internal/eval.Engine.Step",
			// The canonical varint kernels every binary format decodes
			// and encodes with, and the event block that COHWIRE1,
			// COHTRACE1 and COHPRED2 share.
			modulePath + "/internal/codec.Uvarint",
			modulePath + "/internal/codec.UvarintLen",
			modulePath + "/internal/codec.AppendUvarint",
			modulePath + "/internal/codec.PutUvarint",
			modulePath + "/internal/trace.BlockLen",
			modulePath + "/internal/trace.PutBlock",
			modulePath + "/internal/trace.AppendBlock",
			modulePath + "/internal/trace.DecodeBlock",
			// The COHSNAP1 entry kernels a ship runs once per table
			// entry: the encoder writing straight from the slots, and the
			// scan and importer reading straight into them.
			modulePath + "/internal/core.FlatTable.appendSorted",
			modulePath + "/internal/core.FlatTable.putEntry",
			modulePath + "/internal/core.scanEntries",
			modulePath + "/internal/core.importEntries",
			modulePath + "/internal/core.FlatTable.readEntry",
			// The serve path: the kernel loop a post runs under its
			// session's table lock, and the COHWIRE1 codec kernels the
			// allocation-free binary transport is built from.
			modulePath + "/internal/serve.engine.process",
			modulePath + "/internal/serve.AppendWireBatch",
			modulePath + "/internal/serve.AppendWireReply",
			modulePath + "/internal/serve.DecodeWireBatchInto",
			modulePath + "/internal/serve.DecodeWireReplyInto",
			// The flight recorder's stamping kernels run on every post:
			// plain stores by the request's own goroutine, zero
			// allocation.
			modulePath + "/internal/flight.Record.NoteExec",
			modulePath + "/internal/flight.Record.MarkFault",
			// The COHTRACE1 recording kernels run on the serve layer's
			// accepted path (once per trained batch): append-only into one
			// warmed buffer, zero steady-state allocation.
			modulePath + "/internal/traffic.Recorder.RecordEvents",
			modulePath + "/internal/traffic.appendRequestRecord",
		},
	}
}

// Check is one registered analysis pass.
type Check struct {
	Name string
	Desc string
	run  func(*Context)
}

// Checks returns the registered checks in execution order.
func Checks() []Check {
	return []Check{
		{
			Name: "determinism",
			Desc: "no time.Now/time.Since, global math/rand, os.Getenv, or order-sensitive map iteration in the deterministic packages",
			run:  checkDeterminism,
		},
		{
			Name: "hotpath",
			Desc: "functions marked //predlint:hotpath avoid per-event heap allocation, fmt calls, loop-variable captures, interface conversions, and unpreallocated appends; the configured required kernels must carry the mark",
			run:  checkHotpath,
		},
		{
			Name: "obsnil",
			Desc: "obs handles (Counter, Gauge, Histogram, Registry) are used only through their nil-safe methods outside internal/obs",
			run:  checkObsNil,
		},
		{
			Name: "panicfree",
			Desc: "library packages return errors instead of calling panic or log.Fatal",
			run:  checkPanicFree,
		},
		{
			Name: "exhaustive",
			Desc: "switches over the taxonomy enum types cover every constant or carry a default",
			run:  checkExhaustive,
		},
		{
			Name: "guardedby",
			Desc: "fields annotated //predlint:guardedby mu are only touched while that mutex is held on every path (RLock suffices for reads)",
			run:  checkGuardedBy,
		},
		{
			Name: "atomiconly",
			Desc: "sync/atomic-typed fields and fields annotated //predlint:atomic are never plain-accessed, copied by value, or address-escaped",
			run:  checkAtomicOnly,
		},
		{
			Name: "goroutineown",
			Desc: "values of types annotated //predlint:owned are not touched after being handed off (sent, pooled, swapped, or passed to a //predlint:handoff function)",
			run:  checkGoroutineOwn,
		},
		{
			Name: "testonly",
			Desc: "every exported name and method in a library package is referenced by some non-test file of the module, or implements an interface method",
			run:  checkTestOnly,
		},
		// staleignore must run last: it judges which ignore directives and
		// annotations the earlier checks actually consumed this run.
		{
			Name: "staleignore",
			Desc: "every //predlint: directive still suppresses or matches something; dead ignores and dangling annotations are findings",
			run:  checkStaleIgnore,
		},
	}
}

// Context is the shared state a check runs against.
type Context struct {
	Cfg  *Config
	Fset *token.FileSet
	Pkgs []*Package

	dirs     *directives
	findings []Finding
	dropped  int

	// ran records which checks executed this run; staleignore only judges
	// directives whose checks actually had the chance to consume them.
	ran map[string]bool
	// consumed holds the comment positions of annotation directives
	// (guardedby/atomic/owned/handoff) that a check matched to a
	// declaration; anything left over is dangling.
	consumed map[token.Pos]bool
}

// consume marks an annotation comment as matched by a check.
func (c *Context) consume(pos token.Pos) {
	c.consumed[pos] = true
}

// reportf records a finding at pos unless a //predlint:ignore comment
// suppresses it. code is the stable machine code ("check/kind").
func (c *Context) reportf(check, code string, pos token.Pos, format string, args ...interface{}) {
	c.report(check, code, "", pos, format, args...)
}

// reportDirectivef is reportf for findings about a directive comment
// itself; the verbatim directive text rides along in the finding.
func (c *Context) reportDirectivef(check, code, directive string, pos token.Pos, format string, args ...interface{}) {
	c.report(check, code, directive, pos, format, args...)
}

func (c *Context) report(check, code, directive string, pos token.Pos, format string, args ...interface{}) {
	p := c.Fset.Position(pos)
	file := relPath(c.Cfg.Root, p.Filename)
	if c.dirs.suppressed(file, p.Line, check) {
		c.dropped++
		return
	}
	c.findings = append(c.findings, Finding{
		File:      file,
		Line:      p.Line,
		Col:       p.Column,
		Check:     check,
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Directive: directive,
	})
}

func relPath(root, file string) string {
	prefix := root
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	return strings.TrimPrefix(file, prefix)
}

// Run loads the module under cfg.Root and executes the configured checks,
// returning every unsuppressed finding sorted by position.
func Run(cfg *Config) (Result, error) {
	fset := token.NewFileSet()
	pkgs, err := loadModule(cfg, fset)
	if err != nil {
		return Result{}, err
	}
	ctx := &Context{
		Cfg: cfg, Fset: fset, Pkgs: pkgs,
		dirs:     collectDirectives(cfg.Root, fset, pkgs),
		ran:      map[string]bool{},
		consumed: map[token.Pos]bool{},
	}
	enabled := map[string]bool{}
	for _, name := range cfg.Checks {
		enabled[name] = true
	}
	for _, ch := range Checks() {
		if len(enabled) > 0 && !enabled[ch.Name] {
			continue
		}
		ctx.ran[ch.Name] = true
		ch.run(ctx)
	}
	// Stable, so two findings of one check at one position keep the
	// order the check reported them in, whatever else the run found.
	sort.SliceStable(ctx.findings, func(i, j int) bool {
		a, b := ctx.findings[i], ctx.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	if ctx.findings == nil {
		ctx.findings = []Finding{}
	}
	return Result{
		Module:     cfg.ModulePath,
		Packages:   len(pkgs),
		Findings:   ctx.findings,
		Suppressed: ctx.dropped,
	}, nil
}

// pkgByPath returns the loaded package with the given import path, or nil.
func (c *Context) pkgByPath(path string) *Package {
	for _, p := range c.Pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// isLibrary reports whether pkg is library code: under one of
// Config.LibraryPrefixes and not a main package.
func (c *Context) isLibrary(pkg *Package) bool {
	if pkg.Name == "main" {
		return false
	}
	for _, prefix := range c.Cfg.LibraryPrefixes {
		if strings.HasPrefix(pkg.Path, prefix) {
			return true
		}
	}
	return false
}

// eachFunc walks every function declaration of the package, calling fn
// with the declaration and its enclosing file.
func eachFunc(p *Package, fn func(file *ast.File, decl *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn(f, fd)
			}
		}
	}
}
