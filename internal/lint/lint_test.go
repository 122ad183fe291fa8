package lint

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureConfig retargets the checks at the small module under
// testdata/fixture, which packs one violation (and one accepted pattern)
// per check into a handful of tiny packages.
func fixtureConfig() (*Config, error) {
	root, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		return nil, err
	}
	return &Config{
		Root:                 root,
		ModulePath:           "fixture",
		DeterministicPkgs:    []string{"fixture/det"},
		DeterminismSkipFiles: []string{"bench.go"},
		ClockAllowlist:       map[string]bool{"fixture/det.AllowedClock": true},
		ObsPkg:               "fixture/obs",
		ObsHandleTypes:       []string{"Counter"},
		LibraryPrefixes:      []string{"fixture/lib"},
		EnumTypes:            []string{"fixture/enums.Mode"},
		RequiredHotpaths: []string{
			"fixture/hot.Sum",          // annotated: satisfied
			"fixture/hot.Cold",         // exists but unannotated: finding
			"fixture/hot.event.label",  // unannotated method: finding
			"fixture/hot.Missing",      // no such function: finding
			"fixture/nosuchpkg.Kernel", // no such package: finding
		},
	}, nil
}

// runFixture runs the named checks (every check when none is named) over
// the fixture module.
func runFixture(t *testing.T, checks ...string) Result {
	t.Helper()
	cfg, err := fixtureConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checks = checks
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fullFixture is the run of every check over the fixture, computed once
// and shared by the tests that read it: loading and type-checking the
// fixture module and its standard-library imports from source is most
// of a run's time.
var fullFixture = sync.OnceValues(func() (Result, error) {
	cfg, err := fixtureConfig()
	if err != nil {
		return Result{}, err
	}
	return Run(cfg)
})

func fixtureResult(t *testing.T) Result {
	t.Helper()
	res, err := fullFixture()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFixtureGolden pins the full findings list — every check firing on
// its fixture violation, none firing on the accepted patterns — against
// testdata/findings.golden (regenerate with go test -run Golden -update).
func TestFixtureGolden(t *testing.T) {
	res := fixtureResult(t)
	var sb strings.Builder
	for _, f := range res.Findings {
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	got := sb.String()
	golden := filepath.Join("testdata", "findings.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFixtureSuppression: the five //predlint:ignore sites (det.Quiet,
// lib.Guard, lib.Kept, conc.Racy, own.Peek) are counted as suppressed and
// absent from the findings.
func TestFixtureSuppression(t *testing.T) {
	res := fixtureResult(t)
	if res.Suppressed != 5 {
		t.Errorf("suppressed = %d, want 5", res.Suppressed)
	}
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "Quiet") || strings.Contains(f.Message, "Kept") || f.File == "lib/lib.go" && f.Line >= 17 {
			t.Errorf("suppressed site still reported: %s", f)
		}
	}
}

// TestFixtureCheckFilter: restricting cfg.Checks runs only the named
// check.
func TestFixtureCheckFilter(t *testing.T) {
	res := runFixture(t, "exhaustive")
	if len(res.Findings) == 0 {
		t.Fatal("exhaustive-only run found nothing")
	}
	for _, f := range res.Findings {
		if f.Check != "exhaustive" {
			t.Errorf("check filter leaked finding %s", f)
		}
	}
}

// TestEveryCheckFires: each registered check produces at least one
// fixture finding, so a check silently dying would fail here rather than
// only in the golden diff.
func TestEveryCheckFires(t *testing.T) {
	res := fixtureResult(t)
	fired := map[string]bool{}
	for _, f := range res.Findings {
		fired[f.Check] = true
	}
	for _, ch := range Checks() {
		if !fired[ch.Name] {
			t.Errorf("check %s produced no fixture finding", ch.Name)
		}
	}
}

// TestJSONShape pins the -json document: the field names the CI contract
// depends on, and one fully-populated finding.
func TestJSONShape(t *testing.T) {
	res := fixtureResult(t)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"module", "packages", "findings", "suppressed"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("json document lacks %q", key)
		}
	}
	findings, ok := doc["findings"].([]interface{})
	if !ok || len(findings) == 0 {
		t.Fatalf("findings = %v", doc["findings"])
	}
	first, ok := findings[0].(map[string]interface{})
	if !ok {
		t.Fatalf("finding = %v", findings[0])
	}
	for _, key := range []string{"file", "line", "col", "check", "code", "message"} {
		if _, ok := first[key]; !ok {
			t.Errorf("finding lacks %q", key)
		}
	}
}

// TestJSONGolden pins the complete -json document against
// testdata/findings.json.golden: field names, code values, and the
// directive text riding on staleignore findings are all CI contract.
func TestJSONGolden(t *testing.T) {
	res := fixtureResult(t)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(data) + "\n"
	golden := filepath.Join("testdata", "findings.json.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("json document diverges from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFindingCodes: every finding carries a stable machine code prefixed
// by its check name, and directive text appears exactly on the findings
// that are about a directive.
func TestFindingCodes(t *testing.T) {
	res := fixtureResult(t)
	for _, f := range res.Findings {
		if f.Code == "" {
			t.Errorf("finding without code: %s", f)
			continue
		}
		if !strings.HasPrefix(f.Code, f.Check+"/") {
			t.Errorf("code %q does not extend check %q: %s", f.Code, f.Check, f)
		}
		if f.Check == "staleignore" && f.Directive == "" {
			t.Errorf("staleignore finding without directive text: %s", f)
		}
		if f.Check != "staleignore" && f.Check != "guardedby" && f.Directive != "" {
			t.Errorf("non-directive finding carries directive text: %s", f)
		}
	}
}

// TestSelfClean runs the full default configuration over this repository
// itself: predlint must pass on its own module — including internal/lint
// — and staleignore must report zero dead directives on the tree. This is
// the test behind `make lint-self`.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("module is not self-clean: %s", f)
	}
}

// TestFindingsNeverNil: a clean subset run still marshals findings as []
// not null.
func TestFindingsNeverNil(t *testing.T) {
	cfg, err := fixtureConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checks = []string{"obsnil"}
	cfg.ObsHandleTypes = nil // nothing to flag
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"findings":null`) {
		t.Error("empty findings marshal as null, want []")
	}
}
