package traffic

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// -update-golden regenerates the committed chaos-incident trace and its
// pinned replay outcome. The incident is produced by a fully seeded
// chaos run (fault injector seed, client seed, deterministic recorder
// clock), so the regenerated artifacts are reproducible:
//
//	go test ./internal/traffic -run TestGoldenChaosIncident -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/chaos_incident.cohtrace and its golden replay outcome")

const (
	goldenTracePath   = "testdata/chaos_incident.cohtrace"
	goldenOutcomePath = "testdata/chaos_incident_golden.json"
)

// goldenOutcome is the pinned replay result: per-session predictions and
// confusion.
type goldenOutcome struct {
	Sessions []goldenSession `json:"sessions"`
}

type goldenSession struct {
	Scheme       string   `json:"scheme"`
	Predictions  []uint64 `json:"predictions"`
	Events       uint64   `json:"events"`
	TP           uint64   `json:"tp"`
	FP           uint64   `json:"fp"`
	TN           uint64   `json:"tn"`
	FN           uint64   `json:"fn"`
	TableEntries uint64   `json:"table_entries"`
}

func outcomeOf(res *ReplayResult) goldenOutcome {
	var out goldenOutcome
	for i := range res.Sessions {
		s := &res.Sessions[i]
		out.Sessions = append(out.Sessions, goldenSession{
			Scheme:       s.Scheme,
			Predictions:  s.Predictions,
			Events:       s.Stats.Events,
			TP:           s.Stats.TP,
			FP:           s.Stats.FP,
			TN:           s.Stats.TN,
			FN:           s.Stats.FN,
			TableEntries: s.Stats.TableEntries,
		})
	}
	return out
}

// replayGoldenTrace replays the committed incident against a fresh
// in-process server.
func replayGoldenTrace(t *testing.T, recs []TraceRecord) goldenOutcome {
	t.Helper()
	return outcomeOf(replayAgainstFreshServer(t, recs))
}

// TestGoldenChaosIncident is the replay-regression gate: the committed
// chaos-incident trace (recorded under drops, injected 500s, and resets)
// must keep replaying to byte-for-byte the committed predictions and
// confusion. Any change to the predictor
// core, the serve pipeline, the codec, or the replayer that shifts a
// single served bitmap fails here first.
func TestGoldenChaosIncident(t *testing.T) {
	if *updateGolden {
		regenerateGolden(t)
	}
	data, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	recs, err := DecodeTraceFile(data)
	if err != nil {
		t.Fatalf("committed trace does not decode: %v", err)
	}
	raw, err := os.ReadFile(goldenOutcomePath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenOutcome
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got := replayGoldenTrace(t, recs); !reflect.DeepEqual(got, want) {
		t.Fatal("replay outcome drifted from the committed golden\n(regenerate with -update-golden only if the change is intended)")
	}
}

// regenerateGolden records a fresh seeded chaos incident and pins its
// replay outcome.
func regenerateGolden(t *testing.T) {
	t.Helper()
	tr := genTestTrace(t, "mp3d", 17)
	evs := tr.Events
	if len(evs) > 576 {
		evs = evs[:576]
	}
	data, _, _ := chaosRun(t, evs, 23)
	recs, err := DecodeTraceFile(data)
	if err != nil {
		t.Fatal(err)
	}
	out := replayGoldenTrace(t, recs)
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenTracePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenOutcomePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes, %d records) and %s", goldenTracePath, len(data), len(recs), goldenOutcomePath)
}
