package serve_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// COHSNAP1 bytes are pinned by files: testdata/snapshots holds the GET
// body of one session per table kind and requested shard count, each
// built by goldenSession. README.md there says how the files were
// written.

// goldenSchemes has one scheme per table kind, and PAs again at depth 4,
// whose history registers use bits 2 and 3.
var goldenSchemes = []struct{ kind, scheme string }{
	{"last", "last(dir+add8)1[direct]"},
	{"union", "union(pid+dir+add10)2[forwarded]"},
	{"inter", "inter(pid+pc8)2[forwarded]"},
	{"pas", "pas(pid+add6)2"},
	{"sticky", "sticky(dir+add8)1"},
	{"pas4", "pas(pid+add2)4"},
}

// goldenEvents draws n events on sixteen nodes from rng: a small address
// and store-site space so keys repeat, random reader sets so entries and
// predictions take 1- to 3-byte uvarints, and a previous writer on three
// events in four.
func goldenEvents(rng *rand.Rand, n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		ev := trace.Event{
			PID:           uint8(rng.Intn(16)),
			PC:            uint64(0x400 + 4*rng.Intn(24)),
			Dir:           uint8(rng.Intn(16)),
			Addr:          uint64(rng.Intn(96)) * 64,
			InvReaders:    bitmap.Bitmap(rng.Uint64() & rng.Uint64() & 0xffff),
			FutureReaders: bitmap.Bitmap(rng.Uint64() & rng.Uint64() & 0xffff),
		}
		if rng.Intn(4) != 0 {
			ev.HasPrev, ev.PrevPID, ev.PrevPC = true, uint8(rng.Intn(16)), uint64(0x400+4*rng.Intn(24))
		}
		evs[i] = ev
	}
	return evs
}

// goldenSession creates a session of the scheme, requesting the shard
// count, and posts it twelve keyed 64-event COHWIRE1 batches, the same
// ones for every scheme and shard count. It returns the session id.
func goldenSession(c *client, scheme string, shards int) string {
	c.t.Helper()
	id := c.createSession(serve.CreateSessionRequest{
		Scheme: scheme, Shards: shards, BatchSize: 32, MaxPending: 4096,
	}).ID
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 12; i++ {
		hdr := map[string]string{"Content-Type": serve.ContentTypeWire, "Idempotency-Key": fmt.Sprintf("g-%02d", i)}
		body := serve.AppendWireBatch(nil, goldenEvents(rng, 64))
		if code, _, reply := c.doRaw("POST", "/v1/sessions/"+id+"/events", body, hdr); code != http.StatusOK {
			c.t.Fatalf("%s post %d: status %d: %s", scheme, i, code, reply)
		}
	}
	return id
}

func goldenPath(kind string, shards int) string {
	return filepath.Join("testdata", "snapshots", fmt.Sprintf("%s-%d.cohsnap", kind, shards))
}

// TestSnapshotGolden: every table kind, created at one shard or at two,
// snapshots to the committed <kind>-1 bytes, since a session runs one
// table and writes 1 in its shards word whatever it was asked for. Each
// committed <kind>-2 file differs from its <kind>-1 file in that byte
// alone (sticky ones in none), and every file, -1 and -2, restores into
// a session that snapshots to the <kind>-1 bytes.
func TestSnapshotGolden(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	for _, g := range goldenSchemes {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-%d", g.kind, shards), func(t *testing.T) {
				c.t = t
				want, err := os.ReadFile(goldenPath(g.kind, 1))
				if err != nil {
					t.Fatal(err)
				}
				file, err := os.ReadFile(goldenPath(g.kind, shards))
				if err != nil {
					t.Fatal(err)
				}
				if differ := diffBytes(file, want); differ > 1 {
					t.Fatalf("%s differs from %s in %d bytes, want at most the shards word's one",
						goldenPath(g.kind, shards), goldenPath(g.kind, 1), differ)
				}
				got, _ := c.snapshot(goldenSession(c, g.scheme, shards))
				if !bytes.Equal(got, want) {
					t.Fatalf("snapshot of %s created at %d shards differs from %s (%d bytes, want %d)",
						g.scheme, shards, goldenPath(g.kind, 1), len(got), len(want))
				}
				id := fmt.Sprintf("r-%s-%d", g.kind, shards)
				c.restore(id, file, shards)
				if again, _ := c.snapshot(id); !bytes.Equal(again, want) {
					t.Fatalf("restored %s snapshots to other bytes than %s", goldenPath(g.kind, shards), goldenPath(g.kind, 1))
				}
			})
		}
	}
}

// diffBytes returns how many bytes a and b differ in, counting every
// byte past the shorter one's end.
func diffBytes(a, b []byte) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// seedRestoreStatus is the PUT status each committed FuzzDecodeSnapshot
// seed got from the parent commit's server: a snapshot that is accepted
// whole restores (201), and every other is refused as malformed (400).
var seedRestoreStatus = map[string]int{
	"all-ff":                  http.StatusBadRequest,
	"bad-magic":               http.StatusBadRequest,
	"empty":                   http.StatusBadRequest,
	"magic-only":              http.StatusBadRequest,
	"non-boolean-scheme-word": http.StatusBadRequest,
	"valid-0":                 http.StatusCreated,
	"valid-1":                 http.StatusCreated,
	"valid-2":                 http.StatusCreated,
	"valid-3":                 http.StatusCreated,
	"valid-4":                 http.StatusCreated,
	"valid-extra-0":           http.StatusBadRequest,
	"valid-extra-1":           http.StatusBadRequest,
	"valid-extra-2":           http.StatusBadRequest,
	"valid-extra-3":           http.StatusBadRequest,
	"valid-extra-4":           http.StatusBadRequest,
}

// readFuzzSeed returns the bytes of a one-value []byte corpus file.
func readFuzzSeed(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if !ok || !ok2 {
		t.Fatalf("%s is not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestFuzzSeedRestoreStatus: each committed FuzzDecodeSnapshot seed gets
// the same PUT outcome as at the parent commit.
func TestFuzzSeedRestoreStatus(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Shutdown()
	c, closeTS := newClient(t, srv)
	defer closeTS()
	dir := filepath.Join("..", "eval", "testdata", "fuzz", "FuzzDecodeSnapshot")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(seedRestoreStatus) {
		t.Fatalf("%d seeds in %s, the table has %d", len(files), dir, len(seedRestoreStatus))
	}
	for _, f := range files {
		want, ok := seedRestoreStatus[f.Name()]
		if !ok {
			t.Fatalf("seed %s has no recorded status", f.Name())
		}
		body := readFuzzSeed(t, filepath.Join(dir, f.Name()))
		if code, _, reply := c.doRaw("PUT", "/v1/sessions/seed-"+f.Name()+"/snapshot", body, nil); code != want {
			t.Errorf("seed %s: PUT status %d, want %d: %s", f.Name(), code, want, reply)
		}
	}
}
