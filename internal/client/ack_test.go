package client

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cohpredict/internal/serve"
)

// TestPostsAcknowledgePreviousKey pins which key each event post
// acknowledges: none on a session's first post, then the key of the last
// post to the same session that returned; never the post's own key, never
// the key of a post that failed, and none after DeleteSession forgets the
// session. Sessions keep separate keys, in either transport.
func TestPostsAcknowledgePreviousKey(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) {
			var mu sync.Mutex
			acks := map[string]string{} // Idempotency-Key → Idempotency-Ack
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodDelete {
					w.Write([]byte(`{"id":"s1","status":"drained"}`))
					return
				}
				key := r.Header.Get("Idempotency-Key")
				mu.Lock()
				acks[key] = r.Header.Get("Idempotency-Ack")
				mu.Unlock()
				if strings.HasPrefix(key, "bad") {
					http.Error(w, `{"error":"serve: bad batch"}`, http.StatusBadRequest)
					return
				}
				if binary {
					w.Header().Set("Content-Type", serve.ContentTypeWire)
					w.Write(serve.AppendWireReply(nil, nil))
					return
				}
				w.Write([]byte(`{"events":0,"predictions":[]}`))
			}))
			defer ts.Close()
			c := New(Options{BaseURL: ts.URL, Binary: binary, Sleep: func(time.Duration) {}})

			steps := []struct {
				session, key string
				ok           bool
				ack          string // the ack the post must carry
			}{
				{"s1", "a", true, ""},       // a session's first post
				{"s1", "b", true, "a"},      // the previous key
				{"s1", "b", true, ""},       // a re-post of its own key must replay
				{"s2", "x", true, ""},       // another session starts afresh
				{"s1", "bad-1", false, "b"}, // s2's post does not move s1's ack
				{"s1", "c", true, "b"},      // a failed post is not acknowledged
				{"s1", "", true, "c"},       // an unkeyed post acknowledges too
				{"s1", "d", true, "c"},      // and does not become an ack itself
			}
			for i, st := range steps {
				_, err := c.PostEventsKeyed(st.session, st.key, nil)
				if (err == nil) != st.ok {
					t.Fatalf("step %d: post %s/%q: err = %v", i, st.session, st.key, err)
				}
				mu.Lock()
				got := acks[st.key]
				mu.Unlock()
				if got != st.ack {
					t.Fatalf("step %d: post %s/%q acknowledged %q, want %q", i, st.session, st.key, got, st.ack)
				}
			}

			if err := c.DeleteSession("s1"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.PostEventsKeyed("s1", "e", nil); err != nil {
				t.Fatal(err)
			}
			if _, err := c.PostEventsKeyed("s2", "y", nil); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if acks["e"] != "" {
				t.Fatalf("the first post after DeleteSession acknowledged %q", acks["e"])
			}
			if acks["y"] != "x" {
				t.Fatalf("deleting s1 changed s2's ack: %q, want %q", acks["y"], "x")
			}
		})
	}
}
