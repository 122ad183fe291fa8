package client_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cohpredict/internal/client"
	"cohpredict/internal/serve"
)

// TestRedirectLoopBounded: a redirect is an answer, not a hop. Against a
// server that 307s every request back to itself, the client returns the
// 307 as a non-retryable *APIError after exactly one request.
func TestRedirectLoopBounded(t *testing.T) {
	var hits atomic.Int32
	var loop *httptest.Server
	loop = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Location", loop.URL+r.URL.Path)
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer loop.Close()

	cl := client.New(client.Options{BaseURL: loop.URL, Seed: 11, Binary: true, Sleep: func(time.Duration) {}})
	_, err := cl.PostEvents("s1", []serve.EventRequest{{PID: 0, PC: 1, Dir: 1, Addr: 64}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTemporaryRedirect {
		t.Fatalf("want the 307 returned as *APIError, got %v", err)
	}
	if client.Retryable(err) {
		t.Fatal("a 307 must not be retryable")
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests for one post, want 1", hits.Load())
	}
	if st := cl.Stats(); st.Requests != 1 || st.Retries != 0 {
		t.Fatalf("stats %+v, want one request and no retry", st)
	}
}
