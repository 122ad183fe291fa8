package cluster

import (
	"bytes"
	"testing"
)

// The control-plane decoders face bytes from the network (operators
// POST migrate requests; predload GETs status documents from routers
// it does not control). The fuzz contract on both:
//
//   1. never panic, whatever the input;
//   2. canonical acceptance — any accepted document re-encodes, and
//      that encoding decodes back equal and re-encodes byte-identically,
//      so no two wire forms of one document are both canonical.

func FuzzDecodeMigrateRequest(f *testing.F) {
	if seed, err := EncodeMigrateRequest(&MigrateRequest{Session: "c1", Target: "http://b:1"}); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"session":"c2","target":"http://10.0.0.2:8091"}`))
	f.Add([]byte(`{"session":"","target":""}`))
	f.Add([]byte(`{"session":"c1","target":"t","extra":1}`))
	f.Add([]byte(`{"session":"c1","target":"t"} {}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`nope`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMigrateRequest(data)
		if err != nil {
			return
		}
		enc, err := EncodeMigrateRequest(m)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		back, err := DecodeMigrateRequest(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		if *back != *m {
			t.Fatalf("round trip changed the request: %+v != %+v", back, m)
		}
		again, err := EncodeMigrateRequest(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("second encode differs (%v):\n%s\n%s", err, enc, again)
		}
	})
}

func FuzzDecodeClusterStatus(f *testing.F) {
	if seed, err := EncodeClusterStatus(validStatus()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"backends":[{"url":"u","healthy":true,"sessions":0}],"migrations":0,"failovers":0,"snapshot_ships":0}`))
	f.Add([]byte(`{"backends":[{"url":"u","healthy":true,"sessions":0}],"sessions":[{"id":"c1","lost":true}],"migrations":0,"failovers":0,"snapshot_ships":0}`))
	f.Add([]byte(`{"backends":[],"migrations":0,"failovers":0,"snapshot_ships":0}`))
	f.Add([]byte(`{"backends":[{"url":"u","healthy":true,"sessions":-1}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`nope`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeClusterStatus(data)
		if err != nil {
			return
		}
		enc, err := EncodeClusterStatus(st)
		if err != nil {
			t.Fatalf("accepted status does not re-encode: %v", err)
		}
		back, err := DecodeClusterStatus(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		again, err := EncodeClusterStatus(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("second encode differs (%v):\n%s\n%s", err, enc, again)
		}
	})
}
