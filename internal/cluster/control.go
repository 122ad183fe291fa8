package cluster

// This file holds the router's control-plane wire messages and their
// codecs. Both directions are strict: decoders reject unknown fields,
// trailing garbage, and structurally invalid documents (so a corrupted
// or adversarial control message fails loudly instead of half-applying),
// and encoders are canonical — Encode(Decode(b)) re-decodes equal and a
// second encode is byte-identical. The fuzz targets pin both properties.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"unicode/utf8"
)

// maxControlIDLen bounds identifier fields in control messages.
const maxControlIDLen = 256

// MigrateRequest asks the router to move a live session to a specific
// backend: POST /v1/cluster/migrate.
type MigrateRequest struct {
	// Session is the cluster session id ("cN").
	Session string `json:"session"`
	// Target is the destination backend base URL (must be a configured
	// serving backend).
	Target string `json:"target"`
}

// DecodeMigrateRequest strictly decodes and validates a migrate
// request. Malformed input returns an error; it never panics.
func DecodeMigrateRequest(data []byte) (*MigrateRequest, error) {
	var m MigrateRequest
	if err := strictUnmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: decoding migrate request: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *MigrateRequest) validate() error {
	if err := checkID("session", m.Session); err != nil {
		return err
	}
	return checkID("target", m.Target)
}

// BackendStatus is one node's row in the cluster status document.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Standby bool   `json:"standby,omitempty"`
	// Sessions counts sessions currently homed on this node.
	Sessions int `json:"sessions"`
}

// SessionStatus is one routing-table row.
type SessionStatus struct {
	ID string `json:"id"`
	// Backend is the current home's base URL; empty iff Lost. The home
	// holds the session under ID.
	Backend   string `json:"backend,omitempty"`
	Migrating bool   `json:"migrating,omitempty"`
	// Shipped reports whether a standby copy exists (failover-safe).
	Shipped bool `json:"shipped,omitempty"`
	// Lost marks a session whose home died with no standby copy.
	Lost bool `json:"lost,omitempty"`
}

// ClusterStatus is the GET /v1/cluster document: topology, the routing
// table, and lifecycle tallies. predload's capacity-planning mode
// consumes it.
type ClusterStatus struct {
	// Backends lists serving nodes in configured order, then the
	// standby (if any) last.
	Backends []BackendStatus `json:"backends"`
	// Sessions is the routing table in cluster-id order.
	Sessions []SessionStatus `json:"sessions,omitempty"`
	// Migrations counts completed live migrations.
	Migrations int64 `json:"migrations"`
	// MigrationAborts counts migrations rolled back after a step failed.
	MigrationAborts int64 `json:"migration_aborts,omitempty"`
	// Failovers counts sessions flipped to the standby after a death.
	Failovers int64 `json:"failovers"`
	// Lost counts sessions that died with no standby copy.
	Lost int64 `json:"lost_sessions,omitempty"`
	// Ships counts snapshots shipped to the standby.
	Ships int64 `json:"snapshot_ships"`
	// ShipFailures counts ships that failed at any step.
	ShipFailures int64 `json:"snapshot_ship_failures,omitempty"`
	// Parked counts requests that waited out a migration flip.
	Parked int64 `json:"parked_requests,omitempty"`
}

// EncodeClusterStatus renders the canonical JSON form (sessions sorted
// by id; the document must already be structurally valid).
func EncodeClusterStatus(st *ClusterStatus) ([]byte, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// DecodeClusterStatus strictly decodes and validates a cluster status
// document. Malformed input returns an error; it never panics.
func DecodeClusterStatus(data []byte) (*ClusterStatus, error) {
	var st ClusterStatus
	if err := strictUnmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("cluster: decoding cluster status: %w", err)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

func (st *ClusterStatus) validate() error {
	if len(st.Backends) == 0 {
		return fmt.Errorf("cluster: status has no backends")
	}
	urls := make(map[string]bool, len(st.Backends))
	for i, b := range st.Backends {
		if err := checkID(fmt.Sprintf("backends[%d].url", i), b.URL); err != nil {
			return err
		}
		if urls[b.URL] {
			return fmt.Errorf("cluster: status lists backend %s twice", b.URL)
		}
		urls[b.URL] = true
		if b.Sessions < 0 {
			return fmt.Errorf("cluster: backend %s has negative session count", b.URL)
		}
	}
	if !sort.SliceIsSorted(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID }) {
		return fmt.Errorf("cluster: status sessions not sorted by id")
	}
	ids := make(map[string]bool, len(st.Sessions))
	for i, s := range st.Sessions {
		if err := checkID(fmt.Sprintf("sessions[%d].id", i), s.ID); err != nil {
			return err
		}
		if ids[s.ID] {
			return fmt.Errorf("cluster: status lists session %s twice", s.ID)
		}
		ids[s.ID] = true
		if s.Lost {
			if s.Backend != "" {
				return fmt.Errorf("cluster: lost session %s still names a backend", s.ID)
			}
			continue
		}
		if s.Backend == "" {
			return fmt.Errorf("cluster: session %s has no placement", s.ID)
		}
		if !urls[s.Backend] {
			return fmt.Errorf("cluster: session %s homed on unknown backend %s", s.ID, s.Backend)
		}
	}
	for _, v := range []struct {
		name string
		n    int64
	}{
		{"migrations", st.Migrations}, {"migration_aborts", st.MigrationAborts},
		{"failovers", st.Failovers}, {"lost_sessions", st.Lost},
		{"snapshot_ships", st.Ships}, {"snapshot_ship_failures", st.ShipFailures},
		{"parked_requests", st.Parked},
	} {
		if v.n < 0 {
			return fmt.Errorf("cluster: status %s is negative", v.name)
		}
	}
	return nil
}

// checkID enforces the shared identifier rules: non-empty, bounded,
// valid UTF-8, no control characters.
func checkID(field, v string) error {
	if v == "" {
		return fmt.Errorf("cluster: %s is empty", field)
	}
	if len(v) > maxControlIDLen {
		return fmt.Errorf("cluster: %s exceeds %d bytes", field, maxControlIDLen)
	}
	if !utf8.ValidString(v) {
		return fmt.Errorf("cluster: %s is not valid UTF-8", field)
	}
	for _, r := range v {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("cluster: %s contains control characters", field)
		}
	}
	return nil
}

// strictUnmarshal decodes one JSON document, rejecting unknown fields
// and trailing data.
func strictUnmarshal(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}
