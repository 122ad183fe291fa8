package cluster

import "encoding/json"

// EncodeMigrateRequest renders the canonical JSON form of a migrate
// request, the encoder FuzzDecodeMigrateRequest round-trips against.
func EncodeMigrateRequest(m *MigrateRequest) ([]byte, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(m)
}
