package serve

import "cohpredict/internal/trace"

// ReencodeSessionExtra decodes a snapshot's session Extra section and
// re-encodes what was accepted, for FuzzDecodeSessionExtra.
func ReencodeSessionExtra(data []byte) ([]byte, error) {
	x, err := decodeSessionExtra(data)
	if err != nil {
		return nil, err
	}
	return x.encode(), nil
}

// WireBuf is the binary handler's pooled per-request buffer set.
type WireBuf = wireBuf

// PostFrame is the session-level call the binary events handler makes,
// with buf standing in for the buffers it takes from the pool.
func (s *Session) PostFrame(key string, evs []trace.Event, buf *WireBuf) ([]byte, error) {
	return s.postFrame(key, evs, buf, nil)
}
