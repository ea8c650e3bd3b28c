package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"sof/internal/dist"
)

// The codec helpers apply the gob encoding the stream protocol uses for
// each candidate message on the wire (as the first message of a fresh
// encoder, type descriptors included). They exist so payloads can be
// captured, replayed, and fuzzed offline: Decode* never panics — gob's
// decoder largely returns errors on malformed input, but a recover guard
// turns any residual panic on adversarial bytes into an error too, which
// is the contract the fuzz targets pin.

// EncodeRequest gob-encodes a candidate request.
func EncodeRequest(req *dist.CandidateRequest) ([]byte, error) {
	return encode(req)
}

// DecodeRequest decodes a gob-encoded candidate request, erroring (never
// panicking) on corrupted payloads.
func DecodeRequest(data []byte) (*dist.CandidateRequest, error) {
	req := new(dist.CandidateRequest)
	if err := decode(data, req); err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeFragment gob-encodes a streamed candidate fragment.
func EncodeFragment(f *dist.CandidateFragment) ([]byte, error) {
	return encode(f)
}

// DecodeFragment decodes a gob-encoded candidate fragment, erroring
// (never panicking) on corrupted payloads.
func DecodeFragment(data []byte) (*dist.CandidateFragment, error) {
	f := new(dist.CandidateFragment)
	if err := decode(data, f); err != nil {
		return nil, err
	}
	return f, nil
}

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decode(data []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rpc: decode panic: %v", r)
		}
	}()
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
