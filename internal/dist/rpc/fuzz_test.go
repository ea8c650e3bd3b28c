package rpc

import (
	"reflect"
	"testing"

	"sof/internal/dist"
)

// The codec fuzz targets pin the two wire-safety properties the leader
// relies on: decoding adversarial bytes never panics, and any payload the
// decoder does accept is a fixed point of the codec — decode(encode(x))
// reproduces x exactly, so a request can cross any number of capture/
// replay hops without drifting. The seed corpus is a real request and the
// real wire results a domain computes for it, captured off the
// equivalence-test instance.

// FuzzCandidateCodec fuzzes the CandidateRequest wire codec.
func FuzzCandidateCodec(f *testing.F) {
	req, _ := captureMessages(f)
	data, err := EncodeRequest(req)
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(data)
	f.Add([]byte{})
	f.Add(data[:len(data)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeRequest(data) // must error, not panic, on corruption
		if err != nil {
			return
		}
		re, err := EncodeRequest(got)
		if err != nil {
			t.Fatalf("re-encoding a decoded request failed: %v", err)
		}
		got2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("decoding a re-encoded request failed: %v", err)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("request codec is not a fixed point:\n first %+v\nsecond %+v", got, got2)
		}
	})
}

// FuzzCandidateFragmentCodec fuzzes the CandidateFragment wire codec —
// the per-message frame of the streaming exchange. Its seeds are built
// from captureMessages' results rather than a live AnswerStream, whose
// fragment count depends on scheduling, so the seed list and its bytes
// are the same on every run. seed#0–#4 are what a fully coalesced stream
// sends: one results fragment carrying every pair in index order and its
// first half, the Done trailer and its first half, then the empty input.
// seed#5 onward are what an uncoalesced stream sends: one single-pair
// fragment per result, in index order.
func FuzzCandidateFragmentCodec(f *testing.F) {
	req, results := captureMessages(f)
	frag := func(seq int, rs ...dist.FragmentResult) *dist.CandidateFragment {
		return &dist.CandidateFragment{CostEpoch: req.CostEpoch, GraphDigest: req.GraphDigest, Seq: seq, Results: rs}
	}
	all := make([]dist.FragmentResult, len(results))
	for i, r := range results {
		all[i] = dist.FragmentResult{Index: i, Result: r}
	}
	trailer := frag(1)
	trailer.Done = true
	encode := func(fr *dist.CandidateFragment) []byte {
		data, err := EncodeFragment(fr)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		return data
	}
	for _, fr := range []*dist.CandidateFragment{frag(0, all...), trailer} {
		data := encode(fr)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	for i, r := range all {
		f.Add(encode(frag(i, r)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFragment(data) // must error, not panic, on corruption
		if err != nil {
			return
		}
		re, err := EncodeFragment(got)
		if err != nil {
			t.Fatalf("re-encoding a decoded fragment failed: %v", err)
		}
		got2, err := DecodeFragment(re)
		if err != nil {
			t.Fatalf("decoding a re-encoded fragment failed: %v", err)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("fragment codec is not a fixed point:\n first %+v\nsecond %+v", got, got2)
		}
	})
}
