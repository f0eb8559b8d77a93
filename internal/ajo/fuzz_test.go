package ajo

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzAJOUnmarshal feeds the binary decoder what a hostile consigner could:
// arbitrary bytes behind a valid TLS session. Invariants: no panic; a
// document that decodes holds no more actions than it has bytes (a count
// prefix cannot inflate the tree); and decoding is a fixed point —
// dec(enc(dec(x))) == dec(x) — so what a gateway forwards or an NJS journals
// is the job it was handed.
func FuzzAJOUnmarshal(f *testing.F) {
	for _, a := range exhaustiveActions() {
		raw, err := Marshal(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	deep, err := Marshal(nested(1, 6))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deep)
	f.Add([]byte{})
	f.Add(append([]byte{formatTag, codeJob, 1, 'j', 0, 0, 0, 0, 0, 0}, binary.AppendUvarint(nil, 1<<40)...))
	f.Add([]byte(`{"kind":"ListService","body":{"id":"ls"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Unmarshal(data)
		if err != nil {
			return
		}
		if j, ok := a.(*AbstractJob); ok && j.CountActions() > len(data) {
			t.Fatalf("%d-byte document decoded to %d actions", len(data), j.CountActions())
		}
		enc, err := Marshal(a)
		if err != nil {
			t.Fatalf("decoded action does not re-encode: %v", err)
		}
		again, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-encoded action does not decode: %v", err)
		}
		if !reflect.DeepEqual(a, again) {
			t.Fatalf("decode is not a fixed point:\nfirst:  %#v\nsecond: %#v", a, again)
		}
	})
}
