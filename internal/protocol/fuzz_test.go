package protocol

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"unicore/internal/ajo"
	"unicore/internal/pki"
)

// fuzzPKI lazily builds one CA + user credential per test binary; key
// generation is too slow to repeat per fuzz iteration.
var fuzzPKI struct {
	once sync.Once
	ca   *pki.Authority
	cred *pki.Credential
	err  error
}

func fuzzCreds(t testing.TB) (*pki.Authority, *pki.Credential) {
	fuzzPKI.once.Do(func() {
		ca, err := pki.NewAuthority("Fuzz-PCA")
		if err != nil {
			fuzzPKI.err = err
			return
		}
		cred, err := ca.IssueUser("Fuzz User", "Fuzz Org")
		if err != nil {
			fuzzPKI.err = err
			return
		}
		fuzzPKI.ca, fuzzPKI.cred = ca, cred
	})
	if fuzzPKI.err != nil {
		t.Fatalf("building fuzz credentials: %v", fuzzPKI.err)
	}
	return fuzzPKI.ca, fuzzPKI.cred
}

// FuzzOpen feeds arbitrary bytes to the envelope opener — the exact input an
// internet-facing gateway receives. Invariant: no panic, and anything it does
// accept is at Version and carries a verified role.
func FuzzOpen(f *testing.F) {
	ca, cred := fuzzCreds(f)
	sealed, err := Seal(cred, MsgPoll, PollRequest{Job: "FZJ-1"})
	if err != nil {
		f.Fatalf("sealing seed envelope: %v", err)
	}
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":9,"type":"poll"}`))
	f.Add(sealed)
	tampered := bytes.Clone(sealed)
	tampered[len(tampered)/2] ^= 0x20
	f.Add(tampered)

	f.Fuzz(func(t *testing.T, data []byte) {
		mt, raw, dn, role, err := Open(ca, data)
		if err != nil {
			return
		}
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil || env.Version != Version {
			t.Fatalf("accepted an envelope at version %d (decode: %v)", env.Version, err)
		}
		if mt == "" {
			t.Fatal("accepted an envelope with an empty message type")
		}
		if role != pki.RoleUser && role != pki.RoleServer {
			t.Fatalf("accepted unknown role %q", role)
		}
		if dn == "" {
			t.Fatal("accepted an envelope with no signer identity")
		}
		if !json.Valid(raw) {
			t.Fatal("accepted a non-JSON payload")
		}
	})
}

// fuzzBlob is a binary-safe round-trip payload (base64 through JSON).
type fuzzBlob struct {
	D []byte `json:"d"`
}

// FuzzSealOpenRoundTrip seals arbitrary payloads and requires the opener to
// return them verbatim with the right type, identity and role.
func FuzzSealOpenRoundTrip(f *testing.F) {
	f.Add([]byte("payload"))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xff, 0xfe})
	f.Fuzz(func(t *testing.T, blob []byte) {
		ca, cred := fuzzCreds(t)
		sealed, err := Seal(cred, MsgPoll, fuzzBlob{D: blob})
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		mt, raw, dn, role, err := Open(ca, sealed)
		if err != nil {
			t.Fatalf("Open rejected its own seal: %v", err)
		}
		if mt != MsgPoll {
			t.Fatalf("round trip changed envelope type: %q, want %q", mt, MsgPoll)
		}
		if dn != cred.DN() || role != pki.RoleUser {
			t.Fatalf("round trip changed identity: %q %q", dn, role)
		}
		var out fuzzBlob
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("payload undecodable: %v", err)
		}
		if !bytes.Equal(out.D, blob) {
			t.Fatalf("payload mangled: %q != %q", out.D, blob)
		}
	})
}

// outcomeDepthLimit is the job-group nesting an outcome tree may have on the
// wire: ajo refuses to encode or decode a node deeper than this below the
// root.
const outcomeDepthLimit = 64

// treeDepth is the number of nodes on the longest root-to-leaf path.
func treeDepth(o *ajo.Outcome) int {
	d := 0
	for _, c := range o.Children {
		d = max(d, treeDepth(c))
	}
	return d + 1
}

// chainBody is the frame body of an outcome reply whose tree is a chain of
// n empty nodes, built by hand: the encoder refuses one past the limit.
func chainBody(n int) []byte {
	body := []byte{1} // Found
	for i := range n {
		body = append(body, make([]byte, 11)...) // every field empty, zero or absent
		if i < n-1 {
			body = append(body, 1) // one child
		} else {
			body = append(body, 0)
		}
	}
	return body
}

// FuzzOutcomeReplyBody feeds arbitrary bytes to the outcome reply's decoder,
// which walks the tree straight out of the frame body: what a hostile gateway
// can send a client, or a peer site an NJS collecting a sub-job's outcome.
// Invariants: no panic; no decoded tree nests deeper than the depth limit;
// and a decoded body re-encodes to bytes that decode to the same reply and
// re-encode to themselves. (The input itself need not come back byte for
// byte: a decoder accepts a non-minimal varint or a flag byte of 2 and the
// encoder writes neither; the golden body in testdata, which is canonical,
// is held to its bytes by TestFrameBodiesArePinned.)
func FuzzOutcomeReplyBody(f *testing.F) {
	golden := mustEncode(goldenOutcome())
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{})
	f.Add([]byte{0})
	if err := decode(chainBody(outcomeDepthLimit), &OutcomeReply{}); err != nil {
		f.Fatalf("a tree at the depth limit is refused: %v", err)
	}
	if err := decode(chainBody(outcomeDepthLimit+1), &OutcomeReply{}); err == nil {
		f.Fatal("a tree one node past the depth limit decodes")
	}
	f.Add(chainBody(outcomeDepthLimit))
	f.Add(chainBody(outcomeDepthLimit + 1))
	f.Fuzz(func(t *testing.T, p []byte) {
		var m OutcomeReply
		if decode(p, &m) != nil {
			return
		}
		if m.Found != (m.Outcome != nil) {
			t.Fatalf("decoded found=%v with tree %v", m.Found, m.Outcome)
		}
		if m.Outcome != nil && treeDepth(m.Outcome) > outcomeDepthLimit {
			t.Fatalf("decoded a tree %d nodes deep, over the limit of %d", treeDepth(m.Outcome), outcomeDepthLimit)
		}
		q, err := encode(nil, &m)
		if err != nil {
			t.Fatalf("a decoded reply does not re-encode: %v", err)
		}
		var again OutcomeReply
		if err := decode(q, &again); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded reply decodes to %+v, %v; want %+v", again, err, m)
		}
		if r, err := encode(nil, &again); err != nil || !bytes.Equal(r, q) {
			t.Fatalf("re-encoding is not a fixed point: %x, then %x (%v)", q, r, err)
		}
	})
}
