package protocol

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

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
