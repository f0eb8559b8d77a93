package deploy

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzTopologySpecParse holds the spec parser to its two contracts under
// arbitrary input: it never panics (it returns an error instead), and any
// document it accepts round-trips — Encode of the parsed spec re-parses to a
// deeply equal spec, so `unicore-ctl` can normalise operator files without
// changing their meaning. The same input goes through the site-file parser,
// which shares the decoder and the validator: it must not panic either, and
// the two file kinds must agree on what a valid site is.
func FuzzTopologySpecParse(f *testing.F) {
	f.Add([]byte(sampleTopology))
	f.Add([]byte(`{"version": 1, "sites": [{"usite": "A", "vsites": [{"name": "V", "machine": "cluster"}]}]}`))
	f.Add([]byte(`{"version": 1, "journalDir": "/tmp/j", "sites": [{"usite": "A", "vsites": [
		{"name": "V", "machine": "t3e", "replicas": 4,
		 "autoscale": {"min": 1, "max": 8, "backlogPerReplica": 2, "idleCycles": 5}}]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version": 9}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`{"version": 1, "sites": [`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add([]byte(siteJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		if site, err := ParseSite(data); err == nil {
			one := TopologySpec{Version: TopologyVersion, Sites: []TopologySite{*site}}
			if err := one.Validate(); err != nil {
				t.Fatalf("site accepted alone but refused inside a spec: %v", err)
			}
		}
		spec, err := ParseTopology(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		enc, err := spec.Encode()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := ParseTopology(enc)
		if err != nil {
			t.Fatalf("encoded form of an accepted spec rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip diverged:\noriginal: %+v\nreparsed: %+v", spec, again)
		}
		for i := range spec.Sites {
			doc, err := json.Marshal(&spec.Sites[i])
			if err != nil {
				t.Fatalf("site of an accepted spec does not encode: %v", err)
			}
			if _, err := ParseSite(doc); err != nil {
				t.Fatalf("site accepted inside a spec but refused alone: %v\n%s", err, doc)
			}
		}
	})
}
