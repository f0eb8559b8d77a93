package deploy

import (
	"reflect"
	"strings"
	"testing"

	"unicore/internal/core"
)

// sampleTopology is a two-site spec exercising every optional knob.
const sampleTopology = `{
  "version": 1,
  "journalDir": "/var/lib/unicore",
  "sites": [
    {
      "usite": "FZJ",
      "vsites": [
        {
          "name": "T3E",
          "machine": "t3e",
          "processors": 512,
          "replicas": 3,
          "policy": "least-loaded",
          "generation": 2,
          "spoolTTLSec": 3600,
          "snapshotEvery": 256,
          "autoscale": {"min": 2, "max": 6, "backlogPerReplica": 4, "idleCycles": 3}
        },
        {
          "name": "CLUSTER",
          "machine": "cluster",
          "backfill": true,
          "queues": [{"name": "fast", "slots": 8, "maxTimeSec": 600}]
        }
      ],
      "users": [
        {"dn": "CN=Alice,O=Test", "logins": {"T3E": {"uid": "alice"}}}
      ]
    },
    {
      "usite": "ZIB",
      "vsites": [{"name": "SP2", "machine": "sp2", "replicas": 2}]
    }
  ],
  "peers": [
    {"usite": "FZJ", "url": "https://gw.fzj.unicore"},
    {"usite": "ZIB", "url": "https://gw.zib.unicore"},
    {"usite": "RUS", "url": "https://gw.rus.unicore"}
  ]
}`

func parseSample(t *testing.T) *TopologySpec {
	t.Helper()
	spec, err := ParseTopology([]byte(sampleTopology))
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	return spec
}

// TestTopologyRoundTrip is the property the fuzz target generalises: a
// validated spec survives encode→parse unchanged.
func TestTopologyRoundTrip(t *testing.T) {
	spec := parseSample(t)
	data, err := spec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	again, err := ParseTopology(data)
	if err != nil {
		t.Fatalf("ParseTopology(Encode): %v", err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", spec, again)
	}
	// And the spec's lookups see what the document declared.
	site, ok := spec.Site("FZJ")
	if !ok {
		t.Fatal("Site(FZJ) not found")
	}
	v, ok := site.Vsite("T3E")
	if !ok {
		t.Fatal("Vsite(T3E) not found")
	}
	if v.DeclaredReplicas() != 3 || v.Autoscale.Min != 2 || v.SpoolTTL().Seconds() != 3600 {
		t.Fatalf("T3E decoded wrong: %+v", v)
	}
	if c, ok := site.Vsite("CLUSTER"); !ok || c.DeclaredReplicas() != 1 {
		t.Fatalf("CLUSTER should default to 1 replica, got %+v", c)
	}
}

// TestTopologyValidate walks the rejection surface: each mutation of the
// valid sample must fail with a message naming the problem.
func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name, munge, want string
	}{
		{"version", `"version": 1`, "unsupported spec version"},
		{"machine", `"machine": "sp2"`, "unknown machine"},
		{"policy", `"policy": "least-loaded"`, "unknown policy"},
		{"negative-replicas", `"replicas": 2`, "negative replica count"},
		{"autoscale-min", `"min": 2`, "autoscale min"},
		{"autoscale-max", `"max": 6`, "autoscale max"},
		{"declared-outside", `"replicas": 3`, "outside autoscale bounds"},
		{"unknown-user-vsite", `"T3E": {"uid": "alice"}`, "unknown vsite"},
		{"peer-no-url", `{"usite": "RUS", "url": "https://gw.rus.unicore"}`, "has no url"},
		{"dup-peer", `{"usite": "RUS", "url": "https://gw.rus.unicore"}`, "duplicate peer"},
	}
	repl := map[string]string{
		"version":            `"version": 9`,
		"machine":            `"machine": "cray-3000"`,
		"policy":             `"policy": "psychic"`,
		"negative-replicas":  `"replicas": -1`,
		"autoscale-min":      `"min": 0`,
		"autoscale-max":      `"max": 1`,
		"declared-outside":   `"replicas": 9`,
		"unknown-user-vsite": `"GONE": {"uid": "alice"}`,
		"peer-no-url":        `{"usite": "RUS", "url": ""}`,
		"dup-peer":           `{"usite": "FZJ", "url": "https://gw.rus.unicore"}`,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := strings.Replace(sampleTopology, tc.munge, repl[tc.name], 1)
			if doc == sampleTopology {
				t.Fatalf("munge %q did not apply", tc.munge)
			}
			_, err := ParseTopology([]byte(doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
	// Structural rejections that aren't single-token munges.
	structural := []struct{ name, doc, want string }{
		{"unknown-field", `{"version": 1, "sites": [], "replcas": 3}`, "unknown field"},
		{"trailing", sampleTopology + `{"version": 1}`, "trailing data"},
		{"no-sites", `{"version": 1, "sites": []}`, "no sites"},
		{"dup-site", `{"version": 1, "sites": [
			{"usite": "A", "vsites": [{"name": "V", "machine": "cluster"}]},
			{"usite": "A", "vsites": [{"name": "V", "machine": "cluster"}]}]}`, "duplicate usite"},
	}
	for _, tc := range structural {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestBothFileKindsRejectTheSameInputs holds the two documents an operator
// writes — a site.json and a topology spec — to one strict parser and one
// validator: each malformed site is refused with the same complaint whether
// it arrives alone or as an entry of a spec's sites list.
func TestBothFileKindsRejectTheSameInputs(t *testing.T) {
	const good = `{"usite": "X", "vsites": [{"name": "V", "machine": "t3e"}]}`
	cases := []struct{ name, site, suffix, want string }{
		{"well-formed", good, "", ""},
		{"unknown-field", `{"usite": "X", "vsites": [{"name": "V", "machine": "t3e", "replcas": 3}]}`, "", "unknown field"},
		{"trailing-document", good, good, "trailing data"},
		{"negative-processors", `{"usite": "X", "vsites": [{"name": "V", "machine": "t3e", "processors": -4}]}`, "", "negative processor count"},
		{"negative-replicas", `{"usite": "X", "vsites": [{"name": "V", "machine": "t3e", "replicas": -1}]}`, "", "negative replica count"},
		{"user-at-unknown-vsite", `{"usite": "X", "vsites": [{"name": "V", "machine": "t3e"}],
			"users": [{"dn": "CN=A", "logins": {"W": {"uid": "a"}}}]}`, "", "unknown vsite"},
	}
	kinds := []struct {
		name  string
		parse func(site, suffix string) error
	}{
		{"site", func(site, suffix string) error {
			_, err := ParseSite([]byte(site + suffix))
			return err
		}},
		{"topology", func(site, suffix string) error {
			_, err := ParseTopology([]byte(`{"version": 1, "sites": [` + site + `]}` + suffix))
			return err
		}},
	}
	for _, tc := range cases {
		for _, kind := range kinds {
			t.Run(tc.name+"/"+kind.name, func(t *testing.T) {
				err := kind.parse(tc.site, tc.suffix)
				if tc.want == "" {
					if err != nil {
						t.Fatalf("well-formed document refused: %v", err)
					}
				} else if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
			})
		}
	}
}

// TestDiffTopology drives every change kind the differ reports.
func TestDiffTopology(t *testing.T) {
	cur := parseSample(t)
	if d := DiffTopology(cur, parseSample(t)); d != nil {
		t.Fatalf("identical specs diff to %v, want nil", d)
	}
	want := parseSample(t)
	site, _ := want.Site("FZJ")
	v, _ := site.Vsite("T3E")
	v.Replicas = 5
	v.Generation = 3
	v.Policy = "consistent-hash"
	v.SpoolTTLSec = 7200
	v.Autoscale = nil
	site.Vsites = append(site.Vsites, TopologyVsite{Name: "SX4", Machine: "sx4"})
	want.Sites = want.Sites[:1] // drop ZIB
	want.Peers[2].URL = "https://gw2.rus.unicore"
	want.Peers = append(want.Peers, TopologyPeer{Usite: "LRZ", URL: "https://gw.lrz.unicore"})

	ops := map[string]int{}
	for _, c := range DiffTopology(cur, want) {
		ops[c.Op]++
		if c.String() == "" {
			t.Fatalf("change %+v renders empty", c)
		}
	}
	for _, op := range []string{"scale", "roll", "policy", "spool-ttl", "autoscale", "add-vsite", "remove-site", "add-peer", "peer-url"} {
		if ops[op] != 1 {
			t.Fatalf("diff ops = %v, want one %q", ops, op)
		}
	}

	// Removing a vsite or peer shows up from the other direction.
	var sawRemove, sawRemovePeer bool
	for _, c := range DiffTopology(want, cur) {
		if c.Op == "remove-vsite" && c.Vsite == core.Vsite("SX4") {
			sawRemove = true
		}
		if c.Op == "remove-peer" && c.Usite == core.Usite("LRZ") {
			sawRemovePeer = true
		}
	}
	if !sawRemove {
		t.Fatal("reverse diff lacks remove-vsite SX4")
	}
	if !sawRemovePeer {
		t.Fatal("reverse diff lacks remove-peer LRZ")
	}
}
