package core

import "testing"

func TestTargetString(t *testing.T) {
	tgt := Target{Usite: "FZJ", Vsite: "T3E"}
	if got := tgt.String(); got != "FZJ/T3E" {
		t.Fatalf("String() = %q", got)
	}
}

func TestParseTarget(t *testing.T) {
	cases := []struct {
		in      string
		want    Target
		wantErr bool
	}{
		{"FZJ/T3E", Target{"FZJ", "T3E"}, false},
		{"LRZ/SP2", Target{"LRZ", "SP2"}, false},
		{"FZJ", Target{}, true},
		{"/T3E", Target{}, true},
		{"FZJ/", Target{}, true},
		{"", Target{}, true},
	}
	for _, c := range cases {
		got, err := ParseTarget(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseTarget(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("ParseTarget(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseTargetRoundTrip(t *testing.T) {
	tgt := Target{"ZIB", "SX4"}
	got, err := ParseTarget(tgt.String())
	if err != nil || got != tgt {
		t.Fatalf("round trip = %v, %v", got, err)
	}
}

func TestTargetIsZero(t *testing.T) {
	if !(Target{}).IsZero() {
		t.Fatal("zero target not IsZero")
	}
	if (Target{Usite: "FZJ"}).IsZero() {
		t.Fatal("partial target reported IsZero")
	}
}

func TestMakeDN(t *testing.T) {
	if got := MakeDN("Mathilde Romberg", "FZ Juelich", "DE"); got != "CN=Mathilde Romberg,O=FZ Juelich,C=DE" {
		t.Fatalf("MakeDN = %q", got)
	}
	if got := MakeDN("x", "", ""); got != "CN=x" {
		t.Fatalf("MakeDN sparse = %q", got)
	}
}
