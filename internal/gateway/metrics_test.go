package gateway

import (
	"context"
	"encoding/json"
	"testing"

	"unicore/internal/protocol"
	"unicore/internal/telemetry"
)

// TestMetricsScrape pulls the telemetry snapshot from a live gateway:
// the default scrape is one merged site-wide snapshot with spans stripped,
// -per-replica style requests return every origin, and the request's own
// envelope verification is already visible in the counters it reads back.
func TestMetricsScrape(t *testing.T) {
	s := newSite(t)
	consign(t, s.client(s.alice), scriptJob("metrics-traffic", "echo hi\n"))
	// One traced request so the scrape has a span to carry: spans record
	// only for envelopes whose header names a trace ID.
	ctx := telemetry.WithTrace(context.Background(), telemetry.NewTraceID())
	var lr protocol.ListReply
	if err := s.client(s.alice).Call(ctx, "FZJ", protocol.MsgList, protocol.ListRequest{}, &lr); err != nil {
		t.Fatalf("traced list: %v", err)
	}

	scrape := func(req protocol.MetricsRequest) protocol.MetricsReply {
		t.Helper()
		env, err := protocol.Seal(s.alice, protocol.MsgMetrics, req)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		mt, raw, _, _, err := protocol.Open(s.ca, s.gw.HandleContext(context.Background(), env))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if mt != protocol.MsgMetricsReply {
			t.Fatalf("reply type = %s, want %s (payload %s)", mt, protocol.MsgMetricsReply, raw)
		}
		var reply protocol.MetricsReply
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return reply
	}

	merged := scrape(protocol.MetricsRequest{})
	if len(merged.Snapshots) != 1 {
		t.Fatalf("default scrape returned %d snapshots, want 1 merged", len(merged.Snapshots))
	}
	snap := merged.Snapshots[0]
	if snap.Total("pki_verify_total") == 0 {
		t.Error("merged scrape has pki_verify_total == 0 after a consign")
	}
	if snap.Total("gateway_requests_total") == 0 {
		t.Error("merged scrape has gateway_requests_total == 0 after a consign")
	}
	if snap.HistCount("consign_ack_seconds") == 0 {
		t.Error("merged scrape has no consign_ack_seconds observations")
	}
	if len(snap.Spans) != 0 {
		t.Errorf("default scrape carried %d spans, want none", len(snap.Spans))
	}

	per := scrape(protocol.MetricsRequest{PerReplica: true, Spans: true})
	if len(per.Snapshots) < 2 {
		t.Fatalf("per-replica scrape returned %d snapshots, want gateway + NJS", len(per.Snapshots))
	}
	origins := make(map[string]bool)
	var spans int
	for _, sn := range per.Snapshots {
		origins[sn.Origin] = true
		spans += len(sn.Spans)
	}
	if len(origins) != len(per.Snapshots) {
		t.Fatalf("per-replica origins not distinct: %v", origins)
	}
	if spans == 0 {
		t.Error("per-replica scrape with Spans carried no spans")
	}
	// The merged view reproduces the per-replica totals.
	all := telemetry.Merge("check", per.Snapshots...)
	if all.Total("pki_verify_total") < snap.Total("pki_verify_total") {
		t.Errorf("per-replica merge lost counts: %v < %v",
			all.Total("pki_verify_total"), snap.Total("pki_verify_total"))
	}
}
