package unicore_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicore"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/testbed"
)

// TestConcurrentClientsStress drives N concurrent clients through the full
// gateway → NJS path — a consign/poll/fetch mix — while a single driver
// goroutine advances the virtual clock (the clock's contract allows only one
// driving goroutine; everything else is genuinely concurrent). It asserts
// per-job isolation (every client's List shows exactly its own jobs, all
// successful) and that the gateway's lock-free Stats() totals stay
// consistent. Run with -race: this is the regression test for the sharded
// NJS registry and the atomic gateway counters.
func TestConcurrentClientsStress(t *testing.T) {
	const (
		clients       = 8
		jobsPerClient = 4
		fileSize      = 300 << 10 // two 256 KiB fetch chunks
	)
	d, err := testbed.New(testbed.SiteSpec{
		Usite:  "FZJ",
		Vsites: []njs.VsiteConfig{{Name: "T3E", Profile: machine.CrayT3E(256)}},
	})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer d.Close()

	creds := make([]*unicore.Credential, clients)
	for i := range creds {
		cred, err := d.NewUser(fmt.Sprintf("Stress User %02d", i), "Stress", fmt.Sprintf("stress%02d", i))
		if err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
		creds[i] = cred
	}

	jobIDs := make([][]unicore.JobID, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			sess := d.Session(creds[c], "FZJ")
			for k := 0; k < jobsPerClient; k++ {
				jb := unicore.NewJob(fmt.Sprintf("stress-%02d-%02d", c, k),
					unicore.Target{Usite: "FZJ", Vsite: "T3E"})
				jb.Script("produce", fmt.Sprintf("cpu 5m\nwrite out.dat %d\n", fileSize),
					unicore.ResourceRequest{Processors: 2, RunTime: time.Hour})
				job, err := jb.Build()
				if err != nil {
					errs <- fmt.Errorf("client %d: build: %w", c, err)
					return
				}
				id, err := sess.Submit(ctx, job)
				if err != nil {
					errs <- fmt.Errorf("client %d: submit: %w", c, err)
					return
				}
				jobIDs[c] = append(jobIDs[c], id)
				s, err := sess.Await(ctx, id)
				if err != nil {
					errs <- fmt.Errorf("client %d: wait %s: %w", c, id, err)
					return
				}
				if s.Status != unicore.StatusSuccessful {
					errs <- fmt.Errorf("client %d: job %s finished %s", c, id, s.Status)
					return
				}
				data, err := sess.FetchFile(ctx, id, "out.dat")
				if err != nil {
					errs <- fmt.Errorf("client %d: fetch %s: %w", c, id, err)
					return
				}
				if len(data) != fileSize {
					errs <- fmt.Errorf("client %d: fetched %d bytes, want %d", c, len(data), fileSize)
					return
				}
			}
		}(c)
	}

	// Single clock driver: keep firing due events until every client is done.
	var clientsDone atomic.Bool
	go func() {
		wg.Wait()
		clientsDone.Store(true)
	}()
	for !clientsDone.Load() {
		d.Clock.RunUntilIdle(100000)
		time.Sleep(100 * time.Microsecond)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Per-job isolation: each client's List sees exactly its own jobs.
	for c := 0; c < clients; c++ {
		list, err := d.Session(creds[c], "FZJ").List(context.Background())
		if err != nil {
			t.Fatalf("client %d: list: %v", c, err)
		}
		if len(list) != jobsPerClient {
			t.Fatalf("client %d sees %d jobs, want %d", c, len(list), jobsPerClient)
		}
		mine := make(map[unicore.JobID]bool, len(jobIDs[c]))
		for _, id := range jobIDs[c] {
			mine[id] = true
		}
		for _, info := range list {
			if !mine[info.Job] {
				t.Fatalf("client %d sees foreign job %s", c, info.Job)
			}
			if info.Status != unicore.StatusSuccessful {
				t.Fatalf("client %d: job %s listed as %s", c, info.Job, info.Status)
			}
		}
	}

	// Stats consistency: every request is counted exactly once, by type.
	st := d.Sites["FZJ"].Gateway.Stats()
	var byType int64
	for _, v := range st.ByType {
		byType += v
	}
	if st.Requests != byType {
		t.Fatalf("stats inconsistent: %d requests, %d by type", st.Requests, byType)
	}
	if st.Rejected != 0 {
		t.Fatalf("stats: %d rejected requests: %v", st.Rejected, st.ByFailure)
	}
	// consigns + at least one poll and one two-chunk fetch per job. Under
	// protocol v3 the hot kinds ride the persistent stream (counted by the
	// gateway_stream_frames_total telemetry counter) instead of arriving as
	// envelopes; the two censuses together must still cover the workload.
	frames := int64(d.Sites["FZJ"].Gateway.Telemetry().Snapshot().Total("gateway_stream_frames_total"))
	if min := int64(clients * jobsPerClient * 4); st.Requests+frames < min {
		t.Fatalf("stats: %d envelopes + %d stream frames, expected at least %d", st.Requests, frames, min)
	}
}
