package main

import (
	"context"
	"crypto/tls"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"unicore"
	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/incarnation"
	"unicore/internal/journal"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/staging"
	"unicore/internal/telemetry"
	"unicore/internal/uudb"
	"unicore/internal/vfs"
)

// The direct probes call one layer at a time, from outside it, with the
// workloads' own inputs: the three-step job, a monitoring envelope, an
// admission journal entry and a 1 MiB chunk. Iteration counts are fixed, so
// two commits do identical work; each figure is the fastest of three passes.

const probeChunk = 1 << 20

// cost is what one probed call costs.
type cost struct {
	sec    float64 // seconds per call, fastest pass
	allocs float64 // allocations per call
	bytes  float64 // bytes allocated per call
}

func (c cost) us() float64 { return c.sec * 1e6 }

// mbps is the rate of a call that moves mb megabytes.
func (c cost) mbps(mb float64) float64 { return mb / c.sec }

// prober carries the iteration scale: 1 for real runs, less for the smoke
// test.
type prober struct{ scale float64 }

// perCall times n calls of fn, three passes, and keeps the fastest.
func (p prober) perCall(n int, fn func(i int)) cost {
	n = scaled(n, p.scale)
	best := cost{sec: math.Inf(1)}
	var m0, m1 runtime.MemStats
	for pass := 0; pass < 3; pass++ {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(pass*n + i)
		}
		sec := time.Since(t).Seconds() / float64(n)
		runtime.ReadMemStats(&m1)
		if sec < best.sec {
			best = cost{sec: sec, allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n), bytes: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)}
		}
	}
	return best
}

func must(err error) {
	if err != nil {
		panic(probeError{err})
	}
}

// probeError carries a failed probe step out of the nested closures.
type probeError struct{ err error }

// runProbes runs every direct probe and returns the figures by metric name.
func runProbes(ctx context.Context, state *stateRoot, seed int64, scale float64) (vals map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(probeError)
			if !ok {
				panic(r)
			}
			err = pe.err
		}
	}()
	p := prober{scale: math.Min(1, scale)}
	perCall := p.perCall
	vals = map[string]float64{}

	// One real site with the monitoring preload and the download files: the
	// gateway, NJS and credentials of the probes are the workloads' own.
	st, err := deploySite("", nil)
	must(err)
	defer st.close()
	r := &round{site: st, seed: seed, ctx: ctx}
	must(monitorPrepare(r))
	mt := r.data.(*monitorTruth)
	must(downloadPrepare(r))
	ds := r.data.(*downloadSet)

	u := st.users[0]
	dn, ca, n, gw := u.cred.DN(), st.d.CA, st.ts.NJS, st.ts.Gateway
	doneID := mt.ids[0][0]
	job, err := threeStepJob(r, 0)
	must(err)
	job.UserDN = dn
	raw, err := ajo.Marshal(job)
	must(err)
	chunk := make([]byte, probeChunk)
	copy(chunk, ds.files[0][0].data)
	const mb = float64(probeChunk) / (1 << 20)

	// ajo: the codec around every consign and outcome.
	vals["ajo.marshal_us"] = perCall(3000, func(int) { _, err := ajo.Marshal(job); must(err) }).us()
	c := perCall(3000, func(int) { _, err := ajo.Unmarshal(raw); must(err) })
	vals["ajo.unmarshal_us"], vals["ajo.unmarshal_allocs"] = c.us(), c.allocs
	outcome := mt.outcome[doneID]
	vals["ajo.outcome_marshal_us"] = perCall(2000, func(int) { _, err := ajo.MarshalOutcome(outcome); must(err) }).us()

	// pki: what every signed envelope pays.
	sig, err := u.cred.Sign(raw)
	must(err)
	vals["pki.sign_us"] = perCall(1000, func(int) { _, err := u.cred.Sign(raw); must(err) }).us()
	vals["pki.verify_signature_us"] = perCall(400, func(int) { _, err := ca.VerifySignature(raw, sig, pki.RoleUser); must(err) }).us()
	vals["pki.verify_cert_us"] = perCall(400, func(int) { _, err := ca.VerifyCert(u.cred.Cert, pki.RoleUser); must(err) }).us()

	// protocol: envelope seal/open and the frame codec.
	outReq := protocol.OutcomeRequest{Job: doneID}
	sealed, err := protocol.Seal(u.cred, protocol.MsgOutcome, outReq)
	must(err)
	vals["protocol.seal_us"] = perCall(1000, func(int) { _, err := protocol.Seal(u.cred, protocol.MsgOutcome, outReq); must(err) }).us()
	c = perCall(400, func(int) { _, _, _, _, err := protocol.Open(ca, sealed); must(err) })
	vals["protocol.open_us"], vals["protocol.open_allocs"] = c.us(), c.allocs
	frame := make([]byte, 0, probeChunk+64)
	vals["protocol.frame_encode_MB_per_s"] = perCall(300, func(i int) {
		frame = protocol.AppendFrame(frame[:0], protocol.FrameData, uint64(i), chunk)
	}).mbps(mb)
	c = perCall(300, func(int) { _, _, err := protocol.DecodeFrame(frame); must(err) })
	vals["protocol.frame_decode_MB_per_s"], vals["protocol.frame_decode_alloc_KB_per_MB"] = c.mbps(mb), c.bytes/1024/mb

	// gateway: a sealed request through HandleContext, and the typed cores
	// the frame path calls.
	pollEnv, err := protocol.Seal(u.cred, protocol.MsgPoll, protocol.PollRequest{Job: doneID})
	must(err)
	listEnv, err := protocol.Seal(u.cred, protocol.MsgList, protocol.ListRequest{})
	must(err)
	handle := func(env []byte) cost {
		return perCall(300, func(int) {
			t, _, _, _, err := protocol.Open(ca, gw.HandleContext(ctx, env))
			must(err)
			if t == protocol.MsgError {
				must(fmt.Errorf("gateway answered a probe envelope with an error reply"))
			}
		})
	}
	// The reply is opened to check it; that cost is taken off again.
	vals["gateway.handle_envelope_poll_us"] = handle(pollEnv).us() - vals["protocol.open_us"]
	vals["gateway.handle_envelope_list_us"] = handle(listEnv).us() - vals["protocol.open_us"]
	vals["gateway.stream_poll_us"] = perCall(20000, func(int) {
		rep, err := gw.StreamPoll(ctx, dn, false, protocol.PollRequest{Job: doneID})
		must(err)
		if !rep.Found {
			must(fmt.Errorf("stream poll lost job %s", doneID))
		}
	}).us()
	vals["gateway.stream_consign_us"] = perCall(600, func(i int) {
		rep, err := gw.StreamConsign(ctx, dn, false, protocol.ConsignRequest{ConsignID: fmt.Sprintf("probe-gw-%d", i), AJO: raw})
		must(err)
		if !rep.Accepted {
			must(fmt.Errorf("stream consign refused: %s", rep.Reason))
		}
	}).us()

	// njs: admission with and without a journal, and the read calls.
	consign := func(svc njs.Service, who core.DN, tag string, raw []byte) cost {
		const count = 600
		jobs := make([]*ajo.AbstractJob, 3*count)
		for i := range jobs {
			a, err := ajo.Unmarshal(raw)
			must(err)
			jobs[i] = a.(*ajo.AbstractJob)
		}
		return perCall(count, func(i int) {
			_, err := svc.Consign(ctx, who, fmt.Sprintf("probe-%s-%d", tag, i), jobs[i])
			must(err)
		})
	}
	plain := consign(n, dn, "njs", raw)
	vals["njs.consign_us"], vals["njs.consign_allocs"] = plain.us(), plain.allocs
	dir, err := state.roundDir()
	must(err)
	dst, err := deploySite(dir, nil)
	must(err)
	defer dst.close()
	vals["njs.consign_durable_us"] = consign(dst.ts.NJS, dst.users[0].cred.DN(), "durable", raw).us()
	vals["njs.poll_us"] = perCall(50000, func(int) { _, err := n.Poll(dn, false, doneID); must(err) }).us()
	vals["njs.outcome_us"] = perCall(5000, func(int) { _, _, err := n.Outcome(dn, false, doneID); must(err) }).us()
	vals["njs.events_read_us"] = perCall(20000, func(int) {
		_, err := n.Events(dn, false, protocol.SubscribeRequest{Job: doneID})
		must(err)
	}).us()
	vals["njs.fetch_range_MB_per_s"] = perCall(300, func(i int) {
		rep, err := n.FetchFileOwned(dn, false, ds.job[0], downloadName(0), int64(i%16)*probeChunk, probeChunk)
		must(err)
		if len(rep.Data) != probeChunk {
			must(fmt.Errorf("ranged fetch returned %d bytes", len(rep.Data)))
		}
	}).mbps(mb)

	// pool: what routing over two replicas adds to an admission. None of the
	// five workloads runs a pool, so this is a control that should stay flat.
	rd, err := unicore.ReplicatedSite("POOL", benchVsite, 64, 2, unicore.PoolRoundRobin)
	must(err)
	defer rd.Close()
	pu, err := rd.NewUser("Pool Probe", "Bench", "pool")
	must(err)
	pjob, err := threeStepJob(r, 1)
	must(err)
	pjob.Target.Usite, pjob.UserDN = "POOL", pu.DN()
	praw, err := ajo.Marshal(pjob)
	must(err)
	vals["pool.route_overhead_us"] = consign(rd.Sites["POOL"].Pool, pu.DN(), "pool", praw).us() - plain.us()

	// incarnation: abstract task to batch script.
	vs, _ := n.Vsite(benchVsite)
	login := uudb.Login{UID: "bench0", Groups: []string{"unicore"}}
	vals["incarnation.incarnate_us"] = perCall(20000, func(int) {
		_, err := incarnation.Incarnate(job.Actions[1], login, vs.Table)
		must(err)
	}).us()

	// journal: append-to-durable, alone and in a group commit, and replay.
	must(p.probeJournal(dst, state, vals))

	// events: the log under every lifecycle transition and every subscribe.
	log := events.NewLog("", events.DefaultJobCap)
	vals["events.append_us"] = perCall(30000, func(i int) {
		log.Append(dn, events.Event{Job: core.JobID(fmt.Sprintf("J-%06d", i/32)), Type: events.TypeStatus, Status: ajo.StatusRunning})
	}).us()
	vals["events.job_events_us"] = perCall(30000, func(int) {
		if evs, _ := log.JobEvents("J-000000", 0, 1024); len(evs) != 32 {
			must(fmt.Errorf("event backlog holds %d events, want 32", len(evs)))
		}
	}).us()

	// staging and vfs: one staged megabyte in, one ranged megabyte out.
	p.probeSpool(chunk, dn, vals)
	p.probeVFS(ds.files[0][0].data, chunk, vals)

	// telemetry: the cost of observing.
	reg := telemetry.New("probe")
	vals["telemetry.counter_inc_ns"] = perCall(1_000_000, func(int) { reg.Counter("consign_total", "vsite", "CLUSTER").Inc() }).sec * 1e9
	vals["telemetry.snapshot_us"] = perCall(1000, func(int) { gw.Telemetry().Snapshot() }).us()

	// wire: raw mutual TLS on loopback, the floor under everything.
	must(p.probeWire(st, chunk, vals))
	return vals, nil
}

// probeJournal measures the journal with the admission entries a durable
// consign writes, read back from the durable probe site's own journal.
func (p prober) probeJournal(dst *site, state *stateRoot, vals map[string]float64) (err error) {
	perCall := p.perCall
	if err := dst.store.Sync(); err != nil {
		return err
	}
	var admit *journal.Entry
	err = dst.store.Replay(func(e journal.Entry) error {
		if e.Kind == journal.KindAdmit && admit == nil {
			cp := e
			admit = &cp
		}
		return nil
	})
	if err != nil {
		return err
	}
	if admit == nil {
		return fmt.Errorf("the durable probe site journaled no admission")
	}
	dir, err := state.roundDir()
	if err != nil {
		return err
	}
	store, err := journal.Open(dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()
	vals["journal.append_sync_us"] = perCall(300, func(int) {
		store.Append(*admit)
		must(store.Sync())
	}).us()
	const batch = 64
	size0 := dirSize(dir)
	entries0 := store.AppendsSinceCompact()
	vals["journal.append_batch_us_per_entry"] = perCall(20, func(int) {
		for i := 0; i < batch; i++ {
			store.Append(*admit)
		}
		must(store.Sync())
	}).us() / batch
	entries := store.AppendsSinceCompact()
	vals["journal.bytes_per_admit"] = float64(dirSize(dir)-size0) / float64(entries-entries0)
	replayed := 0
	c := perCall(1, func(int) {
		replayed = 0
		must(store.Replay(func(journal.Entry) error { replayed++; return nil }))
	})
	if int64(replayed) != entries {
		return fmt.Errorf("journal replayed %d entries, %d were appended", replayed, entries)
	}
	vals["journal.replay_us_per_entry"] = c.us() / float64(replayed)
	vals["journal.replay_allocs_per_entry"] = c.allocs / float64(replayed)
	return nil
}

func dirSize(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// probeSpool stages 16 MiB uploads straight into a spool.
func (p prober) probeSpool(chunk []byte, owner core.DN, vals map[string]float64) {
	clock := sim.NewVirtualClock()
	const chunks = fileSize / probeChunk
	chunkCRC := staging.Checksum(chunk)
	var whole uint64
	for i := 0; i < chunks; i++ {
		whole = crc64.Update(whole, crcTable, chunk)
	}
	var chunkSec, commitSec, bytes float64
	uploads := scaled(6, p.scale)
	var m0, m1 runtime.MemStats
	for up := 0; up < uploads; up++ {
		// A fresh file system per upload keeps the heap, and so the collector's
		// share of the timing, the same for every upload.
		spool, err := staging.NewSpool(vfs.New(clock), "/spool", "probe", clock)
		must(err)
		info, err := spool.Open(owner, "probe.dat", probeChunk, staging.DefaultWindow)
		must(err)
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := int64(0); i < chunks; i++ {
			_, err := spool.Chunk(owner, info.Handle, i, chunk, chunkCRC)
			must(err)
		}
		mid := time.Now()
		done, err := spool.Commit(owner, info.Handle, whole)
		must(err)
		end := time.Now()
		runtime.ReadMemStats(&m1)
		if done.Size != fileSize {
			must(fmt.Errorf("spool committed %d bytes", done.Size))
		}
		chunkSec += mid.Sub(t).Seconds()
		commitSec += end.Sub(mid).Seconds()
		bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	mbTotal := float64(uploads) * fileSize / (1 << 20)
	vals["staging.spool_chunk_MB_per_s"] = mbTotal / chunkSec
	vals["staging.spool_commit_ms"] = commitSec / float64(uploads) * 1e3
	vals["staging.spool_alloc_KB_per_MB"] = bytes / 1024 / mbTotal
}

// probeVFS reads 1 MiB ranges of a 16 MiB file and writes 1 MiB files.
func (p prober) probeVFS(file, chunk []byte, vals map[string]float64) {
	perCall := p.perCall
	fs := vfs.New(sim.NewVirtualClock())
	must(fs.WriteFile("/result.dat", file))
	const mb = float64(probeChunk) / (1 << 20)
	c := perCall(300, func(i int) {
		data, _, _, err := fs.ReadFileRange("/result.dat", int64(i%16)*probeChunk, probeChunk)
		must(err)
		if len(data) != probeChunk {
			must(fmt.Errorf("ranged read returned %d bytes", len(data)))
		}
	})
	vals["vfs.read_range_MB_per_s"], vals["vfs.read_range_alloc_KB_per_MB"] = c.mbps(mb), c.bytes/1024/mb
	vals["vfs.write_MB_per_s"] = perCall(200, func(i int) {
		must(fs.WriteFile(fmt.Sprintf("/w-%d.dat", i%8), chunk))
	}).mbps(mb)
}

// probeWire echoes over one mutually authenticated TLS connection on
// loopback, built from the same pki.ServerTLS and pki.ClientTLS configs the
// gateway and the clients use: if these figures move, the machine moved.
func (p prober) probeWire(st *site, chunk []byte, vals map[string]float64) error {
	perCall := p.perCall
	srvCred, err := st.d.CA.IssueServer("wire-probe", tlsName)
	if err != nil {
		return err
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ln := tls.NewListener(tcp, pki.ServerTLS(srvCred, st.d.CA))
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		_, err = io.Copy(conn, conn)
		conn.Close()
		served <- err
	}()
	cfg := pki.ClientTLS(st.users[0].cred, st.d.CA)
	cfg.ServerName = tlsName
	conn, err := tls.Dial("tcp", tcp.Addr().String(), cfg)
	if err != nil {
		ln.Close()
		<-served
		return err
	}
	ping, pong := make([]byte, 64), make([]byte, 64)
	vals["wire.tls_rtt_us"] = perCall(5000, func(int) {
		_, err := conn.Write(ping)
		must(err)
		_, err = io.ReadFull(conn, pong)
		must(err)
	}).us()
	back := make([]byte, len(chunk))
	vals["wire.tls_echo_MB_per_s"] = perCall(100, func(int) {
		// Read while writing: a megabyte does not fit the socket buffers, and
		// an echo nobody drains stalls both ends.
		got := make(chan error, 1)
		go func() { _, err := io.ReadFull(conn, back); got <- err }()
		_, err := conn.Write(chunk)
		must(err)
		must(<-got)
	}).mbps(float64(len(chunk)) / (1 << 20))
	conn.Close()
	ln.Close()
	<-served // the echo loop ends with the connection; its error carries no news
	return nil
}
