package protocol

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"unicore/internal/bin"
)

// TestFrameRoundTrip pushes frames through the write and read halves and the
// pure decoder, including the empty-payload and max-boundary shapes.
func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Kind: FrameHello, ID: 0, Payload: []byte("hello")},
		{Kind: FrameCall, ID: 7, Payload: []byte{binConsign, 0}},
		{Kind: FramePutAck, ID: 1<<64 - 1, Payload: nil},
		{Kind: FrameData, ID: 42, Payload: bytes.Repeat([]byte{0xAB}, 1<<16)},
	}
	var buf bytes.Buffer
	for _, f := range cases {
		if err := writeFrame(&buf, f.Kind, f.ID, f.Payload); err != nil {
			t.Fatalf("writeFrame(%#x): %v", f.Kind, err)
		}
	}
	wire := append([]byte(nil), buf.Bytes()...)
	var hdr [frameHeaderLen]byte
	for _, want := range cases {
		got, err := readFrame(&buf, &hdr, MaxFramePayload)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if got.Kind != want.Kind || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("readFrame = %#x/%d/%d bytes, want %#x/%d/%d bytes",
				got.Kind, got.ID, len(got.Payload), want.Kind, want.ID, len(want.Payload))
		}
	}
	// The pure decoder consumes the same bytes identically.
	for _, want := range cases {
		got, n, err := DecodeFrame(wire)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		if got.Kind != want.Kind || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("DecodeFrame mismatch for kind %#x", want.Kind)
		}
		wire = wire[n:]
	}
	if len(wire) != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", len(wire))
	}
}

// TestFrameDecodeRejects covers the malformed prefixes readFrame/DecodeFrame
// must refuse without over-reading.
func TestFrameDecodeRejects(t *testing.T) {
	if _, _, err := DecodeFrame([]byte{0, 0}); !errors.Is(err, ErrFrameShort) {
		t.Fatalf("short header err = %v", err)
	}
	// Declared length below the kind+id minimum.
	if _, _, err := DecodeFrame([]byte{0, 0, 0, 4, 1, 2, 3, 4}); !errors.Is(err, ErrFrameShort) {
		t.Fatalf("undersized length err = %v", err)
	}
	// Declared length beyond the payload ceiling.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length err = %v", err)
	}
	if err := writeFrame(&bytes.Buffer{}, FramePut, 1, make([]byte, MaxFramePayload+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writeFrame oversize err = %v", err)
	}
	// A reader's own bound is checked on the header, before the payload.
	var hdr [frameHeaderLen]byte
	five := bytes.NewReader(AppendFrame(nil, FrameHello, 0, []byte("hello")))
	if _, err := readFrame(five, &hdr, 4); !errors.Is(err, ErrFrameTooLarge) || five.Len() != len("hello")+9 {
		t.Fatalf("5-byte payload under a 4-byte bound: err = %v, %d bytes left unread", err, five.Len())
	}
	// Truncated payload: header promises more than the buffer holds.
	trunc := AppendFrame(nil, FrameCall, 1, []byte("abcdef"))
	if _, _, err := DecodeFrame(trunc[:len(trunc)-2]); !errors.Is(err, ErrFrameShort) {
		t.Fatalf("truncated payload err = %v", err)
	}
}

// TestBinCodecRoundTrips round-trips every v3 binary-coded message shape and
// checks decoded values compare deeply equal to the originals — the same
// equality the event-stream recovery tests demand between the JSON and binary
// decodings of one event.
func TestBinCodecRoundTrips(t *testing.T) {
	// Every row of the wire table, on the samples of its request and reply
	// types.
	reqs, reps := codecSamples()
	for _, o := range ops {
		if o.wire != nil {
			o.wire.(codecFuzzer).roundTrip(t, o.request, reqs, reps)
		}
	}
	// The fetch rows share one body; the trailing flag picks the row.
	fetch := FetchRequest{Job: "FZJ-000003", File: "out.dat", Offset: 1 << 20, Limit: 256 << 10}
	for _, transfer := range []bool{false, true} {
		enc := mustEncode(fetch)
		if transfer {
			enc = mustEncode(TransferRequest(fetch))
		}
		code, _, body, err := splitRequest(FrameFetch, enc)
		var got FetchRequest
		if derr := decode(body, &got); err != nil || derr != nil || got != fetch || (code != 0) != transfer {
			t.Fatalf("fetch (transfer=%v): %+v, code %d, %v, %v", transfer, got, code, err, derr)
		}
	}

	// The frame forms carry one flag beyond the table's types.
	sub := binSub{SubscribeRequest: sample[SubscribeRequest](reqs), Once: true}
	if got, err := roundTrip(sub); err != nil || !reflect.DeepEqual(got, sub) {
		t.Fatalf("sub: %+v, %v", got, err)
	}
	evs := binEvents{EventsReply: sample[EventsReply](reps), End: true}
	if got, err := roundTrip(evs); err != nil || !reflect.DeepEqual(got, evs) {
		t.Fatalf("events: %+v, %v", got, err)
	}

	// Zero time must round-trip to the zero time, not unix epoch.
	zrep := PollReply{Found: false}
	got, err := roundTrip(zrep)
	if err != nil || !got.Summary.Updated.IsZero() {
		t.Fatalf("zero time: %+v, %v", got, err)
	}

	// Truncated and trailing-garbage payloads must fail, never panic.
	enc := mustEncode(sample[PollReply](reps))
	if err := decode(enc[:len(enc)-1], new(PollReply)); err == nil {
		t.Fatal("truncated poll reply decoded")
	}
	if err := decode(append(enc, 0), new(PollReply)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestCallHeaderRoundTrip covers the FrameCall prefix (code + trace).
func TestCallHeaderRoundTrip(t *testing.T) {
	body := []byte{1, 2, 3}
	c, code, trace := bin.Encoder(nil), binPoll, "trace-123"
	walkCall(&c, &code, &trace)
	p := append(c.Bytes(), body...)
	code, trace, rest, err := splitRequest(FrameCall, p)
	if err != nil || code != binPoll || trace != "trace-123" || !bytes.Equal(rest, body) {
		t.Fatalf("splitRequest = %d %q %v %v", code, trace, rest, err)
	}
	if _, _, _, err := splitRequest(FrameCall, nil); err == nil {
		t.Fatal("empty call payload accepted")
	}
}

// FuzzFrameDecode hammers the pure frame decoder with arbitrary bytes: it
// must never panic, never over-consume, and every successfully decoded frame
// must re-encode to exactly the consumed bytes.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, FrameHello, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(AppendFrame(nil, FrameCall, 99, []byte("payload")))
	f.Add(AppendFrame(nil, FrameError, 7, appendStreamError(nil, StreamErrUnsupported, "nope")))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("error with %d bytes consumed", n)
			}
			return
		}
		if n < frameHeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		reenc := AppendFrame(nil, frame.Kind, frame.ID, frame.Payload)
		if !bytes.Equal(reenc, data[:n]) {
			t.Fatalf("re-encode mismatch: %x vs %x", reenc, data[:n])
		}
	})
}
