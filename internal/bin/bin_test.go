package bin

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	at := time.Date(1999, 8, 3, 9, 0, 0, 7, time.UTC)
	var b []byte
	b = append(b, 0xa1)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, math.MinInt64)
	b = AppendBytes(b, []byte{0, 1, 2})
	b = AppendStr(b, "Jülich")
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendTime(b, at)
	b = AppendTime(b, time.Time{})
	b = AppendStrs(b, []string{"a", "", "c"})
	b = AppendStrs(b, nil)
	b = AppendFloat64(b, -0.375)
	b = AppendBytes(b, []byte{9})
	b = AppendBytes(b, nil)

	r := NewReader(b)
	if got := r.Byte(); got != 0xa1 {
		t.Errorf("Byte = %#x", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d", got)
	}
	blob := r.Bytes()
	if !reflect.DeepEqual(blob, []byte{0, 1, 2}) || cap(blob) != len(blob) {
		t.Errorf("Bytes = %v cap %d: want a view capped at its length", blob, cap(blob))
	}
	if got := r.Str(); got != "Jülich" {
		t.Errorf("Str = %q", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair did not read true, false")
	}
	if got := r.Time(); !reflect.DeepEqual(got, at) {
		t.Errorf("Time = %v, want %v", got, at)
	}
	if got := r.Time(); !got.IsZero() {
		t.Errorf("zero Time = %v", got)
	}
	if got := r.Strs(); !reflect.DeepEqual(got, []string{"a", "", "c"}) {
		t.Errorf("Strs = %q", got)
	}
	if got := r.Strs(); got != nil {
		t.Errorf("empty Strs = %#v, want nil", got)
	}
	if got := r.Float64(); got != -0.375 {
		t.Errorf("Float64 = %v", got)
	}
	if full, empty := r.Blob(), r.Blob(); !reflect.DeepEqual(full, []byte{9}) || empty != nil {
		t.Errorf("Blob pair = %v, %#v: want [9], nil", full, empty)
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err after a full read: %v", err)
	}
	if v := r.Float64(); v != 0 || !r.Failed() {
		t.Errorf("Float64 past the end = %v, failed=%v", v, r.Failed())
	}
}

func TestReaderVerdicts(t *testing.T) {
	// Bytes left over are malformed.
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Err(); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing byte: %v", err)
	}
	// A failure is sticky and yields zero values.
	r = NewReader(AppendStr(nil, "x")[:1]) // length 1, no byte behind it
	if s := r.Str(); s != "" || !r.Failed() {
		t.Errorf("short string read %q, failed=%v", s, r.Failed())
	}
	if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("read after a failure: %d, %v", v, r.Err())
	}
	// A count the input cannot hold is refused, not allocated for.
	r = NewReader(AppendUvarint(nil, 1<<40))
	if n := r.Count(); n != 0 || !r.Failed() {
		t.Errorf("Count of 2^40 over an empty tail = %d, failed=%v", n, r.Failed())
	}
	r = NewReader(AppendFloat64(nil, math.NaN()))
	if v := r.Float64(); v != 0 || !r.Failed() {
		t.Errorf("Float64 of NaN = %v, failed=%v", v, r.Failed())
	}
	r = NewReader(AppendUvarint(nil, 1<<40))
	if s := r.Strs(); s != nil || !r.Failed() {
		t.Errorf("Strs with a 2^40 count = %v, failed=%v", s, r.Failed())
	}
}
