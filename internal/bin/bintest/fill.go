// Package bintest is the test support shared by the codecs built on package
// bin. A walk names its fields by hand, so a field added to a struct and not
// to its walk is silently dropped; Fill makes that a test failure: it sets
// every exported field of a value to a distinct non-zero value by reflection,
// so an encode/decode round trip compared with reflect.DeepEqual names the
// forgotten field.
package bintest

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

var timeType = reflect.TypeOf(time.Time{})

// Fill sets every exported field reachable from ptr — through embedded and
// nested structs, slices and maps — to a non-zero value no other field got.
// Slices get two elements, maps two entries. Times are UTC, as a decoder
// yields them. Interface-typed values are left alone: only the caller knows
// which implementations belong there. A recursive type (an outcome's
// children) is filled two levels deep and left empty below. A field of a type
// Fill does not know fails the test, so a new kind of field cannot slip past
// unfilled.
func Fill(t testing.TB, ptr any) {
	t.Helper()
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		t.Fatalf("bintest.Fill wants a non-nil pointer, got %T", ptr)
	}
	n := 0
	fill(t, v.Elem(), v.Type().String(), &n, map[reflect.Type]int{})
}

// open counts, per pointer type, how many values of it are being filled on
// the path from the root: what ends a recursive type.
func fill(t testing.TB, v reflect.Value, path string, n *int, open map[reflect.Type]int) {
	t.Helper()
	*n++
	switch {
	case v.Type() == timeType:
		v.Set(reflect.ValueOf(time.Unix(int64(1_000_000+*n), int64(*n)).UTC()))
		return
	case v.Kind() == reflect.Interface:
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fill(t, v.Field(i), path+"."+f.Name, n, open)
			}
		}
	case reflect.Slice:
		if et := v.Type().Elem(); et.Kind() == reflect.Interface || open[et] >= 2 {
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		fill(t, s.Index(0), path+"[0]", n, open)
		fill(t, s.Index(1), path+"[1]", n, open)
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, path+"[key]", n, open)
			fill(t, e, path+"[value]", n, open)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		if open[v.Type()] >= 2 {
			return
		}
		open[v.Type()]++
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), path, n, open)
		v.Set(p)
		open[v.Type()]--
	default:
		t.Fatalf("bintest.Fill: %s has kind %s, which Fill cannot set — teach it, then check the codec carries the field", path, v.Kind())
	}
}
