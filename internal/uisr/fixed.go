package uisr

import (
	"encoding/binary"
	"fmt"
	"reflect"
)

// The fixed-layout codec: the one place that turns a record struct into
// packed little-endian bytes and back — fields in declaration order, no
// padding, bools as one 0/1 byte, the layout encoding/binary defines. The
// struct definitions (here and in internal/hv/xen) stay the only
// description of a record; this walks them with reflect, copies byte
// arrays whole and never allocates. Callers size their output with
// FixedSize once per type, allocate once and write every record in place.

// FixedSize returns the wire size of v's type. It panics on a kind the
// codec does not carry, so a record that gains such a field fails when
// its package initialises, not inside a transplant.
func FixedSize(v any) int { return fixedSize(reflect.TypeOf(v)) }

func fixedSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return int(t.Size())
	case reflect.Array:
		return t.Len() * fixedSize(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += fixedSize(t.Field(i).Type)
		}
		return n
	}
	panic(fmt.Sprintf("uisr: fixed-layout codec cannot carry a %s", t.Kind()))
}

// PutFixed writes the record v points to into out, which must be exactly
// its FixedSize long.
func PutFixed(out []byte, v any) {
	if n := walkFixed(out, reflect.ValueOf(v).Elem(), true); n != len(out) {
		panic(fmt.Sprintf("uisr: %T wrote %d bytes into a %d-byte window", v, n, len(out)))
	}
}

// GetFixed fills the record v points to from p, after checking p against
// size, the caller's cached FixedSize of the record.
func GetFixed(p []byte, v any, size int) error {
	if len(p) != size {
		return fmt.Errorf("payload %d bytes, want %d for %T", len(p), size, v)
	}
	walkFixed(p, reflect.ValueOf(v).Elem(), false)
	return nil
}

// walkFixed moves v to (put) or from the front of b and returns the bytes
// it covered.
func walkFixed(b []byte, v reflect.Value, put bool) int {
	switch v.Kind() {
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += walkFixed(b[n:], v.Field(i), put)
		}
		return n
	case reflect.Array:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			a := v.Bytes()
			if put {
				return copy(b[:len(a)], a)
			}
			return copy(a, b[:len(a)])
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += walkFixed(b[n:], v.Index(i), put)
		}
		return n
	case reflect.Bool:
		if put {
			b[0] = 0
			if v.Bool() {
				b[0] = 1
			}
		} else {
			v.SetBool(b[0] != 0)
		}
		return 1
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		// An n-byte little-endian integer is the first n bytes of the
		// same value written as 64 bits.
		n := int(v.Type().Size())
		var w [8]byte
		if put {
			binary.LittleEndian.PutUint64(w[:], v.Uint())
			return copy(b[:n], w[:n])
		}
		copy(w[:], b[:n])
		v.SetUint(binary.LittleEndian.Uint64(w[:]))
		return n
	}
	panic(fmt.Sprintf("uisr: fixed-layout codec cannot carry a %s", v.Kind()))
}
