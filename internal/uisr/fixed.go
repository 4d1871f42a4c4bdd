package uisr

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// The fixed-layout codec: the one place that turns a record struct into
// packed little-endian bytes and back — fields in declaration order, no
// padding, bools as one 0/1 byte, the layout encoding/binary defines. The
// struct definitions (here and in internal/hv/xen) stay the only
// description of a record: each type's definition is compiled, once, into
// a plan of runs of same-width elements at fixed offsets, and PutFixed and
// GetFixed replay the plan over the record's memory — no reflect.Value
// walks a record, and nothing allocates. Callers size their output with
// FixedSize once per type (which also compiles the plan, at package
// init), allocate once and write every record in place. Parsers read
// records back through Reader.Fixed (reader.go), the bounded cursor every
// parser of hostile bytes shares.

// fixedRun is n elements of one width, adjacent in the record's memory
// and on the wire. A uint64 field followed by a [17]uint64 is one run.
type fixedRun struct {
	off   uintptr // of the first element, from the start of the record
	n     int
	width uint8 // bytes per element: 1, 2, 4 or 8
	bool  bool  // width 1, normalised to 0/1 both ways
}

// fixedPlan is the compiled layout of one record type.
type fixedPlan struct {
	runs []fixedRun
	size int // bytes on the wire
}

// fixedPlans maps a record's pointer type — what PutFixed and GetFixed are
// handed — to its *fixedPlan.
var fixedPlans sync.Map

// planOf returns the plan of the record type ptr points to, compiling it
// on first use.
func planOf(ptr reflect.Type) *fixedPlan {
	if p, ok := fixedPlans.Load(ptr); ok {
		return p.(*fixedPlan)
	}
	pl := &fixedPlan{}
	pl.compile(ptr.Elem(), 0)
	p, _ := fixedPlans.LoadOrStore(ptr, pl)
	return p.(*fixedPlan)
}

// compile appends the runs of a t at offset off. It panics on a kind the
// codec does not carry.
func (pl *fixedPlan) compile(t reflect.Type, off uintptr) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			pl.compile(t.Field(i).Type, off+t.Field(i).Offset)
		}
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			pl.compile(t.Elem(), off+uintptr(i)*t.Elem().Size())
		}
	case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		r := fixedRun{off: off, n: 1, width: uint8(t.Size()), bool: t.Kind() == reflect.Bool}
		pl.size += int(r.width)
		if k := len(pl.runs) - 1; k >= 0 {
			last := &pl.runs[k]
			if last.width == r.width && last.bool == r.bool && last.off+uintptr(last.n)*uintptr(last.width) == off {
				last.n++
				return
			}
		}
		pl.runs = append(pl.runs, r)
	default:
		panic(fmt.Sprintf("uisr: fixed-layout codec cannot carry a %s", t.Kind()))
	}
}

// FixedSize returns the wire size of v's type. It panics on a kind the
// codec does not carry, so a record that gains such a field fails when
// its package initialises, not inside a transplant.
func FixedSize(v any) int { return planOf(reflect.PointerTo(reflect.TypeOf(v))).size }

// PutFixed writes the record v points to into out, which must be exactly
// its FixedSize long.
func PutFixed(out []byte, v any) {
	rv := reflect.ValueOf(v)
	pl := planOf(rv.Type())
	if len(out) != pl.size {
		panic(fmt.Sprintf("uisr: %T is %d bytes, the window %d", v, pl.size, len(out)))
	}
	pl.replay(out, rv.UnsafePointer(), true)
}

// GetFixed fills the record v points to from p, after checking p against
// size, the caller's cached FixedSize of the record.
func GetFixed(p []byte, v any, size int) error {
	rv := reflect.ValueOf(v)
	pl := planOf(rv.Type())
	if len(p) != size || size != pl.size {
		return fmt.Errorf("payload %d bytes, want %d for %T", len(p), size, v)
	}
	pl.replay(p, rv.UnsafePointer(), false)
	return nil
}

// hostLittleEndian reports that an integer's bytes in memory are already
// its wire bytes, so replay moves a run with one copy; a big-endian host
// reverses each element afterwards.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// replay moves the record at base to (put) or from b, run by run.
func (pl *fixedPlan) replay(b []byte, base unsafe.Pointer, put bool) {
	for _, r := range pl.runs {
		mem := unsafe.Slice((*byte)(unsafe.Add(base, r.off)), r.n*int(r.width))
		wire := b[:len(mem)]
		b = b[len(mem):]
		switch {
		case put:
			copy(wire, mem) // a bool is held as 0 or 1 already
		case r.bool:
			for i, x := range wire {
				mem[i] = min(x, 1)
			}
		default:
			copy(mem, wire)
		}
		if !hostLittleEndian && r.width > 1 {
			if put {
				mem = wire // reverse what was written, not the record
			}
			for i := 0; i < len(mem); i += int(r.width) {
				slices.Reverse(mem[i : i+int(r.width)])
			}
		}
	}
}
