package uisr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Reader is the one bounded cursor every parser of hostile bytes reads
// through: UISR blobs, Xen HVM contexts, PRAM pages, checkpoint images
// and the PRAM-held blob prefix. Little-endian, like every format here.
//
// The first failure sticks: a failed reader has no bytes left, later
// reads return zero values, and the parse checks Err (or Done) once where
// it would otherwise check every read. A count taken from the input only
// reaches make through Count, which bounds it by a hard cap and by the
// bytes that remain, so "validate before you allocate" is a property of
// the type, not of each parser. Reader is a value; reading allocates
// nothing, and the fixed-width reads inline.
type Reader struct {
	buf []byte
	off int
	err error
}

// errTruncated is the failure of a read past the end of the input;
// parsers wrap it with the record they were reading.
var errTruncated = errors.New("truncated")

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the unread byte count.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// fail records err (when non-nil) as the reader's failure unless one is
// already held, so a parser's own checks share the sticky error.
func (r *Reader) fail(err error) {
	if r.err == nil && err != nil {
		r.buf, r.off, r.err = nil, 0, err
	}
}

// Bytes returns the next n bytes, aliasing the input, or nil once the
// reader has failed or fewer than n remain.
func (r *Reader) Bytes(n int) []byte {
	if uint(n) > uint(len(r.buf)-r.off) {
		r.fail(errTruncated)
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off : r.off]
}

// U8, U16, U32 and U64 read one little-endian integer each.
func (r *Reader) U8() uint8   { return r.word(1)[0] }
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.word(2)) }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.word(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.word(8)) }

// zeros backs the integer reads of a failed reader.
var zeros [8]byte

func (r *Reader) word(n int) []byte {
	if n > len(r.buf)-r.off {
		r.fail(errTruncated)
		return zeros[:n]
	}
	r.off += n
	return r.buf[r.off-n:]
}

// String16 reads a uint16 length and that many bytes as a string.
func (r *Reader) String16() string { return string(r.Bytes(int(r.U16()))) }

// Fixed fills the record v points to from the next size bytes, size being
// the caller's cached FixedSize of the record (see GetFixed).
func (r *Reader) Fixed(v any, size int) {
	if b := r.Bytes(size); b != nil {
		r.fail(GetFixed(b, v, size))
	}
}

// Count admits n, a count read from the input, as an int no larger than
// max whose elemSize-byte elements fit in the unread bytes, and returns
// 0 on failure. Everything sized from input goes through here first.
func (r *Reader) Count(n uint64, max, elemSize int) int {
	switch {
	case r.err != nil:
	case n > uint64(max):
		r.fail(fmt.Errorf("count %d exceeds the cap of %d", n, max))
	case n > uint64(r.Len()/elemSize):
		r.fail(fmt.Errorf("count %d of %d-byte elements overruns the %d bytes left", n, elemSize, r.Len()))
	default:
		return int(n)
	}
	return 0
}

// Record reads one 8-byte type/instance/length descriptor — the framing
// UISR sections and Xen HVM save records share — and returns a Reader
// over its payload.
func (r *Reader) Record() (typ, instance uint16, payload Reader) {
	typ, instance = r.U16(), r.U16()
	return typ, instance, NewReader(r.Bytes(int(r.U32())))
}

// Done returns the reader's failure, or an error if bytes remain unread.
func (r *Reader) Done() error {
	if r.Len() != 0 {
		r.fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	return r.err
}
