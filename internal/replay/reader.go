package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
)

var errTruncated = errors.New("replay: truncated input")

// Reader is the one bounds-checked decoder every binary format in the
// repository reads through: the replay log, the checkpoint file and its
// manifest, and the models' payload and state codecs. All of them take
// attacker-grade input from disk.
//
// Its error is sticky. The first read that fails — truncation, a varint
// that overflows or is not minimal, a NaN float, an out-of-range integer
// or count — or the first Fail records an error, and from then on every
// read returns the zero value and consumes nothing. A decoder therefore
// reads a whole section straight through and checks once, with Done.
//
// Varints must be minimal. The encoders (binary.AppendUvarint and
// AppendVarint) never pad, so a padded varint can only be corrupt input,
// and accepting one would break the formats' contract that anything
// accepted re-encodes to exactly the bytes it came from.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Fail records a failed value check — a range, a flag, an ordering —
// unless an earlier error is already recorded. The message is used as
// given, so it carries its own "package: " prefix.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Done ends a section: it returns the first recorded error, or an error
// naming what if input remains unread.
func (r *Reader) Done(what string) error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("replay: trailing bytes in %s", what)
	}
	return r.err
}

// take consumes n bytes and returns them, aliasing the input; nil on
// failure.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.err = errTruncated
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.err = errTruncated
	case n < 0:
		r.err = errors.New("replay: varint overflows 64 bits")
	case n > 1 && r.buf[r.off+n-1] == 0:
		// A final group of zero adds nothing: the value fits in fewer bytes.
		r.err = errors.New("replay: non-minimal varint")
	default:
		r.off += n
		return v
	}
	return 0
}

// Varint reads a minimal zigzag signed varint (binary.AppendVarint's
// encoding; zigzag is a bijection, so minimality carries over).
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Int reads an unsigned varint that must fit in an int32, the range every
// count, index and size field on the wire is held to.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Fail("replay: integer field %d out of range", v)
		return 0
	}
	return int(v)
}

// Int32 reads a signed varint that must fit in an int32.
func (r *Reader) Int32() int32 {
	v := r.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.Fail("replay: integer field %d out of range", v)
		return 0
	}
	return int32(v)
}

// U64 reads a fixed 8-byte little-endian word.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Float reads a fixed 8-byte float64 bit pattern, rejecting NaN.
func (r *Reader) Float() float64 { return r.float(r.U64()) }

// Time reads a virtual time, a Float.
func (r *Reader) Time() core.Time { return core.Time(r.Float()) }

// float interprets bits as a float64, rejecting NaN. Delta-coded times
// decode through it with their running bit-pattern sum.
func (r *Reader) float(bits uint64) float64 {
	f := math.Float64frombits(bits)
	if math.IsNaN(f) {
		r.Fail("replay: NaN float field")
		return 0
	}
	return f
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Flag reads a boolean byte, which must be 0 or 1.
func (r *Reader) Flag() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail("replay: bad flag byte %d", b)
	}
	return b == 1
}

// Bytes reads a length-prefixed byte string and returns a copy (nil when
// empty), so the result never aliases the input.
func (r *Reader) Bytes() []byte {
	b := r.take(r.Uvarint())
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Str reads a length-prefixed string of at most maxName bytes.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if n > maxName {
		r.Fail("replay: string field of %d bytes exceeds limit", n)
		return ""
	}
	return string(r.take(n))
}

// Count reads an element count and rejects one that cannot fit in the
// remaining input at minBytes per element, so a corrupt count can never
// drive an outsized allocation. It returns 0 once an error is recorded.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if v > uint64((len(r.buf)-r.off)/minBytes) {
		r.Fail("replay: count %d exceeds payload", v)
		return 0
	}
	return int(v)
}

// frame reads one CRC-framed section,
//
//	type:1 | payloadLen:uvarint | payload | crc32(payload):4 LE
//
// and returns its type and a Reader over its payload. The payload Reader
// starts with r's error, so a truncated frame or a CRC mismatch surfaces
// at the section's Done.
func (r *Reader) frame() (byte, *Reader) {
	typ := r.Byte()
	payload := r.take(r.Uvarint())
	if sum := r.u32(); r.err == nil && crc32.ChecksumIEEE(payload) != sum {
		r.Fail("replay: CRC mismatch in frame type %d", typ)
	}
	return typ, &Reader{buf: payload, err: r.err}
}

// section reads the next frame, which must have type want, decodes its
// payload with decode and requires the payload to be consumed whole. A
// failure anywhere is recorded on r, so a decoder reads its sections in
// order and checks once, at the end.
func (r *Reader) section(want byte, what string, decode func(p *Reader)) {
	typ, p := r.frame()
	if typ != want {
		p.Fail("replay: expected %s frame, got frame type %d", what, typ)
	}
	decode(p)
	r.err = p.Done(what + " frame")
}

// peek returns the next byte without consuming it: 0 at the end of the
// input or once an error is recorded.
func (r *Reader) peek() byte {
	if r.err != nil || r.off == len(r.buf) {
		return 0
	}
	return r.buf[r.off]
}

// prologue checks the magic and version every format's header opens with.
func (r *Reader) prologue(magic string, version uint64, what string) {
	if string(r.take(uint64(len(magic)))) != magic {
		r.Fail("replay: bad magic (not a %s)", what)
	}
	if v := r.Uvarint(); v != version {
		r.Fail("replay: unsupported %s version %d (want %d)", what, v, version)
	}
}
