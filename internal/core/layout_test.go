package core

import (
	"testing"
	"unsafe"
)

// TestRecordLayout: on 64-bit targets an Event and an LP are each one
// 128-byte block, every Event field the queue, execution, Send and the
// pool touch for an event that sends at most one ends by offset 64, and
// slab-carved events and New's LPs start 128-aligned — so the one miss
// that fetches an aligned pair of cache lines brings in the whole record.
func TestRecordLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 128-byte records are laid out for 64-bit targets")
	}
	var ev Event
	if n := unsafe.Sizeof(ev); n != 128 {
		t.Errorf("Event is %d bytes, want 128", n)
	}
	var lp LP
	if n := unsafe.Sizeof(lp); n != 128 {
		t.Errorf("LP is %d bytes, want 128", n)
	}
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"recvTime", unsafe.Offsetof(ev.recvTime) + unsafe.Sizeof(ev.recvTime)},
		{"dst", unsafe.Offsetof(ev.dst) + unsafe.Sizeof(ev.dst)},
		{"src", unsafe.Offsetof(ev.src) + unsafe.Sizeof(ev.src)},
		{"seq", unsafe.Offsetof(ev.seq) + unsafe.Sizeof(ev.seq)},
		{"Data", unsafe.Offsetof(ev.Data) + unsafe.Sizeof(ev.Data)},
		{"Bits", unsafe.Offsetof(ev.Bits) + unsafe.Sizeof(ev.Bits)},
		{"state", unsafe.Offsetof(ev.state) + unsafe.Sizeof(ev.state)},
		{"hasMore", unsafe.Offsetof(ev.hasMore) + unsafe.Sizeof(ev.hasMore)},
		{"rngDraws", unsafe.Offsetof(ev.rngDraws) + unsafe.Sizeof(ev.rngDraws)},
		{"gen", unsafe.Offsetof(ev.gen) + unsafe.Sizeof(ev.gen)},
		{"first", unsafe.Offsetof(ev.first) + unsafe.Sizeof(ev.first)},
	} {
		if f.end > 64 {
			t.Errorf("hot field Event.%s ends at offset %d, past the first 64-byte line", f.name, f.end)
		}
	}

	var p eventPool
	for i := 0; i < 3*slabEvents; i++ {
		if a := uintptr(unsafe.Pointer(p.carve())); a%128 != 0 {
			t.Fatalf("carved event %d at %#x is not 128-aligned", i, a)
		}
	}
	s, err := New(Config{NumLPs: 16, NumPEs: 2, EndTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range s.lps {
		if a := uintptr(unsafe.Pointer(lp)); a%128 != 0 {
			t.Fatalf("LP %d at %#x is not 128-aligned", lp.ID, a)
		}
	}
}
