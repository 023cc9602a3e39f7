package replay

import (
	"fmt"
	"sort"
)

// Codec serialises one model's data for the binary formats: the event
// payloads the model schedules (the replay log's injections, a
// checkpoint's frontier) and the state each LP carries between events (a
// checkpoint's LPs). A model registers one Codec; a checkpoint records
// both its Name and its StateName.
//
// Encode and Decode must be inverses up to semantic equality: a decoded
// payload scheduled into a fresh build must drive the model exactly as the
// original did. Scratch fields (reverse-computation save areas) should be
// omitted — bootstrap and frontier payloads have not executed yet, so
// theirs are zero anyway.
//
// EncodeState and DecodeState must be exact inverses over every field that
// trace.StateHash observes (it renders the whole struct, unexported fields
// included): a decoded state must hash identically to the encoded one, or
// resumed-run fingerprints can never match. Scratch fields that are always
// zero at a GVT commit point may be omitted.
//
// Encode and EncodeState must be safe to call from several goroutines at
// once on distinct data: a CheckpointWriter fans a checkpoint's encode out
// over one worker per processor.
//
// Decode and DecodeState get attacker-grade input (logs and checkpoints
// come from disk). They read through a Reader and must return an error,
// never panic, on malformed bytes, and must accept only what Encode and
// EncodeState produce, so anything accepted re-encodes to the same bytes.
type Codec interface {
	// Name is the registry key recorded in a log's Spec and a checkpoint's
	// header.
	Name() string
	// Encode appends data's serialization to dst and returns the extended
	// slice. It must handle every payload the model schedules, including
	// nil.
	Encode(dst []byte, data any) ([]byte, error)
	// Decode parses one payload previously produced by Encode. The input
	// is exactly one Encode output (framing is the log's concern).
	Decode(src []byte) (any, error)
	// StateName names the state encoding; a checkpoint records it beside
	// Name, and a restore rejects a checkpoint whose pair does not match.
	StateName() string
	// EncodeState appends state's serialization to dst and returns the
	// extended slice.
	EncodeState(dst []byte, state any) ([]byte, error)
	// DecodeState parses one EncodeState output into state, in place — the
	// kernel hands out LP state by reference, so replacing the object would
	// orphan the handler's view of it. On error state is left unchanged.
	DecodeState(src []byte, state any) error
}

// codecs is the global registry. Writes happen only from package init
// functions (models register themselves on import), reads only afterwards,
// so no locking is needed.
var codecs = map[string]Codec{}

// RegisterCodec adds a codec to the registry; it panics on a duplicate
// name. Call it from the model package's init so importing the model makes
// its logs replayable and its checkpoints restorable.
func RegisterCodec(c Codec) {
	name := c.Name()
	if _, dup := codecs[name]; dup {
		panic(fmt.Sprintf("replay: codec %q registered twice", name))
	}
	codecs[name] = c
}

// CodecFor looks up a registered codec by name.
func CodecFor(name string) (Codec, error) {
	c, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("replay: no codec %q registered (have %v)", name, CodecNames())
	}
	return c, nil
}

// CodecNames returns the registered codec names, sorted.
func CodecNames() []string {
	names := make([]string, 0, len(codecs))
	for name := range codecs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
