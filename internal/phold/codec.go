package phold

import (
	"encoding/binary"
	"fmt"

	"repro/internal/replay"
)

// CodecName is the registered replay codec for PHOLD payloads, and
// StateCodecName the name its state encoding carries in checkpoints.
const (
	CodecName      = "phold.v1"
	StateCodecName = "phold-state.v1"
)

func init() {
	replay.RegisterCodec(codec{})
}

// codec serialises PHOLD payloads, which are always nil (jobs carry no
// data; the encoding is the empty byte string), and *State, one
// processed-event counter.
type codec struct{}

func (codec) Name() string      { return CodecName }
func (codec) StateName() string { return StateCodecName }

func (codec) Encode(dst []byte, data any) ([]byte, error) {
	if data != nil {
		return nil, fmt.Errorf("phold: cannot encode payload of type %T (PHOLD events carry nil)", data)
	}
	return dst, nil
}

func (codec) Decode(src []byte) (any, error) {
	return nil, replay.NewReader(src).Done("phold payload (PHOLD events carry nil)")
}

func (codec) EncodeState(dst []byte, state any) ([]byte, error) {
	st, ok := state.(*State)
	if !ok {
		return nil, fmt.Errorf("phold: cannot encode state of type %T", state)
	}
	return binary.AppendVarint(dst, st.Processed), nil
}

func (codec) DecodeState(src []byte, state any) error {
	st, ok := state.(*State)
	if !ok {
		return fmt.Errorf("phold: cannot decode state into type %T", state)
	}
	r := replay.NewReader(src)
	v := r.Varint()
	if v < 0 {
		r.Fail("phold: negative processed count in state")
	}
	if err := r.Done("phold state"); err != nil {
		return err
	}
	st.Processed = v
	return nil
}
