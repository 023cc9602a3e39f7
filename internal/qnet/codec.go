package qnet

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/replay"
)

// CodecName is the registered replay codec for qnet payloads, and
// StateCodecName the name its Station state encoding carries in
// checkpoints.
const (
	CodecName      = "qnet.v1"
	StateCodecName = "qnet-state.v1"
)

func init() {
	replay.RegisterCodec(codec{})
}

// codec serialises *Msg payloads — the event kind plus the enqueue
// timestamp Depart events carry — and *Station state. The state's
// unexported queue window travels too (trace.StateHash renders it):
// enqueue times as float64 bit patterns, the absolute base that
// commit-time trimming advances, and the integer-tick accounting fields.
type codec struct{}

func (codec) Name() string      { return CodecName }
func (codec) StateName() string { return StateCodecName }

func (codec) Encode(dst []byte, data any) ([]byte, error) {
	if data == nil {
		return append(dst, 0), nil
	}
	m, ok := data.(*Msg)
	if !ok {
		return nil, fmt.Errorf("qnet: cannot encode payload of type %T", data)
	}
	dst = append(dst, 1, byte(m.Kind))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(m.EnqueuedAt))), nil
}

func (codec) Decode(src []byte) (any, error) {
	r := replay.NewReader(src)
	if !r.Flag() {
		return nil, r.Done("qnet payload") // nil, or malformed
	}
	m := &Msg{Kind: Kind(r.Byte()), EnqueuedAt: r.Time()}
	if m.Kind > KindDepart {
		r.Fail("qnet: unknown event kind %d", m.Kind)
	}
	if err := r.Done("qnet payload"); err != nil {
		return nil, err
	}
	return m, nil
}

func (codec) EncodeState(dst []byte, state any) ([]byte, error) {
	st, ok := state.(*Station)
	if !ok {
		return nil, fmt.Errorf("qnet: cannot encode state of type %T", state)
	}
	if st.Busy {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.queue)))
	for _, t := range st.queue {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(t)))
	}
	dst = binary.AppendVarint(dst, st.qBase)
	dst = binary.AppendVarint(dst, st.qHead)
	dst = binary.AppendVarint(dst, st.Arrivals)
	dst = binary.AppendVarint(dst, st.Departs)
	dst = binary.AppendVarint(dst, st.WaitTicks)
	return dst, nil
}

func (codec) DecodeState(src []byte, state any) error {
	st, ok := state.(*Station)
	if !ok {
		return fmt.Errorf("qnet: cannot decode state into type %T", state)
	}
	r := replay.NewReader(src)
	dec := Station{Busy: r.Flag()}
	if n := r.Count(8); n > 0 {
		dec.queue = make([]core.Time, 0, n)
		for i := 0; i < n; i++ {
			t := r.Time()
			if t < 0 {
				r.Fail("qnet: negative enqueue time in state")
			}
			dec.queue = append(dec.queue, t)
		}
	}
	dec.qBase, dec.qHead = r.Varint(), r.Varint()
	if dec.qBase < 0 || dec.qHead < dec.qBase || dec.qHead > dec.qBase+int64(len(dec.queue)) {
		r.Fail("qnet: inconsistent queue window base=%d head=%d len=%d",
			dec.qBase, dec.qHead, len(dec.queue))
	}
	dec.Arrivals, dec.Departs, dec.WaitTicks = r.Varint(), r.Varint(), r.Varint()
	if err := r.Done("qnet state"); err != nil {
		return err
	}
	*st = dec
	return nil
}
