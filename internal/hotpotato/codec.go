package hotpotato

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/routing"
	"repro/internal/topology"
)

// CodecName is the registered replay codec for hot-potato payloads, and
// StateCodecName the name its Router state encoding carries in checkpoints.
const (
	CodecName      = "hotpotato.v1"
	StateCodecName = "hotpotato-state.v1"
)

func init() {
	replay.RegisterCodec(codec{})
}

// codec serialises *Msg payloads and *Router state.
//
// Only a payload's semantic fields (Kind and the Packet) travel: the Saved*
// scratch area is reverse-computation state that is zero on any
// not-yet-executed event, which is the only kind a recording or a
// checkpoint frontier holds.
//
// Every state field travels — trace.StateHash renders unexported fields
// too, so a restored router must be bit-identical: link claims, the cached
// link set, the injection queue window (including its absolute base, which
// commit-time trimming advances deterministically) and the full statistics
// block. A state whose queue head is not Injected+Discarded is rejected:
// Commit reads the committed head from those two counts.
type codec struct{}

func (codec) Name() string      { return CodecName }
func (codec) StateName() string { return StateCodecName }

func (codec) Encode(dst []byte, data any) ([]byte, error) {
	if data == nil {
		return append(dst, 0), nil
	}
	m, ok := data.(*Msg)
	if !ok {
		return nil, fmt.Errorf("hotpotato: cannot encode payload of type %T", data)
	}
	dst = append(dst, 1, byte(m.Kind), byte(m.P.Prio))
	dst = binary.AppendVarint(dst, int64(m.P.Dst))
	dst = binary.AppendVarint(dst, int64(m.P.Src))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.P.Jitter))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(m.P.Born)))
	dst = binary.AppendVarint(dst, m.P.CreatedStep)
	dst = binary.AppendVarint(dst, int64(m.P.Dist))
	dst = binary.AppendVarint(dst, int64(m.P.Hops))
	return dst, nil
}

func (codec) Decode(src []byte) (any, error) {
	r := replay.NewReader(src)
	if !r.Flag() {
		return nil, r.Done("hotpotato payload") // nil, or malformed
	}
	m := &Msg{Kind: Kind(r.Byte()), P: Packet{Prio: routing.State(r.Byte())}}
	if m.Kind > KindHeartbeat {
		r.Fail("hotpotato: unknown event kind %d", m.Kind)
	}
	if m.P.Prio > routing.Running {
		r.Fail("hotpotato: unknown priority state %d", m.P.Prio)
	}
	m.P.Dst, m.P.Src = core.LPID(r.Int32()), core.LPID(r.Int32())
	m.P.Jitter, m.P.Born = r.Float(), r.Time()
	m.P.CreatedStep, m.P.Dist, m.P.Hops = r.Varint(), r.Int32(), r.Int32()
	if err := r.Done("hotpotato payload"); err != nil {
		return nil, err
	}
	return m, nil
}

// numStatsFields is the number of int64 counters in RouterStats.
const numStatsFields = 15 + routing.NumStates + 2*DistBuckets + 2*TimeBuckets

// statsFields enumerates RouterStats in a fixed wire order. The caller
// supplies the array so the encode path, which runs once per LP per
// checkpoint, keeps it on its stack.
func statsFields(st *RouterStats, fields *[numStatsFields]*int64) {
	n := copy(fields[:], []*int64{
		&st.Delivered, &st.TransitTotal, &st.DistTotal, &st.HopsTotal,
		&st.DeliveryMax, &st.Routed, &st.Deflections, &st.Upgrades,
		&st.Downgrades, &st.Generated, &st.Injected, &st.Discarded,
		&st.WaitTotal, &st.WaitMax, &st.Heartbeats,
	})
	for _, arr := range [...][]int64{
		st.DeliveredByPrio[:], st.DelivTimeByDist[:], st.DelivCountByDist[:],
		st.DelivTimeByTime[:], st.DelivCountByTime[:],
	} {
		for i := range arr {
			fields[n] = &arr[i]
			n++
		}
	}
}

func (codec) EncodeState(dst []byte, state any) ([]byte, error) {
	r, ok := state.(*Router)
	if !ok {
		return nil, fmt.Errorf("hotpotato: cannot encode state of type %T", state)
	}
	for _, c := range r.claim {
		dst = binary.AppendVarint(dst, c)
	}
	dst = append(dst, byte(r.links))
	if r.isInjector {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.queue)))
	for _, g := range r.queue {
		dst = binary.AppendVarint(dst, g)
	}
	dst = binary.AppendVarint(dst, r.qBase)
	dst = binary.AppendVarint(dst, r.qHead)
	var fields [numStatsFields]*int64
	statsFields(&r.stats, &fields)
	for _, f := range fields {
		dst = binary.AppendVarint(dst, *f)
	}
	return dst, nil
}

func (codec) DecodeState(src []byte, state any) error {
	rt, ok := state.(*Router)
	if !ok {
		return fmt.Errorf("hotpotato: cannot decode state into type %T", state)
	}
	r := replay.NewReader(src)
	var dec Router
	for d := range dec.claim {
		dec.claim[d] = r.Varint()
	}
	links := r.Byte()
	if links >= 1<<topology.NumDirections {
		r.Fail("hotpotato: link set %#x out of range in state", links)
	}
	dec.links = topology.DirSet(links)
	dec.isInjector = r.Flag()
	if n := r.Count(1); n > 0 {
		dec.queue = make([]int64, 0, n)
		for i := 0; i < n; i++ {
			dec.queue = append(dec.queue, r.Varint())
		}
	}
	dec.qBase, dec.qHead = r.Varint(), r.Varint()
	if dec.qBase < 0 || dec.qHead < dec.qBase || dec.qHead > dec.qBase+int64(len(dec.queue)) {
		r.Fail("hotpotato: inconsistent queue window base=%d head=%d len=%d",
			dec.qBase, dec.qHead, len(dec.queue))
	}
	var fields [numStatsFields]*int64
	statsFields(&dec.stats, &fields)
	for _, f := range fields {
		*f = r.Varint()
	}
	// Commit finds the committed queue head as Injected+Discarded; every
	// checkpoint cut is committed state, where the two agree.
	if done := dec.stats.Injected + dec.stats.Discarded; done != dec.qHead {
		r.Fail("hotpotato: queue head %d in state, but %d packets injected or discarded",
			dec.qHead, done)
	}
	if err := r.Done("hotpotato state"); err != nil {
		return err
	}
	*rt = dec
	return nil
}
