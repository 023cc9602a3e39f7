package hotpotato

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/replay"
	"repro/internal/routing"
	"repro/internal/topology"
)

// StateCodecName is the registered replay state codec for Router state.
const StateCodecName = "hotpotato-state.v1"

func init() {
	replay.RegisterStateCodec(stateCodec{})
}

// stateCodec serialises *Router state for checkpoints. Every field travels
// — trace.StateHash renders unexported fields too, so a restored router
// must be bit-identical: link claims, the cached link set, the injection
// queue window (including its absolute base, which commit-time trimming
// advances deterministically) and the full statistics block.
type stateCodec struct{}

func (stateCodec) Name() string { return StateCodecName }

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

func (stateCodec) EncodeState(dst []byte, state any) ([]byte, error) {
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

func (stateCodec) DecodeState(src []byte, state any) error {
	r, ok := state.(*Router)
	if !ok {
		return fmt.Errorf("hotpotato: cannot decode state into type %T", state)
	}
	off := 0
	varint := func() (int64, error) {
		v, n := binary.Varint(src[off:])
		if n <= 0 {
			return 0, errors.New("hotpotato: truncated state")
		}
		off += n
		return v, nil
	}
	var dec Router
	for d := range dec.claim {
		c, err := varint()
		if err != nil {
			return err
		}
		dec.claim[d] = c
	}
	if len(src)-off < 2 {
		return errors.New("hotpotato: truncated state")
	}
	links := src[off]
	if links >= 1<<topology.NumDirections {
		return fmt.Errorf("hotpotato: link set %#x out of range in state", links)
	}
	dec.links = topology.DirSet(links)
	inj := src[off+1]
	if inj > 1 {
		return fmt.Errorf("hotpotato: bad injector flag %d in state", inj)
	}
	dec.isInjector = inj == 1
	off += 2
	qLen, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return errors.New("hotpotato: truncated state")
	}
	off += n
	if qLen > uint64(len(src)-off) {
		return fmt.Errorf("hotpotato: queue length %d exceeds state payload", qLen)
	}
	if qLen > 0 {
		dec.queue = make([]int64, 0, qLen)
	}
	for i := uint64(0); i < qLen; i++ {
		g, err := varint()
		if err != nil {
			return err
		}
		dec.queue = append(dec.queue, g)
	}
	var err error
	if dec.qBase, err = varint(); err != nil {
		return err
	}
	if dec.qHead, err = varint(); err != nil {
		return err
	}
	if dec.qBase < 0 || dec.qHead < dec.qBase || dec.qHead > dec.qBase+int64(len(dec.queue)) {
		return fmt.Errorf("hotpotato: inconsistent queue window base=%d head=%d len=%d",
			dec.qBase, dec.qHead, len(dec.queue))
	}
	var fields [numStatsFields]*int64
	statsFields(&dec.stats, &fields)
	for _, f := range fields {
		if *f, err = varint(); err != nil {
			return err
		}
	}
	if off != len(src) {
		return errors.New("hotpotato: trailing bytes in state")
	}
	*r = dec
	return nil
}
