package simcheck

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
)

// lp0 narrows a host to LP 0, the fuzz target, so trace.StateHash renders
// one LP's state per input rather than the whole model's.
type lp0 struct{ core.Host }

func (h lp0) ForEachLP(fn func(*core.LP)) { fn(h.LP(0)) }

// FuzzModelCodecs holds every model's codec, payload half and state half,
// to the replay.Codec contract: arbitrary bytes decode or error, never
// panic; anything accepted re-encodes to exactly the input; and a rejected
// DecodeState leaves the live state's hash unchanged. The state target is
// LP 0's state after a 1-PE sequential run of the model's harness cell.
//
// The seed corpus holds each codec's encoding of a real payload (the first
// bootstrap event) and of the real state, plus each with its final byte
// re-encoded as a padded varint group. Where the encoding ends in a varint
// (hot-potato's payload and every state) that is a non-minimal encoding of
// the same value, which a canonical decoder must reject.
func FuzzModelCodecs(f *testing.F) {
	type target struct {
		name  string
		codec replay.Codec
		host  core.Host
		state any
	}
	var targets []target
	for i, name := range ModelNames() {
		codec, err := replay.CodecFor(models[name].codec)
		if err != nil {
			f.Fatal(err)
		}
		inst, err := models[name].build(Cell{Model: name, Engine: core.KindSequential, PEs: 1, KPs: 1, Seed: 1}, 0)
		if err != nil {
			f.Fatal(err)
		}
		var first any
		seen := false
		inst.eng.ForEachBootstrap(func(_ core.LPID, _ core.Time, data any) {
			if !seen {
				first, seen = data, true
			}
		})
		payload, err := codec.Encode(nil, first)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := inst.eng.Run(); err != nil {
			f.Fatal(err)
		}
		tg := target{name: name, codec: codec, host: lp0{inst.eng}, state: inst.eng.LP(0).State}
		state, err := codec.EncodeState(nil, tg.state)
		if err != nil {
			f.Fatal(err)
		}
		targets = append(targets, tg)
		for _, seed := range []struct {
			isState bool
			enc     []byte
		}{{false, payload}, {true, state}} {
			f.Add(uint8(i), seed.isState, seed.enc)
			if n := len(seed.enc); n > 0 {
				padded := append(append([]byte(nil), seed.enc[:n-1]...), seed.enc[n-1]|0x80, 0)
				f.Add(uint8(i), seed.isState, padded)
			}
		}
	}
	f.Fuzz(func(t *testing.T, model uint8, isState bool, data []byte) {
		tg := targets[int(model)%len(targets)]
		var enc []byte
		if !isState {
			v, err := tg.codec.Decode(data)
			if err != nil {
				return
			}
			if enc, err = tg.codec.Encode(nil, v); err != nil {
				t.Fatalf("%s: accepted payload fails to re-encode: %v", tg.name, err)
			}
		} else {
			before := trace.StateHash(tg.host)
			if err := tg.codec.DecodeState(data, tg.state); err != nil {
				if trace.StateHash(tg.host) != before {
					t.Fatalf("%s: rejected state %x changed the live state", tg.name, data)
				}
				return
			}
			var err error
			if enc, err = tg.codec.EncodeState(nil, tg.state); err != nil {
				t.Fatalf("%s: accepted state fails to re-encode: %v", tg.name, err)
			}
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("%s: accepted input is not canonical:\n in  %x\n out %x", tg.name, data, enc)
		}
	})
}
