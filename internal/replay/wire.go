package replay

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/core"
)

// Binary log format (documented in docs/REPLAY.md). A log is a sequence of
// CRC-framed sections:
//
//	frame := type:1 | payloadLen:uvarint | payload | crc32(payload):4 LE
//
// Frames come in one order: header, inject, one pe frame per PE in
// ascending PE order, rounds, final, end. Integers are minimal uvarints,
// signed deltas are zigzag varints, hashes and float bit patterns are
// fixed 8-byte LE. Decode is total: malformed input of any kind —
// truncation, bad CRC, bad magic, absurd counts — yields an error, never a
// panic or an outsized allocation, and anything accepted is canonical
// (FuzzReplayCodec holds it to that).

const (
	logMagic   = "GTWR"
	logVersion = 1

	frameHeader byte = 1
	frameInject byte = 2
	framePE     byte = 3
	frameRounds byte = 4
	frameFinal  byte = 5
	frameEnd    byte = 6

	// maxName bounds decoded string fields; registry names are short.
	maxName = 256
)

// ---- encoding ----

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

func appendHeader(dst []byte, s Spec) []byte {
	p := []byte(logMagic)
	p = binary.AppendUvarint(p, logVersion)
	p = appendString(p, s.Model)
	p = appendString(p, s.Codec)
	p = appendString(p, s.Queue)
	p = appendString(p, s.Mutation)
	p = binary.AppendUvarint(p, uint64(s.PEs))
	p = binary.AppendUvarint(p, uint64(s.KPs))
	p = binary.AppendUvarint(p, uint64(s.BatchSize))
	p = binary.AppendUvarint(p, uint64(s.GVTInterval))
	p = binary.AppendUvarint(p, s.Seed)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(float64(s.EndTime)))
	if f := s.Faults; f != nil {
		p = append(p, 1)
		p = binary.AppendUvarint(p, f.Seed)
		p = binary.AppendUvarint(p, uint64(f.RollbackEvery))
		p = binary.AppendUvarint(p, uint64(f.RollbackDepth))
		p = binary.AppendUvarint(p, uint64(f.GVTDelay))
		p = binary.AppendUvarint(p, uint64(f.MailBurst))
		p = binary.AppendUvarint(p, uint64(f.ThrottlePEs))
		p = binary.AppendUvarint(p, uint64(f.ThrottleBatch))
		if f.ShuffleMail {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	} else {
		p = append(p, 0)
	}
	return appendFrame(dst, frameHeader, p)
}

func appendInject(dst []byte, inj []Injection) []byte {
	p := binary.AppendUvarint(nil, uint64(len(inj)))
	var prevDst int64
	var prevBits uint64
	for _, in := range inj {
		p = binary.AppendVarint(p, int64(in.Dst)-prevDst)
		prevDst = int64(in.Dst)
		bits := math.Float64bits(float64(in.T))
		p = binary.AppendVarint(p, int64(bits-prevBits))
		prevBits = bits
		p = binary.AppendUvarint(p, uint64(len(in.Data)))
		p = append(p, in.Data...)
	}
	return appendFrame(dst, frameInject, p)
}

func appendPE(dst []byte, pl PELog) []byte {
	p := binary.AppendUvarint(nil, uint64(pl.PE))
	p = binary.AppendUvarint(p, uint64(len(pl.Mail)))
	for _, mb := range pl.Mail {
		p = binary.AppendUvarint(p, uint64(mb.Src))
		p = binary.AppendUvarint(p, uint64(mb.N))
	}
	p = binary.AppendUvarint(p, uint64(len(pl.Rollbacks)))
	for _, rb := range pl.Rollbacks {
		p = binary.AppendUvarint(p, uint64(rb.KP))
		p = binary.AppendUvarint(p, uint64(rb.Events))
		var flags byte
		if rb.Secondary {
			flags |= 1
		}
		if rb.Forced {
			flags |= 2
		}
		p = append(p, flags)
	}
	return appendFrame(dst, framePE, p)
}

func appendRounds(dst []byte, rounds []Round) []byte {
	p := binary.AppendUvarint(nil, uint64(len(rounds)))
	var prevBits uint64
	for _, rd := range rounds {
		bits := math.Float64bits(float64(rd.GVT))
		p = binary.AppendVarint(p, int64(bits-prevBits))
		prevBits = bits
		p = binary.LittleEndian.AppendUint64(p, rd.TraceHash)
	}
	return appendFrame(dst, frameRounds, p)
}

func appendFinal(dst []byte, fp Fingerprint) []byte {
	p := binary.AppendUvarint(nil, uint64(fp.Committed))
	p = binary.AppendUvarint(p, uint64(fp.TraceLen))
	p = binary.LittleEndian.AppendUint64(p, fp.TraceHash)
	p = binary.LittleEndian.AppendUint64(p, fp.StateHash)
	return appendFrame(dst, frameFinal, p)
}

// Encode serialises a log into the framed binary format.
func Encode(lg *Log) []byte {
	dst := appendHeader(nil, lg.Spec)
	dst = appendInject(dst, lg.Inject)
	for _, pl := range lg.PEs {
		dst = appendPE(dst, pl)
	}
	dst = appendRounds(dst, lg.Rounds)
	dst = appendFinal(dst, lg.Final)
	return appendFrame(dst, frameEnd, nil)
}

// WriteFile encodes lg to path.
func WriteFile(path string, lg *Log) error {
	return os.WriteFile(path, Encode(lg), 0o644)
}

// ---- decoding ----

func (lg *Log) decodeHeader(r *Reader) {
	r.prologue(logMagic, logVersion, ".replay log")
	lg.Spec = Spec{
		Model: r.Str(), Codec: r.Str(), Queue: r.Str(), Mutation: r.Str(),
		PEs: r.Int(), KPs: r.Int(), BatchSize: r.Int(), GVTInterval: r.Int(),
		Seed: r.Uvarint(), EndTime: r.Time(),
	}
	if r.Flag() {
		lg.Spec.Faults = &core.Faults{
			Seed: r.Uvarint(), RollbackEvery: r.Int(), RollbackDepth: r.Int(),
			GVTDelay: r.Int(), MailBurst: r.Int(), ThrottlePEs: r.Int(),
			ThrottleBatch: r.Int(), ShuffleMail: r.Flag(),
		}
	}
}

func (lg *Log) decodeInject(r *Reader) {
	n := r.Count(3) // dst delta + time delta + payload len ≥ 3 bytes
	lg.Inject = make([]Injection, 0, n)
	var prevDst int64
	var prevBits uint64
	for i := 0; i < n; i++ {
		prevDst += r.Varint()
		if prevDst < 0 || prevDst > math.MaxInt32 {
			r.Fail("replay: injection %d: LP %d out of range", i, prevDst)
		}
		prevBits += uint64(r.Varint())
		t := core.Time(r.float(prevBits))
		if t < 0 {
			r.Fail("replay: injection %d has negative time", i)
		}
		lg.Inject = append(lg.Inject, Injection{T: t, Dst: core.LPID(prevDst), Data: r.Bytes()})
	}
}

func (lg *Log) decodePE(r *Reader) {
	pl := PELog{PE: r.Int()}
	if n := len(lg.PEs); n > 0 && pl.PE <= lg.PEs[n-1].PE {
		r.Fail("replay: pe frames out of order")
	}
	if n := r.Count(2); n > 0 {
		pl.Mail = make([]MailBatch, 0, n)
		for i := 0; i < n; i++ {
			pl.Mail = append(pl.Mail, MailBatch{Src: r.Int(), N: r.Int()})
		}
	}
	if n := r.Count(3); n > 0 {
		pl.Rollbacks = make([]Rollback, 0, n)
		for i := 0; i < n; i++ {
			rb := Rollback{KP: r.Int(), Events: r.Int()}
			flags := r.Byte()
			if flags > 3 {
				r.Fail("replay: bad rollback flags %#x", flags)
			}
			rb.Secondary, rb.Forced = flags&1 != 0, flags&2 != 0
			pl.Rollbacks = append(pl.Rollbacks, rb)
		}
	}
	lg.PEs = append(lg.PEs, pl)
}

func (lg *Log) decodeRounds(r *Reader) {
	n := r.Count(9) // gvt delta + fixed8 hash
	lg.Rounds = make([]Round, 0, n)
	var prevBits uint64
	for i := 0; i < n; i++ {
		prevBits += uint64(r.Varint())
		lg.Rounds = append(lg.Rounds, Round{GVT: core.Time(r.float(prevBits)), TraceHash: r.U64()})
	}
}

func (lg *Log) decodeFinal(r *Reader) {
	committed := r.Uvarint()
	if committed > math.MaxInt64 {
		r.Fail("replay: committed count out of range")
	}
	lg.Final = Fingerprint{Committed: int64(committed), TraceLen: r.Int(), TraceHash: r.U64(), StateHash: r.U64()}
}

// Decode parses a framed binary log. It never panics: any malformed input
// returns an error. Frames must come in the order Encode writes them, so
// that anything accepted re-encodes to the same bytes.
func Decode(buf []byte) (*Log, error) {
	c := NewReader(buf)
	lg := &Log{}
	c.section(frameHeader, "header", lg.decodeHeader)
	c.section(frameInject, "inject", lg.decodeInject)
	for c.peek() == framePE {
		c.section(framePE, "pe", lg.decodePE)
	}
	c.section(frameRounds, "rounds", lg.decodeRounds)
	c.section(frameFinal, "final", lg.decodeFinal)
	c.section(frameEnd, "end", func(*Reader) {})
	if err := c.Done("log after its end frame"); err != nil {
		return nil, err
	}
	return lg, nil
}

// ReadFile reads and decodes a log from path.
func ReadFile(path string) (*Log, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}
