package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/trace"
)

// Checkpoint file format (documented in docs/CHECKPOINT.md). A checkpoint
// serialises one kernel CheckpointState — the committed below-GVT prefix of
// a run plus the frontier that regenerates the rest — using the same
// CRC-framed varint conventions as the replay log (wire.go):
//
//	frame := type:1 | payloadLen:uvarint | payload | crc32(payload):4 LE
//
// The header frame comes first and the end frame last; an optional trace
// frame (the commit recorder's digests, present when the writer has one)
// precedes the mandatory lps and frontier frames. DecodeCheckpoint is
// total: malformed input of any kind yields an error, never a panic or an
// outsized allocation, and anything accepted is canonical — re-encoding
// reproduces the accepted bytes (FuzzCheckpointCodec holds it to that).
//
// Publication is crash-atomic: the writer streams into a .tmp file, fsyncs,
// renames it to its final name, fsyncs the directory, and only then swaps
// the MANIFEST (itself written via the same tmp/rename dance) to point at
// the new file. A crash anywhere in the sequence leaves the previous
// MANIFEST naming the previous complete checkpoint; LoadCheckpoint follows
// the manifest only, so torn or unreferenced files are never loaded. The
// internal/crash kill points mark exactly these boundaries and the crash
// harness SIGKILLs a victim at each one.

const (
	ckptMagic   = "GTWC"
	ckptVersion = 1

	ckptFrameHeader   byte = 1
	ckptFrameTrace    byte = 2
	ckptFrameLPs      byte = 3
	ckptFrameFrontier byte = 4
	ckptFrameEnd      byte = 5

	manifestMagic   = "GTWM"
	manifestVersion = 1

	// ManifestName is the file in a checkpoint directory that names the
	// current complete checkpoint; its atomic replacement is the publication
	// point.
	ManifestName = "MANIFEST"
)

// ErrNoCheckpoint is returned by LoadCheckpoint when the directory holds no
// published checkpoint (no manifest). Distinct from corruption errors: "no
// checkpoint yet" means start from scratch, a corrupt checkpoint means the
// durability contract broke.
var ErrNoCheckpoint = errors.New("replay: no checkpoint in directory")

// CheckpointLP is one LP's serialized committed state: the model state
// bytes (via the model Codec's EncodeState), the RNG stream position and
// the send sequence.
type CheckpointLP struct {
	State   []byte
	RNG     [4]uint64
	Draws   uint64
	SendSeq uint64
}

// CheckpointEvent is one serialized frontier event, payload encoded via the
// model's payload Codec. Src is core.NoLP for bootstrap events.
type CheckpointEvent struct {
	T    core.Time
	Dst  core.LPID
	Src  core.LPID
	Seq  uint64
	Data []byte
}

// Checkpoint is one decoded checkpoint: everything a fresh build of the
// same Spec needs to continue the run from GVT, plus (when HasTrace) the
// commit recorder's digests at the cut so the resumed trace can be verified
// as an exact continuation. Frontier is sorted by the kernel's total event
// order, strictly increasing.
type Checkpoint struct {
	// Codec names the registered codec that serialized LP states and
	// frontier payloads; StateCodec is that codec's StateName.
	StateCodec string
	Codec      string
	GVT        core.Time
	// Committed is the number of events the checkpointed run had committed —
	// exactly the events below GVT.
	Committed int64
	NumLPs    int
	// HasTrace marks checkpoints taken with a commit recorder attached:
	// TraceLen/TraceHash/LPHashes are that recorder's digests of the
	// committed prefix, used to seed the resumed run's recorder.
	HasTrace  bool
	TraceLen  int
	TraceHash uint64
	LPHashes  []uint64
	LPs       []CheckpointLP
	Frontier  []CheckpointEvent
}

// ---- encoding ----

// Each frame encoder builds its payload in p (from length zero, keeping the
// capacity), appends the finished frame to dst and returns both, so a writer
// that keeps the two buffers re-encodes without allocating.

func appendCkptHeader(dst, p []byte, cp *Checkpoint) (out, scratch []byte) {
	p = append(p[:0], ckptMagic...)
	p = binary.AppendUvarint(p, ckptVersion)
	p = appendString(p, cp.StateCodec)
	p = appendString(p, cp.Codec)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(float64(cp.GVT)))
	p = binary.AppendUvarint(p, uint64(cp.Committed))
	p = binary.AppendUvarint(p, uint64(cp.NumLPs))
	return appendFrame(dst, ckptFrameHeader, p), p
}

func appendCkptTrace(dst, p []byte, cp *Checkpoint) (out, scratch []byte) {
	p = binary.AppendUvarint(p[:0], uint64(cp.TraceLen))
	p = binary.LittleEndian.AppendUint64(p, cp.TraceHash)
	p = binary.AppendUvarint(p, uint64(len(cp.LPHashes)))
	for _, h := range cp.LPHashes {
		p = binary.LittleEndian.AppendUint64(p, h)
	}
	return appendFrame(dst, ckptFrameTrace, p), p
}

func appendCkptLPs(dst, p []byte, cp *Checkpoint) (out, scratch []byte) {
	p = binary.AppendUvarint(p[:0], uint64(len(cp.LPs)))
	for _, lp := range cp.LPs {
		p = binary.AppendUvarint(p, uint64(len(lp.State)))
		p = append(p, lp.State...)
		for _, s := range lp.RNG {
			p = binary.AppendUvarint(p, s)
		}
		p = binary.AppendUvarint(p, lp.Draws)
		p = binary.AppendUvarint(p, lp.SendSeq)
	}
	return appendFrame(dst, ckptFrameLPs, p), p
}

func appendCkptFrontier(dst, p []byte, cp *Checkpoint) (out, scratch []byte) {
	p = binary.AppendUvarint(p[:0], uint64(len(cp.Frontier)))
	var prevBits uint64
	var prevDst int64
	for _, ev := range cp.Frontier {
		bits := math.Float64bits(float64(ev.T))
		p = binary.AppendVarint(p, int64(bits-prevBits))
		prevBits = bits
		p = binary.AppendVarint(p, int64(ev.Dst)-prevDst)
		prevDst = int64(ev.Dst)
		p = binary.AppendVarint(p, int64(ev.Src))
		p = binary.AppendUvarint(p, ev.Seq)
		p = binary.AppendUvarint(p, uint64(len(ev.Data)))
		p = append(p, ev.Data...)
	}
	return appendFrame(dst, ckptFrameFrontier, p), p
}

// EncodeCheckpoint serialises a checkpoint into the framed binary format.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	out, _ := appendCheckpoint(nil, nil, cp)
	return out
}

// appendCheckpoint is EncodeCheckpoint into caller-owned buffers: the
// encoding is appended to dst, and scratch holds one frame payload at a time.
func appendCheckpoint(dst, scratch []byte, cp *Checkpoint) (out, scratchOut []byte) {
	dst, scratch = appendCkptHeader(dst, scratch, cp)
	if cp.HasTrace {
		dst, scratch = appendCkptTrace(dst, scratch, cp)
	}
	dst, scratch = appendCkptLPs(dst, scratch, cp)
	dst, scratch = appendCkptFrontier(dst, scratch, cp)
	return appendFrame(dst, ckptFrameEnd, nil), scratch
}

// ---- decoding ----

func (cp *Checkpoint) decodeHeader(r *Reader) {
	r.prologue(ckptMagic, ckptVersion, "checkpoint")
	cp.StateCodec, cp.Codec, cp.GVT = r.Str(), r.Str(), r.Time()
	if cp.GVT < 0 {
		r.Fail("replay: checkpoint GVT is negative")
	}
	committed := r.Uvarint()
	if committed > math.MaxInt64 {
		r.Fail("replay: committed count out of range")
	}
	cp.Committed, cp.NumLPs = int64(committed), r.Int()
}

func (cp *Checkpoint) decodeTrace(r *Reader) {
	cp.HasTrace = true
	cp.TraceLen, cp.TraceHash = r.Int(), r.U64()
	n := r.Count(8)
	if n != cp.NumLPs {
		r.Fail("replay: trace frame has %d LP hashes, checkpoint has %d LPs", n, cp.NumLPs)
	}
	cp.LPHashes = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		cp.LPHashes = append(cp.LPHashes, r.U64())
	}
}

func (cp *Checkpoint) decodeLPs(r *Reader) {
	// state len + 4 rng components + draws + sendSeq ≥ 7 bytes per LP.
	n := r.Count(7)
	if n != cp.NumLPs {
		r.Fail("replay: lps frame has %d LPs, checkpoint header says %d", n, cp.NumLPs)
	}
	cp.LPs = make([]CheckpointLP, 0, n)
	for i := 0; i < n; i++ {
		lp := CheckpointLP{State: r.Bytes()}
		for j := range lp.RNG {
			lp.RNG[j] = r.Uvarint()
		}
		lp.Draws, lp.SendSeq = r.Uvarint(), r.Uvarint()
		cp.LPs = append(cp.LPs, lp)
	}
}

func (cp *Checkpoint) decodeFrontier(r *Reader) {
	// time delta + dst delta + src + seq + payload len ≥ 5 bytes per event.
	n := r.Count(5)
	if n > 0 {
		cp.Frontier = make([]CheckpointEvent, 0, n)
	}
	var prevBits uint64
	var prevDst int64
	for i := 0; i < n; i++ {
		prevBits += uint64(r.Varint())
		t := core.Time(r.float(prevBits))
		if t < cp.GVT {
			r.Fail("replay: frontier event %d at %v is below checkpoint GVT %v", i, t, cp.GVT)
		}
		prevDst += r.Varint()
		if prevDst < 0 || prevDst >= int64(cp.NumLPs) {
			r.Fail("replay: frontier event %d targets LP %d, checkpoint has %d", i, prevDst, cp.NumLPs)
		}
		src := r.Varint()
		if src < int64(core.NoLP) || src >= int64(cp.NumLPs) {
			r.Fail("replay: frontier event %d has source LP %d out of range", i, src)
		}
		ev := CheckpointEvent{T: t, Dst: core.LPID(prevDst), Src: core.LPID(src), Seq: r.Uvarint(), Data: r.Bytes()}
		if i > 0 && !beforeCkptEvent(cp.Frontier[i-1], ev) {
			r.Fail("replay: frontier events %d and %d out of order", i-1, i)
		}
		cp.Frontier = append(cp.Frontier, ev)
	}
}

// beforeCkptEvent is the kernel's total event order on serialized frontier
// events; the frontier must be strictly increasing under it.
func beforeCkptEvent(a, b CheckpointEvent) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// DecodeCheckpoint parses a framed checkpoint. It never panics: any
// malformed input returns an error.
func DecodeCheckpoint(buf []byte) (*Checkpoint, error) {
	c := NewReader(buf)
	cp := &Checkpoint{}
	c.section(ckptFrameHeader, "checkpoint header", cp.decodeHeader)
	if c.peek() == ckptFrameTrace {
		c.section(ckptFrameTrace, "checkpoint trace", cp.decodeTrace)
	}
	c.section(ckptFrameLPs, "checkpoint lps", cp.decodeLPs)
	c.section(ckptFrameFrontier, "checkpoint frontier", cp.decodeFrontier)
	c.section(ckptFrameEnd, "checkpoint end", func(*Reader) {})
	if err := c.Done("checkpoint after its end frame"); err != nil {
		return nil, err
	}
	return cp, nil
}

// ---- manifest ----

// EncodeManifest serialises a manifest naming the current checkpoint file
// and the CRC of its entire contents. The manifest is itself CRC-trailed,
// so a torn manifest write is detectable (though the tmp/rename publication
// should make one impossible).
func EncodeManifest(file string, sum uint32) []byte {
	p := []byte(manifestMagic)
	p = binary.AppendUvarint(p, manifestVersion)
	p = appendString(p, file)
	p = binary.LittleEndian.AppendUint32(p, sum)
	return binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(p))
}

type manifest struct {
	file string
	sum  uint32
}

func decodeManifest(buf []byte) (manifest, error) {
	var m manifest
	if len(buf) < 4 {
		return m, errTruncated
	}
	p, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(p) != NewReader(tail).u32() {
		return m, errors.New("replay: manifest CRC mismatch")
	}
	r := NewReader(p)
	r.prologue(manifestMagic, manifestVersion, "checkpoint manifest")
	m.file = r.Str()
	// The filename must stay inside the checkpoint directory: manifests come
	// from disk and must not be able to point a loader at an arbitrary path.
	if m.file == "" || m.file == "." || m.file == ".." || m.file != filepath.Base(m.file) {
		r.Fail("replay: manifest names invalid file %q", m.file)
	}
	m.sum = r.u32()
	return m, r.Done("manifest")
}

// ---- writer ----

// CheckpointWriter is a core.CheckpointSink that serialises each checkpoint
// the kernel hands it and publishes it crash-atomically into a directory.
// Only the manifest-named file is ever considered published; at most one
// previous checkpoint file is kept until the next publication completes.
//
// Checkpoint encodes the cut while the kernel's PEs stand still and hands
// the rest — framing, file write, fsyncs, renames, manifest swap — to one
// background goroutine. At most one publication is in flight: the next
// Checkpoint, and Flush, wait for it and return its error. A publication
// error is sticky; every later Checkpoint and Flush returns it.
type CheckpointWriter struct {
	dir   string
	codec Codec
	rec   *trace.Recorder

	// The publication state, owned by the in-flight publisher while there
	// is one and by the caller otherwise; wg's Wait hands it over.
	seq      int
	lastFile string
	pubErr   error
	wg       sync.WaitGroup

	// Encode buffers, reused from one publication to the next: each encode
	// worker appends its share of the LP states and frontier payloads back
	// to back into its own arena and cp's byte slices are cut out of it;
	// frame holds one frame payload at a time and file the finished
	// encoding.
	cp          Checkpoint
	arenas      [][]byte
	frame, file []byte
}

// NewCheckpointWriter builds a writer over dir (created if needed) that
// serializes through the codec registered as codecName, whose StateName
// must be stateCodecName. rec,
// when non-nil, must be the run's unbounded commit recorder: each
// checkpoint then carries the recorder's digests at the cut, which is what
// lets a resumed run's trace be verified as an exact continuation. Stale
// .tmp debris from a previously killed writer is removed; existing
// published checkpoints are left alone (file numbering continues past
// them), so resuming and re-checkpointing into the same directory works.
func NewCheckpointWriter(dir, stateCodecName, codecName string, rec *trace.Recorder) (*CheckpointWriter, error) {
	codec, err := CodecFor(codecName)
	if err != nil {
		return nil, err
	}
	if err := checkStateName(codec, stateCodecName); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &CheckpointWriter{dir: dir, codec: codec, rec: rec, seq: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Publication is rename-based, so a .tmp file is never the live
			// checkpoint — only debris from a killed writer.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, "checkpoint-%d.ckpt", &n); err == nil && n >= w.seq {
			w.seq = n + 1
		}
	}
	if mb, err := os.ReadFile(filepath.Join(dir, ManifestName)); err == nil {
		if m, err := decodeManifest(mb); err == nil {
			w.lastFile = m.file
		}
	}
	return w, nil
}

// Checkpoint implements core.CheckpointSink. It runs on PE 0 while the
// machine is quiescent, so reading the trace recorder here sees exactly the
// committed below-GVT prefix. It first waits for the previous publication
// and returns its error. It then encodes every LP state and frontier
// payload before returning, because cs aliases live state, and leaves the
// publication running in the background (see Flush).
func (w *CheckpointWriter) Checkpoint(cs *core.CheckpointState) error {
	if err := w.Flush(); err != nil {
		return err
	}
	cp := &w.cp
	*cp = Checkpoint{
		StateCodec: w.codec.StateName(),
		Codec:      w.codec.Name(),
		GVT:        cs.GVT,
		Committed:  cs.Committed,
		NumLPs:     len(cs.LPs),
		LPs:        slices.Grow(cp.LPs[:0], len(cs.LPs))[:len(cs.LPs)],
		Frontier:   slices.Grow(cp.Frontier[:0], len(cs.Frontier))[:len(cs.Frontier)],
	}
	if w.rec != nil {
		cp.HasTrace = true
		cp.TraceLen = w.rec.Len()
		cp.TraceHash = w.rec.Hash()
		cp.LPHashes = w.rec.LPHashes(len(cs.LPs))
	}
	if err := w.encode(cs); err != nil {
		return err
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.file, w.frame = appendCheckpoint(w.file[:0], w.frame, cp)
		w.pubErr = w.publish(w.file)
	}()
	return nil
}

// encode fills w.cp's LPs and Frontier from cs with one worker per
// processor (at most one per LP): the other PEs are parked at the release
// barrier, so their processors are idle. Worker k encodes the k-th share of
// the LP states and then of the frontier payloads into its own arena and
// writes each entry by index, so the bytes do not depend on the worker
// count. The error is the one a single pass in order would hit first.
func (w *CheckpointWriter) encode(cs *core.CheckpointState) error {
	workers := max(1, min(runtime.GOMAXPROCS(0), len(cs.LPs)))
	for len(w.arenas) < workers {
		w.arenas = append(w.arenas, nil)
	}
	// errs[k] is worker k's LP-share error, errs[workers+k] its frontier's.
	errs := make([]error, 2*workers)
	run := func(k int) {
		arena := w.arenas[k][:0]
		lo, hi := share(k, workers, len(cs.LPs))
		for i := lo; i < hi; i++ {
			lp := &cs.LPs[i]
			start := len(arena)
			var err error
			if arena, err = w.codec.EncodeState(arena, lp.State); err != nil {
				errs[k] = fmt.Errorf("replay: encoding LP %d state: %w", i, err)
				break
			}
			w.cp.LPs[i] = CheckpointLP{State: arena[start:len(arena):len(arena)], RNG: lp.RNG, Draws: lp.RNGDraws, SendSeq: lp.SendSeq}
		}
		lo, hi = share(k, workers, len(cs.Frontier))
		for i := lo; i < hi; i++ {
			ev := &cs.Frontier[i]
			start := len(arena)
			var err error
			if arena, err = w.codec.Encode(arena, ev.Data); err != nil {
				errs[workers+k] = fmt.Errorf("replay: encoding frontier payload for LP %d: %w", ev.Dst, err)
				break
			}
			w.cp.Frontier[i] = CheckpointEvent{T: ev.T, Dst: ev.Dst, Src: ev.Src, Seq: ev.Seq, Data: arena[start:len(arena):len(arena)]}
		}
		// Slices cut from the arena stay good when a later append moves it:
		// the array they point into is left as it was.
		w.arenas[k] = arena
	}
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(k)
		}()
	}
	run(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// share is worker k's half-open index range when n items are split into
// workers contiguous, near-equal parts.
func share(k, workers, n int) (lo, hi int) {
	return k * n / workers, (k + 1) * n / workers
}

// Flush waits for the in-flight publication, if any, and returns its error
// (or the first publication error this writer ever hit). core.Simulator.Run
// calls it once after its PEs have joined, so a nil error from Run means
// the last checkpoint is published.
func (w *CheckpointWriter) Flush() error {
	w.wg.Wait()
	return w.pubErr
}

// publish writes data crash-atomically: tmp file → fsync → rename → dir
// fsync → manifest via the same dance → delete the superseded file. It runs
// on the publisher goroutine Checkpoint starts. The
// crash kill points bracket each durability step; a SIGKILL at any of them
// must leave the directory loading to the previous complete checkpoint
// (or ErrNoCheckpoint before the first), which is exactly what the crash
// harness verifies.
func (w *CheckpointWriter) publish(data []byte) error {
	crash.Hit(crash.PointWriteStart)
	name := fmt.Sprintf("checkpoint-%06d.ckpt", w.seq)
	w.seq++
	path := filepath.Join(w.dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	half := len(data) / 2
	if _, err := f.Write(data[:half]); err != nil {
		f.Close()
		return err
	}
	crash.Hit(crash.PointMidFrame)
	if _, err := f.Write(data[half:]); err != nil {
		f.Close()
		return err
	}
	crash.Hit(crash.PointPreSync)
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	crash.Hit(crash.PointManifestSwap)
	mpath := filepath.Join(w.dir, ManifestName)
	mtmp := mpath + ".tmp"
	mf, err := os.OpenFile(mtmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := mf.Write(EncodeManifest(name, crc32.ChecksumIEEE(data))); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	if err := os.Rename(mtmp, mpath); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	if w.lastFile != "" && w.lastFile != name {
		os.Remove(filepath.Join(w.dir, w.lastFile)) // best-effort cleanup
	}
	w.lastFile = name
	return nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadCheckpoint loads the published checkpoint from dir: the manifest
// names the file, the manifest's CRC must match the file's contents, and
// the file must decode. An error that wraps ErrNoCheckpoint (and names
// dir) means no checkpoint was ever published; any other error means the
// directory is corrupt.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w %s", ErrNoCheckpoint, dir)
	}
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(mb)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, m.file))
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(data) != m.sum {
		return nil, fmt.Errorf("replay: checkpoint %s does not match manifest checksum", m.file)
	}
	return DecodeCheckpoint(data)
}

// ---- restore ----

// RestoreCheckpoint reinstates cp into a freshly built, not-yet-run
// simulator: model bootstrap is dropped, every LP's state (decoded in
// place through the checkpoint's codec), RNG stream and send sequence
// are reinstated, and the frontier is scheduled with original event
// identities so the kernel's total order continues exactly where the
// checkpointed run left it. rec, when non-nil, is the new run's empty
// commit recorder, seeded with the checkpoint's trace digests (an error if
// the checkpoint carries none). Resume is an optimistic-kernel feature:
// the sequential oracle re-runs from scratch instead, which is what makes
// it an oracle.
func RestoreCheckpoint(cp *Checkpoint, sim *core.Simulator, rec *trace.Recorder) error {
	codec, err := CodecFor(cp.Codec)
	if err != nil {
		return err
	}
	if err := checkStateName(codec, cp.StateCodec); err != nil {
		return err
	}
	if sim.NumLPs() != cp.NumLPs {
		return fmt.Errorf("replay: checkpoint has %d LPs, model has %d", cp.NumLPs, sim.NumLPs())
	}
	sim.DropBootstrap()
	for i, clp := range cp.LPs {
		lp := sim.LP(core.LPID(i))
		if err := codec.DecodeState(clp.State, lp.State); err != nil {
			return fmt.Errorf("replay: decoding LP %d state: %w", i, err)
		}
		if err := sim.RestoreLP(core.LPID(i), clp.RNG, clp.Draws, clp.SendSeq); err != nil {
			return fmt.Errorf("replay: restoring LP %d: %w", i, err)
		}
	}
	for i, ev := range cp.Frontier {
		data, err := codec.Decode(ev.Data)
		if err != nil {
			return fmt.Errorf("replay: decoding frontier event %d: %w", i, err)
		}
		sim.ScheduleRestored(ev.Dst, ev.T, ev.Src, ev.Seq, data)
	}
	if rec != nil {
		if !cp.HasTrace {
			return errors.New("replay: checkpoint carries no trace digests to seed the recorder")
		}
		rec.SeedPrefix(cp.TraceLen, cp.TraceHash, cp.LPHashes)
	}
	return nil
}

// checkStateName rejects a state codec name that is not codec's own: the
// pair is registered once, so a checkpoint naming any other pairing was
// written by something else.
func checkStateName(codec Codec, stateName string) error {
	if stateName != codec.StateName() {
		return fmt.Errorf("replay: state codec %q does not belong to codec %q (its state codec is %q)",
			stateName, codec.Name(), codec.StateName())
	}
	return nil
}
