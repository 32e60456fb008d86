package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ldprecover/internal/detect"
	"ldprecover/internal/stream"
)

// Snapshot wire format (little endian):
//
//	"LDPS" magic, uint16 version,
//	uint64 WAL position (last LSN whose record the state reflects),
//	the ManagerState fields in declaration order — ints as uint64,
//	floats as IEEE-754 bits, slices as uint32 length + elements —
//	and a trailing uint32 CRC-32C over everything before it.
//
// Floats are stored as raw bits because the whole point of the snapshot
// is bit-identical serving after a restart; a decimal round trip would
// be exact too (Go guarantees it) but bits make the intent unmissable.
// Snapshots are written to snap-<seq>.snap via temp file + rename, so a
// crash mid-write leaves the previous snapshot untouched and the loader
// simply picks the newest file that decodes and checksums clean.
const (
	snapVersion = 1

	snapPrefix = "snap-"
	snapSuffix = ".snap"

	// snapMaxLen bounds any single length field so a corrupt header
	// cannot drive a huge allocation before the CRC check runs.
	snapMaxLen = 1 << 28
)

var snapMagic = [4]byte{'L', 'D', 'P', 'S'}

// snapChunk caps the writer's buffer: a snapshot streams to disk
// through one reused chunk of at most this size instead of being built
// whole in memory first (at d=65536 with a 16-epoch ring the file is
// ~17 MB, and the manager's epochs are shared, not copied, by
// SnapshotState).
const snapChunk = 256 << 10

// writeSnapshotTo streams a manager state and its WAL position to w in
// the v1 format, updating the CRC-32C as each chunk goes out. The
// buffer is sized to the whole snapshot when that fits in one chunk, so
// a small snapshot — CRC trailer included — is exactly one Write call.
func writeSnapshotTo(w io.Writer, walSeq uint64, st stream.ManagerState) error {
	sw := &snapWriter{w: w, buf: make([]byte, 0, min(snapshotSize(st), snapChunk))}
	sw.put(snapMagic[:])
	sw.u16(snapVersion)
	sw.u64(walSeq)
	sw.u64(uint64(st.Seq))
	sw.u64(uint64(st.Sealed))
	sw.u32(uint32(len(st.Ring)))
	for _, ep := range st.Ring {
		sw.u64(uint64(ep.Seq))
		sw.u64(uint64(ep.Total))
		sw.int64s(ep.Counts)
	}
	sw.int64s(st.WinCounts)
	sw.u64(uint64(st.WinTotal))
	sw.u32(uint32(st.WinEpochs))
	sw.u32(uint32(len(st.History)))
	for _, row := range st.History {
		sw.floats(row)
	}
	sw.ints(st.Tracker.Last)
	sw.u32(uint32(st.Tracker.Streak))
	sw.ints(st.Tracker.Stable)
	return sw.finish()
}

// snapshotSize is the encoded length of st, CRC trailer included.
func snapshotSize(st stream.ManagerState) int {
	size := 4 + 2 + 8 + 8 + 8 + 4 + // magic, version, walSeq, Seq, Sealed, ring length
		4 + 8 + 4 + // window counts length, WinTotal, WinEpochs
		4 + // history length
		4 + 4 + 4 + // tracker Last length, Streak, Stable length
		4 // CRC
	size += (4 + 8 + 8) * len(st.Ring)
	for _, ep := range st.Ring {
		size += 8 * len(ep.Counts)
	}
	size += 8 * len(st.WinCounts)
	for _, row := range st.History {
		size += 4 + 8*len(row)
	}
	size += 8 * (len(st.Tracker.Last) + len(st.Tracker.Stable))
	return size
}

// snapWriter is the little-endian chunked encoder behind
// writeSnapshotTo. Every chunk but the last goes out full, so a field
// may straddle two chunks. The first write error sticks: later fields
// are skipped and finish returns it.
type snapWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error
}

func (sw *snapWriter) flush() {
	if sw.err == nil {
		sw.crc = crc32.Update(sw.crc, crcTable, sw.buf)
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
}

// put appends b, flushing whenever the chunk fills.
func (sw *snapWriter) put(b []byte) {
	for len(b) > 0 && sw.err == nil {
		if len(sw.buf) == cap(sw.buf) {
			sw.flush()
		}
		n := copy(sw.buf[len(sw.buf):cap(sw.buf)], b)
		sw.buf = sw.buf[:len(sw.buf)+n]
		b = b[n:]
	}
}

func (sw *snapWriter) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	sw.put(b[:])
}

func (sw *snapWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	sw.put(b[:])
}

func (sw *snapWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	sw.put(b[:])
}

// fit returns how many of the n words still to write fit whole in the
// chunk's free space. At 0 the caller writes the next word through u64,
// which splits it across the flush.
func (sw *snapWriter) fit(n int) int {
	return min(n, (cap(sw.buf)-len(sw.buf))/8)
}

// int64s and floats write a uint32 length, then the elements as 64-bit
// words appended in place in runs between flushes.
func (sw *snapWriter) int64s(vs []int64) {
	sw.u32(uint32(len(vs)))
	for len(vs) > 0 && sw.err == nil {
		n := sw.fit(len(vs))
		if n == 0 {
			sw.u64(uint64(vs[0]))
			vs = vs[1:]
			continue
		}
		for _, v := range vs[:n] {
			sw.buf = binary.LittleEndian.AppendUint64(sw.buf, uint64(v))
		}
		vs = vs[n:]
	}
}

// ints writes the tracker's short item lists word by word.
func (sw *snapWriter) ints(vs []int) {
	sw.u32(uint32(len(vs)))
	for _, v := range vs {
		sw.u64(uint64(int64(v)))
	}
}

func (sw *snapWriter) floats(vs []float64) {
	sw.u32(uint32(len(vs)))
	for len(vs) > 0 && sw.err == nil {
		n := sw.fit(len(vs))
		if n == 0 {
			sw.u64(math.Float64bits(vs[0]))
			vs = vs[1:]
			continue
		}
		for _, f := range vs[:n] {
			sw.buf = binary.LittleEndian.AppendUint64(sw.buf, math.Float64bits(f))
		}
		vs = vs[n:]
	}
}

// finish appends the CRC-32C of everything before it and flushes the
// last chunk.
func (sw *snapWriter) finish() error {
	sw.u32(crc32.Update(sw.crc, crcTable, sw.buf))
	if sw.err == nil {
		sw.flush()
	}
	return sw.err
}

// snapReader is a bounds-checked little-endian cursor.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

func (r *snapReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) length() int {
	n := r.u32()
	if r.err == nil && (n > snapMaxLen || int64(n)*8 > int64(len(r.data)-r.off)) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *snapReader) int64s() []int64 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.u64())
	}
	return out
}

func (r *snapReader) ints() []int {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(r.u64()))
	}
	return out
}

func (r *snapReader) floats() []float64 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(r.u64())
	}
	return out
}

func (r *snapReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("persist: snapshot truncated at byte %d", r.off)
	}
}

// decodeSnapshot parses and checksums a snapshot file's contents.
func decodeSnapshot(data []byte) (walSeq uint64, st stream.ManagerState, err error) {
	if len(data) < 4+2+4 || string(data[:4]) != string(snapMagic[:]) {
		return 0, st, fmt.Errorf("persist: not a snapshot (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return 0, st, fmt.Errorf("persist: snapshot checksum mismatch")
	}
	r := &snapReader{data: body, off: 4}
	if v := r.u16(); v != snapVersion {
		return 0, st, fmt.Errorf("persist: unsupported snapshot version %d", v)
	}
	walSeq = r.u64()
	st.Seq = int(int64(r.u64()))
	st.Sealed = int64(r.u64())
	ringLen := r.length()
	if r.err == nil {
		st.Ring = make([]stream.Epoch, ringLen)
		for i := range st.Ring {
			st.Ring[i].Seq = int(int64(r.u64()))
			st.Ring[i].Total = int64(r.u64())
			st.Ring[i].Counts = r.int64s()
		}
	}
	st.WinCounts = r.int64s()
	st.WinTotal = int64(r.u64())
	st.WinEpochs = int(int32(r.u32()))
	histLen := r.length()
	if r.err == nil && histLen > 0 {
		st.History = make([][]float64, histLen)
		for i := range st.History {
			st.History[i] = r.floats()
		}
	}
	st.Tracker = detect.TrackerState{Last: r.ints()}
	st.Tracker.Streak = int(int32(r.u32()))
	st.Tracker.Stable = r.ints()
	if r.err != nil {
		return 0, stream.ManagerState{}, r.err
	}
	if r.off != len(body) {
		return 0, stream.ManagerState{}, fmt.Errorf("persist: %d trailing snapshot bytes", len(body)-r.off)
	}
	return walSeq, st, nil
}

// WriteSnapshot atomically persists a snapshot named after the state's
// seal count and returns its path.
func WriteSnapshot(dir string, walSeq uint64, st stream.ManagerState) (string, error) {
	return writeSnapshotFile(dir, walSeq, st, nil)
}

// writeSnapshotFile is WriteSnapshot with an optional wrap around the
// temp file's writer, the seam write-failure tests inject faults at.
func writeSnapshotFile(dir string, walSeq uint64, st stream.ManagerState, wrap func(io.Writer) io.Writer) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, st.Seq, snapSuffix))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	var w io.Writer = f
	if wrap != nil {
		w = wrap(f)
	}
	err = writeSnapshotTo(w, walSeq, st)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, syncDir(dir)
}

// snapFile is one snapshot file, identified by its seal count.
type snapFile struct {
	seq  uint64
	path string
}

// listSnapshots returns the snapshot files in dir, newest first. It
// only reads: a standby lists the directory its root is writing, so
// temp files are skipped here and swept by the writer's pruneSnapshots.
func listSnapshots(dir string) ([]snapFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapPrefix) {
			continue
		}
		if !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
		if err != nil {
			continue // not ours; leave it alone
		}
		snaps = append(snaps, snapFile{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	return snaps, nil
}

// LoadLatestSnapshot returns the newest snapshot in dir that decodes and
// checksums clean, skipping (but keeping) invalid newer ones. found is
// false when no valid snapshot exists.
func LoadLatestSnapshot(dir string) (walSeq uint64, st stream.ManagerState, found bool, err error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, st, false, err
	}
	for _, sf := range snaps {
		data, err := os.ReadFile(sf.path)
		if err != nil {
			return 0, st, false, err
		}
		walSeq, st, err = decodeSnapshot(data)
		if err == nil {
			return walSeq, st, true, nil
		}
	}
	return 0, stream.ManagerState{}, false, nil
}

// snapMeta is a retained snapshot's identity: its seal count and the WAL
// position it covers. The Store tracks these so WAL truncation can stop
// at the *oldest* retained snapshot — keeping every record a fallback
// restore would need should the newest snapshot be damaged after the
// fact.
type snapMeta struct {
	seq    int
	walSeq uint64
}

// validSnapshots decodes every snapshot file in dir and returns the ones
// that checksum clean, oldest first. Boot-time only: retention keeps the
// file count tiny.
func validSnapshots(dir string) ([]snapMeta, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	var metas []snapMeta
	for i := len(snaps) - 1; i >= 0; i-- { // listSnapshots is newest first
		data, err := os.ReadFile(snaps[i].path)
		if err != nil {
			return nil, err
		}
		//ldplint:allow failstop a corrupt snapshot candidate is skipped by design; the next-older file is the fallback
		walSeq, st, err := decodeSnapshot(data)
		if err != nil {
			continue
		}
		metas = append(metas, snapMeta{seq: st.Seq, walSeq: walSeq})
	}
	return metas, nil
}

// pruneSnapshots deletes all but the newest keep snapshot files, and
// the temp files interrupted writes left behind. Only the directory's
// writer calls it, after its own write has renamed, so no temp file it
// removes is one still being written.
func pruneSnapshots(dir string, keep int) error {
	temps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix+".tmp"))
	if err != nil {
		return err
	}
	for _, tmp := range temps {
		if err := os.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, sf := range snaps[min(keep, len(snaps)):] {
		if err := os.Remove(sf.path); err != nil {
			return err
		}
	}
	return nil
}
