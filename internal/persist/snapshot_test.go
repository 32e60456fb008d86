package persist

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ldprecover/internal/detect"
	"ldprecover/internal/ldp"
	"ldprecover/internal/stream"
)

// snapshotBytes encodes a snapshot into memory through the same
// streaming writer WriteSnapshot uses.
func snapshotBytes(t testing.TB, walSeq uint64, st stream.ManagerState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSnapshotTo(&buf, walSeq, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type goldenSnapshot struct {
	walSeq uint64
	st     stream.ManagerState
}

// goldenSnapshotStates returns the fixed states behind the committed v1
// snapshot files, which were written by the original whole-buffer
// encoder. The large one's vectors straddle the writer's chunk
// boundaries mid-element (the first in the second ring epoch, the
// second in the history row) and its history carries raw-bit float edge
// cases; the cold one has an empty ring and no history. The slices have
// the shapes decodeSnapshot produces, so a decoded golden compares with
// reflect.DeepEqual.
func goldenSnapshotStates() map[string]goldenSnapshot {
	const d = 17000
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	counts := func() []int64 {
		out := make([]int64, d)
		for v := range out {
			out[v] = int64(next()) >> 20
		}
		return out
	}
	ring := []stream.Epoch{
		{Seq: 38, Total: 61_000_123, Counts: counts()},
		{Seq: 39, Total: 60_999_877, Counts: counts()},
	}
	row := make([]float64, d)
	for v := range row {
		row[v] = float64(int64(next())>>11) / (1 << 40)
	}
	row[0] = math.Copysign(0, -1)
	row[1] = math.Inf(1)
	row[2] = math.Inf(-1)
	row[3] = math.SmallestNonzeroFloat64
	row[4] = -math.MaxFloat64
	return map[string]goldenSnapshot{
		"snapshot-v1.golden": {walSeq: 0x0102030405060708, st: stream.ManagerState{
			Seq:       40,
			Sealed:    2_440_000_000,
			Ring:      ring,
			WinCounts: counts(),
			WinTotal:  121_999_999,
			WinEpochs: 2,
			History:   [][]float64{row},
			Tracker:   detect.TrackerState{Last: []int{3, 9, d - 1}, Streak: 2, Stable: []int{3, 9}},
		}},
		"snapshot-v1-empty.golden": {walSeq: 0, st: stream.ManagerState{
			Ring:      []stream.Epoch{},
			WinCounts: make([]int64, 8),
			Tracker:   detect.TrackerState{Last: []int{}, Stable: []int{}},
		}},
	}
}

// TestSnapshotGoldenV1 pins the on-disk format: the streaming writer
// must reproduce the committed files byte for byte, through
// WriteSnapshot's real file path, and the decoder must load them back
// into the states they were written from.
func TestSnapshotGoldenV1(t *testing.T) {
	for name, g := range goldenSnapshotStates() {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotSize(g.st); got != len(want) {
				t.Fatalf("snapshotSize %d, golden file is %d bytes", got, len(want))
			}
			if got := snapshotBytes(t, g.walSeq, g.st); !bytes.Equal(got, want) {
				t.Fatalf("encoding diverged from the golden file at byte %d", firstDiff(got, want))
			}
			path, err := WriteSnapshot(t.TempDir(), g.walSeq, g.st)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("written file diverged from the golden file (err %v, first diff at byte %d)",
					err, firstDiff(got, want))
			}
			walSeq, st, err := decodeSnapshot(want)
			if err != nil {
				t.Fatal(err)
			}
			if walSeq != g.walSeq || !reflect.DeepEqual(st, g.st) {
				t.Fatalf("golden decoded to walSeq %#x and a different state", walSeq)
			}
		})
	}
	// The large golden must actually exercise the chunk boundaries.
	if n := len(snapshotBytes(t, 0, goldenSnapshotStates()["snapshot-v1.golden"].st)); n <= 2*snapChunk {
		t.Fatalf("large golden is %d bytes, want more than two %d-byte chunks", n, snapChunk)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// recordingWriter records the size of every Write call and fails the
// failAt-th one (counting from 0; negative never fails).
type recordingWriter struct {
	w      io.Writer
	failAt int
	sizes  []int
}

var errInjected = errors.New("injected write failure")

func (rw *recordingWriter) Write(p []byte) (int, error) {
	rw.sizes = append(rw.sizes, len(p))
	if len(rw.sizes)-1 == rw.failAt {
		return 0, errInjected
	}
	return rw.w.Write(p)
}

// TestSnapshotWriteChunking pins the writer's I/O shape: a snapshot
// that fits in one chunk is a single Write, CRC trailer included, and a
// larger one goes out in full chunks plus a remainder.
func TestSnapshotWriteChunking(t *testing.T) {
	small := testManagerState(t)
	rw := &recordingWriter{w: io.Discard, failAt: -1}
	if err := writeSnapshotTo(rw, 1, small); err != nil {
		t.Fatal(err)
	}
	if want := []int{snapshotSize(small)}; !reflect.DeepEqual(rw.sizes, want) {
		t.Fatalf("small snapshot written as %v, want one write %v", rw.sizes, want)
	}

	large := goldenSnapshotStates()["snapshot-v1.golden"].st
	rw = &recordingWriter{w: io.Discard, failAt: -1}
	if err := writeSnapshotTo(rw, 1, large); err != nil {
		t.Fatal(err)
	}
	size := snapshotSize(large)
	var want []int
	for left := size; left > 0; left -= snapChunk {
		want = append(want, min(left, snapChunk))
	}
	if !reflect.DeepEqual(rw.sizes, want) {
		t.Fatalf("large snapshot (%d bytes) written as %v, want %v", size, rw.sizes, want)
	}
}

// TestSnapshotWriteFailure fails the temp file's writer at every chunk
// in turn: WriteSnapshot must return the error, stop writing, leave no
// temp file behind, and the previous snapshot must still load.
func TestSnapshotWriteFailure(t *testing.T) {
	dir := t.TempDir()
	g := goldenSnapshotStates()["snapshot-v1.golden"]
	prev := g.st
	prev.Seq--
	if _, err := WriteSnapshot(dir, 7, prev); err != nil {
		t.Fatal(err)
	}
	chunks := (snapshotSize(g.st) + snapChunk - 1) / snapChunk
	for k := 0; k < chunks; k++ {
		var rw *recordingWriter
		_, err := writeSnapshotFile(dir, g.walSeq, g.st, func(w io.Writer) io.Writer {
			rw = &recordingWriter{w: w, failAt: k}
			return rw
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("chunk %d: WriteSnapshot returned %v, want the write error", k, err)
		}
		if len(rw.sizes) != k+1 {
			t.Fatalf("chunk %d: %d writes attempted, want none after the failure", k, len(rw.sizes))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || strings.HasSuffix(entries[0].Name(), ".tmp") {
			t.Fatalf("chunk %d: directory holds %v, want only the previous snapshot", k, entries)
		}
		walSeq, st, found, err := LoadLatestSnapshot(dir)
		if err != nil || !found || walSeq != 7 || !reflect.DeepEqual(st, prev) {
			t.Fatalf("chunk %d: previous snapshot did not load (found=%v walSeq=%d err=%v)", k, found, walSeq, err)
		}
	}
}

// TestSnapshotLoadDuringWrite is the shared-directory case: a standby
// loads snapshots from the directory its root writes to. A load that
// lands mid-write must leave the writer's temp file alone, so the write
// still renames into place; the writer's own prune sweeps temp files.
func TestSnapshotLoadDuringWrite(t *testing.T) {
	dir := t.TempDir()
	st := testManagerState(t)
	if _, err := WriteSnapshot(dir, 1, st); err != nil {
		t.Fatal(err)
	}
	next := st
	next.Seq++
	path, err := writeSnapshotFile(dir, 2, next, func(w io.Writer) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			if _, _, found, err := LoadLatestSnapshot(dir); err != nil || !found {
				t.Errorf("load during write: found=%v err=%v", found, err)
			}
			return w.Write(p)
		})
	})
	if err != nil {
		t.Fatalf("write with a concurrent load: %v", err)
	}
	if walSeq, got, _, err := LoadLatestSnapshot(dir); err != nil || walSeq != 2 || got.Seq != next.Seq {
		t.Fatalf("newest snapshot walSeq=%d seq=%d err=%v, want %d/%d", walSeq, got.Seq, err, 2, next.Seq)
	}

	stale := filepath.Join(dir, snapPrefix+"00000000000000000099"+snapSuffix+".tmp")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadLatestSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("a load removed a temp file: %v", err)
	}
	if err := pruneSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("prune left the temp file behind: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestSnapshotStateConcurrentWrite encodes shared-state snapshots while
// other goroutines ingest, seal and query windows. Under -race this pins
// the sharing contract — sealed epochs and history rows are never
// written after the seal that publishes them — and every snapshot must
// be internally consistent: its window sums equal the sum of the
// window's ring epochs, and it restores into a fresh manager.
func TestSnapshotStateConcurrentWrite(t *testing.T) {
	const d = 64
	proto, err := ldp.NewOUE(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{Params: proto.Params(), Window: 2, History: 4, StableAfter: 2, MinHistory: 2}
	m, err := stream.NewEpochManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, d)
	for v := range counts {
		counts[v] = int64(100 + v)
	}
	if err := m.AddCounts(counts, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 3)
	loop := func(f func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f(); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(3)
	go loop(func() error { return m.AddCounts(counts, 1000) })
	go loop(func() error { _, err := m.Seal(); return err })
	go loop(func() error { _, err := m.EstimateWindow(2); return err })

	dir := t.TempDir()
	for i := 0; i < 40; i++ {
		st := m.SnapshotState()
		if _, err := WriteSnapshot(dir, uint64(i), st); err != nil {
			t.Fatal(err)
		}
		_, got, found, err := LoadLatestSnapshot(dir)
		if err != nil || !found {
			t.Fatalf("snapshot %d: found=%v err=%v", i, found, err)
		}
		win := make([]int64, d)
		for _, ep := range got.Ring[len(got.Ring)-got.WinEpochs:] {
			for v, c := range ep.Counts {
				win[v] += c
			}
		}
		if !reflect.DeepEqual(win, got.WinCounts) {
			t.Fatalf("snapshot %d: window sums disagree with the ring's window epochs", i)
		}
		fresh, err := stream.NewEpochManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreState(got); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if err := pruneSnapshots(dir, 1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
