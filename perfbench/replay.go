package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"ldprecover"
	"ldprecover/internal/core"
	"ldprecover/internal/detect"
	"ldprecover/internal/ldp"
	"ldprecover/internal/persist"
	"ldprecover/internal/stream"
)

// readWindow is the k of the benchmark's GET /v1/estimate?window=k.
const readWindow = 2

// serverConfig is the stream configuration `ldprecover serve` builds
// from its default flags (-window 4 -history 16 -targets 0 -minz 3
// -stable 3), with targetK -1 on a frontend.
func serverConfig(pr ldp.Params, targetK int) stream.Config {
	return stream.Config{
		Params:      pr,
		Window:      4,
		History:     16,
		Eta:         ldprecover.DefaultEta,
		TargetK:     targetK,
		MinZ:        3,
		StableAfter: 3,
	}
}

// expected is the reference every served estimate is held to: per
// sealed epoch, the digest of the seal's window estimate and of the
// ?window=readWindow estimate right after it, and the quality metrics
// of the recovered estimate against the genuine window histogram.
type expected struct {
	sealed []uint64
	window []uint64
	mse    []float64
	fg     []float64
}

// replay is the in-process reference: the same per-epoch inputs fed
// through the layers' public functions in the order the server calls
// them. With a tracer, each call is a span, and the durable layers (WAL
// append, snapshot) run too; without, only the manager runs.
type replay struct {
	mgr *stream.EpochManager
	tr  *tracer
	in  *inputs
	exp expected

	// Durable layers, set while tracing.
	wal      *persist.WAL
	snapDir  string
	lastSnap string
	prevHist [][]float64
}

func newReplay(in *inputs, targetK int, tr *tracer, dir string) (*replay, error) {
	mgr, err := stream.NewEpochManager(serverConfig(in.proto.Params(), targetK))
	if err != nil {
		return nil, err
	}
	r := &replay{mgr: mgr, tr: tr, in: in}
	if tr != nil {
		r.snapDir = filepath.Join(dir, "snap")
		if err := os.MkdirAll(r.snapDir, 0o755); err != nil {
			return nil, err
		}
		if r.wal, err = persist.OpenWAL(filepath.Join(dir, "wal"), persist.WALOptions{SyncEvery: 1}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replay) close() error {
	if r.wal != nil {
		return r.wal.Close()
	}
	return nil
}

// ingestFrame replays POST /v1/reports: validate (the handler), then WAL
// append and fold (the ingest worker, via Store.AppendBatchFrame).
func (r *replay) ingestFrame(frame []byte) error {
	root := r.tr.begin("replay.ingest", 0)
	defer r.tr.finish(root)
	var n int
	if err := r.tr.timed("ldp.validate", root, func() (err error) {
		n, err = ldp.ValidateReportBatchFrame(frame)
		return err
	}); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("replay: empty frame")
	}
	if r.wal != nil {
		if err := r.tr.timed("persist.wal_append", root, func() error {
			_, err := r.wal.Append(frame)
			return err
		}); err != nil {
			return err
		}
	}
	return r.tr.timed("ldp.fold", root, func() error { return r.mgr.AddBatchFrame(frame) })
}

// ingestPartial replays POST /v1/partial: decode, WAL append, fold.
func (r *replay) ingestPartial(frame []byte) error {
	root := r.tr.begin("replay.partial", 0)
	defer r.tr.finish(root)
	var p *ldp.PartialTally
	if err := r.tr.timed("ldp.unmarshal_partial", root, func() (err error) {
		p, err = ldp.UnmarshalPartial(frame)
		return err
	}); err != nil {
		return err
	}
	if r.wal != nil {
		if err := r.tr.timed("persist.wal_append", root, func() error {
			_, err := r.wal.Append(frame)
			return err
		}); err != nil {
			return err
		}
	}
	return r.tr.timed("stream.add_partial", root, func() error { return r.mgr.AddPartial(p) })
}

// seal replays a seal as persist.Store.Seal runs it — EpochManager.Seal,
// WAL sync, SnapshotState, WriteSnapshot, WAL truncation — and records
// the reference digests. With a tracer it also re-runs the calls Seal
// makes internally (detect's z-score, core.Recover) with the same
// inputs, as spans caused by the seal, and times the ?window=k read.
func (r *replay) seal() (*stream.WindowEstimate, error) {
	root := r.tr.begin("replay.seal", 0)
	var est *stream.WindowEstimate
	sealID := r.tr.begin("stream.seal", root)
	est, err := r.mgr.Seal()
	r.tr.finish(sealID)
	if err != nil {
		return nil, err
	}
	if r.wal != nil {
		walSeq := r.wal.LastLSN()
		if err := r.tr.timed("persist.wal_sync", root, r.wal.Sync); err != nil {
			return nil, err
		}
		var st stream.ManagerState
		_ = r.tr.timed("stream.snapshot_state", root, func() error { st = r.mgr.SnapshotState(); return nil })
		var path string
		if err := r.tr.timed("persist.snapshot_write", root, func() (err error) {
			path, err = persist.WriteSnapshot(r.snapDir, walSeq, st)
			return err
		}); err != nil {
			return nil, err
		}
		if err := r.tr.timed("persist.wal_truncate", root, func() error { return r.wal.TruncateThrough(walSeq) }); err != nil {
			return nil, err
		}
		r.tr.finish(root)
		if r.lastSnap != "" && r.lastSnap != path {
			if err := os.Remove(r.lastSnap); err != nil {
				return nil, err
			}
		}
		r.lastSnap = path
		if err := shadowRecovery(r.tr, r.mgr, r.prevHist, sealID, est); err != nil {
			return nil, err
		}
		r.prevHist = st.History
	} else {
		r.tr.finish(root)
	}
	return est, r.note(est)
}

// shadowRecovery re-runs the detection and recovery calls a seal made
// inside EpochManager.Seal, on the same inputs (the history as it stood
// before the seal), as spans caused by the seal span, and checks that
// recovery reproduces the sealed estimate bit for bit.
func shadowRecovery(tr *tracer, mgr *stream.EpochManager, prevHist [][]float64, parent int, est *stream.WindowEstimate) error {
	if est.Poisoned == nil {
		return nil
	}
	cfg := mgr.Config()
	if cfg.TargetK > 0 && len(prevHist) >= cfg.MinHistory {
		pq := cfg.Params.P - cfg.Params.Q
		minSD := math.Sqrt(cfg.Params.Q*(1-cfg.Params.Q)/float64(est.Total)) / pq
		if err := tr.timed("detect.zscore", parent, func() error {
			_, err := detect.ZScoreOutliersMinSD(prevHist, est.Poisoned, cfg.TargetK, cfg.MinZ, minSD)
			return err
		}); err != nil {
			return err
		}
	}
	var rec *core.Result
	pr := core.Params{P: cfg.Params.P, Q: cfg.Params.Q, Domain: cfg.Params.Domain}
	if err := tr.timed("core.recover", parent, func() (err error) {
		rec, err = core.Recover(est.Poisoned, pr, core.Options{Eta: cfg.Eta, Targets: est.Targets})
		return err
	}); err != nil {
		return err
	}
	if !slices.Equal(rec.Frequencies, est.Recovered) {
		return fmt.Errorf("replay: core.Recover does not reproduce epoch %d's recovered estimate", est.Seq)
	}
	return nil
}

// note records the reference digests and quality metrics of a seal.
func (r *replay) note(est *stream.WindowEstimate) error {
	var win *stream.WindowEstimate
	if err := r.tr.timed("stream.estimate_window", 0, func() (err error) {
		win, err = r.mgr.EstimateWindow(readWindow)
		return err
	}); err != nil {
		return err
	}
	r.exp.sealed = append(r.exp.sealed, estimateDigest(est.Seq, est.Poisoned, est.Recovered, est.Targets, est.PartialKnowledge))
	r.exp.window = append(r.exp.window, estimateDigest(win.Seq, win.Poisoned, win.Recovered, win.Targets, win.PartialKnowledge))
	mse, fg, err := quality(r.in, est)
	if err != nil {
		return err
	}
	r.exp.mse = append(r.exp.mse, mse)
	r.exp.fg = append(r.exp.fg, fg)
	return nil
}

// quality scores a recovered window estimate against the genuine
// histogram of the same window's epochs: MSE and the frequency gain
// left on the MGA targets.
func quality(in *inputs, est *stream.WindowEstimate) (mse, fg float64, err error) {
	d := in.proto.Params().Domain
	counts := make([]float64, d)
	var users int64
	for e := est.Seq - est.Epochs + 1; e <= est.Seq; e++ {
		ep := in.epochs[e]
		for _, truth := range ep.truths {
			for v, c := range truth {
				counts[v] += float64(c)
			}
		}
		users += ep.users
	}
	for v := range counts {
		counts[v] /= float64(users)
	}
	if mse, err = ldprecover.MSE(est.Recovered, counts); err != nil {
		return 0, 0, err
	}
	fg, err = ldprecover.FrequencyGain(est.Recovered, counts, in.targets)
	return mse, fg, err
}
