package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"ldprecover/internal/ldp"
	"ldprecover/internal/persist"
	"ldprecover/internal/stream"
)

// A workload pre-builds its inputs from the seed, launches its servers,
// drives one timed phase, and replays the inputs in process.
type workload struct {
	build  func(seed uint64) (*inputs, error)
	launch func(e *env) ([]*server, error)
	drive  func(ss []*server, in *inputs, seconds time.Duration, tr *tracer) (*driveOut, error)
	// partials: the inputs are partial-tally frames, not report batches.
	partials bool
	// perFrame is the reports one ingest request carries (report lanes).
	perFrame int
	// traceEpochs bounds the traced replay's durable (WAL + snapshot)
	// epochs; the reference replay always covers every sealed epoch.
	traceEpochs int
	// quality is the epoch range [from, to) recovered_mse and target_fg
	// average over: at full attack strength, after LDPRecover* engaged.
	quality [2]int
}

// Workload parameters; perfbench/WORKLOADS.md records why each was
// chosen.
const (
	frameReports = 256 // reports per POST /v1/reports body on report-ingest
	ingestConns  = 2   // closed-loop senders, one connection each

	ingestD        = 128
	ingestPerEpoch = 100 // batches between seals
	ingestEpochs   = 4000
	ingestWarm     = 30 // untimed epochs before the timed phase

	clusterD        = 1 << 16
	clusterPerEpoch = 20 // partials between frontend seals
	clusterPool     = 64 // distinct partials per attack strength
	clusterUsers    = 100_000
	clusterEpochs   = 400
	clusterWarm     = 10 // untimed epochs before the timed phase
	// clusterEpochsPerSecond sizes partial-cluster's fixed amount of
	// work from --seconds: 160 epochs at 40 s, 30-45 s of serving on a
	// 2-vCPU host. Every run then takes the same number of samples, so
	// each percentile is the same order statistic on every run.
	clusterEpochsPerSecond = 4
	clusterQualityTo       = 170 // end of the quality epochs: warm-up plus 160

	epsilon = 0.5
)

var workloads = map[string]workload{
	"report-ingest": {
		build: func(seed uint64) (*inputs, error) {
			proto, err := ldp.NewOUE(ingestD, epsilon)
			if err != nil {
				return nil, err
			}
			return buildReportInputs(seed, proto, attackPlan{beta: 0.05, targets: 10, start: 8, ramp: 3},
				frameReports, 2048, 64, ingestPerEpoch, ingestEpochs)
		},
		launch: func(e *env) ([]*server, error) {
			dir, err := e.scratch("node")
			if err != nil {
				return nil, err
			}
			s, err := launchNode(e.bin, []string{"-protocol", "oue", "-d", fmt.Sprint(ingestD),
				"-epsilon", fmt.Sprint(epsilon), "-epoch", "0", "-data-dir", dir, "-ingesters", "2", "-fsync-every", "1"})
			if err != nil {
				return nil, err
			}
			return []*server{s}, nil
		},
		drive: func(ss []*server, in *inputs, seconds time.Duration, tr *tracer) (*driveOut, error) {
			return driveIngest(ss[0], in, ingestWarm, seconds, tr)
		},
		perFrame:    frameReports,
		traceEpochs: 60,
		quality:     [2]int{20, 300},
	},
	"partial-cluster": {
		build: func(seed uint64) (*inputs, error) {
			proto, err := ldp.NewOUE(clusterD, epsilon)
			if err != nil {
				return nil, err
			}
			return buildPartialInputs(seed, proto, attackPlan{beta: 0.05, targets: 10, start: 6, ramp: 2},
				clusterUsers, clusterPerEpoch, clusterPool, clusterEpochs)
		},
		launch: func(e *env) ([]*server, error) {
			rdir, err := e.scratch("root")
			if err != nil {
				return nil, err
			}
			fdir, err := e.scratch("frontend")
			if err != nil {
				return nil, err
			}
			common := []string{"-protocol", "oue", "-d", fmt.Sprint(clusterD), "-epsilon", fmt.Sprint(epsilon)}
			root, err := launchNode(e.bin, append([]string{"-role", "root", "-nodes", "fe-0", "-data-dir", rdir}, common...))
			if err != nil {
				return nil, err
			}
			fe, err := launchNode(e.bin, append([]string{"-role", "frontend", "-node-id", "fe-0",
				"-root-addr", root.url(), "-epoch", "0", "-data-dir", fdir}, common...))
			if err != nil {
				root.kill()
				return nil, err
			}
			return []*server{root, fe}, nil
		},
		drive: func(ss []*server, in *inputs, seconds time.Duration, tr *tracer) (*driveOut, error) {
			epochs := int(seconds/time.Second) * clusterEpochsPerSecond
			if tr == nil {
				// At least the epochs the quality metrics read.
				epochs = max(epochs, clusterQualityTo-clusterWarm)
			}
			return driveCluster(ss[0], ss[1], in, clusterWarm, epochs, tr)
		},
		partials:    true,
		traceEpochs: 40,
		quality:     [2]int{14, clusterQualityTo},
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// phase is one timed phase's observations and the generator's cost.
type phase struct {
	out     *driveOut
	setupS  float64
	rssMB   float64
	genCPUS float64
}

// runPhase launches the servers (setupReps times when timed), drives
// the timed phase, reads peak RSS, and stops the servers.
func (w workload) runPhase(e *env, in *inputs, tr *tracer) (*phase, error) {
	launch := func() ([]*server, error) { return w.launch(e) }
	var ss []*server
	var setup []float64
	var err error
	if tr == nil {
		if setup, err = timeStartups(launch, setupReps/2-1); err != nil {
			return nil, err
		}
		var t float64
		ss, t, err = launchTimed(launch)
		setup = append(setup, t)
	} else {
		ss, err = launch()
	}
	if err != nil {
		return nil, err
	}
	stop := func() {
		for _, s := range ss {
			s.kill()
		}
	}
	defer stop()
	g0, err := procCPU("self")
	if err != nil {
		return nil, err
	}
	gcs, restoreGC := pauseGC()
	seconds := e.seconds
	if tr != nil {
		// The traced phase only feeds per-layer medians.
		seconds = max(seconds/tracedShare, time.Second)
	}
	out, err := w.drive(ss, in, seconds, tr)
	restoreGC()
	if err != nil {
		return nil, err
	}
	g1, err := procCPU("self")
	if err != nil {
		return nil, err
	}
	fmt.Printf("#   generator garbage collections while driving: %d\n", gcs())
	rss, err := serversHWM(ss)
	if err != nil {
		return nil, err
	}
	if err := printResources(ss); err != nil {
		return nil, err
	}
	if out.exhausted {
		fmt.Fprintf(os.Stderr, "perfbench: pre-built inputs ran out after %d epochs, before the %s deadline\n",
			len(out.served), seconds)
	}
	p := &phase{out: out, rssMB: rss, genCPUS: g1 - g0}
	if tr == nil {
		stop()
		after, err := timeStartups(launch, setupReps/2)
		if err != nil {
			return nil, err
		}
		p.setupS = median(append(setup, after...))
	}
	return p, nil
}

// pauseGC stops the generator's own garbage collection while it drives
// the servers, so that it does not take CPU from them at random times:
// the heap may grow by gcHeadroom before a collection runs. It returns
// a count of the collections since, and a function that restores the
// collector.
func pauseGC() (count func() uint32, restore func()) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pct := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(int64(ms.HeapAlloc) + gcHeadroom)
	count = func() uint32 {
		var now runtime.MemStats
		runtime.ReadMemStats(&now)
		return now.NumGC - ms.NumGC
	}
	return count, func() {
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(limit)
	}
}

// tracedShare is the traced phase's length as a share of --seconds.
const tracedShare = 4

// gcHeadroom is how far the generator's heap may grow while it drives.
const gcHeadroom = 256 << 20

// reference replays the first epochs sealed epochs in process, with no
// tracing, through a single-node manager configured like the serving
// node (the cluster's root: a single node fed the same inputs).
func (w workload) reference(in *inputs, epochs int) (*expected, error) {
	r, err := newReplay(in, 0, nil, "")
	if err != nil {
		return nil, err
	}
	for e := 0; e < epochs; e++ {
		if err := w.feed(r, in.epochs[e]); err != nil {
			return nil, err
		}
		if _, err := r.seal(); err != nil {
			return nil, err
		}
	}
	return &r.exp, nil
}

// feed replays one epoch's ingest requests.
func (w workload) feed(r *replay, ep epochInput) error {
	for _, f := range ep.frames {
		var err error
		if w.partials {
			err = r.ingestPartial(f)
		} else {
			err = r.ingestFrame(f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// check holds a phase's served outputs to the reference: every report
// folded, every sealed epoch's estimate and every read bit-identical.
func check(out *driveOut, ref *expected) error {
	if out.ingested != out.sent {
		return fmt.Errorf("%w: ingested_total %d, reports sent %d", errIncorrect, out.ingested, out.sent)
	}
	if len(out.served) > len(ref.sealed) {
		return fmt.Errorf("%w: served %d epochs, replay has %d", errIncorrect, len(out.served), len(ref.sealed))
	}
	for e, d := range out.served {
		if d != ref.sealed[e] {
			return fmt.Errorf("%w: epoch %d's served estimate differs from the in-process replay", errIncorrect, e)
		}
	}
	if err := out.reads.check(ref); err != nil {
		return fmt.Errorf("%w: %v", errIncorrect, err)
	}
	return nil
}

// run executes the workload: the timed phase for end-to-end metrics,
// plus, when traced, a traced phase and a traced in-process replay for
// per-layer metrics.
func (w workload) run(e *env, traced bool) (*result, error) {
	in, err := w.build(e.seed)
	if err != nil {
		return nil, fmt.Errorf("building inputs: %w", err)
	}
	p, err := w.runPhase(e, in, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	res.Attempted, res.Failed = p.out.led.counts()
	var pt *phase
	var tr *tracer
	if traced {
		tr = newTracer()
		if pt, err = w.runPhase(e, in, tr); err != nil {
			return nil, err
		}
		a, f := pt.out.led.counts()
		res.Attempted += a
		res.Failed += f
	}
	epochs := len(p.out.served)
	if pt != nil {
		epochs = max(epochs, len(pt.out.served))
	}
	ref, err := w.reference(in, epochs)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	if err := check(p.out, ref); err != nil {
		return res, err
	}
	e2e, err := w.endToEnd(p, ref)
	if err != nil {
		return nil, err
	}
	printReport(p, e2e)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	if err := check(pt.out, ref); err != nil {
		return res, err
	}
	snapBytes, err := w.tracedReplay(e, in, min(len(pt.out.served), w.traceEpochs), tr, ref)
	if err != nil {
		return res, err
	}
	res.Metrics = w.perLayer(p, pt, tr, snapBytes)
	printMetrics("per-layer metrics (traced run)", res.Metrics)
	tr.printSummary(os.Stdout, "traced HTTP phase and in-process replay")
	path, err := writeTrace(e, tr)
	if err != nil {
		return res, err
	}
	fmt.Printf("# spans written to %s\n", path)
	return res, nil
}

// tracedReplay replays the traced phase's epochs in process with spans
// around every layer call, durable layers included, and checks the
// result against the reference. The cluster replays the frontend and
// the root separately. It returns the size of the last snapshot written.
func (w workload) tracedReplay(e *env, in *inputs, epochs int, tr *tracer, ref *expected) (int64, error) {
	fdir, err := e.scratch("replay")
	if err != nil {
		return 0, err
	}
	targetK := 0
	if w.partials {
		targetK = -1 // the frontend delegates detection to the root
	}
	r, err := newReplay(in, targetK, tr, fdir)
	if err != nil {
		return 0, err
	}
	defer r.close()
	var root *rootReplay
	if w.partials {
		rdir, err := e.scratch("replay-root")
		if err != nil {
			return 0, err
		}
		if root, err = newRootReplay(in, tr, rdir); err != nil {
			return 0, err
		}
		defer root.close()
	}
	for ep := 0; ep < epochs; ep++ {
		if err := w.feed(r, in.epochs[ep]); err != nil {
			return 0, err
		}
		est, err := r.seal()
		if err != nil {
			return 0, err
		}
		if root != nil {
			eps := r.mgr.Epochs()
			last := eps[len(eps)-1]
			if est, err = root.merge(&ldp.Tally{NodeID: "fe-0", Epoch: last.Seq, Counts: last.Counts, Total: last.Total}); err != nil {
				return 0, err
			}
		}
		d := estimateDigest(est.Seq, est.Poisoned, est.Recovered, est.Targets, est.PartialKnowledge)
		if d != ref.sealed[ep] {
			return 0, fmt.Errorf("%w: traced replay of epoch %d differs from the reference replay", errIncorrect, ep)
		}
	}
	fi, err := os.Stat(r.lastSnap)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// rootReplay is the cluster root in process: a SealedMerger over the
// frontend's tallies with the root's snapshot store.
type rootReplay struct {
	tr    *tracer
	sm    *stream.SealedMerger
	snaps *persist.SnapshotStore
	hist  [][]float64
}

func newRootReplay(in *inputs, tr *tracer, dir string) (*rootReplay, error) {
	mgr, err := stream.NewEpochManager(serverConfig(in.proto.Params(), 0))
	if err != nil {
		return nil, err
	}
	snaps, err := persist.OpenSnapshotStore(dir, mgr, 0)
	if err != nil {
		return nil, err
	}
	sm, err := stream.NewSealedMerger(mgr, []string{"fe-0"})
	if err != nil {
		return nil, err
	}
	return &rootReplay{tr: tr, sm: sm, snaps: snaps}, nil
}

func (r *rootReplay) close() error { return r.snaps.Close() }

// merge replays POST /v1/tally on the root: the tally travels through
// its codec (the frontend's push encodes, the root decodes), merges on
// arrival, completes the barrier, and the merged seal is snapshotted.
func (r *rootReplay) merge(t *ldp.Tally) (*stream.WindowEstimate, error) {
	root := r.tr.begin("replay.root_merge", 0)
	var got *ldp.Tally
	if err := r.tr.timed("ldp.tally_codec", root, func() error {
		frame, err := ldp.MarshalTally(t)
		if err != nil {
			return err
		}
		got, err = ldp.UnmarshalTally(frame)
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.tr.timed("stream.merge_sealed", root, func() error {
		res, err := r.sm.MergeSealed(got)
		if err == nil && !res.Ready {
			err = fmt.Errorf("replay: tally for epoch %d did not complete the barrier", t.Epoch)
		}
		return err
	}); err != nil {
		return nil, err
	}
	sealID := r.tr.begin("stream.try_seal", root)
	est, _, err := r.sm.TrySeal()
	r.tr.finish(sealID)
	if err == nil && est == nil {
		err = fmt.Errorf("replay: root did not seal epoch %d", t.Epoch)
	}
	if err != nil {
		return nil, err
	}
	if err := r.tr.timed("persist.snapshot_persist", root, r.snaps.Persist); err != nil {
		return nil, err
	}
	r.tr.finish(root)
	mgr := r.sm.Manager()
	if err := shadowRecovery(r.tr, mgr, r.hist, sealID, est); err != nil {
		return nil, err
	}
	r.hist = slices.Clone(mgr.SnapshotState().History)
	return est, nil
}
