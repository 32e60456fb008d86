package main

import (
	"ldprecover/internal/attack"
	"ldprecover/internal/dataset"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// attackPlan is the MGA ramp of experiment.RunStream: clean epochs
// before start, a linear ramp to the full malicious fraction over ramp
// epochs, then the full fraction held.
type attackPlan struct {
	beta    float64 // steady-state malicious fraction m/(n+m)
	targets int     // MGA target count r
	start   int     // first attacked epoch
	ramp    int     // epochs to reach beta
}

// fixedTargets is the MGA target set: r items evenly spaced over the
// Zipf ranks of a domain of size d. The set is part of the workload,
// not of the seed, so that the gain left on it is comparable across
// seeds.
func fixedTargets(d, r int) []int {
	t := make([]int, r)
	for i := range t {
		t[i] = (i + 1) * d / (r + 1)
	}
	return t
}

// betaAt is the malicious fraction scheduled for epoch e.
func (a attackPlan) betaAt(e int) float64 {
	if e < a.start {
		return 0
	}
	if step := e - a.start + 1; step < a.ramp {
		return a.beta * float64(step) / float64(a.ramp)
	}
	return a.beta
}

// epochInput is one epoch's pre-built inputs, in send order.
type epochInput struct {
	frames  [][]byte  // request bodies, shared with the pools
	reports int64     // reports (or users, for partials) the frames carry
	truths  [][]int64 // true per-item counts of each frame's genuine users, shared with the pools
	users   int64     // genuine users
}

// inputs is a workload's whole pre-built input set: every epoch the run
// can reach, the attacker's targets, and the protocol the frames use.
type inputs struct {
	proto   ldp.Protocol
	targets []int
	epochs  []epochInput
}

// population returns the genuine item distribution: Zipf(1.1) over d.
func population(d int) ([]float64, error) {
	ds, err := dataset.Zipf("zipf", d, 1_000_000, 1.1)
	if err != nil {
		return nil, err
	}
	return ds.Frequencies(), nil
}

// buildReportInputs pre-builds report-batch frames: a pool of genuine
// frames of frameReports Zipf users each, a pool of MGA frames, and for
// each of maxEpochs epochs a seeded pick of perEpoch frames of which
// round(perEpoch*beta_e) are malicious, shuffled.
func buildReportInputs(seed uint64, proto ldp.Protocol, plan attackPlan,
	frameReports, genuinePool, malPool, perEpoch, maxEpochs int) (*inputs, error) {
	d := proto.Params().Domain
	r := rng.New(seed)
	targets := fixedTargets(d, plan.targets)
	mga, err := attack.NewMGA(targets)
	if err != nil {
		return nil, err
	}
	dist, err := population(d)
	if err != nil {
		return nil, err
	}
	var scratch ldp.PerturbScratch
	gFrames := make([][]byte, genuinePool)
	gCounts := make([][]int64, genuinePool)
	for i := range gFrames {
		counts := r.Multinomial(int64(frameReports), dist)
		reps, err := ldp.PerturbAllInto(proto, r, counts, &scratch)
		if err != nil {
			return nil, err
		}
		r.Shuffle(len(reps), func(a, b int) { reps[a], reps[b] = reps[b], reps[a] })
		if gFrames[i], err = ldp.MarshalReportBatch(reps); err != nil {
			return nil, err
		}
		gCounts[i] = counts
	}
	mFrames := make([][]byte, malPool)
	for i := range mFrames {
		reps, err := mga.CraftReports(r, proto, int64(frameReports))
		if err != nil {
			return nil, err
		}
		if mFrames[i], err = ldp.MarshalReportBatch(reps); err != nil {
			return nil, err
		}
	}
	in := &inputs{proto: proto, targets: targets, epochs: make([]epochInput, maxEpochs)}
	for e := range in.epochs {
		mal := int(float64(perEpoch)*plan.betaAt(e) + 0.5)
		var ep epochInput
		for i := 0; i < perEpoch; i++ {
			if i < mal {
				ep.frames = append(ep.frames, mFrames[r.Intn(malPool)])
				continue
			}
			g := r.Intn(genuinePool)
			ep.frames = append(ep.frames, gFrames[g])
			ep.truths = append(ep.truths, gCounts[g])
			ep.users += int64(frameReports)
		}
		r.Shuffle(len(ep.frames), func(a, b int) { ep.frames[a], ep.frames[b] = ep.frames[b], ep.frames[a] })
		ep.reports = int64(perEpoch * frameReports)
		in.epochs[e] = ep
	}
	return in, nil
}

// buildPartialInputs pre-builds edge-collector partial frames: each
// summarizes usersPer genuine users (count-level BatchSimulate over a
// multinomial draw of the population) plus the MGA users of its epoch's
// attack strength (CraftCounts), flushed through a Collector. Each
// attack strength has a pool of at most pool frames, built as epochs
// first need them and then drawn at random; each epoch sends perEpoch
// of them. Every frame carries the epoch hint of the schedule's last
// epoch: the hint is advisory, and a hint at or ahead of the sealed
// watermark folds into the open epoch, so one frame stays valid for the
// whole run.
func buildPartialInputs(seed uint64, proto ldp.Protocol, plan attackPlan,
	usersPer int64, perEpoch, pool, maxEpochs int) (*inputs, error) {
	d := proto.Params().Domain
	r := rng.New(seed)
	targets := fixedTargets(d, plan.targets)
	mga, err := attack.NewMGA(targets)
	if err != nil {
		return nil, err
	}
	dist, err := population(d)
	if err != nil {
		return nil, err
	}
	type partial struct {
		frame []byte
		users int64
		truth []int64
	}
	pools := map[float64][]partial{}
	build := func(beta float64) (partial, error) {
		truth := r.Multinomial(usersPer, dist)
		counts, err := ldp.BatchSimulate(proto, r, truth, 1)
		if err != nil {
			return partial{}, err
		}
		col, err := ldp.NewCollector("edge", d)
		if err != nil {
			return partial{}, err
		}
		if err := col.AddCounts(counts, usersPer); err != nil {
			return partial{}, err
		}
		users := usersPer
		if m := maliciousCount(usersPer, beta); m > 0 {
			mal, err := mga.CraftCounts(r, proto, m)
			if err != nil {
				return partial{}, err
			}
			if err := col.AddCounts(mal, m); err != nil {
				return partial{}, err
			}
			users += m
		}
		frame, err := col.Flush(maxEpochs - 1)
		return partial{frame: frame, users: users, truth: truth}, err
	}
	in := &inputs{proto: proto, targets: targets, epochs: make([]epochInput, maxEpochs)}
	for e := range in.epochs {
		var ep epochInput
		beta := plan.betaAt(e)
		for j := 0; j < perEpoch; j++ {
			var p partial
			if ps := pools[beta]; len(ps) < pool {
				if p, err = build(beta); err != nil {
					return nil, err
				}
				pools[beta] = append(ps, p)
			} else {
				p = ps[r.Intn(pool)]
			}
			ep.frames = append(ep.frames, p.frame)
			ep.reports += p.users
			ep.truths = append(ep.truths, p.truth)
			ep.users += usersPer
		}
		in.epochs[e] = ep
	}
	return in, nil
}

// maliciousCount is how many malicious users make fraction beta of
// n genuine plus them, as in experiment.RunStream.
func maliciousCount(n int64, beta float64) int64 {
	if beta <= 0 {
		return 0
	}
	return int64(float64(n)*beta/(1-beta) + 0.5)
}
