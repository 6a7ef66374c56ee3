package core

import (
	"fmt"

	"specinterference/internal/isa"
	"specinterference/internal/stats"
)

// Figure7Result holds the interference-contention histogram data of
// Figure 7: the interference target's execution time with and without the
// gadget running.
type Figure7Result struct {
	// Baseline and Interference are per-trial target latencies: cycles
	// from the first f(z) instruction issuing to load A completing.
	Baseline     []float64
	Interference []float64
	// BaseHist and IntHist share one geometry for overlap computation.
	BaseHist, IntHist *stats.Histogram
	// Separation is the difference of the arm means.
	Separation float64
	// Overlap is the overlap coefficient of the two histograms (Figure 7
	// shows clearly separated distributions, i.e. a small overlap).
	Overlap float64
}

// Figure7Shards returns the Figure 7 shard count for a per-arm trial
// count: one shard per (secret, trial) pair. The §4.2.1 contention
// histogram runs `trials` GDNPEU sender trials per arm, the baseline arm
// with secret 0 (gadget inert) and the interference arm with secret 1.
func Figure7Shards(trials int) (int, error) {
	if trials < 1 {
		return 0, fmt.Errorf("core: need at least one trial")
	}
	return 2 * trials, nil
}

// Figure7Shard runs shard j of a Figure 7 measurement. Shard j covers
// secret j/trials, trial j%trials — the flattening keeps baseline shards
// in [0, trials) and interference in [trials, 2*trials) — at seed
// seedBase + 2*trial + secret, the exact sequence the original serial
// loop produced. It is a pure function of its arguments, which is what
// lets shards run on any backend (goroutine or subprocess) in any order.
//
//speclint:allocfree
func Figure7Shard(trials, jitter int, seedBase uint64, j int) (float64, error) {
	secret, i := j/trials, j%trials
	ts := AcquireTrialState()
	defer ReleaseTrialState(ts)
	return measureTargetLatency(ts, secret, jitter, seedBase+uint64(2*i+secret))
}

// BuildFigure7Result assembles the Figure 7 histogram result from the two
// arms' per-trial latencies, in serial-loop order. The slices are taken as
// given; callers splitting one shard slice pass the baseline arm with a
// full slice expression so the arms cannot alias.
func BuildFigure7Result(baseline, interference []float64) *Figure7Result {
	res := &Figure7Result{Baseline: baseline, Interference: interference}
	lo, hi := rangeOf(append(append([]float64{}, res.Baseline...), res.Interference...))
	res.BaseHist = stats.NewHistogram(lo, hi, 30)
	res.IntHist = stats.NewHistogram(lo, hi, 30)
	res.BaseHist.AddAll(res.Baseline)
	res.IntHist.AddAll(res.Interference)
	res.Separation = stats.Summarize(res.Interference).Mean - stats.Summarize(res.Baseline).Mean
	res.Overlap = stats.Overlap(res.BaseHist, res.IntHist)
	return res
}

// measureTargetLatency runs one traced GDNPEU trial on ts (the latency
// scalars are extracted before ts is reused) and returns the target
// latency: first f-chain sqrt issue to load A completion.
//
//speclint:allocfree
func measureTargetLatency(ts *TrialState, secret, jitter int, seed uint64) (float64, error) {
	r, err := ts.Run(TrialSpec{
		Gadget: GadgetNPEU, Ordering: OrderVDVD,
		Policy: nil, // measured on the baseline machine, like the PoC
		Secret: secret, Jitter: jitter, Seed: seed, Trace: true,
	})
	if err != nil {
		return 0, err
	}
	var fIssue, aComplete int64 = -1, -1
	for _, rec := range r.Records {
		if rec.Squashed {
			continue
		}
		if rec.Inst.Op == isa.Sqrt && (fIssue < 0 || rec.Issue < fIssue) {
			fIssue = rec.Issue
		}
		if rec.PC == r.Victim.APC {
			aComplete = rec.Complete
		}
	}
	if fIssue < 0 || aComplete < 0 {
		return 0, fmt.Errorf("core: trace missing f-chain or load A (secret=%d)", secret)
	}
	return float64(aComplete - fIssue), nil
}

func rangeOf(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo - 5, hi + 5
}
