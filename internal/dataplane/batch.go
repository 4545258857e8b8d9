package dataplane

import "lifeguard/internal/topo"

// batchTally counts one ForwardBatch call's results by fate and by cache
// outcome, so the call pays one atomic add per counter instead of three per
// packet (which put instrumented traffic runs well over the 5 % obs
// contract).
type batchTally struct {
	byReason  [ForwardLoop + 1]int64
	byOutcome [walkMiss + 1]int64
}

func (t *batchTally) note(r *Result, how walkOutcome) {
	t.byReason[r.Reason]++
	t.byOutcome[how]++
}

// countBatch folds a call's tally into the plane's metric handles — the
// same totals len(pkts) Forward calls would have added.
func (pl *Plane) countBatch(t *batchTally) {
	var n int64
	for reason, c := range t.byReason {
		n += c
		if c > 0 && DropReason(reason) != Delivered {
			pl.obs.drops[reason].Add(c)
		}
	}
	pl.obs.forwarded.Add(n)
	for how, c := range t.byOutcome {
		if c > 0 {
			pl.obs.cacheOutcomes[how].Add(c)
		}
	}
}

// ForwardBatch injects every packet of pkts at router "from", in order, and
// returns one Result per packet, appended to res (pass nil or a recycled
// buffer; the returned slice is res resized). It is the amortized form of
// calling Forward once per packet, with a committed equivalence contract:
// the results, the obs counters, and the plane's per-packet sequence
// numbering are byte-identical to len(pkts) single Forward calls.
//
// Every packet goes through the same cached walk as Forward. What the batch
// adds is that a packet repeating its predecessor's header — all packets of
// one flow, which is how the traffic engine fills a batch — reuses the
// predecessor's Result without a cache lookup, and that the counters are
// added once per call. With a fractional-DropProb rule installed the cache
// stands down and so does the shortcut: every packet walks individually,
// preserving per-packet loss.
func (pl *Plane) ForwardBatch(from topo.RouterID, pkts []Packet, res []Result) []Result {
	if res == nil {
		res = make([]Result, 0, len(pkts))
	}
	var (
		tally  batchTally
		prev   Packet
		last   Result
		repeat bool // last came through the cache, so it answers prev's header again
	)
	for _, pkt := range pkts {
		if repeat && pkt == prev {
			// What a lookup would have found: a hit, with the sequence
			// number advanced as a walk would have (probabilistic verdicts
			// installed later must stay aligned with single-packet
			// execution).
			pl.seq++
			tally.note(&last, walkHit)
			res = append(res, last)
			continue
		}
		var how walkOutcome
		last, how = pl.walk(from, pkt)
		prev, repeat = pkt, how != walkBypass
		tally.note(&last, how)
		res = append(res, last)
	}
	pl.countBatch(&tally)
	return res
}
