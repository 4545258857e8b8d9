package dataplane

import (
	"net/netip"

	"lifeguard/internal/topo"
)

// batchKey identifies the full input of one forwarding walk injected at a
// fixed router, when no probabilistic rule is installed: the walk is then a
// pure function of (from, Dst, Src, TTL) — Dst drives every LPM lookup and
// intra-AS path, Src and Dst drive rule matching, TTL bounds the walk — so
// two packets with equal keys meet byte-identical fates.
type batchKey struct {
	dst, src netip.Addr
	ttl      int
}

// batchState is the per-Plane scratch ForwardBatch reuses across calls so a
// steady state of large batches allocates nothing per packet.
type batchState struct {
	memo map[batchKey]int // packet key -> index of the first result
}

// hasProbRules reports whether any installed rule carries a fractional
// DropProb. Probabilistic verdicts hash the per-packet sequence number, so
// identical packets may meet different fates and the batch memo must stand
// down.
func (pl *Plane) hasProbRules() bool {
	for i := range pl.failures {
		if p := pl.failures[i].rule.DropProb; p > 0 && p < 1 {
			return true
		}
	}
	return false
}

// batchTally counts one ForwardBatch call's results by fate, so the call
// pays one atomic add per counter instead of two per packet (which put
// instrumented traffic runs well over the 5 % obs contract).
type batchTally [ForwardLoop + 1]int64

// countBatch folds a call's tally into the plane's metric handles — the
// same totals len(pkts) Forward calls would have added.
func (pl *Plane) countBatch(t *batchTally) {
	var n int64
	for reason, c := range t {
		n += c
		if c > 0 && DropReason(reason) != Delivered {
			pl.obs.drops[reason].Add(c)
		}
	}
	pl.obs.forwarded.Add(n)
}

// ForwardBatch injects every packet of pkts at router "from", in order, and
// returns one Result per packet, appended to res (pass nil or a recycled
// buffer; the returned slice is res resized). It is the amortized form of
// calling Forward once per packet, with a committed equivalence contract:
// the results, the obs counters, and the plane's per-packet sequence
// numbering are byte-identical to len(pkts) single Forward calls.
//
// The amortization: within one call the RIB and the failure table cannot
// change (the simulation core is single-goroutine), so when no
// probabilistic rule is installed a walk is a pure function of the packet
// header. Repeated packets — all packets of one flow, and every flow
// sharing a (source, destination) pair — skip the LPM lookups, intra-AS
// BFS paths, and per-router rule matching entirely and reuse the first
// walk's Result. With a fractional-DropProb rule installed the memo stands
// down and every packet walks individually, preserving per-packet loss.
//
// Aliasing contract (mirrors intraPath): results of identical packets
// within one batch share one Hops backing array, and no result's Hops may
// be mutated by the caller. ForwardBatch itself only ever reads the memoed
// slices, so the contract holds under the race detector.
func (pl *Plane) ForwardBatch(from topo.RouterID, pkts []Packet, res []Result) []Result {
	if res == nil {
		res = make([]Result, 0, len(pkts))
	}

	var tally batchTally
	if pl.hasProbRules() {
		// Per-packet fates: no memo, just the plain loop.
		for _, pkt := range pkts {
			r := pl.forward(from, pkt)
			tally[r.Reason]++
			res = append(res, r)
		}
		pl.countBatch(&tally)
		return res
	}

	if pl.batch.memo == nil {
		pl.batch.memo = make(map[batchKey]int, 64)
	}
	memo := pl.batch.memo
	clear(memo)
	for _, pkt := range pkts {
		key := batchKey{dst: pkt.Dst, src: pkt.Src, ttl: pkt.TTL}
		if i, ok := memo[key]; ok {
			// The walk already ran this batch: advance the per-packet
			// sequence number exactly as forward would have (verdict
			// hashes must stay aligned with the single-packet execution)
			// and reuse the Result, Hops backing shared.
			pl.seq++
			r := res[i]
			res = append(res, r)
			tally[r.Reason]++
			continue
		}
		r := pl.forward(from, pkt)
		memo[key] = len(res)
		res = append(res, r)
		tally[r.Reason]++
	}
	pl.countBatch(&tally)
	return res
}
