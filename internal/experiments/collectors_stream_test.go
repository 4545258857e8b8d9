package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/obs"
	"lifeguard/internal/runner"
	"lifeguard/internal/topo"
)

// recordStreams builds the efficacy rig for one seed, poisons the first
// harvested victim, and renders every collector peer's full update stream
// as text — a stable fingerprint of what the collectors saw.
func recordStreams(seed int64) string {
	rig := buildEfficacyRig(seed, nil)
	n := rig.n
	if len(rig.victims) > 0 {
		a := rig.victims[0]
		n.Eng.Announce(n.Gen.Origin, rig.prod, bgp.OriginConfig{Pattern: topo.Path{n.Gen.Origin, a, n.Gen.Origin}})
		converge(n)
	}
	var sb strings.Builder
	for _, p := range rig.coll.Peers() {
		for _, e := range rig.coll.Updates(p, rig.prod) {
			fmt.Fprintf(&sb, "%d %v %v\n", p, e.At, e.Path)
		}
	}
	return sb.String()
}

// TestCollectorStreamsIdenticalAcrossParallelism asserts the collector
// view is deterministic under the runner pool: the recorded update
// streams — timestamps, paths, and ordering — are identical whether the
// trials run sequentially or on 8 workers. The streams feed every
// efficacy/convergence number, so this pins the whole measurement layer.
func TestCollectorStreamsIdenticalAcrossParallelism(t *testing.T) {
	const trials = 3
	record := func(par int) []string {
		t.Helper()
		outs, err := runner.Map(context.Background(), trials, runner.Config{Parallelism: par}, nil,
			func(_ context.Context, i int, _ *obs.Registry) (string, error) {
				return recordStreams(int64(i + 1)), nil
			})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		return outs
	}

	want := record(1)
	for i, s := range want {
		if s == "" {
			t.Fatalf("seed %d recorded no updates", i+1)
		}
	}
	got := record(8)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seed %d: collector streams differ between parallel 1 and 8", i+1)
		}
	}
}
