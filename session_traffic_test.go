package lifeguard_test

import (
	"strings"
	"testing"

	"lifeguard"
	"lifeguard/internal/obs"
)

// TestSessionAttachTraffic wires a flow population to a tenant session and
// checks the whole surface: config defaulting from the session's monitored
// targets, tenant-scoped metrics, journal records, and user-seconds-lost
// accounting reacting to a reverse-path fault on the shared plane.
func TestSessionAttachTraffic(t *testing.T) {
	n, err := lifeguard.GenerateInternet(
		lifeguard.InternetConfig{Seed: 5, NumTransit: 10, NumStub: 20},
		lifeguard.NetworkOptions{
			BGP:     fastBGP(),
			Obs:     obs.New(),
			Journal: obs.NewJournal(1 << 14),
		})
	if err != nil {
		t.Fatal(err)
	}
	origin := n.Gen.Stubs[0]
	targets := []lifeguard.Addr{
		n.RouterAddr(n.Hub(n.Gen.Stubs[5])),
		n.RouterAddr(n.Hub(n.Gen.Stubs[6])),
	}
	_, s := soloRig(t, n, lifeguard.SessionConfig{Config: lifeguard.Config{
		Origin:  origin,
		VPs:     []lifeguard.RouterID{n.Hub(origin)},
		Targets: targets,
	}})

	gen, err := s.AttachTraffic(lifeguard.TrafficConfig{Seed: 9, Flows: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if s.Traffic != gen {
		t.Fatal("AttachTraffic did not keep the generator on the session")
	}
	if gen.Flows() != 5000 {
		t.Fatalf("population is %d flows, want 5000", gen.Flows())
	}

	epoch := func() lifeguard.TrafficEpochReport {
		n.Clk.RunFor(gen.Epoch())
		return gen.RunEpoch()
	}
	clean := epoch()
	if clean.Lost != 0 || clean.Availability() != 1 {
		t.Fatalf("healthy network lost %d flows", clean.Lost)
	}

	// A transit on the users' path to the origin silently drops everything
	// toward the origin's block: the defaulted population (users behind
	// the monitored targets, destination the production prefix) must
	// bleed user-seconds.
	rev := n.Eng.ASPathTo(n.Gen.Stubs[5], lifeguard.ProductionAddr(origin))
	if len(rev) < 2 {
		t.Fatalf("no transit path from vantage to origin: %v", rev)
	}
	fid := n.InjectFailure(lifeguard.BlackholeASTowards(rev[0], lifeguard.Block(origin)))
	broken := epoch()
	if broken.Lost == 0 || broken.UserSecondsLost == 0 {
		t.Fatalf("fault cost nothing: %+v", broken)
	}
	n.HealFailure(fid)
	healed := epoch()
	if healed.Lost != 0 {
		t.Fatalf("healed network still lost %d flows", healed.Lost)
	}

	// Tenant scoping: the metrics live in the session's obs partition
	// under its tenant label.
	snap := snapshotBytes(t, s)
	if !strings.Contains(snap, "lifeguard_traffic_flow_epochs_served_total") {
		t.Fatalf("session obs partition missing traffic counters:\n%s", snap)
	}
	if !strings.Contains(snap, s.Tenant()) {
		t.Fatalf("traffic metrics not scoped to tenant %q", s.Tenant())
	}

	// Journal surface: one attach record (tenant-tagged) and one epoch
	// record per closed epoch.
	attach, epochs := 0, 0
	for _, ev := range n.Journal.Events() {
		if ev.Subsystem != "traffic" {
			continue
		}
		switch ev.Kind {
		case "attach":
			attach++
			tagged := false
			for _, f := range ev.Fields {
				if f.Key == "tenant" && f.Value == s.Tenant() {
					tagged = true
				}
			}
			if !tagged {
				t.Fatalf("attach record not tagged with tenant: %+v", ev)
			}
		case "epoch":
			epochs++
		}
	}
	if attach != 1 || epochs != 3 {
		t.Fatalf("journal has %d attach and %d epoch records, want 1 and 3", attach, epochs)
	}
}

// TestSessionAttachTrafficValidates pins the error path: a target outside
// the address plan cannot default a vantage.
func TestSessionAttachTrafficValidates(t *testing.T) {
	n := fig2RigNetwork(t)
	_, s := soloRig(t, n, lifeguard.SessionConfig{Config: lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO)},
		Targets: []lifeguard.Addr{lifeguard.ProductionAddr(asE)},
	}})
	if _, err := s.AttachTraffic(lifeguard.TrafficConfig{Flows: -1}); err == nil {
		t.Fatal("negative flow population accepted")
	}
	if s.Traffic != nil {
		t.Fatal("failed attach left a generator on the session")
	}
}
