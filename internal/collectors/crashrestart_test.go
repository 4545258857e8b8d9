package collectors_test

import (
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/collectors"
	"lifeguard/internal/topo"
)

// TestWithdrawalsThroughCrashRestartWindow pins the collector's view of a
// non-graceful control-plane restart: when the origin's speaker crashes
// without graceful restart, every peer that loses its route must have a
// nil-path (withdrawal) entry recorded, and the restore's re-announcement
// must append fresh path entries restoring the pre-crash view. With
// graceful restart the window is invisible — no withdrawal entries at all.
func TestWithdrawalsThroughCrashRestartWindow(t *testing.T) {
	const (
		asO lifeguard.ASN = 10
		asB lifeguard.ASN = 20
		asA lifeguard.ASN = 30
	)
	build := func(t *testing.T, noGraceful bool) (*lifeguard.Network, *lifeguard.Session, *collectors.Collector) {
		t.Helper()
		b := lifeguard.NewTopologyBuilder()
		for _, asn := range []lifeguard.ASN{asO, asB, asA} {
			b.AddAS(asn, "")
			b.AddRouter(asn, "")
		}
		for _, r := range [][2]lifeguard.ASN{{asO, asB}, {asB, asA}} {
			b.Provider(r[0], r[1])
			b.ConnectAS(r[0], r[1])
		}
		top, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		col := collectors.New(n.Eng, asA, asB)
		ses, err := lifeguard.NewRig(n).AddSession(lifeguard.SessionConfig{
			Config:            lifeguard.Config{Origin: asO},
			NoGracefulRestart: noGraceful,
		})
		if err != nil {
			t.Fatal(err)
		}
		ses.Start()
		n.Clk.RunFor(1 * time.Minute)
		n.Converge()
		return n, ses, col
	}

	t.Run("non-graceful", func(t *testing.T) {
		n, ses, col := build(t, true)
		prod := topo.ProductionPrefix(asO)
		before := col.CurrentPath(asA, prod)
		if before == nil {
			t.Fatal("A never recorded the production route")
		}

		ses.CrashControl()
		n.Converge()
		for _, peer := range col.Peers() {
			if p := col.CurrentPath(peer, prod); p != nil {
				t.Fatalf("peer %d still holds %v through a non-graceful crash", peer, p)
			}
			ups := col.Updates(peer, prod)
			if len(ups) == 0 || ups[len(ups)-1].Path != nil {
				t.Fatalf("peer %d has no withdrawal entry recorded", peer)
			}
		}

		ses.RestoreControl()
		n.Converge()
		after := col.CurrentPath(asA, prod)
		if !after.Equal(before) {
			t.Fatalf("restore did not rebuild A's route: %v, want %v", after, before)
		}
		// The crash-restart window is fully journaled in the stream:
		// announce, withdraw, re-announce.
		if ups := col.Updates(asA, prod); len(ups) < 3 {
			t.Fatalf("A's stream has %d entries, want >= 3 (announce, withdraw, re-announce)", len(ups))
		}
	})

	t.Run("graceful", func(t *testing.T) {
		n, ses, col := build(t, false)
		prod := topo.ProductionPrefix(asO)

		ses.CrashControl()
		n.Converge()
		ses.RestoreControl()
		n.Converge()
		for _, peer := range col.Peers() {
			for _, e := range col.Updates(peer, prod) {
				if e.Path == nil {
					t.Fatalf("peer %d recorded a withdrawal through a graceful restart", peer)
				}
			}
			if col.CurrentPath(peer, prod) == nil {
				t.Fatalf("peer %d lost the route", peer)
			}
		}
	})
}
