package lifeguard_test

import (
	"net/netip"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/obs"
)

// fig2HijackNetwork is fig2Network with a journal and metrics registry, the
// instrumentation the hijack e2e assertions read back.
func fig2HijackNetwork(t *testing.T) *lifeguard.Network {
	t.Helper()
	b := lifeguard.NewTopologyBuilder()
	for _, asn := range []lifeguard.ASN{asO, asB, asA, asC, asD, asE, asF} {
		b.AddAS(asn, "")
		b.AddRouter(asn, "")
	}
	for _, r := range [][2]lifeguard.ASN{{asO, asB}, {asB, asA}, {asB, asC}, {asC, asD}, {asA, asE}, {asD, asE}, {asF, asA}} {
		b.Provider(r[0], r[1])
		b.ConnectAS(r[0], r[1])
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{
		Seed:    11,
		Obs:     obs.New(),
		Journal: obs.NewJournal(1 << 14),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEndToEndHijackPipeline is the hijack plane's §6-style case study: a
// scripted sub-prefix hijack by rogue F against owner O's space is injected
// through the chaos runner while a Session with the hijack plane enabled
// defends. The detector must classify the attack from collector streams,
// the responder must re-claim the prefix and verify data-plane recovery,
// the cleared attack must leave zero chaos invariant violations, and every
// stage must land in the journal with its measured sim-time latency.
func TestEndToEndHijackPipeline(t *testing.T) {
	n := fig2HijackNetwork(t)
	rig, ses := soloRig(t, n, lifeguard.SessionConfig{
		Config: lifeguard.Config{Origin: asO},
		Hijack: lifeguard.HijackConfig{
			Enable:         true,
			CollectorPeers: []lifeguard.ASN{asA, asB, asE},
		},
	})
	ses.Start()
	n.Clk.RunFor(1 * time.Minute)

	sub := netip.MustParsePrefix("1.10.128.0/24")
	script, err := lifeguard.ParseChaosScript("at 1m for 20m subhijack 70 1.10.128.0/24\nat 30m check")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rig.RunChaos(script, lifeguard.ChaosOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("chaos violations despite detect→mitigate→clear:\n%s", rep)
	}

	// Detection: classified as sub-prefix, rogue F, with positive latency.
	detected := ses.EventsOfKind(lifeguard.EventHijackDetected)
	if len(detected) != 1 {
		t.Fatalf("%d hijack-detected events, want 1", len(detected))
	}
	a := detected[0].Alarm
	if a.Prefix != sub || a.Rogue != asF || a.Owner != asO {
		t.Fatalf("misattributed alarm: %v", a)
	}
	if a.Latency <= 0 {
		t.Fatalf("detection latency %v, want > 0", a.Latency)
	}

	// Mitigation: counter-announced with the rogue poisoned, verified from
	// the owner's provider, latency measured from detection.
	mitigated := ses.EventsOfKind(lifeguard.EventHijackMitigated)
	if len(mitigated) != 1 {
		t.Fatalf("%d hijack-mitigated events, want 1", len(mitigated))
	}
	m := mitigated[0].Mitigation
	if m.Poisoned != asF {
		t.Fatalf("mitigation poisoned %d, want the rogue %d", m.Poisoned, asF)
	}
	if m.Latency <= 0 || m.Recovered != m.Vantages || m.Vantages == 0 {
		t.Fatalf("unverified mitigation: latency %v, recovered %d/%d",
			m.Latency, m.Recovered, m.Vantages)
	}

	// Clearance: the alarm cleared after the rogue withdrew, and the
	// counter-announcement was withdrawn with it.
	cleared := ses.EventsOfKind(lifeguard.EventHijackCleared)
	if len(cleared) != 1 {
		t.Fatalf("%d hijack-cleared events, want 1", len(cleared))
	}
	if len(ses.Hijack.Active()) != 0 {
		t.Fatal("alarm still active at end of run")
	}
	if got := len(ses.Remedy.Counters()); got != 0 {
		t.Fatalf("%d counter-announcements still installed", got)
	}

	// The journal carries all three stages, with the detection and
	// mitigation records each bearing a measured latency field.
	hasLatency := func(e obs.Event) bool {
		for _, f := range e.Fields {
			if f.Key == "latency" && f.Value != "" && f.Value != "0s" {
				return true
			}
		}
		return false
	}
	var sawDetected, sawMitigated, sawCleared bool
	for _, e := range n.Journal.Events() {
		switch e.Kind {
		case "hijack-detected":
			sawDetected = sawDetected || hasLatency(e)
		case "hijack-mitigated":
			sawMitigated = sawMitigated || hasLatency(e)
		case "hijack-cleared":
			sawCleared = true
		}
	}
	if !sawDetected || !sawMitigated || !sawCleared {
		t.Fatalf("journal missing hijack stages: detected=%v mitigated=%v cleared=%v",
			sawDetected, sawMitigated, sawCleared)
	}
}
