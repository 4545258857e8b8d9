package lifeguard_test

import (
	"fmt"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/obs"
)

// sessionJournal renders every record a session wrote to n's journal —
// subsystem, kind and fields in order — one line per record.
func sessionJournal(n *lifeguard.Network) string {
	var b strings.Builder
	for _, e := range n.Journal.Events() {
		if e.Subsystem != "session" && e.Subsystem != "system" {
			continue
		}
		fmt.Fprintf(&b, "%v %s %s", e.VTime, e.Subsystem, e.Kind)
		for _, f := range e.Fields {
			fmt.Fprintf(&b, " %s=%s", f.Key, f.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// journalScenarios drive sessions through every EventKind between them:
// an unlabelled system through detect → isolate → poison → recover →
// unpoison; a tenant through the same with a non-graceful restart and a
// monitor loss (FAILSAFE) mid-outage; and a tenant through a quiet chaos
// run and a graceful restart.
var journalScenarios = []struct {
	name string
	run  func(t *testing.T) *lifeguard.Network
}{
	{"system", func(t *testing.T) *lifeguard.Network {
		n := fig2RigNetwork(t)
		sys := lifeguard.NewSystem(n, lifeguard.Config{
			Origin:  asO,
			VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
			Targets: []netip.Addr{n.RouterAddr(n.Hub(asE))},
		})
		sys.Start()
		n.Clk.RunFor(2 * time.Minute)
		id := n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
		n.Clk.RunFor(15 * time.Minute)
		n.HealFailure(id)
		n.Clk.RunFor(10 * time.Minute)
		return n
	}},
	{"tenant", func(t *testing.T) *lifeguard.Network {
		n := fig2RigNetwork(t)
		rig := lifeguard.NewRig(n)
		s, err := rig.AddSession(lifeguard.SessionConfig{
			Config: lifeguard.Config{
				Origin:  asO,
				VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
				Targets: []netip.Addr{n.RouterAddr(n.Hub(asE))},
			},
			NoGracefulRestart: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.Start()
		n.Clk.RunFor(2 * time.Minute)
		id := n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
		n.Clk.RunFor(2*time.Minute + 30*time.Second)
		s.Restart()
		s.Monitor.Stop()
		n.Clk.RunFor(5 * time.Minute)
		s.Monitor.Start()
		n.Clk.RunFor(10 * time.Minute)
		n.HealFailure(id)
		n.Clk.RunFor(10 * time.Minute)
		return n
	}},
	{"restart", func(t *testing.T) *lifeguard.Network {
		// Default BGP timers, unlike fig2RigNetwork: the golden's
		// instants were recorded with them.
		n := fig2NetworkWith(t, lifeguard.NetworkOptions{
			Seed:    11,
			Obs:     obs.New(),
			Journal: obs.NewJournal(1 << 14),
		})
		rig, ses := soloRig(t, n, lifeguard.SessionConfig{
			Config: lifeguard.Config{Origin: asO},
		})
		ses.Start()
		n.Clk.RunFor(time.Minute)
		script, err := lifeguard.ParseChaosScript("at 30m check")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rig.RunChaos(script, lifeguard.ChaosOptions{}); err != nil {
			t.Fatal(err)
		}
		ses.Restart()
		n.Clk.RunFor(time.Minute)
		return n
	}},
}

// TestSessionJournalGolden pins every journal record the scenarios' sessions
// write, byte for byte, against testdata/session_journal.golden, and checks
// the scenarios between them reach all nine event kinds.
func TestSessionJournalGolden(t *testing.T) {
	var got strings.Builder
	for _, sc := range journalScenarios {
		fmt.Fprintf(&got, "== %s\n", sc.name)
		got.WriteString(sessionJournal(sc.run(t)))
	}

	kinds := map[string]bool{}
	for _, line := range strings.Split(got.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] != "==" {
			kinds[f[2]] = true
		}
	}
	for k := lifeguard.EventOutage; k <= lifeguard.EventFailsafeExit; k++ {
		if !kinds[k.String()] {
			t.Errorf("no scenario journals a %q record", k)
		}
	}

	want, err := os.ReadFile("testdata/session_journal.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("session journal diverges from the golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
