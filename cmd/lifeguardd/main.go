// Command lifeguardd runs a multi-tenant LIFEGUARD service over a simulated
// internetwork: a synthetic Internet is generated, and one session per
// tenant origin AS announces its production and sentinel prefixes, monitors
// a set of targets, and — as scripted silent failures strike transit
// networks — detects, isolates, and repairs them with BGP poisoning,
// unpoisoning when the sentinel sees each failure heal. All tenants share
// one rig (one internetwork, one virtual clock), so their timelines
// interleave deterministically. The event log it prints is the §6 case
// study generalized.
//
// The daemon is built for long-running operation:
//
//   - SIGINT/SIGTERM shut it down cleanly (exit 0, final metrics snapshot
//     as the last stdout output).
//   - SIGHUP is a hitless config reload: a new tenant is added to the live
//     rig without perturbing the existing sessions' monitors, outage
//     state, or active repairs.
//   - SIGUSR1 gracefully restarts tenant 1's control plane: with BGP
//     graceful-restart semantics the tenant's announced routes are
//     retained and re-announced on restore, so its traffic forwards
//     through the restart.
//
// The daemon is fully instrumented: every subsystem reports into a metrics
// registry (per-tenant series carry a tenant label), and -http serves it
// live (/metrics in Prometheus text format, /healthz, /debug/vars,
// /debug/pprof).
//
//	lifeguardd -seed 1 -hours 6 -failures 4
//	lifeguardd -tenants 3 -hours 48 -http :8080 &   # scrape localhost:8080/metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lifeguard"
	"lifeguard/internal/obs"
	"lifeguard/internal/obs/obshttp"
	"lifeguard/internal/splice"
	"lifeguard/internal/topo"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "topology and timing seed")
		hours    = flag.Float64("hours", 6, "virtual hours to simulate")
		failures = flag.Int("failures", 4, "number of silent failures to script (spread across tenants)")
		tenants  = flag.Int("tenants", 1, "tenant sessions to run over the shared rig")
		transits = flag.Int("transits", 15, "transit ASes in the synthetic Internet")
		stubs    = flag.Int("stubs", 40, "stub ASes in the synthetic Internet")
		httpAddr = flag.String("http", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address (empty disables)")
		journal  = flag.Int("journal", 256, "event-journal capacity for /debug/vars (0 disables)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lifeguardd [flags]\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
signals:
  SIGINT/SIGTERM  clean shutdown
  SIGHUP          hitless reload: add one tenant to the live rig
  SIGUSR1         graceful control-plane restart of tenant 1

exit codes:
  0  run completed, or was shut down cleanly by SIGINT/SIGTERM; the final
     metrics snapshot (JSON) is the last thing printed to stdout
  1  runtime error (generation, simulation, or HTTP server failure)
  2  bad usage (unknown flag, or a value no run can use)
`)
	}
	flag.Parse()
	switch {
	case !(*hours > 0): // also rejects NaN
		badFlag("-hours must be greater than 0, got %v", *hours)
	case *failures < 0:
		badFlag("-failures must not be negative, got %d", *failures)
	case *tenants < 1:
		badFlag("-tenants must be at least 1, got %d", *tenants)
	case *transits < 1:
		badFlag("-transits must be at least 1, got %d", *transits)
	case *stubs < *tenants+6:
		// Six stubs are the targets' and the helper vantage points' ASes;
		// each tenant's origin takes one more.
		badFlag("-stubs must be at least -tenants + 6 = %d, got %d", *tenants+6, *stubs)
	case *journal < 0:
		badFlag("-journal must not be negative, got %d", *journal)
	}
	if err := run(*seed, *hours, *failures, *tenants, *transits, *stubs, *httpAddr, *journal); err != nil {
		fmt.Fprintln(os.Stderr, "lifeguardd:", err)
		os.Exit(1)
	}
}

// badFlag rejects a flag value before anything is generated from it.
func badFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lifeguardd: "+format+"\n", args...)
	os.Exit(2)
}

// tenantView is one live session plus the daemon's bookkeeping for it.
type tenantView struct {
	s      *lifeguard.Session
	origin lifeguard.ASN
	logged int
}

func run(seed int64, hours float64, failures, tenants, transits, stubs int, httpAddr string, journalCap int) error {
	reg := obs.New()
	var j *obs.Journal
	if journalCap > 0 {
		j = obs.NewJournal(journalCap)
	}
	n, err := lifeguard.GenerateInternet(lifeguard.InternetConfig{
		Seed: seed, NumTransit: transits, NumStub: stubs,
	}, lifeguard.NetworkOptions{Obs: reg, Journal: j})
	if err != nil {
		return err
	}
	fmt.Printf("internet: %d ASes (%d tier-1, %d transit, %d stub), %d routers\n",
		n.Top.NumASes(), len(n.Gen.Tier1s), len(n.Gen.Transit), len(n.Gen.Stubs),
		n.Top.NumRouters())

	if httpAddr != "" {
		mux := obshttp.NewMux(reg, j)
		errc := make(chan error, 1)
		go func() { errc <- obshttp.Serve(httpAddr, mux) }()
		// Give a bad address a moment to fail loudly instead of silently
		// serving nothing for the whole run.
		select {
		case err := <-errc:
			return fmt.Errorf("http server: %w", err)
		case <-time.After(100 * time.Millisecond):
		}
		fmt.Fprintf(os.Stderr, "lifeguardd: serving metrics on %s\n", httpAddr)
	}

	// SIGINT/SIGTERM end the run early but cleanly: the current simulated
	// minute finishes, the summary and final metrics snapshot print, and
	// the exit code is 0. SIGHUP and SIGUSR1 drive live reconfiguration.
	sigc := make(chan os.Signal, 4)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGUSR1)
	defer signal.Stop(sigc)

	// Tenants take the first stubs as origins; the monitored targets and
	// the extra vantage points come from the far end of the stub list so
	// the roles never collide, even after SIGHUP adds tenants.
	rig := lifeguard.NewRig(n)
	var targets []lifeguard.Addr
	targetASes := []lifeguard.ASN{}
	for i := len(n.Gen.Stubs) - 3; len(targetASes) < 4 && i >= tenants; i-- {
		targets = append(targets, n.RouterAddr(n.Hub(n.Gen.Stubs[i])))
		targetASes = append(targetASes, n.Gen.Stubs[i])
	}
	helperVPs := []lifeguard.RouterID{
		n.Hub(n.Gen.Stubs[len(n.Gen.Stubs)-1]),
		n.Hub(n.Gen.Stubs[len(n.Gen.Stubs)-2]),
	}
	nextOrigin := 0
	addTenant := func() (*tenantView, error) {
		if nextOrigin >= len(n.Gen.Stubs)-6 {
			return nil, fmt.Errorf("no spare stub AS for another tenant")
		}
		origin := n.Gen.Stubs[nextOrigin]
		nextOrigin++
		s, err := rig.AddSession(lifeguard.SessionConfig{Config: lifeguard.Config{
			Origin:  origin,
			VPs:     append([]lifeguard.RouterID{n.Hub(origin)}, helperVPs...),
			Targets: targets,
		}})
		if err != nil {
			return nil, err
		}
		s.Start()
		fmt.Printf("tenant %s: origin AS%d announces production %v and sentinel %v\n",
			s.Tenant(), origin, lifeguard.ProductionPrefix(origin), lifeguard.SentinelPrefix(origin))
		return &tenantView{s: s, origin: origin}, nil
	}
	var views []*tenantView
	for i := 0; i < tenants; i++ {
		tv, err := addTenant()
		if err != nil {
			return err
		}
		views = append(views, tv)
	}
	fmt.Println()
	n.Clk.RunFor(5 * time.Minute) // warm baseline + atlas

	// Script the failures: pick avoidable transit hops on the reverse
	// paths from the targets to each tenant in turn, break each for a
	// while, heal, repeat.
	type scripted struct {
		at, heal time.Duration
		as       lifeguard.ASN
		origin   lifeguard.ASN
		id       lifeguard.FailureID
	}
	var script []scripted
	gap := time.Duration(hours*float64(time.Hour)) / time.Duration(failures+1)
	for i := 0; i < failures; i++ {
		origin := views[i%len(views)].origin
		tgt := targetASes[i%len(targetASes)]
		path := n.Eng.ASPathTo(topo.ASN(tgt), lifeguard.ProductionAddr(origin))
		var victim lifeguard.ASN
		for _, hop := range path {
			if hop == topo.ASN(origin) || hop == topo.ASN(tgt) {
				continue
			}
			if splice.CanReach(n.Top, topo.ASN(tgt), topo.ASN(origin), splice.Avoid1(hop)) {
				victim = lifeguard.ASN(hop)
				break
			}
		}
		if victim == 0 {
			continue
		}
		at := gap * time.Duration(i+1)
		script = append(script, scripted{at: at, heal: at + 35*time.Minute, as: victim, origin: origin})
	}

	// The warm-up above has already advanced the clock, so a dense script
	// has faults due in the past; those strike now — late, not fatal.
	now := n.Clk.Now()
	for i := range script {
		sc := &script[i]
		n.Clk.After(max(sc.at-now, 0), func() {
			sc.id = n.InjectFailure(lifeguard.BlackholeASTowards(sc.as, lifeguard.Block(sc.origin)))
			fmt.Printf("[%8s] FAULT    AS%d silently drops traffic toward AS%d's prefixes\n",
				fmtD(n.Clk.Now()), sc.as, sc.origin)
		})
		n.Clk.After(sc.heal-now, func() {
			n.HealFailure(sc.id)
			fmt.Printf("[%8s] FIXED    AS%d's fault repaired by its operators\n",
				fmtD(n.Clk.Now()), sc.as)
		})
	}

	end := time.Duration(hours * float64(time.Hour))
	interrupted := false
	logged := map[lifeguard.EventKind]int{}
loop:
	for n.Clk.Now() < end {
		select {
		case sig := <-sigc:
			switch sig {
			case syscall.SIGHUP:
				// Hitless reload: a tenant joins the live rig; nobody
				// else's monitors, outages, or repairs are disturbed.
				tv, err := addTenant()
				if err != nil {
					fmt.Fprintf(os.Stderr, "lifeguardd: reload: %v\n", err)
					continue
				}
				views = append(views, tv)
				fmt.Fprintf(os.Stderr, "lifeguardd: SIGHUP — added tenant %s live\n", tv.s.Tenant())
				continue
			case syscall.SIGUSR1:
				// Graceful control-plane restart of the first tenant:
				// routes retained, forwarding uninterrupted.
				v := views[0]
				v.s.Restart()
				fmt.Fprintf(os.Stderr, "lifeguardd: SIGUSR1 — restarted tenant %s control plane (graceful)\n", v.s.Tenant())
				continue
			default:
				fmt.Fprintf(os.Stderr, "lifeguardd: %v — shutting down after %s virtual\n", sig, fmtD(n.Clk.Now()))
				interrupted = true
				break loop
			}
		default:
		}
		n.Clk.RunFor(time.Minute)
		for _, v := range views {
			for _, e := range v.s.History[v.logged:] {
				printEvent(v, e)
				logged[e.Kind]++
			}
			v.logged = len(v.s.History)
		}
	}
	rig.Stop()

	fmt.Printf("\nsummary: %d tenants, %d outages, %d repairs, %d unpoisons, %d recoveries over %.1f virtual hours",
		len(views), logged[lifeguard.EventOutage], logged[lifeguard.EventRepair],
		logged[lifeguard.EventUnpoison], logged[lifeguard.EventRecovered], n.Clk.Now().Hours())
	if interrupted {
		fmt.Printf(" (interrupted)")
	}
	fmt.Printf("\n\nfinal metrics snapshot:\n")
	return reg.Snapshot().WriteJSON(os.Stdout)
}

func printEvent(v *tenantView, e lifeguard.Event) {
	tn := v.s.Tenant()
	switch e.Kind {
	case lifeguard.EventOutage:
		fmt.Printf("[%8s] %s OUTAGE   vp r%d cannot reach %v\n", fmtD(e.At), tn, e.VP, e.Target)
	case lifeguard.EventIsolated:
		rep := e.Report
		if rep.Healed {
			fmt.Printf("[%8s] %s ISOLATE  transient — already healed\n", fmtD(e.At), tn)
			return
		}
		fmt.Printf("[%8s] %s ISOLATE  %v failure blamed on AS%d (traceroute alone would say AS%d; %d probes, ~%s)\n",
			fmtD(e.At), tn, rep.Direction, rep.Blamed, rep.TracerouteBlame,
			rep.ProbesUsed, fmtD(rep.EstimatedDuration))
	case lifeguard.EventRepair:
		fmt.Printf("[%8s] %s REPAIR   %v (avoiding AS%d)\n", fmtD(e.At), tn, e.Action, e.Avoided)
	case lifeguard.EventRecovered:
		fmt.Printf("[%8s] %s RECOVER  traffic to %v restored\n", fmtD(e.At), tn, e.Target)
	case lifeguard.EventUnpoison:
		fmt.Printf("[%8s] %s UNPOISON sentinel saw AS%d heal; baseline announcement restored\n",
			fmtD(e.At), tn, e.Avoided)
	case lifeguard.EventControlCrash:
		fmt.Printf("[%8s] %s CRASH    control plane down (routes retained)\n", fmtD(e.At), tn)
	case lifeguard.EventControlRestore:
		fmt.Printf("[%8s] %s RESTORE  control plane back; deferred re-announce done\n", fmtD(e.At), tn)
	case lifeguard.EventFailsafeEnter:
		fmt.Printf("[%8s] %s FAILSAFE monitor lost — repairs suspended\n", fmtD(e.At), tn)
	case lifeguard.EventFailsafeExit:
		fmt.Printf("[%8s] %s HEALTHY  monitor back — repairs resume\n", fmtD(e.At), tn)
	}
}

func fmtD(d time.Duration) string { return d.Round(time.Second).String() }
