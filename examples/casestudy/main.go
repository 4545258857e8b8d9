// Case study: a replay of §6 of the paper. A LIFEGUARD origin ("Wisconsin")
// announces production and sentinel prefixes and exchanges test traffic
// with a distant monitored node ("Taiwan"). The Taiwanese side's reverse
// path silently switches into a commercial transit ("UUNET") that
// blackholes traffic back to Wisconsin; an academic path ("academic
// backbone") remains viable. LIFEGUARD isolates the reverse failure to
// UUNET, poisons it, traffic returns via the academic route, and when UUNET
// heals hours later the sentinel notices and the poison is withdrawn.
//
//	go run ./examples/casestudy
package main

import (
	"fmt"
	"log"
	"time"

	"lifeguard"
)

// Cast. Both transits reach Wisconsin's provider; Taiwan's academic network
// buys from both UUNET (commercial, preferred: shorter) and the academic
// backbone.
const (
	Wisconsin lifeguard.ASN = 100 // LIFEGUARD origin (BGP-Mux at UWisc)
	WiscNet   lifeguard.ASN = 101 // Wisconsin's provider
	UUNET     lifeguard.ASN = 200 // commercial transit — will fail silently
	Academic  lifeguard.ASN = 300 // academic backbone — the viable alternate
	TANet     lifeguard.ASN = 400 // Taiwanese academic network (target side)
	Helper    lifeguard.ASN = 500 // second vantage point
)

func main() {
	b := lifeguard.NewTopologyBuilder()
	for _, asn := range []lifeguard.ASN{Wisconsin, WiscNet, UUNET, Academic, TANet, Helper} {
		b.AddAS(asn, "")
		b.AddRouter(asn, "")
	}
	rels := [][2]lifeguard.ASN{
		{Wisconsin, WiscNet}, // Wisconsin buys from WiscNet
		{WiscNet, UUNET},     // WiscNet buys from UUNET
		{WiscNet, Academic},  // ...and from the academic backbone
		{TANet, UUNET},       // Taiwan buys from UUNET (shorter, preferred)
		{TANet, Academic},    // ...and from the academic backbone
		{Helper, Academic},
	}
	for _, r := range rels {
		b.Provider(r[0], r[1])
		b.ConnectAS(r[0], r[1])
	}
	top, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{Seed: 64})
	if err != nil {
		log.Fatal(err)
	}

	taiwan := n.RouterAddr(n.Hub(TANet))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  Wisconsin,
		VPs:     []lifeguard.RouterID{n.Hub(Wisconsin), n.Hub(Helper)},
		Targets: []lifeguard.Addr{taiwan},
	})
	sys.Start()
	n.Clk.RunFor(5 * time.Minute)
	route(n, "steady state")

	// 8:15pm: the Taiwanese side's reverse path runs through UUNET, which
	// silently stops delivering traffic toward Wisconsin.
	fmt.Println("\n=== 8:15pm — UUNET begins blackholing traffic toward Wisconsin ===")
	fid := n.InjectFailure(lifeguard.BlackholeASTowards(UUNET, lifeguard.Block(Wisconsin)))
	n.Clk.RunFor(20 * time.Minute)

	for _, o := range sys.Outages() {
		fmt.Printf("isolation: %v failure; reachability horizon puts the break in AS%d (UUNET)\n",
			o.Report.Direction, o.Report.Blamed)
		fmt.Printf("           traceroute alone would have blamed AS%d\n", o.Report.TracerouteBlame)
		if o.Decided != 0 {
			fmt.Printf("repair:    %v at t=%v\n", o.Action, o.Decided.Round(time.Second))
		}
	}
	route(n, "while poisoned")
	if a := sys.Remedy.Active(); a != nil {
		fmt.Printf("sentinel:  %d checks so far; still failing through UUNET\n", a.SentinelChecks)
	}

	// 4am: UUNET fixes its fault; the next sentinel probe returns via the
	// unpoisoned sentinel prefix and LIFEGUARD withdraws the poison.
	fmt.Println("\n=== 4:00am — UUNET's fault is repaired ===")
	n.HealFailure(fid)
	n.Clk.RunFor(10 * time.Minute)
	n.Converge()
	route(n, "after unpoison")

	fmt.Println("\ntimeline:")
	for _, e := range sys.History {
		fmt.Printf("  t=%-8v %v\n", e.At.Round(time.Second), e.Kind)
	}
}

func route(n *lifeguard.Network, label string) {
	r, ok := n.Eng.BestRoute(TANet, lifeguard.ProductionPrefix(Wisconsin))
	if !ok {
		fmt.Printf("%-15s Taiwan has no route to Wisconsin's production prefix\n", label+":")
		return
	}
	via := "UUNET (commercial)"
	if r.Path[0] == Academic {
		via = "academic backbone"
	}
	fmt.Printf("%-15s Taiwan -> Wisconsin production via %s, AS path [%v]\n", label+":", via, r.Path)
}
