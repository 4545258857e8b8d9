// Quickstart: the smallest end-to-end LIFEGUARD run. Builds the paper's
// Fig. 2 topology, injects a silent failure in transit AS A, and lets the
// system detect, isolate, poison, and — once the failure heals — unpoison,
// printing what happened at each step.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"lifeguard"
)

// The Fig. 2 cast: O originates; B..E are transit; F is captive behind A.
const (
	O lifeguard.ASN = 10
	B lifeguard.ASN = 20
	A lifeguard.ASN = 30
	C lifeguard.ASN = 40
	D lifeguard.ASN = 50
	E lifeguard.ASN = 60
	F lifeguard.ASN = 70
)

func main() {
	// 1. Describe the internetwork: ASes, routers, business relationships.
	b := lifeguard.NewTopologyBuilder()
	for _, asn := range []lifeguard.ASN{O, B, A, C, D, E, F} {
		b.AddAS(asn, "")
		b.AddRouter(asn, "") // hub router
	}
	for _, rel := range [][2]lifeguard.ASN{
		{O, B}, {B, A}, {B, C}, {C, D}, {A, E}, {D, E}, {F, A},
	} {
		b.Provider(rel[0], rel[1]) // rel[0] buys transit from rel[1]
		b.ConnectAS(rel[0], rel[1])
	}
	top, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Assemble the network: BGP converges, data plane attaches.
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Deploy LIFEGUARD at O, monitoring a host in E with C as a helper
	//    vantage point.
	target := n.RouterAddr(n.Hub(E))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  O,
		VPs:     []lifeguard.RouterID{n.Hub(O), n.Hub(C)},
		Targets: []lifeguard.Addr{target},
	})
	sys.Start()
	n.Clk.RunFor(3 * time.Minute)
	show(n, "baseline", E)

	// 4. A silently blackholes traffic toward O — the classic persistent
	//    partial outage: control plane keeps announcing, packets die.
	fmt.Println("\n*** AS30 (A) silently fails toward O's prefixes ***")
	fid := n.InjectFailure(lifeguard.BlackholeASTowards(A, lifeguard.Block(O)))
	n.Clk.RunFor(15 * time.Minute)

	for _, o := range sys.Outages() {
		fmt.Printf("isolated: %v failure in AS%d (plain traceroute would blame AS%d)\n",
			o.Report.Direction, o.Report.Blamed, o.Report.TracerouteBlame)
		if o.Decided != 0 {
			fmt.Printf("repair:   %v — production prefix now announced as O-A-O\n", o.Action)
		}
	}
	show(n, "while poisoned", E)

	// 5. The fault heals; the sentinel notices and the poison is removed.
	fmt.Println("\n*** AS30 repaired by its operators ***")
	n.HealFailure(fid)
	n.Clk.RunFor(10 * time.Minute)
	n.Converge()
	show(n, "after unpoison", E)

	logged := map[lifeguard.EventKind]int{}
	for _, e := range sys.History {
		logged[e.Kind]++
	}
	fmt.Printf("\nevent log: %d outages, %d repairs, %d unpoisons, %d recoveries\n",
		logged[lifeguard.EventOutage], logged[lifeguard.EventRepair],
		logged[lifeguard.EventUnpoison], logged[lifeguard.EventRecovered])
}

// show prints how asn currently routes to O's production prefix.
func show(n *lifeguard.Network, label string, asn lifeguard.ASN) {
	if r, ok := n.Eng.BestRoute(asn, lifeguard.ProductionPrefix(O)); ok {
		fmt.Printf("%-15s AS%d reaches production via AS path [%v]\n", label+":", asn, r.Path)
	} else {
		fmt.Printf("%-15s AS%d has NO route to production\n", label+":", asn)
	}
}
