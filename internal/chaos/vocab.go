package chaos

import (
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"time"

	"lifeguard/internal/topo"
)

// FaultDoc is one entry of the script vocabulary: the keyword, its argument
// shape in the script grammar, and a one-line description. It backs
// `lgchaos -list-faults`, so operators can discover the fault language
// without reading fault.go.
type FaultDoc struct {
	Kind  string // script keyword
	Usage string // canonical argument form
	Doc   string // one-line semantics
}

// faultKind is one keyword of the script grammar: its documentation and
// its parser. parse receives exactly as many arguments as Usage names.
type faultKind struct {
	FaultDoc
	parse func(args []string) (Fault, error)
}

// vocabulary is every fault kind the parser accepts, sorted by keyword.
var vocabulary = []faultKind{
	{FaultDoc{"blackhole", "blackhole <as> <dstPrefix>", "AS silently drops forwarded traffic toward dstPrefix (control plane unaffected)"},
		asPrefix(func(a topo.ASN, p netip.Prefix) Fault { return &BlackholeTowards{AS: a, Dst: p} })},
	{FaultDoc{"crash", "crash <as>", "AS's router crashes: origins withdrawn, all transit blackholed until healed"},
		oneAS(func(a topo.ASN) Fault { return &RouterCrash{AS: a} })},
	{FaultDoc{"crashcontrol", "crashcontrol <originAS>", "crash the LIFEGUARD control plane of the session with that origin (graceful-restart policy applies on heal)"},
		oneAS(func(a topo.ASN) Fault { return &ControlCrash{AS: a} })},
	{FaultDoc{"delay", "delay <asA> <asB> <duration>", "add per-message BGP propagation delay on the A-B adjacency (both directions)"},
		func(args []string) (Fault, error) {
			a, b, err := twoASNs(args)
			if err != nil {
				return nil, err
			}
			d, err := time.ParseDuration(args[2])
			if err != nil {
				return nil, fmt.Errorf("bad delay %q: %v", args[2], err)
			}
			return &UpdateDelay{A: a, B: b, Delay: d}, nil
		}},
	{FaultDoc{"linkdown", "linkdown <asA> <asB>", "cut the A-B adjacency: BGP session down and data plane dropped both ways"},
		twoAS(func(a, b topo.ASN) Fault { return &LinkDown{A: a, B: b} })},
	{FaultDoc{"loss", "loss <as> <prob> <seed>", "AS drops each forwarded packet with probability prob (deterministic per-packet hash of seed)"},
		func(args []string) (Fault, error) {
			asn, err := parseASN(args[0])
			if err != nil {
				return nil, err
			}
			prob, err := strconv.ParseFloat(args[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad probability %q: %v", args[1], err)
			}
			if math.IsNaN(prob) {
				return nil, fmt.Errorf("bad probability %q: not a number", args[1])
			}
			seed, err := strconv.ParseUint(args[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seed %q: %v", args[2], err)
			}
			return &PacketLoss{AS: asn, Prob: prob, Seed: seed}, nil
		}},
	{FaultDoc{"oneway", "oneway <asFrom> <asTo>", "silently drop traffic crossing from->to while the reverse direction keeps working"},
		twoAS(func(a, b topo.ASN) Fault { return &OneWayLoss{From: a, To: b} })},
	{FaultDoc{"sessionreset", "sessionreset <asA> <asB>", "fail only the BGP session between A and B; the data plane keeps forwarding"},
		twoAS(func(a, b topo.ASN) Fault { return &SessionReset{A: a, B: b} })},
}

// Vocabulary enumerates every fault kind the parser accepts, sorted by
// keyword: the parser's own table, so the two cannot drift apart.
func Vocabulary() []FaultDoc {
	docs := make([]FaultDoc, len(vocabulary))
	for i, k := range vocabulary {
		docs[i] = k.FaultDoc
	}
	return docs
}

// oneAS, twoAS and asPrefix build the parsers of the common argument
// shapes: <as>, <as> <as>, and <as> <prefix>.
func oneAS(mk func(topo.ASN) Fault) func([]string) (Fault, error) {
	return func(args []string) (Fault, error) {
		a, err := parseASN(args[0])
		return mk(a), err
	}
}

func twoAS(mk func(a, b topo.ASN) Fault) func([]string) (Fault, error) {
	return func(args []string) (Fault, error) {
		a, b, err := twoASNs(args)
		return mk(a, b), err
	}
}

func asPrefix(mk func(topo.ASN, netip.Prefix) Fault) func([]string) (Fault, error) {
	return func(args []string) (Fault, error) {
		a, err := parseASN(args[0])
		if err != nil {
			return nil, err
		}
		p, err := parsePrefix(args[1])
		return mk(a, p), err
	}
}

func parsePrefix(s string) (netip.Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return p, fmt.Errorf("bad prefix %q: %v", s, err)
	}
	return p, nil
}
