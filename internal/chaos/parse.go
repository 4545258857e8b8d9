package chaos

import (
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"lifeguard/internal/topo"
)

// Parse reads the text form of a Script. The grammar is line-oriented:
//
//	at <time> check
//	at <time> [for <duration>] <fault> <args...>
//
// where <time>/<duration> use Go duration syntax ("90s", "2m30s"), omitting
// "for" schedules a fault that is never healed, "#" starts a comment, and
// blank lines are ignored. Fault forms (see fault.go for semantics):
//
//	linkdown <asA> <asB>
//	oneway <asFrom> <asTo>
//	loss <as> <prob> <seed>
//	sessionreset <asA> <asB>
//	crash <as>
//	crashcontrol <originAS>
//	delay <asA> <asB> <duration>
//	blackhole <as> <dstPrefix>
//	hijack <rogueAS> <prefix>
//	subhijack <rogueAS> <moreSpecificPrefix>
//	forgedorigin <rogueAS> <victimAS> <prefix>
//
// Parse(s.String()) reproduces s (canonical order); errors carry the
// 1-based line number.
func Parse(text string) (*Script, error) {
	var s Script
	for lineno, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		step, err := parseStep(fields)
		if err != nil {
			return nil, fmt.Errorf("chaos: line %d: %w", lineno+1, err)
		}
		s.Steps = append(s.Steps, step)
	}
	if len(s.Steps) == 0 {
		return nil, fmt.Errorf("chaos: script has no steps")
	}
	return &s, nil
}

func parseStep(f []string) (Step, error) {
	if f[0] != "at" || len(f) < 3 {
		return Step{}, fmt.Errorf("want %q, got %q", "at <time> ...", strings.Join(f, " "))
	}
	at, err := time.ParseDuration(f[1])
	if err != nil {
		return Step{}, fmt.Errorf("bad time %q: %v", f[1], err)
	}
	f = f[2:]
	st := Step{At: at}
	if f[0] == "check" {
		if len(f) != 1 {
			return Step{}, fmt.Errorf("trailing tokens after check: %q", strings.Join(f[1:], " "))
		}
		st.Check = true
		return st, nil
	}
	if f[0] == "for" {
		if len(f) < 3 {
			return Step{}, fmt.Errorf("want %q", "for <duration> <fault> ...")
		}
		if st.For, err = time.ParseDuration(f[1]); err != nil {
			return Step{}, fmt.Errorf("bad duration %q: %v", f[1], err)
		}
		if st.For <= 0 {
			return Step{}, fmt.Errorf("duration %q not positive (omit \"for\" for a never-healed fault)", f[1])
		}
		f = f[2:]
	}
	if st.Fault, err = parseFault(f); err != nil {
		return Step{}, err
	}
	return st, nil
}

func parseFault(f []string) (Fault, error) {
	kind, args := f[0], f[1:]
	argc := map[string]int{
		"linkdown": 2, "oneway": 2, "loss": 3,
		"sessionreset": 2, "crash": 1, "crashcontrol": 1,
		"delay": 3, "blackhole": 2,
		"hijack": 2, "subhijack": 2, "forgedorigin": 3,
	}
	n, ok := argc[kind]
	if !ok {
		return nil, fmt.Errorf("unknown fault kind %q", kind)
	}
	if len(args) != n {
		return nil, fmt.Errorf("%s wants %d args, got %d", kind, n, len(args))
	}
	switch kind {
	case "linkdown":
		a, b, err := twoASNs(args)
		return &LinkDown{A: a, B: b}, err
	case "oneway":
		a, b, err := twoASNs(args)
		return &OneWayLoss{From: a, To: b}, err
	case "loss":
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
	case "sessionreset":
		a, b, err := twoASNs(args)
		return &SessionReset{A: a, B: b}, err
	case "crash":
		asn, err := parseASN(args[0])
		return &RouterCrash{AS: asn}, err
	case "crashcontrol":
		asn, err := parseASN(args[0])
		return &ControlCrash{AS: asn}, err
	case "delay":
		a, b, err := twoASNs(args[:2])
		if err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(args[2])
		if err != nil {
			return nil, fmt.Errorf("bad delay %q: %v", args[2], err)
		}
		return &UpdateDelay{A: a, B: b, Delay: d}, nil
	case "blackhole":
		asn, err := parseASN(args[0])
		if err != nil {
			return nil, err
		}
		dst, err := netip.ParsePrefix(args[1])
		if err != nil {
			return nil, fmt.Errorf("bad prefix %q: %v", args[1], err)
		}
		return &BlackholeTowards{AS: asn, Dst: dst}, nil
	case "hijack", "subhijack":
		asn, err := parseASN(args[0])
		if err != nil {
			return nil, err
		}
		p, err := netip.ParsePrefix(args[1])
		if err != nil {
			return nil, fmt.Errorf("bad prefix %q: %v", args[1], err)
		}
		if kind == "hijack" {
			return &OriginHijack{Rogue: asn, Prefix: p}, nil
		}
		return &SubPrefixHijack{Rogue: asn, Prefix: p}, nil
	case "forgedorigin":
		rogue, victim, err := twoASNs(args[:2])
		if err != nil {
			return nil, err
		}
		p, err := netip.ParsePrefix(args[2])
		if err != nil {
			return nil, fmt.Errorf("bad prefix %q: %v", args[2], err)
		}
		return &ForgedOrigin{Rogue: rogue, Victim: victim, Prefix: p}, nil
	}
	panic("unreachable")
}

func twoASNs(args []string) (a, b topo.ASN, err error) {
	if a, err = parseASN(args[0]); err != nil {
		return
	}
	b, err = parseASN(args[1])
	return
}

func parseASN(s string) (topo.ASN, error) {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad ASN %q: %v", s, err)
	}
	return topo.ASN(n), nil
}
