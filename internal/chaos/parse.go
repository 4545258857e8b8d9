package chaos

import (
	"fmt"
	"slices"
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
// blank lines are ignored. The fault forms are the Usage lines of
// Vocabulary (`lgchaos -list-faults`; see fault.go for semantics).
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

// parseFault looks the keyword up in the vocabulary; the argument count is
// the number of tokens its Usage names after the keyword.
func parseFault(f []string) (Fault, error) {
	kind, args := f[0], f[1:]
	i := slices.IndexFunc(vocabulary, func(k faultKind) bool { return k.Kind == kind })
	if i < 0 {
		return nil, fmt.Errorf("unknown fault kind %q", kind)
	}
	k := vocabulary[i]
	if n := len(strings.Fields(k.Usage)) - 1; len(args) != n {
		return nil, fmt.Errorf("%s wants %d args, got %d", kind, n, len(args))
	}
	return k.parse(args)
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
