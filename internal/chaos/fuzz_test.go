package chaos

import (
	"reflect"
	"testing"
)

// FuzzParse holds Parse to its two promises on arbitrary text: it returns an
// error, never a panic, for anything it does not accept; and what it accepts
// satisfies the documented round trip — Parse(s.String()) is s in canonical
// order, step for step and field for field, and String is a fixed point.
func FuzzParse(f *testing.F) {
	for _, text := range []string{
		`
# exercise the whole vocabulary
at 10s for 2m linkdown 20 30
at 12s check
at 15s for 1m oneway 30 20
at 20s for 5m loss 40 0.3 7
at 30s for 1m sessionreset 40 50
at 40s for 2m crash 70
at 45s for 90s crashcontrol 10
at 50s for 3m delay 30 60 2s
at 1m for 2m blackhole 30 10.10.0.0/16
at 10m oneway 20 10
at 12m check
`,
		`at 1m for 10m blackhole 70 1.10.0.0/16
at 12m check
at 15m for 10m blackhole 70 1.10.240.0/24
at 30m for 10m blackhole 50 1.50.0.0/16`,
		"at 1m blackhole 70 1.10.240.0/24",
		"at 5s check # same instant as a fault\nat 5s crash 1\nat -3s check",
		"at 10s for 1m loss 1 1e-320 18446744073709551615",
		"at 10s for 1m loss 1 NaN 3",
		"at 10s for -5s linkdown 1 2",
		"at 10s for 1m linkdown 9999999999 2",
		"at 10s for 1m blackhole 1 ::ffff:1.2.3.4/100",
		"at 10s check extra",
		"at",
		"",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse(%q) returned a script beside error %v", text, err)
			}
			return
		}
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its canonical form does not reparse: %v\n%s", text, err, canon)
		}
		if got := s2.String(); got != canon {
			t.Fatalf("Parse(%q): canonical form is not a fixed point:\n%s\nvs\n%s", text, canon, got)
		}
		want := append([]Step(nil), s.Steps...)
		sortSteps(want)
		if !reflect.DeepEqual(s2.Steps, want) {
			t.Fatalf("Parse(%q): reparsed steps differ:\n%+v\nvs\n%+v", text, s2.Steps, want)
		}
	})
}
