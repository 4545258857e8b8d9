package chaos

import (
	"sort"
	"testing"
)

// TestVocabularyMatchesParser pins the -list-faults contract: the published
// vocabulary is sorted, stable, documented, and agrees with what the parser
// actually accepts — one sample line per kind must parse to a fault of that
// kind, and no two calls may disagree.
func TestVocabularyMatchesParser(t *testing.T) {
	vocab := Vocabulary()
	if !sort.SliceIsSorted(vocab, func(i, j int) bool { return vocab[i].Kind < vocab[j].Kind }) {
		t.Fatal("Vocabulary is not sorted by kind")
	}
	again := Vocabulary()
	for i := range vocab {
		if vocab[i] != again[i] {
			t.Fatalf("Vocabulary not stable at %d: %+v vs %+v", i, vocab[i], again[i])
		}
	}
	samples := map[string]string{
		"blackhole":    "blackhole 30 10.10.0.0/16",
		"crash":        "crash 70",
		"crashcontrol": "crashcontrol 10",
		"delay":        "delay 30 60 2s",
		"linkdown":     "linkdown 20 30",
		"loss":         "loss 40 0.3 7",
		"oneway":       "oneway 30 20",
		"sessionreset": "sessionreset 40 50",
	}
	if len(samples) != len(vocab) {
		t.Fatalf("vocabulary has %d kinds, samples cover %d", len(vocab), len(samples))
	}
	for _, d := range vocab {
		line, ok := samples[d.Kind]
		if !ok {
			t.Fatalf("vocabulary kind %q has no parser sample", d.Kind)
		}
		if d.Usage == "" || d.Doc == "" {
			t.Fatalf("vocabulary kind %q lacks usage or doc", d.Kind)
		}
		s, err := Parse("at 1s " + line)
		if err != nil {
			t.Fatalf("sample for %q does not parse: %v", d.Kind, err)
		}
		if got := s.Steps[0].Fault.Kind(); got != d.Kind {
			t.Fatalf("sample for %q parsed as kind %q", d.Kind, got)
		}
	}
}
