package experiments

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lifeguard/internal/obs"
	"lifeguard/internal/runner"
)

// runObserved regenerates experiment id at seed 1 with a registry and
// returns the result with a reader of the merged registry's series.
func runObserved(t *testing.T, id string) (*Result, func(name string, labels ...obs.Label) int64) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	reg := obs.New()
	res, err := RunSuite(context.Background(), []Experiment{e}, 1, 1, runner.Config{Parallelism: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	return res[0][0], func(name string, labels ...obs.Label) int64 {
		t.Helper()
		for _, m := range reg.Snapshot().Metrics {
			if m.Name == name && slices.Equal(m.Labels, labels) {
				return m.Value
			}
		}
		t.Fatalf("no series %s%v", name, labels)
		return 0
	}
}

// checkPoisonsInstalled holds r's poisons_total to the poisons its remedy
// engines installed, as the merged registry counts them.
func checkPoisonsInstalled(t *testing.T, r *Result, counter func(string, ...obs.Label) int64) {
	t.Helper()
	installed := counter("lifeguard_remedy_poisons_total", obs.L("kind", "full"))
	if got := r.Values["poisons_total"]; got != float64(installed) {
		t.Errorf("%s: poisons_total = %v, remedy engines installed %d", r.ID, got, installed)
	}
	if installed == 0 {
		t.Errorf("%s: no remedy engine installed a poison", r.ID)
	}
}

// TestTrafficSimulatesEachWorldOnce holds the traffic experiment to one
// simulated world per mode: the epochs its generators closed, as the
// merged registry counts them, are exactly the epochs its table reports,
// and the poisons it reports are the poisons its remedy engines installed.
// A world simulated twice and reported once fails the first; a poison
// counted twice, or taken from the world that never repairs, the second.
func TestTrafficSimulatesEachWorldOnce(t *testing.T) {
	r, counter := runObserved(t, "traffic")

	// The rendered table: title, header, rule, then one row per mode.
	tab := r.Tables[0]
	col := slices.Index(tab.Header, "epochs")
	lines := strings.Split(strings.TrimSpace(tab.String()), "\n")
	if col < 0 || len(lines) != 5 {
		t.Fatalf("traffic table wants an epochs column and one row per mode:\n%s", tab)
	}
	var reported int64
	for _, line := range lines[3:] {
		cell := strings.Fields(line)[col]
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			t.Fatalf("epochs cell %q: %v", cell, err)
		}
		reported += n
	}
	if got := counter("lifeguard_traffic_epochs_total"); got != reported {
		t.Errorf("generators closed %d epochs, the table reports %d", got, reported)
	}

	checkPoisonsInstalled(t, r, counter)
}

// TestChaosPoisonsAreRemedyPoisons: the chaos sweep counts poisons from the
// session's repair verdicts, and only the Poisoned ones are poisons.
func TestChaosPoisonsAreRemedyPoisons(t *testing.T) {
	r, counter := runObserved(t, "chaos")
	checkPoisonsInstalled(t, r, counter)
}
