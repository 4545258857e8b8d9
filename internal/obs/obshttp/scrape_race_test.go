package obshttp_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/obs"
	"lifeguard/internal/obs/obshttp"
)

// TestScrapeWhileSimulating holds the registry's and the journal's
// concurrency contract the way lifeguardd uses them: the test goroutine
// runs a two-tenant rig through an outage and adds a third tenant mid-run
// (a new child registry, new series, new journal records) while another
// goroutine scrapes /metrics and /debug/vars in a loop. No scrape may end
// in the handler's "# error:" line, every snapshot taken beside them must
// be consistent, and once the rig stops /metrics must be the registry's
// own rendering. The test means most under the race detector (make race).
func TestScrapeWhileSimulating(t *testing.T) {
	reg := obs.New()
	journal := obs.NewJournal(64)
	n, err := lifeguard.GenerateInternet(
		lifeguard.InternetConfig{Seed: 3, NumTransit: 4, NumStub: 10},
		lifeguard.NetworkOptions{Obs: reg, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obshttp.NewMux(reg, journal))
	defer srv.Close()

	stubs := n.Gen.Stubs
	targetAS := stubs[len(stubs)-1]
	rig := lifeguard.NewRig(n)
	addTenant := func(origin lifeguard.ASN) {
		t.Helper()
		s, err := rig.AddSession(lifeguard.SessionConfig{Config: lifeguard.Config{
			Origin:  origin,
			VPs:     []lifeguard.RouterID{n.Hub(origin)},
			Targets: []netip.Addr{n.RouterAddr(n.Hub(targetAS))},
		}})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
	}
	addTenant(stubs[0])
	addTenant(stubs[1])

	// The scraper stops when done closes and closes finished on its way
	// out; scrapes is read only after finished.
	done, first, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	scrapes := 0
	go func() {
		defer close(finished)
		for {
			if scrapes == 1 {
				close(first)
			}
			for _, path := range []string{"/metrics", "/debug/vars"} {
				body, err := fetch(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				if path == "/metrics" && strings.Contains("\n"+body, "\n# error:") {
					t.Errorf("/metrics failed mid-run:\n%s", body)
					return
				}
			}
			if err := consistent(reg.Snapshot()); err != nil {
				t.Errorf("snapshot mid-run: %v", err)
				return
			}
			scrapes++
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	stopScraper := sync.OnceFunc(func() {
		close(done)
		<-finished
	})
	defer stopScraper() // before srv.Close, on every path out

	select { // the scraper is in its loop before the rig runs
	case <-first:
	case <-finished:
		t.FailNow()
	}
	// Every two virtual hours one tenant's reverse path fails for an hour
	// (outage, isolation and repair records in the journal), and every
	// four a new tenant arrives (a new child registry and new series).
	for i := 0; i < 12; i++ {
		origin := stubs[i%2]
		rev := n.Eng.ASPathTo(targetAS, lifeguard.ProductionAddr(origin))
		if len(rev) < 2 {
			t.Fatalf("no transit on the path from AS%d to AS%d: %v", targetAS, origin, rev)
		}
		id := n.InjectFailure(lifeguard.BlackholeASTowards(rev[0], lifeguard.Block(origin)))
		n.Clk.RunFor(time.Hour)
		n.HealFailure(id)
		if i%2 == 1 {
			addTenant(stubs[2+i/2])
		}
		n.Clk.RunFor(time.Hour)
	}
	stopScraper()
	t.Logf("%d scrapes", scrapes)

	if journal.Len() == 0 {
		t.Error("the outage left no journal record")
	}
	body, err := fetch(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if label := fmt.Sprintf(`tenant="AS%d"`, stubs[7]); !strings.Contains(body, label) {
		t.Errorf("/metrics has no series labelled %s after the mid-run AddSession", label)
	}
	if body != rendering(t, reg) {
		t.Errorf("/metrics after the run is not the registry's rendering")
	}
}

// consistent checks what a snapshot must hold however the simulation's
// writes interleave with it: no counter below zero, and each histogram's
// cumulative buckets non-decreasing and at most its count, which /metrics
// renders as the +Inf bucket.
func consistent(s obs.Snapshot) error {
	for _, m := range s.Metrics {
		if m.Kind == "counter" && m.Value < 0 {
			return fmt.Errorf("counter %s%v is %d", m.Name, m.Labels, m.Value)
		}
		cum := int64(0)
		for _, b := range m.Buckets {
			if b.Cumulative < cum || b.Cumulative > m.Count {
				return fmt.Errorf("histogram %s%v: bucket le=%g holds %d after %d, count %d",
					m.Name, m.Labels, b.UpperBound, b.Cumulative, cum, m.Count)
			}
			cum = b.Cumulative
		}
	}
	return nil
}

// fetch GETs url and returns its body; unlike get it may run off the test
// goroutine.
func fetch(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", fmt.Errorf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}
