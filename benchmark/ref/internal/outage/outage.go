// Package outage generates synthetic outage workloads calibrated to the
// paper's measurement studies: the EC2 duration distribution (§2.1 / Fig. 1
// — over 90% of partial outages last under ten minutes, yet the long tail
// carries ~84% of total unavailability), the failure-location split (§3.1.2
// cites 38% of failures on inter-AS links), and direction mix (many
// failures are unidirectional, §4.1). It also provides the residual-duration
// analysis behind Fig. 5 and the poisonable-outage-rate model behind
// Table 2.
package outage

import (
	"math"
	"math/rand"
	"time"

	"lifeguard/internal/metrics"
)

// Kind locates a failure.
type Kind int

// Failure locations.
const (
	ASInternal Kind = iota // fault within a single AS
	ASLink                 // fault on an inter-AS link
)

// Direction is which direction(s) of traffic a failure drops.
type Direction int

// Failure directions.
const (
	Forward Direction = iota
	Reverse
	Bidirectional
)

// Event is one synthetic outage.
type Event struct {
	Start     time.Duration
	Duration  time.Duration
	Kind      Kind
	Direction Direction
	// Partial marks outages where some vantage points retain
	// connectivity (79% in the EC2 study).
	Partial bool
}

// End returns Start + Duration.
func (e *Event) End() time.Duration { return e.Start + e.Duration }

// Config parameterizes generation. Zero values select the calibrated
// defaults documented on each field.
type Config struct {
	Seed int64
	// N is the number of events to generate. Default 10000 (≈ the 10308
	// partial outages of the EC2 study).
	N int
	// MinDuration is the observability floor. Default 90s (the EC2
	// methodology's minimum).
	MinDuration time.Duration
	// ShortMean is the mean extra duration of short outages beyond
	// MinDuration (exponential). Default 60s, putting the median outage
	// near the 90s floor as the EC2 study found.
	ShortMean time.Duration
	// TailFraction is the fraction of outages drawn from the heavy tail.
	// Default 0.09.
	TailFraction float64
	// TailXm and TailAlpha parameterize the (truncated) Pareto tail.
	// Defaults: 6min and 0.75 — calibrated so that >10min outages carry
	// ~80% of total downtime and, of outages that survive 5 minutes,
	// roughly half persist at least 5 more (the paper reports 84% and
	// 51%).
	TailXm    time.Duration
	TailAlpha float64
	// MaxDuration truncates the tail. Default 72h.
	MaxDuration time.Duration
	// MeanInterarrival spaces event start times (exponential). Default
	// 5 minutes.
	MeanInterarrival time.Duration
	// LinkFraction is the share of failures on inter-AS links. Default
	// 0.38 (§3.1.2).
	LinkFraction float64
	// ForwardFraction / ReverseFraction split directionality; the
	// remainder is bidirectional. Defaults 0.3 / 0.4.
	ForwardFraction, ReverseFraction float64
	// PartialFraction is the share of partial outages. Default 0.79.
	PartialFraction float64
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 10000
	}
	if c.MinDuration == 0 {
		c.MinDuration = 90 * time.Second
	}
	if c.ShortMean == 0 {
		c.ShortMean = 60 * time.Second
	}
	if c.TailFraction == 0 {
		c.TailFraction = 0.09
	}
	if c.TailXm == 0 {
		c.TailXm = 6 * time.Minute
	}
	if c.TailAlpha == 0 {
		c.TailAlpha = 0.75
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = 72 * time.Hour
	}
	if c.MeanInterarrival == 0 {
		c.MeanInterarrival = 5 * time.Minute
	}
	if c.LinkFraction == 0 {
		c.LinkFraction = 0.38
	}
	if c.ForwardFraction == 0 {
		c.ForwardFraction = 0.30
	}
	if c.ReverseFraction == 0 {
		c.ReverseFraction = 0.40
	}
	if c.PartialFraction == 0 {
		c.PartialFraction = 0.79
	}
	return c
}

// Generate produces a deterministic event sequence for the config.
func Generate(cfg Config) []Event {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	events := make([]Event, 0, cfg.N)
	var clock time.Duration
	for i := 0; i < cfg.N; i++ {
		clock += time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		ev := Event{
			Start:    clock,
			Duration: drawDuration(rng, cfg),
			Partial:  rng.Float64() < cfg.PartialFraction,
		}
		if rng.Float64() < cfg.LinkFraction {
			ev.Kind = ASLink
		}
		switch u := rng.Float64(); {
		case u < cfg.ForwardFraction:
			ev.Direction = Forward
		case u < cfg.ForwardFraction+cfg.ReverseFraction:
			ev.Direction = Reverse
		default:
			ev.Direction = Bidirectional
		}
		events = append(events, ev)
	}
	return events
}

func drawDuration(rng *rand.Rand, cfg Config) time.Duration {
	var d time.Duration
	if rng.Float64() < cfg.TailFraction {
		// Pareto: xm * U^(-1/alpha).
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		d = time.Duration(float64(cfg.TailXm) * math.Pow(u, -1/cfg.TailAlpha))
	} else {
		d = cfg.MinDuration + time.Duration(rng.ExpFloat64()*float64(cfg.ShortMean))
	}
	if d < cfg.MinDuration {
		d = cfg.MinDuration
	}
	if d > cfg.MaxDuration {
		d = cfg.MaxDuration
	}
	return d
}

// Durations extracts the duration sample from events.
func Durations(events []Event) *metrics.Sample {
	var s metrics.Sample
	for i := range events {
		s.AddDuration(events[i].Duration)
	}
	return &s
}

// ResidualPoint is one x-position of the Fig. 5 residual-duration analysis.
type ResidualPoint struct {
	Elapsed              time.Duration
	Mean, Median, P25    time.Duration
	Surviving            int     // outages still ongoing at Elapsed
	FracPersist5MoreMins float64 // of those, fraction lasting ≥5 more min
}

// Residuals computes, for each elapsed time, the distribution of remaining
// outage duration among outages that survived that long — Fig. 5 and the
// §4.2 "should we poison yet" analysis.
func Residuals(events []Event, elapsed []time.Duration) []ResidualPoint {
	out := make([]ResidualPoint, 0, len(elapsed))
	for _, x := range elapsed {
		var s metrics.Sample
		persist := 0
		for i := range events {
			if events[i].Duration > x {
				rem := events[i].Duration - x
				s.AddDuration(rem)
				if rem >= 5*time.Minute {
					persist++
				}
			}
		}
		pt := ResidualPoint{Elapsed: x, Surviving: s.N()}
		if s.N() > 0 {
			pt.Mean = time.Duration(s.Mean() * float64(time.Second))
			pt.Median = time.Duration(s.Median() * float64(time.Second))
			pt.P25 = time.Duration(s.Percentile(25) * float64(time.Second))
			pt.FracPersist5MoreMins = float64(persist) / float64(s.N())
		}
		out = append(out, pt)
	}
	return out
}

// AvoidableUnavailability estimates the fraction of total downtime that a
// repair system eliminates if it repairs any outage lasting beyond
// (detect + converge) at that deadline — the "poisoning could avoid up to
// 80% of unavailability" estimate of §4.2.
func AvoidableUnavailability(events []Event, repairAfter time.Duration) float64 {
	var total, saved float64
	for i := range events {
		d := events[i].Duration.Seconds()
		total += d
		if events[i].Duration > repairAfter {
			saved += d - repairAfter.Seconds()
		}
	}
	if total == 0 {
		return 0
	}
	return saved / total
}

// PoisonableRate returns P(d): the number of events per day lasting at
// least d that are candidates for poisoning (partial outages only, complete
// ones excluded per §5.4), given the observation window implied by the
// event start times.
func PoisonableRate(events []Event, d time.Duration) float64 {
	if len(events) == 0 {
		return 0
	}
	span := events[len(events)-1].Start + events[len(events)-1].Duration
	days := span.Hours() / 24
	if days <= 0 {
		return 0
	}
	n := 0
	for i := range events {
		if events[i].Partial && events[i].Duration >= d {
			n++
		}
	}
	return float64(n) / days
}
