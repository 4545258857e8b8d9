// Package a exercises handle creation inside fan-out closures within one
// package.
package a

type Counter struct{ n int64 }

func (c *Counter) Inc() { c.n++ }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter              { return &Counter{} }
func (r *Registry) Gauge(name string) *Counter                { return &Counter{} }
func (r *Registry) Histogram(name string, b []float64) *Counter { return &Counter{} }
func (r *Registry) Describe(name, help string)                {}
func (r *Registry) Merge(src *Registry)                       {}

type Config struct {
	Obs *Registry
}

// Map mirrors runner.Map: each trial is handed its own registry (nil when
// dst is nil), merged into dst afterwards.
func Map(n int, dst *Registry, trial func(trial int, reg *Registry) error) error {
	for i := 0; i < n; i++ {
		var reg *Registry
		if dst != nil {
			reg = &Registry{}
		}
		if err := trial(i, reg); err != nil {
			return err
		}
		dst.Merge(reg)
	}
	return nil
}

func escapingParam(reg *Registry) {
	Map(4, nil, func(trial int, _ *Registry) error {
		reg.Counter("trials_total").Inc() // want `obs registry Counter inside a Map trial closure on an escaping registry`
		return nil
	})
}

func escapingLocal() {
	reg := &Registry{}
	Map(4, nil, func(trial int, _ *Registry) error {
		reg.Describe("trials_total", "completed trials") // want `obs registry Describe inside a Map trial closure on an escaping registry`
		return nil
	})
}

func escapingField(cfg Config) {
	Map(4, nil, func(trial int, _ *Registry) error {
		g := cfg.Obs.Gauge("inflight") // want `obs registry Gauge inside a Map trial closure on an escaping registry`
		g.Inc()
		return nil
	})
}

// The closure is handed its own registry but writes the captured one.
func escapingDst(dst *Registry) {
	Map(4, dst, func(trial int, reg *Registry) error {
		dst.Counter("trials_total").Inc() // want `obs registry Counter inside a Map trial closure on an escaping registry`
		return nil
	})
}
