// Package clean holds the accepted forms: handles created before the
// fan-out, the per-trial registry the fan-out hands each trial, per-trial
// registries merged by hand, and registry calls in ordinary (non-fan-out)
// closures.
package clean

type Counter struct{ n int64 }

func (c *Counter) Inc() { c.n++ }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter { return &Counter{} }
func (r *Registry) Describe(name, help string)   {}
func (r *Registry) Merge(src *Registry)          {}

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

func handlesBeforeFanOut(reg *Registry) error {
	trials := reg.Counter("trials_total")
	return Map(4, nil, func(trial int, _ *Registry) error {
		trials.Inc()
		return nil
	})
}

func trialRegistryParam(dst *Registry) error {
	return Map(4, dst, func(trial int, reg *Registry) error {
		reg.Counter("trials_total").Inc()
		return nil
	})
}

func perTrialRegistry(shared *Registry) error {
	return Map(4, nil, func(trial int, _ *Registry) error {
		local := &Registry{}
		local.Counter("trials_total").Inc()
		shared.Merge(local)
		return nil
	})
}

// visit is not a fan-out: closures given to it may touch the registry.
func visit(f func() error) error { return f() }

func ordinaryClosure(reg *Registry) error {
	return visit(func() error {
		reg.Counter("setup_total").Inc()
		return nil
	})
}
