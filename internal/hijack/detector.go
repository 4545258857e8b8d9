package hijack

import (
	"sort"
	"time"

	"lifeguard/internal/collectors"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// scanInterval is the detection poll period. ARTEMIS detects within
// seconds because it consumes streaming BGP feeds; the simulated
// equivalent is a short poll of the collector state.
const scanInterval = 10 * time.Second

// Detector watches route-collector streams for announcements that
// contradict the ownership table. It is the control-plane half of the
// pipeline: purely observational, raising and clearing Alarms. Classes
// covered: exact-prefix (false origin on a listed prefix), sub-prefix
// (false origin on a more-specific of owned space), and forged-origin
// (authentic origin reached over a fabricated adjacency).
type Detector struct {
	col *collectors.Collector
	top *topo.Topology
	clk *simclock.Scheduler
	tbl *Table

	// OnAlarm fires when a new alarm is raised; OnClear when no collector
	// peer holds an offending route any more. Both run on the simulation
	// goroutine.
	OnAlarm func(*Alarm)
	OnClear func(*Alarm)

	active map[alarmKey]*Alarm

	started bool
	ticker  simclock.EventID

	mScans, mCleared *obs.Counter
	mAlarms          func(Class) *obs.Counter
}

// NewDetector wires a detector over collector streams, checking against the
// given ownership table.
func NewDetector(col *collectors.Collector, top *topo.Topology, clk *simclock.Scheduler, tbl *Table) *Detector {
	return &Detector{
		col: col, top: top, clk: clk, tbl: tbl,
		active:  make(map[alarmKey]*Alarm),
		mAlarms: func(Class) *obs.Counter { return nil },
	}
}

// Instrument registers the detector's metrics with reg. A nil registry
// leaves it uninstrumented.
func (d *Detector) Instrument(reg *obs.Registry) {
	reg.Describe("lifeguard_hijack_scans_total",
		"detector passes over the collector streams")
	reg.Describe("lifeguard_hijack_alarms_total",
		"hijack alarms raised, by class")
	reg.Describe("lifeguard_hijack_cleared_total",
		"hijack alarms cleared after the offending routes vanished")
	d.mScans = reg.Counter("lifeguard_hijack_scans_total")
	d.mCleared = reg.Counter("lifeguard_hijack_cleared_total")
	d.mAlarms = func(c Class) *obs.Counter {
		return reg.Counter("lifeguard_hijack_alarms_total", obs.L("class", c.String()))
	}
}

// Interval returns the scan period.
func (d *Detector) Interval() time.Duration { return scanInterval }

// Active returns the currently-raised alarms in deterministic order.
func (d *Detector) Active() []*Alarm {
	keys := d.sortedActiveKeys()
	out := make([]*Alarm, 0, len(keys))
	for _, k := range keys {
		out = append(out, d.active[k])
	}
	return out
}

// Start begins periodic scanning; idempotent.
func (d *Detector) Start() {
	if d.started {
		return
	}
	d.started = true
	var tick func()
	tick = func() {
		if !d.started {
			return
		}
		d.Scan()
		d.ticker = d.clk.After(scanInterval, tick)
	}
	d.ticker = d.clk.After(scanInterval, tick)
}

// Stop halts scanning; active alarms stay raised (they clear on the next
// Scan after a Start). Idempotent.
func (d *Detector) Stop() {
	if !d.started {
		return
	}
	d.started = false
	d.clk.Cancel(d.ticker)
}

// classify checks one announced path against the prefix's resolved owner.
// The path is origin-last; exact says whether the prefix itself is listed in
// the table (vs. resolved through a covering entry).
func (d *Detector) classify(p topo.Path, owner topo.ASN, exact bool) (Class, topo.ASN, bool) {
	origin, ok := p.Origin()
	if !ok {
		return 0, 0, false
	}
	if origin != owner {
		if exact {
			return ExactPrefix, origin, true
		}
		return SubPrefix, origin, true
	}
	// Origin is authentic. The origin's own announcement pattern (prepends,
	// poison tokens) forms the path suffix starting at the first occurrence
	// of the owner ASN — only the owner can insert its own ASN — so the
	// element just before that is the AS claiming to be the owner's
	// neighbor. A claim the topology doesn't back is a forged-origin attack.
	for i, asn := range p {
		if asn == owner {
			if i == 0 {
				return 0, 0, false // collector peer neighbors the owner directly
			}
			if claimant := p[i-1]; !d.top.Adjacent(claimant, owner) {
				return ForgedOrigin, claimant, true
			}
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// Scan runs one detection pass: every recorded prefix that resolves in the
// ownership table is checked at every collector peer's current route. New
// offending (class, rogue, prefix) combinations raise alarms stamped with
// how long the offense had been visible; active alarms with no remaining
// offending peer clear. Deterministic: prefixes, peers, and alarm keys are
// all iterated in sorted order.
func (d *Detector) Scan() {
	now := d.clk.Now()
	d.mScans.Inc()

	type offense struct {
		owner topo.ASN
		peers []topo.ASN
	}
	offending := make(map[alarmKey]*offense)
	var keys []alarmKey
	for _, prefix := range d.col.RecordedPrefixes() {
		owner, exact, ok := d.tbl.Owner(prefix)
		if !ok {
			continue // not our address space
		}
		for _, peer := range d.col.Peers() {
			path := d.col.CurrentPath(peer, prefix)
			if len(path) == 0 {
				continue
			}
			class, rogue, bad := d.classify(path, owner, exact)
			if !bad {
				continue
			}
			k := alarmKey{class: class, rogue: rogue, prefix: prefix}
			o := offending[k]
			if o == nil {
				o = &offense{owner: owner}
				offending[k] = o
				keys = append(keys, k)
			}
			o.peers = append(o.peers, peer)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	for _, k := range keys {
		o := offending[k]
		if a := d.active[k]; a != nil {
			a.Peers = o.peers
			continue
		}
		a := &Alarm{
			Class: k.class, Prefix: k.prefix, Owner: o.owner, Rogue: k.rogue,
			DetectedAt: now, Peers: o.peers,
		}
		if first, ok := d.earliestOffense(k, o.owner); ok {
			a.Latency = now - first
		}
		d.active[k] = a
		d.mAlarms(k.class).Inc()
		if d.OnAlarm != nil {
			d.OnAlarm(a)
		}
	}

	for _, k := range d.sortedActiveKeys() {
		if offending[k] != nil {
			continue
		}
		a := d.active[k]
		delete(d.active, k)
		a.Peers = nil
		a.ClearedAt = now
		d.mCleared.Inc()
		if d.OnClear != nil {
			d.OnClear(a)
		}
	}
}

// earliestOffense finds when the offense first became visible in any peer's
// stream — the reference point for detection latency.
func (d *Detector) earliestOffense(k alarmKey, owner topo.ASN) (time.Duration, bool) {
	_, exact, _ := d.tbl.Owner(k.prefix)
	first, found := time.Duration(0), false
	for _, peer := range d.col.Peers() {
		for _, e := range d.col.Updates(peer, k.prefix) {
			if len(e.Path) == 0 {
				continue
			}
			class, rogue, bad := d.classify(e.Path, owner, exact)
			if !bad || class != k.class || rogue != k.rogue {
				continue
			}
			if !found || e.At < first {
				first = e.At
			}
			found = true
			break // entries are time-ordered; the first hit is this peer's earliest
		}
	}
	return first, found
}

func (d *Detector) sortedActiveKeys() []alarmKey {
	keys := make([]alarmKey, 0, len(d.active))
	for k := range d.active {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}
