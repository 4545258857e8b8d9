package chaos

import (
	"fmt"
	"net/netip"

	"lifeguard/internal/bgp"
	"lifeguard/internal/topo"
)

// The hijack fault family models an adversary originating someone else's
// address space — the attack class LIFEGUARD's own monitor is blind to
// (it repairs paths, it does not police origins) and the one the ARTEMIS
// detection/mitigation plane in internal/hijack exists for. All three are
// plain reversible faults: Inject announces from the rogue AS through the
// ordinary engine machinery (so propagation, policy, and MRAI behave as
// for any announcement) and Heal withdraws.

// OriginHijack makes Rogue originate Prefix — an exact-prefix origin
// hijack. Only ASes that prefer the rogue's announcement under the normal
// decision process are captured, which is what makes the attack partial
// and placement-dependent.
type OriginHijack struct {
	Rogue  topo.ASN
	Prefix netip.Prefix
}

// Kind implements Fault.
func (f *OriginHijack) Kind() string { return "hijack" }

// String implements Fault.
func (f *OriginHijack) String() string { return fmt.Sprintf("hijack %d %v", f.Rogue, f.Prefix) }

// Validate implements Fault.
func (f *OriginHijack) Validate(t *Target) error {
	if err := requireHijackable(t, f.Rogue, f.Prefix); err != nil {
		return err
	}
	victim, ok := originOf(t, f.Prefix)
	if !ok {
		return fmt.Errorf("chaos: hijack %v: nobody originates that prefix", f.Prefix)
	}
	if victim == f.Rogue {
		return fmt.Errorf("chaos: hijack %v: AS %d already originates it", f.Prefix, f.Rogue)
	}
	return nil
}

// Inject implements Fault.
func (f *OriginHijack) Inject(t *Target) { t.Eng.Announce(f.Rogue, f.Prefix, bgp.OriginConfig{}) }

// Heal implements Fault.
func (f *OriginHijack) Heal(t *Target) { t.Eng.Withdraw(f.Rogue, f.Prefix) }

// SubPrefixHijack makes Rogue originate a more-specific of someone else's
// prefix. Longest-prefix match means every AS that accepts the route at
// all diverts traffic to the rogue — the total-capture variant ARTEMIS
// calls a sub-prefix hijack, and the case where the victim cannot simply
// de-aggregate back (the rogue is already at the specificity frontier).
type SubPrefixHijack struct {
	Rogue  topo.ASN
	Prefix netip.Prefix // the more-specific the rogue announces
}

// Kind implements Fault.
func (f *SubPrefixHijack) Kind() string { return "subhijack" }

// String implements Fault.
func (f *SubPrefixHijack) String() string { return fmt.Sprintf("subhijack %d %v", f.Rogue, f.Prefix) }

// Validate implements Fault.
func (f *SubPrefixHijack) Validate(t *Target) error {
	if err := requireHijackable(t, f.Rogue, f.Prefix); err != nil {
		return err
	}
	if _, taken := originOf(t, f.Prefix); taken {
		return fmt.Errorf("chaos: subhijack %v: prefix is originated exactly (use hijack)", f.Prefix)
	}
	if _, ok := coveringOriginOf(t, f.Prefix); !ok {
		return fmt.Errorf("chaos: subhijack %v: no AS originates a covering less-specific", f.Prefix)
	}
	return nil
}

// Inject implements Fault.
func (f *SubPrefixHijack) Inject(t *Target) { t.Eng.Announce(f.Rogue, f.Prefix, bgp.OriginConfig{}) }

// Heal implements Fault.
func (f *SubPrefixHijack) Heal(t *Target) { t.Eng.Withdraw(f.Rogue, f.Prefix) }

// ForgedOrigin makes Rogue announce Victim's prefix with a forged AS path
// [Rogue Victim]: the true origin appears last, so origin-only filters see
// nothing wrong, and the hijack is visible only as an impossible adjacency
// in the middle of the path (Rogue claims a link to Victim that the
// topology does not contain). This is ARTEMIS's "type-1" / fake-first-hop
// attack, and the reason the detector cross-checks path adjacencies rather
// than just origins.
type ForgedOrigin struct {
	Rogue  topo.ASN
	Victim topo.ASN
	Prefix netip.Prefix
}

// Kind implements Fault.
func (f *ForgedOrigin) Kind() string { return "forgedorigin" }

// String implements Fault.
func (f *ForgedOrigin) String() string {
	return fmt.Sprintf("forgedorigin %d %d %v", f.Rogue, f.Victim, f.Prefix)
}

// Validate implements Fault.
func (f *ForgedOrigin) Validate(t *Target) error {
	if err := requireHijackable(t, f.Rogue, f.Prefix); err != nil {
		return err
	}
	if err := requireAS(t, f.Victim); err != nil {
		return err
	}
	if f.Rogue == f.Victim {
		return fmt.Errorf("chaos: forgedorigin: rogue and victim are both AS %d", f.Rogue)
	}
	if t.Top.Adjacent(f.Rogue, f.Victim) {
		return fmt.Errorf("chaos: forgedorigin: AS %d and AS %d are adjacent — the forged link would be real", f.Rogue, f.Victim)
	}
	victim, ok := originOf(t, f.Prefix)
	if !ok || victim != f.Victim {
		return fmt.Errorf("chaos: forgedorigin: AS %d does not originate %v", f.Victim, f.Prefix)
	}
	return nil
}

// Inject implements Fault.
func (f *ForgedOrigin) Inject(t *Target) {
	if err := t.Eng.AnnounceForged(f.Rogue, f.Prefix, topo.Path{f.Rogue, f.Victim}); err != nil {
		panic(err)
	}
}

// Heal implements Fault.
func (f *ForgedOrigin) Heal(t *Target) { t.Eng.Withdraw(f.Rogue, f.Prefix) }

// requireHijackable gathers the checks all hijack variants share: the rogue
// exists and the prefix is a masked IPv4 prefix the engine will accept.
func requireHijackable(t *Target, rogue topo.ASN, p netip.Prefix) error {
	if err := requireAS(t, rogue); err != nil {
		return err
	}
	if !p.IsValid() || !p.Addr().Is4() || p != p.Masked() {
		return fmt.Errorf("chaos: hijack prefix %v is not a masked IPv4 prefix", p)
	}
	return nil
}

// originOf scans the engine's origin tables for the AS originating prefix
// exactly. Ambiguous prefixes (already originated by more than one AS —
// e.g. a previous hijack) report the lowest ASN, which is fine for the
// fail-fast validation this backs.
func originOf(t *Target, prefix netip.Prefix) (topo.ASN, bool) {
	for _, asn := range t.Top.ASNs() {
		for _, o := range t.Eng.Origins(asn) {
			if o.Prefix == prefix {
				return asn, true
			}
		}
	}
	return 0, false
}

// coveringOriginOf finds the AS originating the longest strict less-specific
// covering prefix.
func coveringOriginOf(t *Target, prefix netip.Prefix) (topo.ASN, bool) {
	best := -1
	var owner topo.ASN
	for _, asn := range t.Top.ASNs() {
		for _, o := range t.Eng.Origins(asn) {
			if o.Prefix.Bits() < prefix.Bits() && o.Prefix.Contains(prefix.Addr()) && o.Prefix.Bits() > best {
				best, owner = o.Prefix.Bits(), asn
			}
		}
	}
	return owner, best >= 0
}
