package topo

import (
	"fmt"
	"net/netip"
)

// Address plan. Each AS n owns the /16 block whose first two octets encode
// 256+n, i.e. AS 1 owns 1.1.0.0/16 ... AS 5000 owns 20.137.0.0/16. Within
// the block:
//
//	x.y.0.0   – x.y.239.255   router interface addresses
//	x.y.240.0/24               production prefix (live traffic)
//	x.y.240.0/23               sentinel prefix (contains production + unused)
//	x.y.241.0/24               the unused half of the sentinel; probes
//	                           sourced here always route via the sentinel
//
// This mirrors §4.2/§7.2: the sentinel is a less-specific containing both
// the production prefix and an otherwise-unused prefix.

const blockBase = 256 // AS n's block starts at octets (256+n)>>8, (256+n)&0xff

// MaxASN is the largest ASN the address plan supports. The bound comes from
// the plan itself — two octets encode 256+n, and the 256-block offset (which
// keeps blocks out of 0.0.0.0/8) eats the top of that space — not from the
// ASN type, which is 32-bit. ASes numbered above MaxASN can still route
// (announce explicit prefixes, appear in paths) but own no derived block.
const MaxASN ASN = 0xFFFF - blockBase

// Block returns the /16 address block owned by asn.
func Block(asn ASN) netip.Prefix {
	if asn > MaxASN {
		panic(fmt.Sprintf("topo: ASN %d exceeds MaxASN %d", asn, MaxASN))
	}
	n := blockBase + int(asn)
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(n >> 8), byte(n)}), 16)
}

// RouterAddr returns the interface address for the idx-th router of asn.
func RouterAddr(asn ASN, idx int) netip.Addr {
	if idx < 0 || idx >= 240*256 {
		panic(fmt.Sprintf("topo: router index %d out of range for AS %d", idx, asn))
	}
	b := Block(asn).Addr().As4()
	return netip.AddrFrom4([4]byte{b[0], b[1], byte(idx >> 8), byte(idx)})
}

// ProductionPrefix returns asn's production /24 — the prefix carrying live
// traffic, the one LIFEGUARD poisons.
func ProductionPrefix(asn ASN) netip.Prefix {
	b := Block(asn).Addr().As4()
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{b[0], b[1], 240, 0}), 24)
}

// SentinelPrefix returns asn's sentinel /23, a less-specific covering the
// production prefix plus an unused /24.
func SentinelPrefix(asn ASN) netip.Prefix {
	b := Block(asn).Addr().As4()
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{b[0], b[1], 240, 0}), 23)
}

// ProductionAddr returns a representative host address inside the
// production prefix (used as a probe target).
func ProductionAddr(asn ASN) netip.Addr {
	b := Block(asn).Addr().As4()
	return netip.AddrFrom4([4]byte{b[0], b[1], 240, 1})
}

// SentinelProbeAddr returns a host address in the unused half of the
// sentinel. Traffic to/from this address always routes via the sentinel
// prefix regardless of how the production prefix is announced.
func SentinelProbeAddr(asn ASN) netip.Addr {
	b := Block(asn).Addr().As4()
	return netip.AddrFrom4([4]byte{b[0], b[1], 241, 1})
}

// OwnerOf returns the AS whose /16 block contains addr, and false if the
// address is outside every block this plan can produce.
func OwnerOf(addr netip.Addr) (ASN, bool) {
	if !addr.Is4() {
		return 0, false
	}
	b := addr.As4()
	n := int(b[0])<<8 | int(b[1])
	if n < blockBase || n-blockBase > 0xFFFF {
		return 0, false
	}
	return ASN(n - blockBase), true
}
