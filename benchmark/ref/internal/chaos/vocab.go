package chaos

// FaultDoc is one entry of the script vocabulary: the keyword, its argument
// shape in the script grammar, and a one-line description. It backs
// `lgchaos -list-faults`, so operators can discover the fault language
// without reading fault.go.
type FaultDoc struct {
	Kind  string // script keyword
	Usage string // canonical argument form
	Doc   string // one-line semantics
}

// Vocabulary enumerates every fault kind the parser accepts, sorted by
// keyword. TestVocabularyMatchesParser pins that this list and the parser's
// argc table never drift apart.
func Vocabulary() []FaultDoc {
	return []FaultDoc{
		{"blackhole", "blackhole <as> <dstPrefix>", "AS silently drops forwarded traffic toward dstPrefix (control plane unaffected)"},
		{"crash", "crash <as>", "AS's router crashes: origins withdrawn, all transit blackholed until healed"},
		{"crashcontrol", "crashcontrol <originAS>", "crash the LIFEGUARD control plane of the session with that origin (graceful-restart policy applies on heal)"},
		{"delay", "delay <asA> <asB> <duration>", "add per-message BGP propagation delay on the A-B adjacency (both directions)"},
		{"forgedorigin", "forgedorigin <rogueAS> <victimAS> <prefix>", "rogue announces victim's prefix with forged path [rogue victim] (origin looks legitimate)"},
		{"hijack", "hijack <rogueAS> <prefix>", "rogue originates someone else's exact prefix (partial capture by decision process)"},
		{"linkdown", "linkdown <asA> <asB>", "cut the A-B adjacency: BGP session down and data plane dropped both ways"},
		{"loss", "loss <as> <prob> <seed>", "AS drops each forwarded packet with probability prob (deterministic per-packet hash of seed)"},
		{"oneway", "oneway <asFrom> <asTo>", "silently drop traffic crossing from->to while the reverse direction keeps working"},
		{"sessionreset", "sessionreset <asA> <asB>", "fail only the BGP session between A and B; the data plane keeps forwarding"},
		{"subhijack", "subhijack <rogueAS> <moreSpecificPrefix>", "rogue originates a more-specific of someone else's prefix (LPM diverts all acceptors)"},
	}
}
