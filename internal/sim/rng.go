package sim

// Per-agent deterministic randomness for fault injection.
//
// Every agent owns an independent splitmix64 stream derived from the
// scenario FaultSeed and the agent's index, and draws exactly one variate
// per SpotDC slot. The randomness an agent consumes is then a pure function
// of (FaultSeed, agent index, slot) rather than of the order the slot loop
// visits agents in, and the golden experiment output (ext-faults' lost
// bids) is pinned to these streams.

// splitmix64Gamma is Steele et al.'s golden-ratio increment.
const splitmix64Gamma = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 output finalizer (Steele, Lea & Flood,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA'14).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// faultStream is one agent's bid-loss RNG stream.
type faultStream struct{ state uint64 }

// newFaultStream derives agent i's stream from the scenario seed: the
// (seed, agent) pair is folded through two finalizer rounds so streams of
// adjacent agents (and adjacent seeds) are statistically independent.
func newFaultStream(seed int64, agent int) faultStream {
	s := mix64(uint64(seed) + splitmix64Gamma*uint64(agent+1))
	return faultStream{state: mix64(s)}
}

// next advances the stream.
func (f *faultStream) next() uint64 {
	f.state += splitmix64Gamma
	return mix64(f.state)
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (f *faultStream) Float64() float64 {
	return float64(f.next()>>11) / (1 << 53)
}
