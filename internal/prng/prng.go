// Package prng provides the pseudo-random number generators used by the
// DSR runtime. The paper (§III.B.3) selects the Multiply-With-Carry (MWC)
// generator of Marsaglia & Zaman because it is the simplest generator to
// implement in software whose period was shown adequate for probabilistic
// timing analysis (Agirre et al., DSD 2015); the same work proposes an
// LFSR for hardware implementations, which we provide for the A3 ablation.
//
// All generators implement Source, a minimal 32-bit interface; helper
// methods derive bounded values from it without modulo bias beyond what
// the real DSR runtime accepts (the runtime uses plain modulo, and so do
// we, to stay faithful: placement offsets are so much smaller than 2^32
// that the bias is negligible).
package prng

// Source is a deterministic stream of 32-bit values. Implementations are
// not safe for concurrent use; the DSR runtime owns one Source per run.
type Source interface {
	// Uint32 returns the next 32-bit value in the stream.
	Uint32() uint32
	// Seed re-initialises the stream. A zero seed is replaced by an
	// implementation-chosen non-degenerate constant.
	Seed(seed uint64)
}

// MWC is the lag-1 Multiply-With-Carry generator x' = a*lo(x) + carry,
// with a = 698769069 as recommended by Marsaglia. Its state is the pair
// (value, carry) packed into 64 bits; the period is close to 2^63.
type MWC struct {
	state uint64
}

// mwcA is Marsaglia's recommended multiplier for a 32-bit MWC: it is
// chosen so that a*2^32-1 and a*2^31-1 are prime, maximising the period.
const mwcA = 698769069

// NewMWC returns an MWC generator seeded with seed.
func NewMWC(seed uint64) *MWC {
	m := &MWC{}
	m.Seed(seed)
	return m
}

// Scramble applies the splitmix64 finaliser. MWC (like any multiplicative
// recurrence) maps *sequential* seeds to outputs that form an arithmetic
// progression, which would make successive DSR layouts — and therefore
// successive execution times — statistically dependent and fail the
// Ljung-Box gate. The measurement protocol draws seeds 1, 2, 3, ..., so
// seeds must be whitened non-linearly before they reach the generator
// state (the PRNG-quality requirement of Agirre et al., DSD 2015).
func Scramble(seed uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Seed implements Source. Degenerate states (carry and value both zero,
// or the absorbing state) are remapped to a fixed good state.
func (m *MWC) Seed(seed uint64) {
	m.state = Scramble(seed)
	// Avoid the two absorbing states of MWC: x=c=0 and x=a-1,c=a-1.
	if m.state == 0 || m.state == (uint64(mwcA-1)<<32|uint64(mwcA-1)) {
		m.state = 1
	}
	// Warm up so that close seeds diverge before first use.
	for i := 0; i < 8; i++ {
		m.Uint32()
	}
}

// Uint32 implements Source.
func (m *MWC) Uint32() uint32 {
	x := m.state & 0xFFFFFFFF
	c := m.state >> 32
	m.state = mwcA*x + c
	return uint32(m.state)
}

// LFSR is a 32-bit Galois linear-feedback shift register with the
// maximal-length polynomial x^32+x^22+x^2+x^1+1 (taps 0xB4BCD35C is the
// common Galois mask for this polynomial family). Period 2^32-1; the
// zero state is unreachable and is remapped at seeding.
type LFSR struct {
	state uint32
}

// lfsrTaps is a maximal-period Galois tap mask for 32-bit LFSRs.
const lfsrTaps = 0xB4BCD35C

// NewLFSR returns an LFSR seeded with seed.
func NewLFSR(seed uint64) *LFSR {
	l := &LFSR{}
	l.Seed(seed)
	return l
}

// Seed implements Source. Seeds are whitened like MWC's: an LFSR is
// linear over GF(2), so sequential raw seeds would likewise correlate.
func (l *LFSR) Seed(seed uint64) {
	w := Scramble(seed)
	s := uint32(w) ^ uint32(w>>32)
	if s == 0 {
		s = 0xACE1ACE1
	}
	l.state = s
	for i := 0; i < 8; i++ {
		l.Uint32()
	}
}

// Uint32 implements Source. Each call clocks the register 32 times so
// that successive outputs are decorrelated words, matching how a
// hardware LFSR would be sampled once per randomisation event.
func (l *LFSR) Uint32() uint32 {
	var out uint32
	for i := 0; i < 32; i++ {
		lsb := l.state & 1
		l.state >>= 1
		if lsb != 0 {
			l.state ^= lfsrTaps
		}
		out = out<<1 | lsb
	}
	return out
}

// Intn returns a value in [0, n) drawn from src. n must be positive.
// Plain modulo reduction is used deliberately: the production DSR runtime
// does the same, and placement ranges (≤ a cache way) make the bias
// irrelevant next to 2^32.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(src.Uint32() % uint32(n))
}

// AlignedOffset returns a random offset in [0, bound) that is a multiple
// of align. The paper requires stack offsets to be multiples of 8 (SPARC
// double-word alignment) and bounded by the cache way size.
func AlignedOffset(src Source, bound, align int) int {
	if align <= 0 || bound <= 0 || bound%align != 0 {
		panic("prng: AlignedOffset requires positive bound divisible by align")
	}
	slots := bound / align
	return Intn(src, slots) * align
}

// Uint64 composes two 32-bit draws into a 64-bit value.
func Uint64(src Source) uint64 {
	return uint64(src.Uint32())<<32 | uint64(src.Uint32())
}

// Float64 returns a value in [0,1) with 53 random bits, used by the
// synthetic workload generators (not by the DSR runtime itself).
func Float64(src Source) float64 {
	return unit53(Uint64(src))
}

// Float64 is prng.Float64(m) without the interface calls: the same two
// draws, high word first, mapped the same way, so the two are
// interchangeable on one stream. It inlines into per-pixel loops.
func (m *MWC) Float64() float64 {
	return unit53(uint64(m.Uint32())<<32 | uint64(m.Uint32()))
}

// unit53 maps the top 53 bits of u onto [0,1). They fit an int64, whose
// conversion is exact and, unlike uint64's, a single instruction.
func unit53(u uint64) float64 {
	return float64(int64(u>>11)) / (1 << 53)
}

// Perm returns a random permutation of [0,n), used by the eager relocator
// to shuffle function placement order so that pool fragmentation does not
// correlate with link order.
func Perm(src Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := Intn(src, i+1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Stateful is implemented by sources whose full generator state fits a
// 64-bit word and can be captured and reinstated — what a platform
// snapshot needs to fork a booted machine without disturbing the
// generator's stream. Both repository generators implement it.
type Stateful interface {
	// State returns the generator's complete current state.
	State() uint64
	// SetState reinstates a state previously returned by State.
	SetState(s uint64)
}

// State implements Stateful.
func (m *MWC) State() uint64 { return m.state }

// SetState implements Stateful.
func (m *MWC) SetState(s uint64) { m.state = s }

// State implements Stateful.
func (l *LFSR) State() uint64 { return uint64(l.state) }

// SetState implements Stateful.
func (l *LFSR) SetState(s uint64) { l.state = uint32(s) }

// PermInto fills p (reused across calls by the DSR reboot path to keep
// the per-run allocation count flat) with a random permutation of
// [0, len(p)), drawing exactly as Perm does.
func PermInto(src Source, p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := Intn(src, i+1)
		p[i], p[j] = p[j], p[i]
	}
}
