package mbpta

// Stream collects execution times one at a time, in canonical run
// order, as a campaign merges its runs; once the campaign ends Report
// analyses the ordered sample exactly as Analyse would.
//
// A nil *Stream is the disabled stream: Observe no-ops, mirroring the
// telemetry conventions, so campaign code needs no guards.
//
// Stream is not safe for concurrent use; call Observe only from the
// single-threaded canonical-order merge.
type Stream struct {
	opts  Options
	times []float64
}

// NewStream returns a stream analysing under opts; a non-positive
// BlockSize adopts the default (paper) block size.
func NewStream(opts Options) *Stream {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultOptions().BlockSize
	}
	return &Stream{opts: opts}
}

// Observe appends one execution time to the sample; nil-safe.
func (s *Stream) Observe(x float64) {
	if s == nil {
		return
	}
	s.times = append(s.times, x)
}

// Times returns the sample in canonical run order (not a copy);
// nil-safe.
func (s *Stream) Times() []float64 {
	if s == nil {
		return nil
	}
	return s.times
}

// Report runs the full MBPTA pipeline over everything observed so far:
// Analyse(Times(), opts).
func (s *Stream) Report() (*Report, error) {
	return Analyse(s.times, s.opts)
}
