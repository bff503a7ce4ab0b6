// Package serve is the campaign-as-a-service layer: a long-running
// daemon (cmd/dsrserve) wrapping the parallel campaign engine behind
// an HTTP/JSON job API — submit a program plus a campaign
// configuration, get a job id; stream live MBPTA progress over SSE;
// scrape per-job metrics; cancel; and survive crashes through
// checksummed, append-only checkpoint journals that resume
// byte-identically.
//
// The package's hard invariant — inherited from the campaign engine
// and proven by the service determinism suite — is that the execution
// path is unobservable in the output: a job's results, MBPTA stream,
// telemetry JSONL and rendered report are byte-identical to the
// equivalent dsrrun CLI invocation at any worker count, across
// cancel/resubmit, mid-flight checkpoint/restore, and concurrent jobs.
// The CLI and the service literally share the runner (Run/FormatReport
// in this package), so the invariant is structural, not coincidental.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"dsr/internal/analysis"
	"dsr/internal/asm"
	"dsr/internal/core"
	"dsr/internal/loader"
	"dsr/internal/mbpta"
	"dsr/internal/prog"
)

// Spec is one campaign job: the program to measure plus the campaign
// dimensions. It is the wire format of POST /jobs and the persisted
// spec.json of a job directory. Everything a run produces is a pure
// function of this struct, which is what makes jobs checkpointable,
// resumable and byte-reproducible.
type Spec struct {
	// ID is the client-chosen job id (also the idempotency key: a
	// resubmission with the same id and an identical spec returns the
	// existing job instead of enqueuing a duplicate). The server
	// assigns a sequential id when empty.
	ID string `json:"id,omitempty"`
	// Source is the program in the simulator's assembly syntax.
	Source string `json:"source"`
	// Runs is the campaign size.
	Runs int `json:"runs"`
	// Seed is the base layout seed of the splittable per-run schedule.
	Seed uint64 `json:"seed"`
	// Workers is the campaign worker-pool size (0 = one per CPU,
	// 1 = sequential); output is identical for every value.
	Workers int `json:"workers,omitempty"`
	// Priority orders the job queue: higher runs sooner; ties run in
	// submission order.
	Priority int `json:"priority,omitempty"`
	// BlockSize overrides the MBPTA block size (0 selects the same
	// runs-derived default the dsrrun CLI uses).
	BlockSize int `json:"block_size,omitempty"`
	// Attribution enables the cycle-attribution profiler; the rendered
	// report then includes the per-component split.
	Attribution bool `json:"attribution,omitempty"`
}

// MaxRuns is the largest campaign Validate admits: Run sizes a job's
// one-Point-per-run result slice up front, so a larger count could ask
// the daemon for more memory than the host has.
const MaxRuns = 1_000_000

// MaxWorkers is the largest worker pool Validate admits: every worker
// builds its own platform and DSR runtime, so an unbounded count could
// ask the daemon for that many machines at once.
const MaxWorkers = 256

// ValidID reports whether id is acceptable as a job id: a single safe
// path segment of at most 64 bytes drawn from [A-Za-z0-9._-], and not
// "." or "..". The job id becomes a directory name under
// DataDir/jobs/, so anything else — separators, traversal dots, empty
// segments — must be rejected before it ever reaches the filesystem.
func ValidID(id string) bool {
	if id == "" || len(id) > 64 || id == "." || id == ".." {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks the job id and campaign dimensions, assembles the
// program, transforms it and links it as the DSR runtime does, and
// verifies the transform — the same gate dsrrun applies before
// measuring anything. It returns the assembled program (its Name is
// the job's series label). A spec that validates will execute (modulo
// analysis-stage errors such as an i.i.d. rejection).
func (s *Spec) Validate() (*prog.Program, error) {
	if s.ID != "" && !ValidID(s.ID) {
		return nil, fmt.Errorf("serve: job id %q is not a safe path segment (want [A-Za-z0-9._-]{1,64}, not %q or %q)", s.ID, ".", "..")
	}
	if s.Runs <= 0 || s.Runs > MaxRuns {
		return nil, fmt.Errorf("serve: runs must be in [1, %d], got %d", MaxRuns, s.Runs)
	}
	// Divide, not multiply: 4*BlockSize wraps for block_size >= 2^61.
	if s.Runs/4 < s.MBPTAOptions().BlockSize {
		return nil, fmt.Errorf("serve: %d runs too few for MBPTA block size %d", s.Runs, s.MBPTAOptions().BlockSize)
	}
	if s.Workers > MaxWorkers {
		return nil, fmt.Errorf("serve: workers must be at most %d, got %d", MaxWorkers, s.Workers)
	}
	p, err := asm.Assemble(s.Source)
	if err != nil {
		return nil, fmt.Errorf("serve: assemble: %w", err)
	}
	tp, meta, _, err := core.Transform(p)
	if err == nil {
		_, err = loader.LayoutSequential(tp, loader.DefaultSequentialConfig())
	}
	if err != nil {
		return nil, fmt.Errorf("serve: dsr runtime: %w", err)
	}
	if err := verifyError(analysis.VerifyTransform(p, tp, meta.TransformInfo())); err != nil {
		return nil, err
	}
	return p, nil
}

// verifyError names every Error diagnostic of the transform verifier,
// or is nil when there is none.
func verifyError(diags []analysis.Diagnostic) error {
	var msgs []string
	for _, d := range analysis.Errors(diags) {
		msgs = append(msgs, d.String())
	}
	if msgs == nil {
		return nil
	}
	return fmt.Errorf("serve: DSR transform verification failed: %s", strings.Join(msgs, "; "))
}

// MBPTAOptions resolves the analysis options exactly as the dsrrun CLI
// does: the default block size, shrunk (floor 5) when the campaign is
// too small to yield ten block maxima.
func (s *Spec) MBPTAOptions() mbpta.Options {
	opts := mbpta.DefaultOptions()
	if s.BlockSize > 0 {
		opts.BlockSize = s.BlockSize
		return opts
	}
	if s.Runs/opts.BlockSize < 10 {
		opts.BlockSize = s.Runs / 10
		if opts.BlockSize < 5 {
			opts.BlockSize = 5
		}
	}
	return opts
}

// Hash is the canonical content hash of the spec minus its id: two
// submissions measure the same campaign exactly when their hashes
// agree. Checkpoints embed it so a resumed job can prove the journal
// belongs to this spec.
func (s *Spec) Hash() string {
	c := *s
	c.ID = ""
	b, err := json.Marshal(c)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
