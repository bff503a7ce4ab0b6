// Package obs is the live-introspection layer of the campaign stack:
// an embeddable HTTP server (metrics, health, pprof, campaign snapshot,
// SSE event stream) over a thread-safe view of a running campaign.
//
// The design constraint is strict one-way observation: the campaign
// engine and its merge goroutine must never block on an observer.
// Campaign implements campaign.RunObserver; every mutation is a
// short critical section, SSE fan-out uses non-blocking sends (slow
// consumers lose deltas, never stall workers), and MBPTA tail fits run
// on the scraping goroutine against a copied sample — the merge
// goroutine only ever appends. Telemetry registry scrapes ride on the
// registry's own concurrency contract (per-metric-consistent
// snapshots), and span timelines on the tracer's. Enabling any of it
// cannot change campaign results; the determinism suite pins that.
package obs

import (
	"encoding/json"
	"sync"

	"dsr/internal/mbpta"
	"dsr/internal/telemetry"
)

// TailEstimate is the current MBPTA pWCET estimate over the merged
// runs so far.
type TailEstimate struct {
	Runs       int     `json:"runs"`
	MOET       float64 `json:"moet"`
	PWCET      float64 `json:"pwcet"`
	Exceedance float64 `json:"exceedance"`
}

// SeriesSummary records one finished series.
type SeriesSummary struct {
	Name  string        `json:"name"`
	Runs  int           `json:"runs"`
	MOET  float64       `json:"moet,omitempty"`
	PWCET *TailEstimate `json:"pwcet,omitempty"`
}

// Snapshot is the consistent live state served at /campaign and as
// every SSE frame. Seq increases with every published change, so a
// client that connects mid-campaign can order its snapshot against
// subsequent deltas.
type Snapshot struct {
	Seq     uint64  `json:"seq"`
	Series  string  `json:"series"`
	Done    int     `json:"done"`
	Total   int     `json:"total"`
	LastUoA float64 `json:"last_uoa,omitempty"`
	// PWCET is the most recent tail fit (possibly a few runs stale; a
	// /campaign scrape refreshes it when enough new runs arrived).
	PWCET *TailEstimate `json:"pwcet,omitempty"`
	// Workers is the live per-worker state from the span tracer.
	Workers  []telemetry.WorkerLive `json:"workers,omitempty"`
	Finished []SeriesSummary        `json:"finished,omitempty"`
	Ended    bool                   `json:"ended"`
	// DroppedDeltas counts SSE deltas dropped on slow consumers.
	DroppedDeltas uint64 `json:"dropped_deltas,omitempty"`
}

// Subscription is one attached SSE consumer. The channel returned by C
// carries marshalled Snapshot frames; it is never closed, so consumers
// select against their own cancellation signal.
type Subscription struct {
	ch chan []byte
}

// C returns the subscription's delta channel.
func (s *Subscription) C() <-chan []byte { return s.ch }

// subscriberBuffer is each SSE client's delta buffer; once full,
// further deltas are dropped for that client (never queued against the
// merge goroutine).
const subscriberBuffer = 64

// Campaign is the observable state of one running campaign. It
// implements campaign.RunObserver; wire it via Config.Observer and
// (optionally) hand the same Registry/Tracer to Serve.
type Campaign struct {
	registry *telemetry.Registry
	tracer   *telemetry.Tracer
	opts     mbpta.Options

	mu       sync.Mutex
	seq      uint64
	series   string
	done     int
	total    int
	lastUoA  float64
	times    []float64
	fit      *TailEstimate
	fitRuns  int // len(times) when fit was computed
	finished []SeriesSummary
	ended    bool
	drops    uint64
	subs     map[*Subscription]struct{}
}

// NewCampaign builds an observable campaign view. registry and tracer
// may be nil (the corresponding endpoints serve empty data); opts
// configures the live MBPTA tail fit (zero value selects defaults).
func NewCampaign(registry *telemetry.Registry, tracer *telemetry.Tracer, opts mbpta.Options) *Campaign {
	if opts.BlockSize <= 0 {
		opts = mbpta.DefaultOptions()
	}
	return &Campaign{
		registry: registry,
		tracer:   tracer,
		opts:     opts,
		subs:     map[*Subscription]struct{}{},
	}
}

// Registry returns the telemetry registry served at /metrics (may be
// nil).
func (c *Campaign) Registry() *telemetry.Registry { return c.registry }

// Tracer returns the span tracer feeding per-worker live state (may be
// nil).
func (c *Campaign) Tracer() *telemetry.Tracer { return c.tracer }

// BeginSeries implements campaign.RunObserver. Like every observer
// method it is a no-op on a nil receiver, so callers can wire an
// optional view without guarding each call site.
func (c *Campaign) BeginSeries(series string, total int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.series, c.total, c.done = series, total, 0
	c.lastUoA = 0
	c.times = c.times[:0]
	c.fit, c.fitRuns = nil, 0
	c.publishLocked()
	c.mu.Unlock()
}

// ObserveRun implements campaign.RunObserver; called from the merge
// goroutine in canonical order.
func (c *Campaign) ObserveRun(series string, index int, uoa float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.done++
	c.lastUoA = uoa
	c.times = append(c.times, uoa)
	// Publish a delta roughly every 1% of the campaign (at least every
	// run for tiny campaigns) so SSE traffic stays bounded.
	stride := c.total / 100
	if stride < 1 {
		stride = 1
	}
	if c.done%stride == 0 || c.done == c.total {
		c.publishLocked()
	}
	c.mu.Unlock()
}

// EndSeries implements campaign.RunObserver.
func (c *Campaign) EndSeries(series string) {
	if c == nil {
		return
	}
	// Final tail fit for the series summary; runs on the merge goroutine
	// between series, where a millisecond fit is harmless.
	c.refreshFit()
	c.mu.Lock()
	sum := SeriesSummary{Name: series, Runs: c.done}
	if c.fit != nil {
		f := *c.fit
		sum.MOET, sum.PWCET = f.MOET, &f
	}
	c.finished = append(c.finished, sum)
	c.publishLocked()
	c.mu.Unlock()
}

// Done marks the whole campaign finished and publishes the terminal
// event; SSE clients see ended=true and can disconnect.
func (c *Campaign) Done() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ended = true
	c.publishLocked()
	c.mu.Unlock()
}

// fitStride is how many new runs make the cached tail fit stale.
func (c *Campaign) fitStride() int {
	s := c.total / 20
	if s < c.opts.BlockSize {
		s = c.opts.BlockSize
	}
	return s
}

// fitReady reports whether n runs are the sample size the EVT pipeline
// needs before a tail fit is attempted: 10 block maxima (the evt
// fitter's floor, stricter than Analyse's own 4-block input check).
// It divides rather than multiplies, so a huge block size cannot wrap.
func (c *Campaign) fitReady(n int) bool {
	return n/10 >= c.opts.BlockSize
}

// refreshFit recomputes the cached tail estimate if enough new runs
// arrived. The fit runs against a copy of the sample with no locks
// held, so it may run on a scraping goroutine without ever blocking
// the merge.
func (c *Campaign) refreshFit() {
	c.mu.Lock()
	n := len(c.times)
	if !c.fitReady(n) || (c.fit != nil && n-c.fitRuns < c.fitStride()) {
		c.mu.Unlock()
		return
	}
	sample := append([]float64(nil), c.times...)
	c.mu.Unlock()

	rep, err := mbpta.Analyse(sample, c.opts)
	if err != nil {
		return
	}
	est := &TailEstimate{
		Runs: len(sample), MOET: rep.MOET,
		PWCET: rep.PWCET, Exceedance: rep.TargetExceedance,
	}
	c.mu.Lock()
	// Keep the newer fit if a concurrent scrape won the race.
	if c.fit == nil || est.Runs > c.fitRuns {
		c.fit, c.fitRuns = est, est.Runs
		c.publishLocked()
	}
	c.mu.Unlock()
}

// snapshotLocked builds the current snapshot; c.mu must be held. The
// tracer read takes only the tracer's own locks (never c.mu), so the
// order c.mu → tracer.mu is deadlock-free.
func (c *Campaign) snapshotLocked() Snapshot {
	s := Snapshot{
		Seq: c.seq, Series: c.series, Done: c.done, Total: c.total,
		LastUoA: c.lastUoA, Ended: c.ended, DroppedDeltas: c.drops,
		Workers: c.tracer.LiveWorkers(),
	}
	if c.fit != nil {
		f := *c.fit
		s.PWCET = &f
	}
	if len(c.finished) > 0 {
		s.Finished = append([]SeriesSummary(nil), c.finished...)
	}
	return s
}

// Snapshot returns the live state, refreshing the tail fit when stale.
func (c *Campaign) Snapshot() Snapshot {
	c.refreshFit()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

// publishLocked bumps the sequence number and fans the new snapshot
// out to every subscriber without blocking: a subscriber whose buffer
// is full loses this delta (counted in DroppedDeltas). c.mu must be
// held.
func (c *Campaign) publishLocked() {
	c.seq++
	if len(c.subs) == 0 {
		return
	}
	frame, err := json.Marshal(c.snapshotLocked())
	if err != nil {
		return
	}
	for sub := range c.subs {
		select {
		case sub.ch <- frame:
		default:
			c.drops++
		}
	}
}

// Subscribe attaches an SSE consumer, returning its subscription and
// the snapshot current at attach time. The pair is taken atomically
// under the state lock, so the consumer's view is gapless: every change
// after the snapshot arrives as a delta (or is counted as dropped).
// Exported so other servers (the dsrserve job API) can mount the same
// bounded non-blocking fan-out per job; pair every Subscribe with an
// Unsubscribe.
func (c *Campaign) Subscribe() (*Subscription, Snapshot) {
	sub := &Subscription{ch: make(chan []byte, subscriberBuffer)}
	c.mu.Lock()
	c.subs[sub] = struct{}{}
	snap := c.snapshotLocked()
	c.mu.Unlock()
	return sub, snap
}

// Unsubscribe detaches an SSE consumer.
func (c *Campaign) Unsubscribe(sub *Subscription) {
	c.mu.Lock()
	delete(c.subs, sub)
	c.mu.Unlock()
}
