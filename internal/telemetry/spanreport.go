package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// SpanReport is the per-worker utilization analysis behind
// `dsrstat workers`: how each worker's wall time splits across phases,
// how long claims took, how busy the merge track was — sharp enough to
// name the dominant parallel-scaling bottleneck.

// WorkerStats is one worker's share of the campaign wall time.
type WorkerStats struct {
	Worker  int     `json:"worker"`
	Runs    int     `json:"runs"`
	SpanNs  int64   `json:"span_ns"`    // worker-span duration (goroutine lifetime)
	SetupNs int64   `json:"setup_ns"`   // platform/runtime construction
	BusyNs  int64   `json:"busy_ns"`    // total run-span time
	BootNs  int64   `json:"boot_ns"`    // within runs: platform boot + layout draw
	RelocNs int64   `json:"reloc_ns"`   // within runs: image rebuild + load
	ExecNs  int64   `json:"execute_ns"` // within runs: simulated execution
	ClaimNs int64   `json:"claim_ns"`   // waiting to claim the next run
	IdleNs  int64   `json:"idle_ns"`    // span - setup - busy - claim (tail, scheduling)
	Busy    float64 `json:"busy_frac"`  // BusyNs / SpanNs
	RunsPS  float64 `json:"runs_per_s"` // Runs / SpanNs
}

// SpanReport aggregates a span timeline into per-worker and campaign
// totals.
type SpanReport struct {
	CampaignNs  int64         `json:"campaign_ns"`
	Workers     []WorkerStats `json:"workers"`
	TotalRuns   int           `json:"total_runs"`
	MergeNs     int64         `json:"merge_ns"`      // merge-span time on the campaign track
	MergeWaitNs int64         `json:"merge_wait_ns"` // waiting for the next canonical result
	// Claim latency distribution across all workers, nanoseconds.
	ClaimP50 int64 `json:"claim_p50_ns"`
	ClaimP99 int64 `json:"claim_p99_ns"`
	ClaimMax int64 `json:"claim_max_ns"`
	// Phase totals across all workers.
	BootNs  int64 `json:"boot_total_ns"`
	RelocNs int64 `json:"reloc_total_ns"`
	ExecNs  int64 `json:"execute_total_ns"`
	SetupNs int64 `json:"setup_total_ns"`
}

// AnalyzeSpans builds the utilization report from a merged span
// timeline (Tracer.Spans or a spans.jsonl load).
func AnalyzeSpans(spans []Span) (*SpanReport, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("telemetry: no spans to analyze")
	}
	if _, err := ValidateSpans(spans); err != nil {
		return nil, err
	}
	rep := &SpanReport{}
	byWorker := map[int]*WorkerStats{}
	var claims []int64
	for i := range spans {
		s := &spans[i]
		kind, _ := ParseSpanKind(s.Kind)
		switch kind {
		case SpanCampaign:
			if s.Dur > rep.CampaignNs {
				rep.CampaignNs = s.Dur
			}
			continue
		case SpanMerge:
			rep.MergeNs += s.Dur
			continue
		case SpanMergeWait:
			rep.MergeWaitNs += s.Dur
			continue
		}
		if s.Worker < 0 {
			continue
		}
		ws := byWorker[s.Worker]
		if ws == nil {
			ws = &WorkerStats{Worker: s.Worker}
			byWorker[s.Worker] = ws
		}
		switch kind {
		case SpanWorker:
			ws.SpanNs += s.Dur
		case SpanSetup:
			ws.SetupNs += s.Dur
		case SpanRun:
			ws.Runs++
			ws.BusyNs += s.Dur
		case SpanBoot:
			ws.BootNs += s.Dur
		case SpanReloc:
			ws.RelocNs += s.Dur
		case SpanExecute:
			ws.ExecNs += s.Dur
		case SpanClaim:
			ws.ClaimNs += s.Dur
			claims = append(claims, s.Dur)
		}
	}
	if len(byWorker) == 0 {
		return nil, fmt.Errorf("telemetry: no worker spans in timeline")
	}
	ids := make([]int, 0, len(byWorker))
	for id := range byWorker {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ws := byWorker[id]
		if ws.SpanNs == 0 {
			// Sequential path records no explicit worker span; fall back
			// to the campaign duration as the worker's window.
			ws.SpanNs = rep.CampaignNs
		}
		ws.IdleNs = ws.SpanNs - ws.SetupNs - ws.BusyNs - ws.ClaimNs
		if ws.IdleNs < 0 {
			ws.IdleNs = 0
		}
		if ws.SpanNs > 0 {
			ws.Busy = float64(ws.BusyNs) / float64(ws.SpanNs)
			ws.RunsPS = float64(ws.Runs) / (float64(ws.SpanNs) / 1e9)
		}
		rep.TotalRuns += ws.Runs
		rep.BootNs += ws.BootNs
		rep.RelocNs += ws.RelocNs
		rep.ExecNs += ws.ExecNs
		rep.SetupNs += ws.SetupNs
		rep.Workers = append(rep.Workers, *ws)
	}
	if len(claims) > 0 {
		sort.Slice(claims, func(i, j int) bool { return claims[i] < claims[j] })
		rep.ClaimP50 = claims[len(claims)/2]
		rep.ClaimP99 = claims[(len(claims)*99)/100]
		rep.ClaimMax = claims[len(claims)-1]
	}
	return rep, nil
}

// Bottleneck classes: the stable machine-readable tokens
// BottleneckClass returns, which CI gates match against
// (`dsrstat workers -assert-not CLASS,...`).
const (
	BottleneckInsufficientData = "insufficient-data"
	BottleneckMerge            = "merge-serialisation"
	BottleneckConstruction     = "platform-construction"
	BottleneckClaim            = "claim-contention"
	BottleneckMemoryPressure   = "memory-pressure"
	BottleneckImbalance        = "load-imbalance"
)

// BottleneckClass returns the dominant limiter as a stable token from
// the Bottleneck* constants; Render prints the same classification with
// a quantified prose justification.
func (r *SpanReport) BottleneckClass() string {
	class, _ := r.bottleneck()
	return class
}

// bottleneck names the dominant parallel-scaling limiter with a
// quantified justification. The checks run in causal priority order:
// a serialised merge starves everyone downstream, expensive setup
// dominates short campaigns, claim contention points at the shared
// counter, and high busy fractions with poor scaling indicate the
// bottleneck is below the engine (shared allocation, memory
// bandwidth).
func (r *SpanReport) bottleneck() (class, prose string) {
	if r.CampaignNs == 0 || len(r.Workers) == 0 {
		return BottleneckInsufficientData, "insufficient data"
	}
	camp := float64(r.CampaignNs)
	mergeBusy := float64(r.MergeNs) / camp
	var setup, claim, busy, idle float64
	for i := range r.Workers {
		w := &r.Workers[i]
		span := float64(w.SpanNs)
		if span == 0 {
			continue
		}
		setup += float64(w.SetupNs) / span
		claim += float64(w.ClaimNs) / span
		busy += w.Busy
		idle += float64(w.IdleNs) / span
	}
	n := float64(len(r.Workers))
	setup, claim, busy, idle = setup/n, claim/n, busy/n, idle/n

	switch {
	case mergeBusy > 0.5:
		return BottleneckMerge, fmt.Sprintf("merge serialisation: the canonical-order merge is busy %.0f%% of the campaign "+
			"(%.1fms of %.1fms); workers outpace the single merge goroutine", mergeBusy*100,
			float64(r.MergeNs)/1e6, camp/1e6)
	case setup > 0.25:
		return BottleneckConstruction, fmt.Sprintf("platform construction: workers spend %.0f%% of their time in setup "+
			"(%.1fms total across %d workers); amortise boots or pool platforms", setup*100,
			float64(r.SetupNs)/1e6, len(r.Workers))
	case claim > 0.20:
		return BottleneckClaim, fmt.Sprintf("claim contention: workers spend %.0f%% of their time claiming runs "+
			"(p99 claim latency %.2fms); the shared run counter serialises the pool", claim*100,
			float64(r.ClaimP99)/1e6)
	case busy > 0.75:
		return BottleneckMemoryPressure, fmt.Sprintf("shared allocation / memory bandwidth: workers are %.0f%% busy yet scaling is poor; "+
			"the bottleneck is below the engine — per-run allocation pressure (GC) or cache/memory contention "+
			"between simulator instances", busy*100)
	default:
		return BottleneckImbalance, fmt.Sprintf("load imbalance / campaign tail: workers are only %.0f%% busy with %.0f%% unattributed idle; "+
			"runs are too few or too uneven to keep the pool fed", busy*100, idle*100)
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// Render formats the report as the `dsrstat workers` text output.
func (r *SpanReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d runs over %d workers in %.1fms (%.1f runs/s)\n",
		r.TotalRuns, len(r.Workers), ms(r.CampaignNs),
		float64(r.TotalRuns)/(float64(r.CampaignNs)/1e9))
	fmt.Fprintf(&b, "merge track: busy %.1fms (%.0f%%), waiting %.1fms\n",
		ms(r.MergeNs), 100*float64(r.MergeNs)/float64(r.CampaignNs), ms(r.MergeWaitNs))
	fmt.Fprintf(&b, "claim latency: p50 %.3fms  p99 %.3fms  max %.3fms\n",
		ms(r.ClaimP50), ms(r.ClaimP99), ms(r.ClaimMax))
	fmt.Fprintf(&b, "phase totals: boot %.1fms  reloc %.1fms  execute %.1fms  setup %.1fms\n\n",
		ms(r.BootNs), ms(r.RelocNs), ms(r.ExecNs), ms(r.SetupNs))

	fmt.Fprintf(&b, "%-7s %5s %9s %6s %9s %9s %9s %9s %9s %9s %8s\n",
		"worker", "runs", "span_ms", "busy", "boot_ms", "reloc_ms", "exec_ms",
		"setup_ms", "claim_ms", "idle_ms", "runs/s")
	for i := range r.Workers {
		w := &r.Workers[i]
		fmt.Fprintf(&b, "%-7d %5d %9.1f %5.0f%% %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %8.1f\n",
			w.Worker, w.Runs, ms(w.SpanNs), w.Busy*100, ms(w.BootNs), ms(w.RelocNs),
			ms(w.ExecNs), ms(w.SetupNs), ms(w.ClaimNs), ms(w.IdleNs), w.RunsPS)
	}
	class, prose := r.bottleneck()
	fmt.Fprintf(&b, "\nbottleneck: [%s] %s\n", class, prose)
	return b.String()
}
