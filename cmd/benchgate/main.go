// Command benchgate is the perf-regression harness behind
// `make bench-baseline` and `make bench-check`.
//
// Record mode runs a fixed suite of component microbenchmarks (cache,
// functional memory, TLB, fetch loop) plus the campaign benchmarks at
// pinned iteration counts, and writes the parsed results to a JSON
// baseline file:
//
//	go run ./cmd/benchgate -record BENCH_BASELINE.json
//
// Check mode re-runs the same suite and fails (non-zero exit) when any
// benchmark regressed beyond the tolerance — slower ns/op, or lower
// throughput (runs/s, instrs/s):
//
//	go run ./cmd/benchgate -check BENCH_BASELINE.json -tolerance 0.15
//
// Iteration counts are fixed (-benchtime Nx) so a run measures the same
// work every time; the generous default tolerance absorbs scheduler
// noise, making the check usable as a CI smoke.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// suite is one `go test -bench` invocation with pinned iterations.
type suite struct {
	Pkg       string
	Bench     string // -bench regex
	BenchTime string // -benchtime, always a fixed count ("Nx")
}

// suites is the gated benchmark set. Campaign benchmarks measure
// end-to-end runs/s; the component suites measure the per-access cost
// of each hot-path structure (the cache suite includes
// BenchmarkFlushAll, the per-run partition-start flush); the serve
// suites measure the submit path and one job's checkpoint layer; the
// telemetry suite measures one job's JSONL export; the spaceapp suite
// measures one processing-task scene synthesis.
var suites = []suite{
	{Pkg: ".", Bench: "^BenchmarkCampaignWorkers(1|8)$", BenchTime: "1x"},
	{Pkg: "./internal/cache", Bench: "^Benchmark", BenchTime: "2000000x"},
	{Pkg: "./internal/tlb", Bench: "^Benchmark", BenchTime: "1000000x"},
	{Pkg: "./internal/cpu", Bench: "^BenchmarkMemory", BenchTime: "2000000x"},
	{Pkg: "./internal/cpu", Bench: "^BenchmarkFetchLoop(Attribution)?$", BenchTime: "100x"},
	{Pkg: "./internal/platform", Bench: "^BenchmarkPlatformFork$", BenchTime: "200x"},
	{Pkg: "./internal/core", Bench: "^BenchmarkReboot$", BenchTime: "500x"},
	{Pkg: "./internal/cpu", Bench: "^BenchmarkChargeDisabled", BenchTime: "20000000x"},
	{Pkg: "./internal/analysis/leak", Bench: "^BenchmarkLeakAnalyze$", BenchTime: "100x"},
	{Pkg: "./internal/serve", Bench: "^BenchmarkServeSubmitLatency$", BenchTime: "30x"},
	{Pkg: "./internal/serve", Bench: "^BenchmarkCheckpointJob$", BenchTime: "200x"},
	{Pkg: "./internal/telemetry", Bench: "^BenchmarkWriteJSONL$", BenchTime: "200x"},
	{Pkg: "./internal/spaceapp", Bench: "^BenchmarkGenScene$", BenchTime: "300x"},
}

// scalingEntry is the synthetic baseline key recording the campaign's
// parallel speedup (Workers1 wall time / Workers8 wall time). It has no
// ns/op of its own (NsPerOp stays 0, which the ns/op gate skips); the
// gated quantity is its "speedup" metric, checked as an absolute
// threshold rather than against the baseline because the achievable
// ratio depends on the runner, not on the code under test.
const scalingEntry = "CampaignScalingWorkers8v1"

// Scaling gate thresholds: with the copy-on-write platform forks in
// place, campaign workers share no per-run construction, so on a
// machine with at least scalingGateCores cores the 8-worker campaign
// must beat the sequential one by at least minSpeedup — anything less
// means a serialisation bug crept back in. On smaller runners (CI
// containers are often 1–2 vCPUs) the ratio measures the machine, not
// the code, so the gate degrades to the advisory warning.
const (
	scalingGateCores = 8
	minSpeedup       = 4.0
)

// result is one benchmark's parsed output: ns/op plus named metrics.
type result struct {
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// throughputMetrics are compared as higher-is-better; all other custom
// metrics are informational (recorded but not gated) because they are
// model outputs (cycles, ratios), not performance.
var throughputMetrics = map[string]bool{
	"runs/s":   true,
	"instrs/s": true,
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.e+]+) ns/op(.*)$`)

// runSuites executes every suite and returns name → result.
func runSuites() (map[string]result, error) {
	out := map[string]result{}
	for _, s := range suites {
		args := []string{"test", "-run", "^$", "-bench", s.Bench,
			"-benchtime", s.BenchTime, "-count", "1", s.Pkg}
		fmt.Fprintf(os.Stderr, "benchgate: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test %s: %w", s.Pkg, err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(raw)))
		for sc.Scan() {
			line := sc.Text()
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			name := m[1]
			ns, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", line, err)
			}
			r := result{NsPerOp: ns, Metrics: map[string]float64{}}
			// Trailing "<value> <unit>" metric pairs.
			fields := strings.Fields(m[4])
			for i := 0; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					continue
				}
				r.Metrics[fields[i+1]] = v
			}
			out[name] = r
			fmt.Printf("  %-40s %14.1f ns/op", name, ns)
			for _, k := range sortedKeys(r.Metrics) {
				fmt.Printf("  %s=%.4g", k, r.Metrics[k])
			}
			fmt.Println()
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed")
	}
	return out, nil
}

// reportScaling prints the campaign's parallel speedup explicitly —
// Workers8 wall time vs Workers1 wall time for the same fixed work —
// and records it into the result set under scalingEntry together with
// the runner's core count, so the baseline JSON documents both the
// ratio and the machine it was measured on. The per-benchmark ns/op
// gate cannot express this ratio (each benchmark is compared only
// against its own baseline), and runs/s of the Workers8 benchmark alone
// reads as absolute throughput, which is misleading about scaling.
//
// The returned failure is non-empty when the hard scaling gate trips:
// on a runner with scalingGateCores or more cores, speedup below
// minSpeedup fails the check. Below that core count the ratio is
// machine-bound, so poor scaling only warns — `dsrstat workers` on a
// span timeline names the bottleneck.
func reportScaling(got map[string]result) (failure string) {
	w1, ok1 := got["BenchmarkCampaignWorkers1"]
	w8, ok8 := got["BenchmarkCampaignWorkers8"]
	if !ok1 || !ok8 || w8.NsPerOp <= 0 {
		return ""
	}
	speedup := w1.NsPerOp / w8.NsPerOp
	cores := runtime.NumCPU()
	got[scalingEntry] = result{Metrics: map[string]float64{
		"speedup": speedup,
		"cores":   float64(cores),
	}}
	fmt.Printf("benchgate: campaign scaling: Workers8 = %.2fx Workers1 (%d cores)\n", speedup, cores)
	if cores >= scalingGateCores && speedup < minSpeedup {
		return fmt.Sprintf("%s: speedup %.2fx below required %.1fx on %d cores; "+
			"run `dsrsim -telemetry DIR` and `dsrstat workers DIR/spans.jsonl` to find the bottleneck",
			scalingEntry, speedup, minSpeedup, cores)
	}
	if speedup < 2 {
		fmt.Fprintf(os.Stderr, "benchgate: WARNING: campaign speedup %.2fx below 2x on 8 workers "+
			"(%d cores — scaling gate requires >= %d); "+
			"run `dsrsim -telemetry DIR` and `dsrstat workers DIR/spans.jsonl` to find the bottleneck\n",
			speedup, cores, scalingGateCores)
	}
	return ""
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// check compares got against base, returning the regression report.
func check(base, got map[string]result, tol float64) []string {
	var fails []string
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		g, ok := got[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from current run", name))
			continue
		}
		if b.NsPerOp > 0 && g.NsPerOp > b.NsPerOp*(1+tol) {
			fails = append(fails, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (+%.1f%% > %.0f%%)",
				name, g.NsPerOp, b.NsPerOp, (g.NsPerOp/b.NsPerOp-1)*100, tol*100))
		}
		for metric, bv := range b.Metrics {
			if !throughputMetrics[metric] || bv <= 0 {
				continue
			}
			gv, ok := g.Metrics[metric]
			if !ok {
				fails = append(fails, fmt.Sprintf("%s: metric %s missing", name, metric))
				continue
			}
			if gv < bv*(1-tol) {
				fails = append(fails, fmt.Sprintf("%s: %s %.1f vs baseline %.1f (-%.1f%% > %.0f%%)",
					name, metric, gv, bv, (1-gv/bv)*100, tol*100))
			}
		}
	}
	return fails
}

func main() {
	recordPath := flag.String("record", "", "run the suite and write the baseline JSON to this path")
	checkPath := flag.String("check", "", "run the suite and compare against this baseline JSON")
	tol := flag.Float64("tolerance", 0.15, "allowed fractional regression before failing")
	flag.Parse()

	switch {
	case (*recordPath == "") == (*checkPath == ""):
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -record or -check is required")
		os.Exit(2)

	case *recordPath != "":
		got, err := runSuites()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		if f := reportScaling(got); f != "" {
			// Record mode still writes the baseline — the operator asked
			// for a snapshot of this machine — but the gate result is not
			// silently swallowed.
			fmt.Fprintln(os.Stderr, "benchgate: WARNING:", f)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*recordPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: recorded %d benchmarks to %s\n", len(got), *recordPath)

	default:
		data, err := os.ReadFile(*checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: read baseline:", err)
			os.Exit(1)
		}
		var base map[string]result
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: parse baseline:", err)
			os.Exit(1)
		}
		got, err := runSuites()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		scalingFail := reportScaling(got)
		fails := check(base, got, *tol)
		if scalingFail != "" {
			fails = append(fails, scalingFail)
		}
		if len(fails) > 0 {
			fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) beyond %.0f%%:\n", len(fails), *tol*100)
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "  "+f)
			}
			os.Exit(1)
		}
		fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline\n", len(base), *tol*100)
	}
}
