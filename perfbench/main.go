// Command perfbench is the repository benchmark: it runs one workload
// of the DSR reproduction for a fixed time, checks its outputs, and
// prints its end-to-end metrics (untraced) or its per-layer metrics
// (traced) as the last line of standard output. See README.md.
//
// It is run from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload fig2-control --seed 1 --seconds 32 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dsr/internal/platform"
)

// defaultSeed is the seed whose output hashes golden records.
const defaultSeed = 1

// setupReps is how often a run repeats its set-up; setup_s is the
// median.
const setupReps = 21

// rssIterations is how many first iterations peak_rss_mb is the
// median over.
const rssIterations = 5

// env is what every workload is built from.
type env struct {
	seed    uint64
	workers int
	tmp     string // scratch directory inside the checkout
}

// inputSeedBase maps the workload seed to the per-run input seeds; the
// default seed gives dsrsim's 9000.
func inputSeedBase(seed uint64) uint64 { return 9000 + (seed-1)*100_000 }

// workload is one benchmark workload.
type workload interface {
	// setup builds what the workload needs before its first measured
	// iteration and returns the time that took.
	setup() (time.Duration, error)
	// iterate runs one unit of the workload. main is nil untraced;
	// traced, the workload records spans on main and on tracks forked
	// from it.
	iterate(main *track) (iteration, error)
	close()
}

// simCounts are simulated statistics; they repeat exactly on any host.
type simCounts struct {
	Runs, Cycles, Instr                          uint64
	ICMiss, DCMiss, L2Access, L2Miss, ITLB, DTLB uint64
	IIDRejects, Overruns                         int
}

func (c *simCounts) add(r platform.RunResult) {
	c.Runs++
	c.Cycles += uint64(r.Cycles)
	c.Instr += r.PMCs.Instr
	c.ICMiss += r.PMCs.ICMiss
	c.DCMiss += r.PMCs.DCMiss
	c.L2Access += r.PMCs.L2Access
	c.L2Miss += r.PMCs.L2Miss
	c.ITLB += r.PMCs.ITLBMiss
	c.DTLB += r.PMCs.DTLBMiss
}

func (c *simCounts) merge(o simCounts) {
	c.Runs += o.Runs
	c.Cycles += o.Cycles
	c.Instr += o.Instr
	c.ICMiss += o.ICMiss
	c.DCMiss += o.DCMiss
	c.L2Access += o.L2Access
	c.L2Miss += o.L2Miss
	c.ITLB += o.ITLB
	c.DTLB += o.DTLB
	c.IIDRejects += o.IIDRejects
	c.Overruns += o.Overruns
}

// iteration is the outcome of one unit of a workload.
type iteration struct {
	hash        string // digest of every simulated output
	sim         simCounts
	ops, failed int       // operations attempted and failed
	jobs        []float64 // serve-jobs: seconds from submit to report
	late        []float64 // serve-jobs: seconds each job's end reached the client late
	exportBytes int64     // telemetry files written
	spans       int       // host spans the program's tracer recorded
}

// sample is one measured iteration.
type sample struct {
	it    iteration
	err   error
	wall  float64 // seconds
	speed float64 // host speed while it ran, relative to the reference
	alloc float64 // bytes allocated
	rss   float64 // peak resident set during the iteration, MB
}

func main() {
	var (
		name    = flag.String("workload", "", "fig2-control, fig2-telemetry, e9-grid or serve-jobs")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 32, "measurement time")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		commit  = flag.String("commit", "unknown", "commit of the measured tree")
	)
	flag.Parse()
	ok, err := run(*name, *seed, *seconds, *trace == 1, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "fig2-control":
		return &fig2{env: e}, nil
	case "fig2-telemetry":
		return &fig2{env: e, telemetry: true}, nil
	case "e9-grid":
		return &e9{env: e}, nil
	case "serve-jobs":
		return newServeJobs(e)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run executes the workload and prints its result; ok is false when an
// output check failed.
func run(name string, seed uint64, seconds float64, traced bool, commit string) (ok bool, err error) {
	e := &env{seed: seed, workers: runtime.NumCPU()}
	e.tmp, err = filepath.Abs(filepath.Join(".bench_build", "tmp", strconv.Itoa(os.Getpid())))
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(e.tmp)
	w, err := newWorkload(name, e)
	if err != nil {
		return false, err
	}
	defer w.close()

	src, err := sourceDigest(".")
	if err != nil {
		return false, err
	}
	host, _ := json.Marshal(map[string]any{
		"commit": commit, "src_sha256": src, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
	})
	fmt.Printf("host %s\n", host)

	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		d, err := w.setup()
		if err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = d.Seconds()
	}

	var rec *recorder
	budget := seconds
	if traced {
		budget = seconds / 2
	}
	plain := measure(w, nil, budget)
	var tracedRun []sample
	if traced {
		rec = newRecorder()
		tracedRun = measure(w, rec, budget)
	}

	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	if sim, ok := w.(interface{ simulate() (iteration, error) }); ok {
		// Counts a measured path does not report come from a second,
		// untimed path to the same outputs.
		it, err := sim.simulate()
		if err != nil {
			return false, fmt.Errorf("simulate: %w", err)
		}
		for _, run := range [][]sample{plain, tracedRun} {
			for i := range run {
				if run[i].err != nil {
					continue
				}
				if run[i].it.hash != it.hash {
					fail("the benchmark's copy of the workload hashes %s, the measured path %s", it.hash, run[i].it.hash)
				}
				if run[i].it.sim.Runs == 0 {
					run[i].it.sim = it.sim
				}
			}
		}
	}

	all := append(append([]sample(nil), plain...), tracedRun...)
	var ref *iteration
	attempted, failed := 0, 0
	for i := range all {
		s := &all[i]
		attempted += s.it.ops
		failed += s.it.failed
		if s.err != nil {
			fail("iteration %d: %v", i, s.err)
			continue
		}
		if ref == nil {
			ref = &s.it
		}
		if s.it.hash != ref.hash {
			fail("iteration %d output hash %s differs from the first iteration's %s", i, s.it.hash, ref.hash)
		}
		if s.it.sim != ref.sim {
			fail("iteration %d simulated counts %+v differ from the first iteration's %+v", i, s.it.sim, ref.sim)
		}
	}
	if ref == nil {
		return false, errors.New("no iteration completed")
	}
	if ref.sim.Overruns != 0 {
		fail("%d partition window overruns", ref.sim.Overruns)
	}
	if seed == defaultSeed {
		if want, ok := golden[name]; !ok || want != ref.hash {
			fail("default-seed output hash %s, recorded %s: a simulated output changed", ref.hash, want)
		}
	}
	fmt.Printf("hash %s\n", ref.hash)

	metrics := map[string]metric{}
	var names []string
	put := func(name string, v float64, unit string) {
		if _, dup := metrics[name]; !dup {
			names = append(names, name)
		}
		metrics[name] = metric{Value: v, Unit: unit}
	}
	failedFrac := float64(failed) / float64(max(attempted, 1))
	if !traced {
		endToEnd(put, plain, median(setups))
	} else {
		lt := rec.analyse()
		if err := perLayer(put, w, lt, plain, tracedRun); err != nil {
			fail("%v", err)
		}
		put("failed_ops_frac", failedFrac, "ratio")
	}
	for _, n := range names {
		fmt.Printf("%-32s %16.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("%-32s %16.6f %s\n", "failed_ops (attempted "+strconv.Itoa(attempted)+")", failedFrac, "ratio")
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(failures) == 0, attempted, failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(res))
	return len(failures) == 0, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs iterations for seconds: it starts another only while
// the mean iteration so far still fits, and always runs one. Each
// iteration starts from a collected heap, as a fresh process would.
func measure(w workload, rec *recorder, seconds float64) []sample {
	main := rec.newTrack()
	var out []sample
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds()*float64(len(out)+1)/float64(len(out)) <= seconds {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		resetPeakRSS()
		probe := startProbe()
		t0 := time.Now()
		root := main.begin("bench.iteration")
		it, err := w.iterate(main)
		main.end(root)
		wall := time.Since(t0).Seconds()
		speed := probe.finish()
		runtime.ReadMemStats(&ms)
		out = append(out, sample{it: it, err: err, wall: wall, speed: speed, alloc: float64(ms.TotalAlloc - alloc), rss: peakRSS()})
	}
	return out
}

// endToEnd derives the untraced metrics. Times are scaled to the
// reference host speed (see probe.go) by the speed measured while each
// was taken. Iteration times and rates are means over the run: the
// host's speed drifts over seconds, and the run-long average is
// steadier than the median iteration.
func endToEnd(put func(string, float64, string), plain []sample, setup float64) {
	var walls, raw, speeds, allocs, jobs, late []float64
	var runs, cycles float64
	for _, s := range plain {
		if s.err != nil {
			continue
		}
		walls = append(walls, s.wall*s.speed)
		raw = append(raw, s.wall)
		speeds = append(speeds, s.speed)
		runs += float64(s.it.sim.Runs)
		cycles += float64(s.it.sim.Cycles)
		allocs = append(allocs, s.alloc/1e6)
		if len(s.it.jobs) > 0 {
			for _, j := range s.it.jobs {
				jobs = append(jobs, j*s.speed)
			}
			late = append(late, s.it.late...)
		} else {
			// Outside serve-jobs a job is one iteration: the campaign a
			// user waits on, from start to rendered report.
			jobs = append(jobs, s.wall*s.speed)
		}
	}
	total := mean(walls) * float64(len(walls))
	// Set-up takes milliseconds, too short to probe; it is scaled by the
	// host's median speed over the run.
	put("setup_s", setup*median(speeds), "s")
	put("wall_s", mean(walls), "s")
	put("runs_per_s", runs/total, "1/s")
	put("sim_mcycles_per_s", cycles/total/1e6, "Mcycles/s")
	put("alloc_mb", median(allocs), "MB")
	// The median iteration peak over a fixed number of iterations, so
	// that a faster server holding more finished jobs in the same time
	// does not read as a larger one.
	var rss []float64
	for _, s := range plain[:min(len(plain), rssIterations)] {
		rss = append(rss, s.rss)
	}
	put("peak_rss_mb", median(rss), "MB")
	put("job_latency_p50_ms", quantile(jobs, 0.5)*1e3, "ms")
	put("job_latency_p90_ms", quantile(jobs, 0.9)*1e3, "ms")
	fmt.Printf("iterations %d, jobs %d; unscaled mean wall %.4f s; host speed %.3f (min %.3f, max %.3f)\n",
		len(walls), len(jobs), mean(raw), median(speeds), quantile(speeds, 0), quantile(speeds, 1))
	if len(late) > 0 {
		fmt.Printf("client ran late: mean %.3f ms per job, max %.3f ms\n", mean(late)*1e3, quantile(late, 1)*1e3)
	}
}

// layerMetrics maps each per-layer time metric to the span layer whose
// wall-time share it reports, in seconds per iteration.
var layerMetrics = []struct{ metric, layer string }{
	{"spaceapp.input_gen_s", "spaceapp.gen"},
	{"spaceapp.input_apply_s", "spaceapp.apply"},
	{"spaceapp.reference_s", "spaceapp.reference"},
	{"spaceapp.build_s", "spaceapp.build"},
	{"core.reboot_s", "core.reboot"},
	{"core.new_runtime_s", "core.new_runtime"},
	{"platform.restore_s", "platform.restore"},
	{"platform.run_s", "platform.run"},
	{"platform.new_s", "platform.new"},
	{"campaign.merge_s", "campaign.merge"},
	{"mbpta.observe_s", "mbpta.observe"},
	{"mbpta.analyse_s", "mbpta.analyse"},
	{"telemetry.record_s", "telemetry.record"},
	{"telemetry.export_s", "telemetry.export"},
	{"schedfeas.analyze_s", "schedfeas.analyze"},
	{"serve.job_wait_s", "serve.wait"},
}

// perLayer derives the traced metrics and checks that the layer self
// times and other_s add up to the traced wall time.
func perLayer(put func(string, float64, string), w workload, lt layerTotals, plain, traced []sample) error {
	n := float64(len(traced))
	it := traced[0].it
	var tracedWall, plainWalls, plainRaw []float64
	for _, s := range traced {
		tracedWall = append(tracedWall, s.wall*s.speed)
	}
	for _, s := range plain {
		plainWalls = append(plainWalls, s.wall*s.speed)
		plainRaw = append(plainRaw, s.wall)
	}
	wallTotal := lt.sum("bench.iteration")
	if math.Abs(lt.covered-wallTotal) > 1e-6*wallTotal {
		return fmt.Errorf("span sweep covered %.6f s of %.6f s traced", lt.covered, wallTotal)
	}

	attributed := 0.0
	for _, m := range layerMetrics {
		v := lt.self[m.layer] / n
		attributed += lt.self[m.layer]
		put(m.metric, v, "s")
	}
	us := func(layer string, q float64) float64 { return quantile(lt.durs[layer], q) * 1e6 }
	put("core.reboot_count", float64(len(lt.durs["core.reboot"]))/n, "count")
	put("core.reboot_p50_us", us("core.reboot", 0.5), "us")
	put("core.reboot_p99_us", us("core.reboot", 0.99), "us")
	put("platform.restore_count", float64(len(lt.durs["platform.restore"]))/n, "count")
	put("platform.run_p50_us", us("platform.run", 0.5), "us")
	put("platform.run_p99_us", us("platform.run", 0.99), "us")

	put("cpu.instructions", float64(it.sim.Instr), "count")
	put("cpu.sim_cycles", float64(it.sim.Cycles), "count")
	nsPerInstr := 0.0
	if it.sim.Instr > 0 {
		nsPerInstr = lt.sum("platform.run") / n / float64(it.sim.Instr) * 1e9
	}
	put("cpu.host_ns_per_instr", nsPerInstr, "ns")
	put("cache.il1_misses", float64(it.sim.ICMiss), "count")
	put("cache.dl1_misses", float64(it.sim.DCMiss), "count")
	put("cache.l2_accesses", float64(it.sim.L2Access), "count")
	put("cache.l2_misses", float64(it.sim.L2Miss), "count")
	put("tlb.itlb_misses", float64(it.sim.ITLB), "count")
	put("tlb.dtlb_misses", float64(it.sim.DTLB), "count")

	busy := lt.sum("campaign.run") + lt.sum("campaign.setup")
	put("campaign.worker_busy_s", busy/n, "s")
	eff := 0.0
	if ex := lt.sum("campaign.execute"); ex > 0 {
		eff = busy / (float64(runtime.NumCPU()) * ex)
	}
	put("campaign.parallel_efficiency", eff, "ratio")
	put("mbpta.iid_rejects", float64(it.sim.IIDRejects), "count")
	put("telemetry.export_mb", float64(it.exportBytes)/1e6, "MB")
	put("telemetry.spans", float64(it.spans), "count")
	put("rtos.frame_p50_ms", quantile(lt.durs["rtos.frame"], 0.5)*1e3, "ms")
	put("rtos.frame_p99_ms", quantile(lt.durs["rtos.frame"], 0.99)*1e3, "ms")
	put("rtos.overruns", float64(it.sim.Overruns), "count")

	var jobs, late []float64
	for _, s := range traced {
		jobs = append(jobs, s.it.jobs...)
		late = append(late, s.it.late...)
	}
	serve := map[string]float64{}
	if sl, ok := w.(interface {
		layers() (map[string]float64, error)
	}); ok {
		var err error
		if serve, err = sl.layers(); err != nil {
			return err
		}
	}
	put("asm.assemble_s", serve["asm.assemble_s"], "s")
	ms := func(layer string) float64 { return quantile(lt.durs[layer], 0.5) * 1e3 }
	put("serve.submit_ms", ms("serve.submit"), "ms")
	put("serve.run_ms", serve["serve.run_ms"], "ms")
	overhead := 0.0
	if len(jobs) > 0 {
		overhead = median(jobs)*1e3 - serve["serve.run_ms"]
	}
	put("serve.overhead_ms", overhead, "ms")
	put("serve.checkpoint_ms", serve["serve.checkpoint_ms"], "ms")
	put("serve.checkpoints", serve["serve.checkpoints"], "count")
	put("serve.report_ms", ms("serve.report"), "ms")
	put("serve.client_late_ms", mean(late)*1e3, "ms")

	other := (wallTotal - attributed) / n
	put("other_s", other, "s")
	put("traced_wall_s", wallTotal/n, "s")
	put("untraced_wall_s", mean(plainRaw), "s")
	// Both sides scaled to the reference host speed, so that drift
	// between the two halves of the run does not read as overhead.
	put("trace_overhead_frac", mean(tracedWall)/mean(plainWalls)-1, "ratio")
	fmt.Printf("traced iterations %d, untraced %d; layer self times + other_s = traced_wall_s\n", len(traced), len(plain))
	return nil
}

// resetPeakRSS restarts the kernel's peak resident set count, so that
// peakRSS reads the peak since this call (Linux; a no-op elsewhere).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's peak resident set in MB (0 off Linux).
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// sourceDigest hashes every file of the tree under root except hidden
// directories, so a result names the code it measured even where the
// checkout carries no commit.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// hasher digests simulated outputs.
type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (h *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	io.WriteString(h.h, s)
}

func (h *hasher) bytes(b []byte) {
	h.u64(uint64(len(b)))
	h.h.Write(b)
}

// result adds a run's cycles, every performance counter and its result
// word.
func (h *hasher) result(r platform.RunResult) {
	m := r.PMCs
	for _, v := range []uint64{
		uint64(r.Cycles), m.ICMiss, m.DCMiss, m.L2Miss, m.FPU, m.Instr, m.L2Access,
		m.ITLBMiss, m.DTLBMiss, m.Loads, m.Stores, m.WindowOverflows, m.WindowUnderflows,
		uint64(r.ExitValue),
	} {
		h.u64(v)
	}
}

func (h *hasher) sum() string { return hex.EncodeToString(h.h.Sum(nil)) }
