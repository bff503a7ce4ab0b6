// Command pwcet is the MBPTA analysis tool (the RVS path of §V-VI): it
// reads execution times — either an RVS-style binary timing trace or a
// text file with one execution time per line — runs the i.i.d. gate,
// fits the EVT model, and prints the pWCET report and curve. It also
// produces and converts the traces it reads.
//
//	pwcet -gen 200 > trace.bin        run the control task 200 times under
//	                                  DSR and write the binary trace
//	pwcet -trace trace.bin -csv       convert a binary trace to CSV
//	pwcet -trace trace.bin
//	pwcet -times times.txt -block 50 -target 1e-15
//	pwcet -times times.txt -static control:dsr-eager
//	pwcet -times times.txt -static 6054473
//
// -static prints a reference line comparing the measurement-based pWCET
// estimate against the static WCET bound (internal/analysis/wcet). The
// argument is either an absolute cycle bound or app:mode, where app is
// control or processing and mode is det, dsr-eager or dsr-lazy.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dsr/internal/analysis/wcet"
	"dsr/internal/cpu"
	"dsr/internal/experiments"
	"dsr/internal/host"
	"dsr/internal/mbpta"
	"dsr/internal/platform"
	"dsr/internal/rvs"
	"dsr/internal/spaceapp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole tool behind main: it returns the exit status, 0 on a
// report, a trace, a conversion or -h, 1 on any input or analysis
// error, 2 on bad flags.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pwcet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceFile = fs.String("trace", "", "binary timing trace (rvs format)")
		timesFile = fs.String("times", "", "text file with one execution time per line ('-' for stdin)")
		enter     = fs.Int("enter", int(rvs.UoAEnter), "UoA enter instrumentation point id")
		exit      = fs.Int("exit", int(rvs.UoAExit), "UoA exit instrumentation point id")
		block     = fs.Int("block", 50, "EVT block-maxima size")
		target    = fs.Float64("target", 1e-15, "target exceedance probability")
		static    = fs.String("static", "", "static WCET reference: a cycle bound, or app:mode (control|processing : det|dsr-eager|dsr-lazy)")
		gen       = fs.Int("gen", 0, "write the binary trace of N DSR runs of the control task to stdout instead of a report")
		csv       = fs.Bool("csv", false, "print the -trace file as CSV instead of a report")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *gen > 0 {
		if err := generate(stdout, *gen); err != nil {
			fmt.Fprintln(stderr, "pwcet:", err)
			return 1
		}
		return 0
	}
	if *csv {
		if *traceFile == "" {
			fmt.Fprintln(stderr, "pwcet: -csv needs -trace FILE")
			return 2
		}
		trace, err := readTrace(*traceFile)
		if err == nil {
			err = rvs.WriteCSV(stdout, trace)
		}
		if err != nil {
			fmt.Fprintln(stderr, "pwcet:", err)
			return 1
		}
		return 0
	}

	staticBound, staticLabel, err := resolveStatic(*static)
	if err != nil {
		fmt.Fprintln(stderr, "pwcet:", err)
		return 1
	}

	times, err := loadTimes(*traceFile, *timesFile, int32(*enter), int32(*exit), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "pwcet:", err)
		return 1
	}
	if len(times) == 0 {
		fmt.Fprintln(stderr, "pwcet: no execution times found")
		return 1
	}

	opts := mbpta.DefaultOptions()
	opts.BlockSize = *block
	opts.TargetExceedance = *target
	// The Gumbel fit needs at least 10 block maxima; shrink the block for
	// small samples rather than refusing outright.
	if len(times)/opts.BlockSize < 10 {
		adj := len(times) / 10
		if adj < 5 {
			adj = 5
		}
		fmt.Fprintf(stderr, "pwcet: only %d runs; reducing block size %d -> %d\n",
			len(times), opts.BlockSize, adj)
		opts.BlockSize = adj
	}
	rep, analyseErr := mbpta.Analyse(times, opts)
	name := *traceFile
	if name == "" {
		name = *timesFile
	}
	if err := rvs.WriteReport(stdout, name, rep, times); err != nil {
		fmt.Fprintln(stderr, "pwcet:", err)
		return 1
	}
	if staticBound > 0 {
		printStatic(stdout, rep, staticBound, staticLabel)
	}
	if analyseErr != nil {
		fmt.Fprintln(stderr, "pwcet:", analyseErr)
		return 1
	}
	return 0
}

// resolveStatic turns the -static argument into a cycle bound: either a
// literal number, or app:mode analysed on the spot with the same
// wiring the soundness gate uses (wcet.AnalyzeMode).
func resolveStatic(spec string) (float64, string, error) {
	if spec == "" {
		return 0, "", nil
	}
	if v, err := strconv.ParseFloat(spec, 64); err == nil {
		if v <= 0 {
			return 0, "", fmt.Errorf("-static bound must be positive, got %v", v)
		}
		return v, "given bound", nil
	}
	app, modeName, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, "", fmt.Errorf("-static wants a cycle count or app:mode, got %q", spec)
	}
	p, err := spaceapp.Builtin(app)
	if err != nil {
		return 0, "", fmt.Errorf("-static: %w", err)
	}
	mode, err := wcet.ParseMode(modeName)
	if err != nil {
		return 0, "", fmt.Errorf("-static: %w", err)
	}
	rep, err := wcet.AnalyzeMode(p, mode, wcet.Config{})
	if err != nil {
		return 0, "", err
	}
	if !rep.Bounded {
		return 0, "", fmt.Errorf("static analysis refused %s under %s", app, modeName)
	}
	return float64(rep.BoundCycles), spec, nil
}

// printStatic is the static-vs-probabilistic reference line: where the
// analytical bound sits relative to the MOET and the pWCET estimate.
func printStatic(w io.Writer, rep *mbpta.Report, bound float64, label string) {
	fmt.Fprintf(w, "static WCET reference (%s): %.0f cycles\n", label, bound)
	if rep == nil {
		return
	}
	if rep.MOET > 0 {
		fmt.Fprintf(w, "  MOET %.0f  -> static/MOET x%.2f\n", rep.MOET, bound/rep.MOET)
	}
	if rep.PWCET > 0 {
		verdict := "pWCET exceeds the static bound — EVT extrapolation is pessimistic there"
		if rep.PWCET <= bound {
			verdict = "pWCET is below the static bound, as expected for a sound bound"
		}
		fmt.Fprintf(w, "  pWCET %.0f -> static/pWCET x%.2f (%s)\n", rep.PWCET, bound/rep.PWCET, verdict)
	}
}

func loadTimes(traceFile, timesFile string, enter, exit int32, stdin io.Reader) ([]float64, error) {
	switch {
	case traceFile != "" && timesFile != "":
		return nil, fmt.Errorf("give either -trace or -times, not both")
	case traceFile != "":
		trace, err := readTrace(traceFile)
		if err != nil {
			return nil, err
		}
		return rvs.ToFloats(rvs.Durations(trace, enter, exit)), nil
	case timesFile != "":
		r := stdin
		if timesFile != "-" {
			f, err := os.Open(timesFile)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		return readTimes(r)
	default:
		return nil, fmt.Errorf("give -trace FILE or -times FILE")
	}
}

func readTimes(r io.Reader) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("bad execution time %q: %v", line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func readTrace(path string) ([]cpu.TracePoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rvs.Decode(f)
}

// generate writes the binary trace of n DSR runs of the control task
// on a host: run i reboots with layout seed 1+i, applies control input
// 9000+i and is checked against the golden model.
func generate(w io.Writer, n int) error {
	h, err := host.New(platform.ProximaLEON3(), host.DSR, experiments.ControlTask, 0, 9000)
	if err != nil {
		return err
	}
	var trace []cpu.TracePoint
	for i := 0; i < n; i++ {
		if err := h.Prepare(i, 1+uint64(i)); err != nil {
			return err
		}
		res, _, err := h.Run(cpu.NoBudget)
		if err != nil {
			return err
		}
		trace = append(trace, res.Trace...)
	}
	return rvs.Encode(w, trace)
}
