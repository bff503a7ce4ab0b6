package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dsr/internal/asm"
	"dsr/internal/campaign"
	"dsr/internal/mbpta"
	"dsr/internal/serve"
)

// serveJobs drives an in-process serve.Server, configured as dsrserve's
// defaults, with one client in a closed loop: submit a 1000-run job of
// uoa.s, follow its SSE stream until it ends, fetch its status and
// report, then submit the next. An iteration is a batch of serveBatch
// jobs whose seeds are the workload seed's first serveBatch schedule
// seeds, so every batch must deliver the same report bytes.
type serveJobs struct {
	env    *env
	source string

	reps   int // set-up repetitions so far; each starts a fresh server
	srv    *serve.Server
	dir    string
	client *serve.Client
	base   string
	batch  int
}

const (
	serveRuns  = 1000
	serveBatch = 10
	// serveQuiet is how long the SSE stream may stay silent before the
	// client reconnects; the new stream's first snapshot is current, so
	// a dropped final delta costs at most this much latency.
	serveQuiet = 50 * time.Millisecond
	// serveCheckpointEvery is dsrserve's default checkpoint cadence.
	serveCheckpointEvery = 50
)

func newServeJobs(e *env) (*serveJobs, error) {
	src, err := os.ReadFile(filepath.Join("internal", "asm", "testdata", "uoa.s"))
	if err != nil {
		return nil, err
	}
	return &serveJobs{env: e, source: string(src)}, nil
}

func (s *serveJobs) spec(k int) serve.Spec {
	return serve.Spec{
		Source:  s.source,
		Runs:    serveRuns,
		Seed:    campaign.NewSchedule(s.env.seed).Seed(k),
		Workers: s.env.workers,
	}
}

// setup stops the previous repetition's server, untimed, then starts a
// server over a fresh data directory and waits until it answers.
func (s *serveJobs) setup() (time.Duration, error) {
	s.close()
	s.reps++
	s.dir = filepath.Join(s.env.tmp, fmt.Sprintf("serve-%d", s.reps))
	t0 := time.Now()
	srv, err := serve.New(serve.Config{DataDir: s.dir})
	if err != nil {
		return 0, err
	}
	s.srv = srv
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		return 0, err
	}
	s.base = "http://" + srv.Addr()
	// One connection: the SSE stream is closed before the next request.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	s.client = &serve.Client{Base: s.base, HTTP: hc}
	resp, err := hc.Get(s.base + "/healthz")
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	return time.Since(t0), nil
}

func (s *serveJobs) close() {
	if s.srv != nil {
		s.client.HTTP.CloseIdleConnections()
		s.srv.Stop()
		s.srv = nil
	}
}

func (s *serveJobs) iterate(main *track) (iteration, error) {
	it := iteration{ops: serveBatch}
	h := newHasher()
	for k := 0; k < serveBatch; k++ {
		spec := s.spec(k)
		spec.ID = fmt.Sprintf("b%d-j%d", s.batch, k)
		t0 := time.Now()
		rep, rejected, late, err := s.job(main, spec)
		if err != nil {
			it.failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %s: %v\n", spec.ID, err)
			continue
		}
		it.jobs = append(it.jobs, time.Since(t0).Seconds())
		it.late = append(it.late, late.Seconds())
		if rejected {
			it.sim.IIDRejects++
		}
		h.u64(uint64(k))
		h.bytes(rep)
		// A finished job's files are no longer read. Removing them keeps
		// a run from piling up hundreds of megabytes of checkpoints whose
		// write-back to the shared disk would stall later jobs at random.
		if err := os.RemoveAll(filepath.Join(s.dir, "jobs", spec.ID)); err != nil {
			return it, err
		}
	}
	s.batch++
	it.hash = h.sum()
	return it, nil
}

// job submits one spec and returns its report, whether the i.i.d. gate
// rejected its sample, and how late the client learned the job had
// ended: the time it waited on a silent stream before reconnecting,
// zero when the end was pushed promptly. A refused submission, an
// errored job or a missing report is an error.
func (s *serveJobs) job(main *track, spec serve.Spec) (rep []byte, rejected bool, late time.Duration, err error) {
	sp := main.begin("serve.submit")
	st, err := s.client.Submit(spec)
	main.end(sp)
	if err != nil {
		return nil, false, 0, err
	}
	sp = main.begin("serve.wait")
	for {
		var ended bool
		if ended, err = s.watch(st.ID); err != nil || ended {
			break
		}
		late += serveQuiet
	}
	if err == nil {
		st, err = s.client.Status(st.ID)
	}
	main.end(sp)
	if err != nil {
		return nil, false, late, err
	}
	switch {
	case st.State == serve.StateDone:
	case st.State == serve.StateFailed && strings.Contains(st.Error, mbpta.ErrNotIID.Error()):
		// The campaign completed and its report is delivered; the
		// i.i.d. rejection is the report's verdict.
		rejected = true
	default:
		return nil, false, late, fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	sp = main.begin("serve.report")
	rep, err = s.client.Report(st.ID)
	main.end(sp)
	return rep, rejected, late, err
}

// watch follows a job's SSE stream. It returns true once a frame
// reports the job ended, false when the stream closes or stays quiet
// for serveQuiet (the caller then reconnects). The reading goroutine
// has exited when watch returns.
func (s *serveJobs) watch(id string) (bool, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	resp, err := s.client.HTTP.Do(req)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return false, fmt.Errorf("events: %s", resp.Status)
	}
	frames := make(chan bool)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue
			}
			select {
			case frames <- bytes.Contains(line, []byte(`"ended":true`)):
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() {
		cancel()
		resp.Body.Close()
		<-exited
	}()
	quiet := time.NewTimer(serveQuiet)
	defer quiet.Stop()
	for {
		select {
		case ended, ok := <-frames:
			if !ok || ended {
				return ended, nil
			}
			if !quiet.Stop() {
				<-quiet.C
			}
			quiet.Reset(serveQuiet)
		case <-quiet.C:
			return false, nil
		}
	}
}

// simulate runs each spec of a batch through serve.Run without the
// service, untimed: the reports must equal the ones the server
// delivered, and the merged points give the simulated runs and cycles
// the client does not see.
func (s *serveJobs) simulate() (iteration, error) {
	it := iteration{ops: serveBatch}
	h := newHasher()
	for k := 0; k < serveBatch; k++ {
		out, err := serve.Run(s.spec(k), nil, serve.Hooks{})
		switch {
		case err == nil:
		case out != nil && errors.Is(err, mbpta.ErrNotIID):
			it.sim.IIDRejects++
		default:
			return it, err
		}
		for _, pt := range out.Points {
			it.sim.Runs++
			it.sim.Cycles += uint64(pt.Cycles)
		}
		h.u64(uint64(k))
		h.bytes([]byte(serve.FormatReport(out)))
	}
	it.hash = h.sum()
	return it, nil
}

// layers measures the service stages the closed loop cannot see from
// the client: per job of one batch, one asm.Assemble of the source,
// serve.Run of the same spec without HTTP (the latency floor), and
// serve.WriteCheckpoint of the merged prefix at the daemon's cadence.
func (s *serveJobs) layers() (map[string]float64, error) {
	var asmS float64
	var runMs, ckptMs []float64
	ckpts := 0
	dir := filepath.Join(s.env.tmp, "checkpoints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for k := 0; k < serveBatch; k++ {
		spec := s.spec(k)
		t0 := time.Now()
		if _, err := asm.Assemble(spec.Source); err != nil {
			return nil, err
		}
		asmS += time.Since(t0).Seconds()
		t0 = time.Now()
		out, err := serve.Run(spec, nil, serve.Hooks{})
		runMs = append(runMs, time.Since(t0).Seconds()*1e3)
		if out == nil {
			return nil, err
		}
		for n := serveCheckpointEvery; n <= len(out.Points); n += serveCheckpointEvery {
			t0 = time.Now()
			err := serve.WriteCheckpoint(dir, serve.Checkpoint{Job: "layers", SpecHash: spec.Hash(), Cursor: n, Points: out.Points[:n]})
			ckptMs = append(ckptMs, time.Since(t0).Seconds()*1e3)
			if err != nil {
				return nil, err
			}
			ckpts++
		}
	}
	return map[string]float64{
		"asm.assemble_s":      asmS,
		"serve.run_ms":        median(runMs),
		"serve.checkpoint_ms": median(ckptMs),
		"serve.checkpoints":   float64(ckpts) / serveBatch,
	}, nil
}
