package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dsr/internal/mem"
)

func testCheckpoint(n int) Checkpoint {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Index: i, Seed: uint64(i) * 7, Cycles: mem.Cycles(1000 + i)}
	}
	return Checkpoint{Job: "j1", SpecHash: "h1", Cursor: n, Points: pts}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(10)); err != nil {
		t.Fatal(err)
	}
	cp, src := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil {
		t.Fatal("no checkpoint loaded")
	}
	if src != checkpointFile {
		t.Fatalf("loaded from %s, want %s", src, checkpointFile)
	}
	if cp.Cursor != 10 || len(cp.Points) != 10 {
		t.Fatalf("cursor=%d points=%d, want 10/10", cp.Cursor, len(cp.Points))
	}
	for i, pt := range cp.Points {
		if pt.Index != i || pt.Seed != uint64(i)*7 {
			t.Fatalf("point %d round-tripped as %+v", i, pt)
		}
	}
}

// TestCheckpointRotation: each write rotates the previous snapshot to
// the .prev name, so two generations are always on disk.
func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, testCheckpoint(9)); err != nil {
		t.Fatal(err)
	}
	cp, _ := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil || cp.Cursor != 9 {
		t.Fatalf("current checkpoint = %+v, want cursor 9", cp)
	}
	// Remove the current file: the rotation must hold the older one.
	if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatal(err)
	}
	cp, src := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil || cp.Cursor != 5 {
		t.Fatalf("fallback checkpoint = %+v, want cursor 5", cp)
	}
	if src != checkpointPrev {
		t.Fatalf("fallback loaded from %s, want %s", src, checkpointPrev)
	}
}

// TestCheckpointTruncated: a snapshot cut short mid-write (simulated
// crash) fails to load and the loader falls back to the previous
// rotation.
func TestCheckpointTruncated(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, testCheckpoint(9)); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, checkpointFile)
	b, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cp, src := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil || cp.Cursor != 5 {
		t.Fatalf("after truncation loaded %+v from %q, want cursor 5 from prev", cp, src)
	}
	if src != checkpointPrev {
		t.Fatalf("loaded from %s, want %s", src, checkpointPrev)
	}
}

// TestCheckpointBitFlip: a single flipped bit inside the points payload
// keeps the JSON well-formed but must be caught by the checksum.
func TestCheckpointBitFlip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, testCheckpoint(9)); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, checkpointFile)
	b, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside a cycle count: still valid JSON, wrong data.
	flipped := false
	for i := range b {
		if b[i] == '1' {
			b[i] = '2'
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no digit to flip")
	}
	if err := os.WriteFile(cur, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, src := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil || cp.Cursor != 5 {
		t.Fatalf("after bit flip loaded %+v from %q, want cursor 5 from prev", cp, src)
	}
}

// TestCheckpointBothCorrupt: when every generation is damaged the
// loader reports none — a corrupt snapshot is never trusted, the job
// restarts from scratch.
func TestCheckpointBothCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, testCheckpoint(9)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{checkpointFile, checkpointPrev} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{broken"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if cp, src := LoadCheckpoint(dir, "j1", "h1"); cp != nil {
		t.Fatalf("loaded corrupt checkpoint %+v from %q", cp, src)
	}
}

// TestCheckpointOwnership: snapshots from another job or another spec
// revision are rejected even when structurally intact.
func TestCheckpointOwnership(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if cp, _ := LoadCheckpoint(dir, "other-job", "h1"); cp != nil {
		t.Fatal("checkpoint crossed job identity")
	}
	if cp, _ := LoadCheckpoint(dir, "j1", "other-hash"); cp != nil {
		t.Fatal("checkpoint crossed spec hash")
	}
}

// TestCheckpointBadPrefix: a snapshot whose cursor or index sequence
// disagrees with its points is corrupt regardless of its checksum
// (defense against a buggy writer, not just disk damage).
func TestCheckpointBadPrefix(t *testing.T) {
	dir := t.TempDir()
	cp := testCheckpoint(5)
	cp.Cursor = 4
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	if got, _ := LoadCheckpoint(dir, "j1", "h1"); got != nil {
		t.Fatal("loaded checkpoint with cursor/points mismatch")
	}

	cp = testCheckpoint(5)
	cp.Points[3].Index = 7
	dir2 := t.TempDir()
	if err := WriteCheckpoint(dir2, cp); err != nil {
		t.Fatal(err)
	}
	if got, _ := LoadCheckpoint(dir2, "j1", "h1"); got != nil {
		t.Fatal("loaded checkpoint with non-contiguous points")
	}
}

// refCheckpointBytes is the checkpoint encoder the writer replaced:
// json.Marshal of the Checkpoint with Sum set to the sha256 of its
// "sum":"" form, plus a newline.
func refCheckpointBytes(t *testing.T, c Checkpoint) []byte {
	t.Helper()
	c.Sum = ""
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(b)
	c.Sum = hex.EncodeToString(s[:])
	if b, err = json.Marshal(c); err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// bytesCheckpoint builds an n-point checkpoint (nil Points for n < 0)
// with attribution and UoA on or off.
func bytesCheckpoint(n int, attr, uoa bool) Checkpoint {
	c := Checkpoint{Job: "j<1>&", SpecHash: "h1", Cursor: n}
	if n < 0 {
		c.Cursor = 0
		return c
	}
	c.Points = make([]Point, n)
	for i := range c.Points {
		pt := Point{Index: i, Seed: uint64(i)*0x9E3779B97F4A7C15 + 1, Cycles: mem.Cycles(90000 + 37*i)}
		if uoa && i%3 != 0 {
			pt.UoA = float64(80000 + 11*i)
		}
		if attr {
			pt.Attr.Valid = true
			for k := range pt.Attr.Buckets {
				if (i+k)%4 != 0 {
					pt.Attr.Buckets[k] = mem.Cycles(i*k + 5)
				}
			}
		}
		c.Points[i] = pt
	}
	return c
}

func readFile(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointBytesUnchanged: the point-encoding writer produces the
// same file bytes as marshalling the whole Checkpoint — one-shot
// through WriteCheckpoint, incrementally at the daemon's cadence, and
// for a served job's points.json.
func TestCheckpointBytesUnchanged(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 50, 1000} {
		for _, attr := range []bool{false, true} {
			for _, uoa := range []bool{false, true} {
				c := bytesCheckpoint(n, attr, uoa)
				dir := t.TempDir()
				if err := WriteCheckpoint(dir, c); err != nil {
					t.Fatal(err)
				}
				got := readFile(t, filepath.Join(dir, checkpointFile))
				want := refCheckpointBytes(t, c)
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d attr=%v uoa=%v: writer bytes differ from json.Marshal\n got %.200s\nwant %.200s",
						n, attr, uoa, got, want)
				}
				// A file in the whole-struct encoding still loads.
				old := t.TempDir()
				if err := os.WriteFile(filepath.Join(old, checkpointFile), want, 0o644); err != nil {
					t.Fatal(err)
				}
				if cp, _ := LoadCheckpoint(old, c.Job, c.SpecHash); cp == nil || !reflect.DeepEqual(cp.Points, c.Points) {
					t.Fatalf("n=%d attr=%v uoa=%v: whole-struct checkpoint does not load", n, attr, uoa)
				}
			}
		}
	}

	// A cursor disagreeing with the points is written as given.
	c := bytesCheckpoint(5, true, true)
	c.Cursor = 4
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, c); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, filepath.Join(dir, checkpointFile)); !bytes.Equal(got, refCheckpointBytes(t, c)) {
		t.Fatal("mismatched cursor: writer bytes differ from json.Marshal")
	}

	// Incremental writes at cadence 50 equal one-shot writes.
	full := bytesCheckpoint(1000, true, true)
	inc, one := t.TempDir(), t.TempDir()
	w := &checkpointWriter{dir: inc, job: full.Job, specHash: full.SpecHash}
	for k, pt := range full.Points {
		w.add(pt)
		if (k+1)%50 != 0 {
			continue
		}
		if err := w.write(w.n, false); err != nil {
			t.Fatal(err)
		}
		c := Checkpoint{Job: full.Job, SpecHash: full.SpecHash, Cursor: k + 1, Points: full.Points[:k+1]}
		if err := WriteCheckpoint(one, c); err != nil {
			t.Fatal(err)
		}
		got := readFile(t, filepath.Join(inc, checkpointFile))
		if !bytes.Equal(got, readFile(t, filepath.Join(one, checkpointFile))) {
			t.Fatalf("cursor %d: incremental checkpoint differs from one-shot", k+1)
		}
		if !bytes.Equal(got, refCheckpointBytes(t, c)) {
			t.Fatalf("cursor %d: incremental checkpoint differs from json.Marshal", k+1)
		}
	}

	// A served job's points.json is json.Marshal of its points.
	spec := testSpec(t, "pts", 600, 2, 42)
	out, err := Run(spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(out.Points)
	if err != nil {
		t.Fatal(err)
	}
	data := t.TempDir()
	s, ts, cl := startServer(t, data, Config{Executors: 1})
	defer ts.Close()
	defer s.Stop()
	if _, err := cl.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, cl, "pts"); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	got := readFile(t, filepath.Join(data, "jobs", "pts", "points.json"))
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatal("served points.json differs from json.Marshal of the points")
	}
}
