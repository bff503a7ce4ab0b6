package serve

import (
	"bytes"
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

// writeJournal journals c's points into dir through one writer the way
// runJob does: a checkpoint every `every` points, then a final one. It
// returns the journal bytes.
func writeJournal(t testing.TB, dir string, c Checkpoint, every int) []byte {
	t.Helper()
	w := &checkpointWriter{dir: dir, job: c.Job, specHash: c.SpecHash}
	for _, pt := range c.Points {
		w.add(pt)
		if w.n%every == 0 {
			if err := w.write(w.n, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.write(w.n, c.Points == nil); err != nil {
		t.Fatal(err)
	}
	return readFile(t, filepath.Join(dir, checkpointFile))
}

// journalLines splits a journal into its newline-terminated lines.
func journalLines(b []byte) [][]byte {
	lines := bytes.SplitAfter(b, []byte{'\n'})
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

func writeFile(t testing.TB, name string, b []byte) {
	t.Helper()
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// loadCursor loads the journal in dir for j1/h1 and returns its cursor,
// -1 when nothing loads.
func loadCursor(t *testing.T, dir string) int {
	t.Helper()
	cp := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil {
		return -1
	}
	if cp.Cursor != len(cp.Points) {
		t.Fatalf("loaded cursor %d with %d points", cp.Cursor, len(cp.Points))
	}
	return cp.Cursor
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(10)); err != nil {
		t.Fatal(err)
	}
	cp := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil {
		t.Fatal("no checkpoint loaded")
	}
	if cp.Cursor != 10 || len(cp.Points) != 10 {
		t.Fatalf("cursor=%d points=%d, want 10/10", cp.Cursor, len(cp.Points))
	}
	for i, pt := range cp.Points {
		if pt.Index != i || pt.Seed != uint64(i)*7 {
			t.Fatalf("point %d round-tripped as %+v", i, pt)
		}
	}
	// A later one-shot write replaces the journal rather than extending
	// it.
	if err := WriteCheckpoint(dir, testCheckpoint(4)); err != nil {
		t.Fatal(err)
	}
	if got := loadCursor(t, dir); got != 4 {
		t.Fatalf("cursor after rewrite = %d, want 4", got)
	}
}

// TestCheckpointAppend: a writer's first checkpoint writes a fresh
// journal (here with no points yet, as a job stopped before its first
// merge has) and each later one appends a segment, leaving the bytes
// already on disk untouched; dropping the newest segment resumes at the
// one before.
func TestCheckpointAppend(t *testing.T) {
	dir := t.TempDir()
	w := &checkpointWriter{dir: dir, job: "j1", specHash: "h1"}
	if err := w.write(0, true); err != nil {
		t.Fatal(err)
	}
	if got := loadCursor(t, dir); got != 0 {
		t.Fatalf("empty journal loaded %d, want 0", got)
	}
	prev := readFile(t, filepath.Join(dir, checkpointFile))
	for k, pt := range testCheckpoint(15).Points {
		w.add(pt)
		if (k+1)%5 != 0 {
			continue
		}
		if err := w.write(w.n, false); err != nil {
			t.Fatal(err)
		}
		b := readFile(t, filepath.Join(dir, checkpointFile))
		if !bytes.HasPrefix(b, prev) || len(journalLines(b)) != 3+k/5 {
			t.Fatalf("cursor %d: journal is not the previous one plus a segment", k+1)
		}
		prev = b
		if got := loadCursor(t, dir); got != k+1 {
			t.Fatalf("cursor %d: loaded %d", k+1, got)
		}
	}
	// A checkpoint with nothing new appends nothing.
	if err := w.write(w.n, false); err != nil {
		t.Fatal(err)
	}
	if b := readFile(t, filepath.Join(dir, checkpointFile)); !bytes.Equal(b, prev) {
		t.Fatal("empty checkpoint changed the journal")
	}
	lines := journalLines(prev)
	writeFile(t, filepath.Join(dir, checkpointFile), bytes.Join(lines[:len(lines)-1], nil))
	if got := loadCursor(t, dir); got != 10 {
		t.Fatalf("without the newest segment loaded %d, want 10", got)
	}
}

// TestCheckpointAppendFailure: a failed append clears the writer's
// started state, so the next checkpoint rewrites the journal whole
// instead of appending after a torn or missing file.
func TestCheckpointAppendFailure(t *testing.T) {
	dir := t.TempDir()
	w := &checkpointWriter{dir: dir, job: "j1", specHash: "h1"}
	pts := testCheckpoint(15).Points
	for _, pt := range pts[:5] {
		w.add(pt)
	}
	if err := w.write(w.n, false); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, checkpointFile)
	if err := os.Remove(cur); err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts[5:10] {
		w.add(pt)
	}
	if err := w.write(w.n, false); err == nil {
		t.Fatal("append to a vanished journal succeeded")
	}
	if _, err := os.Stat(cur); !os.IsNotExist(err) {
		t.Fatal("failed append created a journal")
	}
	for _, pt := range pts[10:] {
		w.add(pt)
	}
	if err := w.write(w.n, false); err != nil {
		t.Fatal(err)
	}
	if n := len(journalLines(readFile(t, cur))); n != 2 {
		t.Fatalf("journal after the failed append has %d lines, want a fresh header and segment", n)
	}
	if got := loadCursor(t, dir); got != 15 {
		t.Fatalf("loaded %d, want 15", got)
	}
}

// TestCheckpointTruncated: a journal cut short mid-append (simulated
// crash) loads up to the last whole segment; a cut inside the first
// segment or the header leaves nothing.
func TestCheckpointTruncated(t *testing.T) {
	dir := t.TempDir()
	b := writeJournal(t, dir, testCheckpoint(9), 5)
	lines := journalLines(b)
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want header + 2 segments", len(lines))
	}
	head, first := len(lines[0]), len(lines[0])+len(lines[1])
	cur := filepath.Join(dir, checkpointFile)
	for _, c := range []struct {
		cut, want int
	}{
		{len(b), 9},
		{len(b) - 1, 5}, // the last newline lost
		{first + len(lines[2])/2, 5},
		{first, 5},
		{first - 1, -1},
		{head + len(lines[1])/2, -1},
		{head, -1},
		{head / 2, -1},
		{0, -1},
	} {
		writeFile(t, cur, b[:c.cut])
		if got := loadCursor(t, dir); got != c.want {
			t.Fatalf("cut at %d of %d bytes: loaded %d, want %d", c.cut, len(b), got, c.want)
		}
	}
}

// flipDigit changes the first '1' in the points of a segment line to a
// '2': still valid JSON, wrong data.
func flipDigit(t *testing.T, line []byte) {
	t.Helper()
	i := bytes.Index(line, []byte(`"points":`))
	if i < 0 {
		t.Fatal("not a segment")
	}
	j := bytes.IndexByte(line[i:], '1')
	if j < 0 {
		t.Fatal("no digit to flip")
	}
	line[i+j] = '2'
}

// TestCheckpointBitFlip: a flipped digit in a middle segment keeps the
// JSON well-formed but fails that segment's sum; the job resumes at the
// segment before it.
func TestCheckpointBitFlip(t *testing.T) {
	dir := t.TempDir()
	lines := journalLines(writeJournal(t, dir, testCheckpoint(15), 5))
	flipDigit(t, lines[2])
	if err := json.Unmarshal(lines[2], new(map[string]any)); err != nil {
		t.Fatalf("flipped segment is not valid JSON: %v", err)
	}
	writeFile(t, filepath.Join(dir, checkpointFile), bytes.Join(lines, nil))
	if got := loadCursor(t, dir); got != 5 {
		t.Fatalf("after a bit flip in segment 2 loaded %d, want 5", got)
	}
}

// TestCheckpointBothCorrupt: a damaged header, or damage to every
// segment, leaves nothing to resume — a corrupt journal is never
// trusted, and the job restarts from scratch.
func TestCheckpointBothCorrupt(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, checkpointFile)
	b := writeJournal(t, dir, testCheckpoint(15), 5)

	head := journalLines(bytes.Clone(b))
	head[0][2] ^= 0x01 // "job" -> "kob"
	writeFile(t, cur, bytes.Join(head, nil))
	if got := loadCursor(t, dir); got != -1 {
		t.Fatalf("loaded %d from a journal with a corrupt header", got)
	}

	all := journalLines(bytes.Clone(b))
	for _, line := range all[1:] {
		flipDigit(t, line)
	}
	writeFile(t, cur, bytes.Join(all, nil))
	if got := loadCursor(t, dir); got != -1 {
		t.Fatalf("loaded %d from a journal with every segment corrupt", got)
	}

	writeFile(t, cur, []byte("{broken"))
	if got := loadCursor(t, dir); got != -1 {
		t.Fatalf("loaded %d from a broken journal", got)
	}
}

// TestCheckpointOwnership: a journal from another job or another spec
// revision is rejected even when structurally intact.
func TestCheckpointOwnership(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if cp := LoadCheckpoint(dir, "other-job", "h1"); cp != nil {
		t.Fatal("checkpoint crossed job identity")
	}
	if cp := LoadCheckpoint(dir, "j1", "other-hash"); cp != nil {
		t.Fatal("checkpoint crossed spec hash")
	}
}

// TestCheckpointForeignSegment: a segment spliced in from another job's
// journal breaks the chain, even when it holds the very same points:
// the job resumes before the splice.
func TestCheckpointForeignSegment(t *testing.T) {
	dir := t.TempDir()
	own := journalLines(writeJournal(t, dir, testCheckpoint(15), 5))
	other := testCheckpoint(15)
	other.Job = "j2"
	foreign := journalLines(writeJournal(t, t.TempDir(), other, 5))
	cur := filepath.Join(dir, checkpointFile)
	for seg, want := range []int{-1, 5, 10} {
		spliced := append([][]byte(nil), own...)
		spliced[seg+1] = foreign[seg+1]
		writeFile(t, cur, bytes.Join(spliced, nil))
		if got := loadCursor(t, dir); got != want {
			t.Fatalf("foreign segment %d: loaded %d, want %d", seg+1, got, want)
		}
	}
	// Reordered segments break the chain too.
	writeFile(t, cur, bytes.Join([][]byte{own[0], own[2], own[1], own[3]}, nil))
	if got := loadCursor(t, dir); got != -1 {
		t.Fatalf("swapped segments: loaded %d", got)
	}
}

// TestCheckpointBadPrefix: a segment whose cursor or index sequence
// disagrees with its points is corrupt regardless of its checksum
// (defense against a buggy writer, not just disk damage).
func TestCheckpointBadPrefix(t *testing.T) {
	dir := t.TempDir()
	cp := testCheckpoint(5)
	cp.Cursor = 4
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	if got := LoadCheckpoint(dir, "j1", "h1"); got != nil {
		t.Fatal("loaded checkpoint with cursor/points mismatch")
	}

	cp = testCheckpoint(5)
	cp.Points[3].Index = 7
	dir2 := t.TempDir()
	if err := WriteCheckpoint(dir2, cp); err != nil {
		t.Fatal(err)
	}
	if got := LoadCheckpoint(dir2, "j1", "h1"); got != nil {
		t.Fatal("loaded checkpoint with non-contiguous points")
	}

	// A later segment that skips an index ends the verified prefix.
	cp = testCheckpoint(10)
	cp.Points[7].Index = 8
	dir3 := t.TempDir()
	writeJournal(t, dir3, cp, 5)
	if got := loadCursor(t, dir3); got != 5 {
		t.Fatalf("non-contiguous second segment: loaded %d, want 5", got)
	}
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

// segmentPoints concatenates the points arrays of a journal's segments
// into one JSON array (a single segment's array as written).
func segmentPoints(t *testing.T, journal []byte) []byte {
	t.Helper()
	var parts [][]byte
	for _, line := range journalLines(journal)[1:] {
		var seg struct {
			Points json.RawMessage `json:"points"`
		}
		if err := json.Unmarshal(line, &seg); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, seg.Points)
	}
	if len(parts) == 1 {
		return parts[0]
	}
	var inner [][]byte
	for _, p := range parts {
		if p = p[1 : len(p)-1]; len(p) > 0 {
			inner = append(inner, p)
		}
	}
	return append(append([]byte{'['}, bytes.Join(inner, []byte{','})...), ']')
}

// samePoints compares loaded points with written ones, a nil and an
// empty prefix alike.
func samePoints(got, want []Point) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

// journalSegmentOverhead bounds the bytes a journal line adds around
// its points: the cursor, the two sums and the keys (the header is
// smaller for the short ids used here).
const journalSegmentOverhead = 200

// TestCheckpointJournalBytes pins the journal format: its segments
// carry exactly json.Marshal's bytes of the points, one-shot and at
// the daemon's cadence; every incremental checkpoint loads what a
// one-shot write of the same prefix loads; the journal of a job costs
// points.json plus a fixed overhead per segment, not a rewrite of the
// prefix per checkpoint; and a served job's points.json is
// json.Marshal of its points.
func TestCheckpointJournalBytes(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 50, 1000} {
		for _, attr := range []bool{false, true} {
			for _, uoa := range []bool{false, true} {
				c := bytesCheckpoint(n, attr, uoa)
				want, err := json.Marshal(c.Points)
				if err != nil {
					t.Fatal(err)
				}
				one := t.TempDir()
				if err := WriteCheckpoint(one, c); err != nil {
					t.Fatal(err)
				}
				for name, journal := range map[string][]byte{
					"one-shot":   readFile(t, filepath.Join(one, checkpointFile)),
					"cadence-50": writeJournal(t, t.TempDir(), c, 50),
				} {
					if got := segmentPoints(t, journal); !bytes.Equal(got, want) {
						t.Fatalf("n=%d attr=%v uoa=%v %s: segment points differ from json.Marshal\n got %.200s\nwant %.200s",
							n, attr, uoa, name, got, want)
					}
					cp := loadJournal(journal, c.Job, c.SpecHash)
					if cp == nil || cp.Cursor != c.Cursor || !samePoints(cp.Points, c.Points) {
						t.Fatalf("n=%d attr=%v uoa=%v %s: journal does not load its points", n, attr, uoa, name)
					}
				}
			}
		}
	}

	// Incremental writes at cadence 50 load what one-shot writes load.
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
		a := LoadCheckpoint(inc, full.Job, full.SpecHash)
		b := LoadCheckpoint(one, full.Job, full.SpecHash)
		if a == nil || b == nil || a.Cursor != k+1 || b.Cursor != k+1 || !reflect.DeepEqual(a.Points, b.Points) {
			t.Fatalf("cursor %d: incremental checkpoint loads differently from one-shot", k+1)
		}
	}
	pj, err := w.pointsJSON()
	if err != nil {
		t.Fatal(err)
	}
	size := len(readFile(t, filepath.Join(inc, checkpointFile)))
	if limit := len(pj) + 21*journalSegmentOverhead; size > limit {
		t.Fatalf("1000-point cadence-50 journal is %d bytes, want at most %d (points.json %d + 21 lines)",
			size, limit, len(pj))
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

// fuzzJournalCheckpoint is the journal FuzzCheckpointJournal mutates:
// twelve points with attribution and UoA, checkpointed every four.
func fuzzJournalCheckpoint() Checkpoint { return bytesCheckpoint(12, true, true) }

// FuzzCheckpointJournal mutates and truncates a valid journal: the
// loader must never panic, and whatever it returns must be exactly the
// original's first Cursor points — a damaged journal costs progress,
// never correctness. The committed corpus holds a torn tail, a flipped
// sum, swapped segments and a segment from another job's journal.
func FuzzCheckpointJournal(f *testing.F) {
	orig := fuzzJournalCheckpoint()
	valid := writeJournal(f, f.TempDir(), orig, 4)
	f.Add(valid)
	for i, c := range valid[:len(valid)-1] {
		if c == '\n' {
			f.Add(valid[:i+1])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cp := loadJournal(b, orig.Job, orig.SpecHash)
		if cp == nil {
			return
		}
		if cp.Job != orig.Job || cp.SpecHash != orig.SpecHash || cp.Cursor != len(cp.Points) || cp.Cursor > len(orig.Points) {
			t.Fatalf("loaded %s/%s cursor %d with %d points", cp.Job, cp.SpecHash, cp.Cursor, len(cp.Points))
		}
		if !samePoints(cp.Points, orig.Points[:cp.Cursor]) {
			t.Fatalf("loaded a wrong %d-point prefix", cp.Cursor)
		}
	})
}
