package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"dsr/internal/jsonenc"
)

// checkpointFile is the job's checkpoint journal: a header line naming
// the job and spec hash, then one line per checkpoint segment holding
// the points merged since the previous segment. Every line carries the
// sha256 of its own bytes, and every segment the sum of the line before
// it, so the lines form a chain rooted in the header.
const checkpointFile = "checkpoint.log"

// Checkpoint is a persisted campaign prefix: the merged points in
// canonical order plus the seed-schedule cursor (the next index to
// execute). Because each run is a pure function of (Spec, index), a
// job resumed from any checkpoint finishes with byte-identical
// results, telemetry and report.
type Checkpoint struct {
	// Job is the owning job id.
	Job string `json:"job"`
	// SpecHash binds the journal to the exact spec it was taken under;
	// a journal from a different spec is treated as corrupt.
	SpecHash string `json:"spec_hash"`
	// Cursor is the resume index: Points[0:Cursor] are merged, the
	// engine restarts at First=Cursor.
	Cursor int `json:"cursor"`
	// Points is the merged canonical prefix.
	Points []Point `json:"points"`
	// Sum is the hex sha256 of the newest verified journal line, the
	// head of the chain.
	Sum string `json:"sum"`
}

// WriteCheckpoint persists a checkpoint into dir as a fresh journal:
// the header and one segment holding every point, written to a
// temporary file and renamed over the old journal, so the job
// directory holds a loadable journal whatever instant the process dies
// at. It is a one-shot use of the writer the daemon keeps per running
// job, so both produce the same bytes. The cursor is written as given;
// LoadCheckpoint rejects a segment whose cursor disagrees with its
// points.
func WriteCheckpoint(dir string, c Checkpoint) error {
	w := &checkpointWriter{dir: dir, job: c.Job, specHash: c.SpecHash}
	for _, pt := range c.Points {
		w.add(pt)
	}
	return w.write(c.Cursor, c.Points == nil)
}

// checkpointWriter journals successive checkpoints of one growing
// prefix, encoding each Point once: points holds the comma-joined
// encodings of every added Point, which feed both the journal segments
// and points.json. The first write of a writer replaces the journal
// with a fresh one holding the whole prefix; later writes append one
// segment with the points added since, so a job's checkpoints hash and
// write each point once.
type checkpointWriter struct {
	dir, job, specHash string

	points []byte // comma-joined encodings of the added points
	n      int    // number of added points
	err    error  // first encoding error; sticky
	buf    []byte // journal lines, reused across writes

	// started: the journal on disk is this writer's and ends with an
	// intact segment, so the next write may append. A failed write
	// clears it, and the next write starts a fresh journal.
	started bool
	// Journalled prefix: points[:mark] holds the first segN points,
	// and prev is the sum of the journal's last line.
	mark, segN int
	prev       string
}

// add appends pt's encoding to the prefix. The bytes are json.Marshal's
// for a Point — keys in field order, uoa omitted when zero, attr as
// {"Buckets":[...],"Valid":...} — appended without reflection; a
// non-finite UoA is an encoding error, as it is for encoding/json.
func (w *checkpointWriter) add(pt Point) {
	if w.err != nil {
		return
	}
	b := w.points
	if w.n > 0 {
		b = append(b, ',')
	}
	b = append(b, `{"i":`...)
	b = strconv.AppendInt(b, int64(pt.Index), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, pt.Seed, 10)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendUint(b, uint64(pt.Cycles), 10)
	if pt.UoA != 0 {
		var err error
		b = append(b, `,"uoa":`...)
		if b, err = jsonenc.Float(b, pt.UoA); err != nil {
			w.err = fmt.Errorf("serve: marshal checkpoint: %w", err)
			return
		}
	}
	b = append(b, `,"attr":{"Buckets":[`...)
	for k, v := range pt.Attr.Buckets {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	b = append(b, `],"Valid":`...)
	b = strconv.AppendBool(b, pt.Attr.Valid)
	w.points = append(b, '}', '}')
	w.n++
}

// pointsJSON returns the added points as json.Marshal renders the
// slice, newline-terminated: the points.json artifact.
func (w *checkpointWriter) pointsJSON() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	b := make([]byte, 0, len(w.points)+3)
	b = append(b, '[')
	b = append(b, w.points...)
	return append(b, ']', '\n'), nil
}

// seal closes the journal line b[start:], which ends just after
// `"sum":"`: it hashes the line with an empty sum, splices the hex sum
// in and ends the line. It returns the extended b and the sum.
func seal(b []byte, start int) ([]byte, string) {
	mark := len(b)
	b = append(b, `"}`...)
	h := sha256.Sum256(b[start:])
	sum := hex.EncodeToString(h[:])
	b = append(b[:mark], sum...)
	return append(b, '"', '}', '\n'), sum
}

// write journals the points added since the last successful write as
// one segment at cursor (see WriteCheckpoint). null selects the
// encoding of a nil Points slice in a fresh journal. An append with no
// new points writes nothing.
func (w *checkpointWriter) write(cursor int, null bool) error {
	if w.err != nil {
		return w.err
	}
	if w.started && w.n == w.segN {
		return nil
	}
	b := w.buf[:0]
	body := w.points
	if w.started {
		body = w.points[w.mark:]
		if w.segN > 0 {
			body = body[1:] // the comma after the journalled prefix
		}
	} else {
		b = append(b, `{"job":`...)
		b = jsonenc.String(b, w.job)
		b = append(b, `,"spec_hash":`...)
		b = jsonenc.String(b, w.specHash)
		b = append(b, `,"sum":"`...)
		b, w.prev = seal(b, 0)
	}
	start := len(b)
	b = append(b, `{"cursor":`...)
	b = strconv.AppendInt(b, int64(cursor), 10)
	b = append(b, `,"points":`...)
	if null {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		b = append(b, body...)
		b = append(b, ']')
	}
	b = append(b, `,"prev":"`...)
	b = append(b, w.prev...)
	b = append(b, `","sum":"`...)
	b, sum := seal(b, start)
	w.buf = b

	var err error
	if w.started {
		err = w.appendSegment(b)
	} else {
		err = w.replace(b)
	}
	if err != nil {
		w.started = false
		return err
	}
	w.started, w.mark, w.segN, w.prev = true, len(w.points), w.n, sum
	return nil
}

// replace writes a fresh journal: a temporary file renamed over the
// old one.
func (w *checkpointWriter) replace(b []byte) error {
	tmp := filepath.Join(w.dir, checkpointFile+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("serve: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, checkpointFile)); err != nil {
		return fmt.Errorf("serve: commit checkpoint: %w", err)
	}
	return nil
}

// appendSegment appends one segment line to the journal. The file is
// opened per append and never created: a journal that vanished fails
// the append rather than growing a headless file.
func (w *checkpointWriter) appendSegment(b []byte) error {
	f, err := os.OpenFile(filepath.Join(w.dir, checkpointFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("serve: append checkpoint: %w", err)
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("serve: append checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint returns the longest verified prefix of the job's
// journal, or nil when none survives. A corrupt line is never trusted:
// the loader stops at the first torn or damaged segment, so a crash
// mid-append costs at most one checkpoint cadence of runs, and a
// damaged header restarts the job from scratch.
func LoadCheckpoint(dir, job, specHash string) *Checkpoint {
	b, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		return nil
	}
	return loadJournal(b, job, specHash)
}

// loadJournal verifies the journal b for the job: the header's sum and
// ownership, then each segment's sum, its link to the line before, the
// contiguity of its indices and its cursor against the running count.
// It returns the prefix up to the last segment that verifies, or nil
// when the header or the first segment does not.
func loadJournal(b []byte, job, specHash string) *Checkpoint {
	line, rest, ok := bytes.Cut(b, []byte{'\n'})
	if !ok {
		return nil
	}
	var cp Checkpoint
	sum, ok := sealed(line)
	if !ok || json.Unmarshal(line, &cp) != nil || cp.Job != job || cp.SpecHash != specHash {
		return nil
	}
	cp.Sum = sum
	segs := 0
	for len(rest) > 0 {
		if line, rest, ok = bytes.Cut(rest, []byte{'\n'}); !ok {
			break
		}
		var seg struct {
			Cursor int     `json:"cursor"`
			Points []Point `json:"points"`
			Prev   string  `json:"prev"`
		}
		sum, ok := sealed(line)
		if !ok || json.Unmarshal(line, &seg) != nil || seg.Prev != cp.Sum ||
			seg.Cursor != len(cp.Points)+len(seg.Points) || !contiguous(seg.Points, len(cp.Points)) {
			break
		}
		cp.Points = append(cp.Points, seg.Points...)
		cp.Cursor, cp.Sum = seg.Cursor, sum
		segs++
	}
	if segs == 0 {
		return nil
	}
	return &cp
}

// contiguous reports whether pts are the runs first, first+1, ….
func contiguous(pts []Point, first int) bool {
	for k, pt := range pts {
		if pt.Index != first+k {
			return false
		}
	}
	return true
}

// sealed checks a journal line's own sum — the sha256 of the line with
// the sum emptied, as seal computed it — and returns it.
func sealed(line []byte) (string, bool) {
	const key, tail = `,"sum":"`, `"}`
	i := len(line) - len(tail) - sha256.Size*2
	if i < len(key) || !bytes.Equal(line[i-len(key):i], []byte(key)) || !bytes.HasSuffix(line, []byte(tail)) {
		return "", false
	}
	h := sha256.New()
	h.Write(line[:i])
	h.Write([]byte(tail))
	sum := hex.EncodeToString(h.Sum(nil))
	return sum, sum == string(line[i:len(line)-len(tail)])
}
