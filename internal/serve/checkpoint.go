package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"dsr/internal/jsonenc"
)

// Checkpoint file names inside a job directory. The current snapshot
// is rotated to the .prev name before each replacement, so a crash at
// any instant leaves at least one intact, checksummed snapshot on
// disk.
const (
	checkpointFile = "checkpoint.json"
	checkpointPrev = "checkpoint.prev.json"
)

// Checkpoint is a persisted campaign prefix: the merged points in
// canonical order plus the seed-schedule cursor (the next index to
// execute). Because each run is a pure function of (Spec, index), a
// job resumed from any checkpoint finishes with byte-identical
// results, telemetry and report.
type Checkpoint struct {
	// Job is the owning job id.
	Job string `json:"job"`
	// SpecHash binds the snapshot to the exact spec it was taken under;
	// a snapshot from a different spec is treated as corrupt.
	SpecHash string `json:"spec_hash"`
	// Cursor is the resume index: Points[0:Cursor] are merged, the
	// engine restarts at First=Cursor.
	Cursor int `json:"cursor"`
	// Points is the merged canonical prefix.
	Points []Point `json:"points"`
	// Sum is the hex sha256 of the checkpoint JSON with Sum itself
	// cleared; a truncated or bit-flipped snapshot fails verification
	// and the loader falls back to the previous rotation.
	Sum string `json:"sum"`
}

// verify checks integrity (checksum) and consistency (ownership,
// cursor/prefix agreement) of a loaded snapshot. The checksum is
// recomputed by re-encoding the snapshot the way checkpointWriter wrote
// it.
func (c *Checkpoint) verify(job, specHash string) error {
	w := oneShotWriter("", c)
	if _, sum := w.encode(c.Cursor, c.Points == nil); w.err != nil || c.Sum != sum {
		return fmt.Errorf("serve: checkpoint checksum mismatch")
	}
	if c.Job != job {
		return fmt.Errorf("serve: checkpoint belongs to job %q, not %q", c.Job, job)
	}
	if c.SpecHash != specHash {
		return fmt.Errorf("serve: checkpoint spec hash mismatch")
	}
	if c.Cursor != len(c.Points) {
		return fmt.Errorf("serve: checkpoint cursor %d disagrees with %d points", c.Cursor, len(c.Points))
	}
	for k, pt := range c.Points {
		if pt.Index != k {
			return fmt.Errorf("serve: checkpoint prefix not contiguous at %d", k)
		}
	}
	return nil
}

// WriteCheckpoint atomically persists a snapshot into dir: the payload
// is checksummed, written to a temporary file and renamed over the
// current checkpoint, which is first rotated to the .prev name. The
// job directory therefore always holds a loadable snapshot, whatever
// instant the process dies at. It is a one-shot use of the writer the
// daemon keeps per running job, so both produce the same bytes.
func WriteCheckpoint(dir string, c Checkpoint) error {
	return oneShotWriter(dir, &c).write(c.Cursor, c.Points == nil)
}

// oneShotWriter returns a writer into dir holding c's points.
func oneShotWriter(dir string, c *Checkpoint) *checkpointWriter {
	w := &checkpointWriter{dir: dir, job: c.Job, specHash: c.SpecHash}
	for _, pt := range c.Points {
		w.add(pt)
	}
	return w
}

// checkpointWriter persists successive checkpoints of one growing
// prefix, encoding each Point once: points holds the comma-joined
// encodings of every added Point, byte-identical to the Points array
// of json.Marshal(Checkpoint). A periodic checkpoint then costs one
// hash and one file write of the prefix.
type checkpointWriter struct {
	dir, job, specHash string

	points []byte // comma-joined encodings of the added points
	n      int    // number of added points
	err    error  // first encoding error; sticky
	buf    []byte // file image, reused across writes
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

// encode renders the prefix as a checkpoint file at cursor (written as
// given: the loader, not the writer, checks it against the points) and
// returns the bytes with their checksum. null selects the encoding of
// a nil Points slice. The bytes equal json.Marshal of the Checkpoint
// with Sum set, plus a newline: the checksum is the sha256 of the
// "sum":"" form, spliced in afterwards. The bytes alias w's buffer.
func (w *checkpointWriter) encode(cursor int, null bool) ([]byte, string) {
	b := append(w.buf[:0], `{"job":`...)
	b = jsonenc.String(b, w.job)
	b = append(b, `,"spec_hash":`...)
	b = jsonenc.String(b, w.specHash)
	b = append(b, `,"cursor":`...)
	b = strconv.AppendInt(b, int64(cursor), 10)
	b = append(b, `,"points":`...)
	if null {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		b = append(b, w.points...)
		b = append(b, ']')
	}
	b = append(b, `,"sum":"`...)
	mark := len(b)
	b = append(b, `"}`...)
	h := sha256.Sum256(b)
	sum := hex.EncodeToString(h[:])
	b = append(b[:mark], sum...)
	b = append(b, '"', '}', '\n')
	w.buf = b
	return b, sum
}

// write persists the prefix as a checkpoint at cursor (see encode).
func (w *checkpointWriter) write(cursor int, null bool) error {
	if w.err != nil {
		return w.err
	}
	b, _ := w.encode(cursor, null)
	tmp := filepath.Join(w.dir, checkpointFile+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("serve: write checkpoint: %w", err)
	}
	cur := filepath.Join(w.dir, checkpointFile)
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, filepath.Join(w.dir, checkpointPrev)); err != nil {
			return fmt.Errorf("serve: rotate checkpoint: %w", err)
		}
	}
	if err := os.Rename(tmp, cur); err != nil {
		return fmt.Errorf("serve: commit checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint returns the newest intact snapshot for the job, or
// (nil, "") when none survives: the current checkpoint if it verifies,
// else the previous rotation, else nothing — a corrupt file is never
// trusted, and the caller restarts from scratch rather than resuming
// from damaged state. The second result names the file the snapshot
// came from, so callers can log fallbacks.
func LoadCheckpoint(dir, job, specHash string) (*Checkpoint, string) {
	for _, name := range []string{checkpointFile, checkpointPrev} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var c Checkpoint
		if err := json.Unmarshal(b, &c); err != nil {
			continue
		}
		if err := c.verify(job, specHash); err != nil {
			continue
		}
		return &c, name
	}
	return nil, ""
}
