package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dsr/internal/jsonenc"
)

// Dump is the native on-disk telemetry form: a complete registry
// snapshot plus the retained event stream. cmd/dsrstat summarises and
// converts dumps; every other format is derivable from one.
type Dump struct {
	Metrics []Metric `json:"-"`
	Events  []Event  `json:"-"`
	// Spans is the host wall-time span timeline (Tracer.Spans). It is
	// kept separate from Metrics/Events because span timings are
	// inherently nondeterministic: the determinism suite compares
	// Metrics+Events byte-for-byte, while spans are exported to their
	// own spans.jsonl.
	Spans []Span `json:"-"`
}

// NewDump snapshots a registry and an event log (either may be nil).
func NewDump(r *Registry, l *EventLog) *Dump {
	return &Dump{Metrics: r.Snapshot(), Events: l.Events()}
}

// jsonlRecord is one line of the JSONL encoding, as ReadJSONL decodes
// it: exactly one of Metric, Event or Span is set, discriminated by
// Record.
type jsonlRecord struct {
	Record string  `json:"record"`
	Metric *Metric `json:"metric,omitempty"`
	Event  *Event  `json:"event,omitempty"`
	Span   *Span   `json:"span,omitempty"`
}

// WriteJSONL encodes the dump as JSON Lines: one self-describing record
// per line ({"record":"metric",...} / {"record":"event",...} /
// {"record":"span",...}). The bytes are those of a json.Encoder
// encoding each jsonlRecord (keys in field order, omitempty applied,
// label keys sorted, Phase as its byte value), built by appending into
// one reused line buffer instead of by reflection. A non-finite metric
// value is an error, as it is for encoding/json. A write error sticks in
// the bufio.Writer and is returned by the final Flush.
func (d *Dump) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range d.Metrics {
		var err error
		if line, err = appendMetricRecord(line[:0], &d.Metrics[i]); err != nil {
			return fmt.Errorf("telemetry: jsonl: %w", err)
		}
		bw.Write(line)
	}
	for i := range d.Events {
		line = appendEventRecord(line[:0], &d.Events[i])
		bw.Write(line)
	}
	for i := range d.Spans {
		line = appendSpanRecord(line[:0], &d.Spans[i])
		bw.Write(line)
	}
	return bw.Flush()
}

// appendMetricRecord appends m's JSONL line.
func appendMetricRecord(b []byte, m *Metric) ([]byte, error) {
	b = append(b, `{"record":"metric","metric":{"kind":`...)
	b = jsonenc.String(b, string(m.Kind))
	b = append(b, `,"name":`...)
	b = jsonenc.String(b, m.Name)
	if len(m.Labels) > 0 {
		b = append(b, `,"labels":{`...)
		for i, k := range m.Labels.sortedKeys() {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonenc.String(b, k)
			b = append(b, ':')
			b = jsonenc.String(b, m.Labels[k])
		}
		b = append(b, '}')
	}
	var err error
	if m.Value != 0 {
		b = append(b, `,"value":`...)
		if b, err = jsonenc.Float(b, m.Value); err != nil {
			return b, err
		}
	}
	if len(m.Bounds) > 0 {
		b = append(b, `,"bounds":[`...)
		for i, v := range m.Bounds {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = jsonenc.Float(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if len(m.Counts) > 0 {
		b = append(b, `,"counts":[`...)
		for i, v := range m.Counts {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, v, 10)
		}
		b = append(b, ']')
	}
	if m.Sum != 0 {
		b = append(b, `,"sum":`...)
		if b, err = jsonenc.Float(b, m.Sum); err != nil {
			return b, err
		}
	}
	if m.Count != 0 {
		b = append(b, `,"count":`...)
		b = strconv.AppendUint(b, m.Count, 10)
	}
	return append(b, "}}\n"...), nil
}

// appendEventRecord appends e's JSONL line.
func appendEventRecord(b []byte, e *Event) []byte {
	b = append(b, `{"record":"event","event":{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, uint64(e.TS), 10)
	if e.Track != "" {
		b = append(b, `,"track":`...)
		b = jsonenc.String(b, e.Track)
	}
	b = append(b, `,"kind":`...)
	b = jsonenc.String(b, e.Kind)
	b = append(b, `,"phase":`...)
	b = strconv.AppendUint(b, uint64(e.Phase), 10)
	if len(e.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i, a := range e.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"key":`...)
			b = jsonenc.String(b, a.Key)
			b = append(b, `,"value":`...)
			b = jsonenc.String(b, a.Value)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}}\n"...)
}

// appendSpanRecord appends s's JSONL line.
func appendSpanRecord(b []byte, s *Span) []byte {
	b = append(b, `{"record":"span","span":{"worker":`...)
	b = strconv.AppendInt(b, int64(s.Worker), 10)
	b = append(b, `,"run":`...)
	b = strconv.AppendInt(b, int64(s.Run), 10)
	b = append(b, `,"kind":`...)
	b = jsonenc.String(b, s.Kind)
	b = append(b, `,"start_ns":`...)
	b = strconv.AppendInt(b, s.Start, 10)
	b = append(b, `,"dur_ns":`...)
	b = strconv.AppendInt(b, s.Dur, 10)
	return append(b, "}}\n"...)
}

// ReadJSONL parses a JSONL dump back; the round-trip
// ReadJSONL(WriteJSONL(d)) preserves every metric and event.
func ReadJSONL(r io.Reader) (*Dump, error) {
	d := &Dump{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: jsonl line %d: %w", line, err)
		}
		switch rec.Record {
		case "metric":
			if rec.Metric == nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d: metric record without metric", line)
			}
			d.Metrics = append(d.Metrics, *rec.Metric)
		case "event":
			if rec.Event == nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d: event record without event", line)
			}
			d.Events = append(d.Events, *rec.Event)
		case "span":
			if rec.Span == nil {
				return nil, fmt.Errorf("telemetry: jsonl line %d: span record without span", line)
			}
			d.Spans = append(d.Spans, *rec.Span)
		default:
			return nil, fmt.Errorf("telemetry: jsonl line %d: unknown record %q", line, rec.Record)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: jsonl: %w", err)
	}
	return d, nil
}

// csvHeader is the fixed column set of the CSV metric encoding.
var csvHeader = []string{"kind", "name", "labels", "value", "sum", "count", "bounds", "counts"}

// WriteCSV encodes the metrics (events are not part of the CSV form) as
// one row per metric. Histograms pack bounds and cumulative counts as
// '|'-separated lists.
func (d *Dump) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("telemetry: csv: %w", err)
	}
	for i := range d.Metrics {
		m := &d.Metrics[i]
		row := []string{string(m.Kind), m.Name, m.Labels.canonical(), "", "", "", "", ""}
		switch m.Kind {
		case KindHistogram:
			row[4] = formatFloat(m.Sum)
			row[5] = strconv.FormatUint(m.Count, 10)
			row[6] = joinFloats(m.Bounds)
			row[7] = joinUints(m.Counts)
		default:
			row[3] = formatFloat(m.Value)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("telemetry: csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("telemetry: csv: %w", err)
	}
	return nil
}

// ReadCSV parses the CSV metric encoding back into a dump (metrics
// only); the round-trip preserves every metric.
func ReadCSV(r io.Reader) (*Dump, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("telemetry: csv: %w", err)
	}
	if len(rows) == 0 {
		return &Dump{}, nil
	}
	if strings.Join(rows[0], ",") != strings.Join(csvHeader, ",") {
		return nil, fmt.Errorf("telemetry: csv: unexpected header %v", rows[0])
	}
	d := &Dump{}
	for i, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			return nil, fmt.Errorf("telemetry: csv row %d: %d columns, want %d", i+2, len(row), len(csvHeader))
		}
		m := Metric{Kind: MetricKind(row[0]), Name: row[1], Labels: parseCanonicalLabels(row[2])}
		switch m.Kind {
		case KindHistogram:
			if m.Sum, err = parseFloat(row[4]); err == nil {
				m.Count, err = strconv.ParseUint(row[5], 10, 64)
			}
			if err == nil {
				m.Bounds, err = splitFloats(row[6])
			}
			if err == nil {
				m.Counts, err = splitUints(row[7])
			}
		case KindCounter, KindGauge:
			m.Value, err = parseFloat(row[3])
		default:
			err = fmt.Errorf("unknown kind %q", row[0])
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: csv row %d: %w", i+2, err)
		}
		d.Metrics = append(d.Metrics, m)
	}
	return d, nil
}

// WritePrometheus renders the metrics in the Prometheus text exposition
// format (version 0.0.4): # TYPE headers, histograms as _bucket/_sum/
// _count series with cumulative le labels and a +Inf bucket.
func (d *Dump) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	typed := map[string]bool{}
	for i := range d.Metrics {
		m := &d.Metrics[i]
		if !typed[m.Name] {
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.Name, m.Kind)
			typed[m.Name] = true
		}
		switch m.Kind {
		case KindHistogram:
			var cum uint64
			for j, b := range m.Bounds {
				cum = m.Counts[j]
				fmt.Fprintf(bw, "%s_bucket{%s} %d\n", m.Name,
					promLabels(m.Labels, "le", formatFloat(b)), cum)
			}
			fmt.Fprintf(bw, "%s_bucket{%s} %d\n", m.Name, promLabels(m.Labels, "le", "+Inf"), m.Count)
			fmt.Fprintf(bw, "%s_sum%s %s\n", m.Name, promLabelBlock(m.Labels), formatFloat(m.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", m.Name, promLabelBlock(m.Labels), m.Count)
		default:
			fmt.Fprintf(bw, "%s%s %s\n", m.Name, promLabelBlock(m.Labels), formatFloat(m.Value))
		}
	}
	return bw.Flush()
}

// promLabels renders a label set plus one extra pair, sorted, without
// braces.
func promLabels(l Labels, extraK, extraV string) string {
	pairs := make([]string, 0, len(l)+1)
	for k, v := range l {
		pairs = append(pairs, fmt.Sprintf("%s=%q", k, v))
	}
	pairs = append(pairs, fmt.Sprintf("%s=%q", extraK, extraV))
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// promLabelBlock renders {k="v",...} or the empty string.
func promLabelBlock(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	pairs := make([]string, 0, len(l))
	for k, v := range l {
		pairs = append(pairs, fmt.Sprintf("%s=%q", k, v))
	}
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ",") + "}"
}

// ReadPrometheus parses the text exposition format back into metrics.
// Histogram series (_bucket/_sum/_count) are reassembled into Metric
// records; the round-trip WritePrometheus→ReadPrometheus preserves every
// metric exactly (bounds, cumulative counts, sums as formatted).
func ReadPrometheus(r io.Reader) (*Dump, error) {
	types := map[string]MetricKind{}
	type histKey struct{ name, labels string }
	type histAcc struct {
		bounds []float64
		counts []uint64
		sum    float64
		count  uint64
		labels Labels
	}
	hists := map[histKey]*histAcc{}
	var histOrder []histKey
	d := &Dump{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				types[fields[2]] = MetricKind(fields[3])
			}
			continue
		}
		name, labels, value, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: prom line %d: %w", lineNo, err)
		}
		base, series := histSeries(name, types)
		if series != "" {
			le, rest := splitLabel(labels, "le")
			k := histKey{base, rest.canonical()}
			h, ok := hists[k]
			if !ok {
				h = &histAcc{labels: rest}
				hists[k] = h
				histOrder = append(histOrder, k)
			}
			switch series {
			case "bucket":
				if le == "+Inf" {
					// The +Inf bucket equals _count; nothing to store.
					break
				}
				b, err := parseFloat(le)
				if err != nil {
					return nil, fmt.Errorf("telemetry: prom line %d: bad le %q", lineNo, le)
				}
				h.bounds = append(h.bounds, b)
				h.counts = append(h.counts, uint64(value))
			case "sum":
				h.sum = value
			case "count":
				h.count = uint64(value)
			}
			continue
		}
		kind, ok := types[name]
		if !ok {
			kind = KindGauge
		}
		d.Metrics = append(d.Metrics, Metric{Kind: kind, Name: name, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: prom: %w", err)
	}
	for _, k := range histOrder {
		h := hists[k]
		// Buckets arrive in exposition order (sorted ascending by le).
		d.Metrics = append(d.Metrics, Metric{
			Kind: KindHistogram, Name: k.name, Labels: h.labels,
			Bounds: h.bounds, Counts: h.counts, Sum: h.sum, Count: h.count,
		})
	}
	sort.Slice(d.Metrics, func(i, j int) bool { return d.Metrics[i].key() < d.Metrics[j].key() })
	return d, nil
}

// histSeries reports whether name is a histogram series (_bucket/_sum/
// _count of a TYPEd histogram) and which one.
func histSeries(name string, types map[string]MetricKind) (base, series string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			b := strings.TrimSuffix(name, suf)
			if types[b] == KindHistogram {
				return b, suf[1:]
			}
		}
	}
	return "", ""
}

// parsePromLine splits `name{k="v",...} value`.
func parsePromLine(line string) (string, Labels, float64, error) {
	var name, labelPart, valPart string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		name, labelPart, valPart = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("malformed sample %q", line)
		}
		name, valPart = fields[0], fields[1]
	}
	labels := Labels{}
	for labelPart != "" {
		eq := strings.IndexByte(labelPart, '=')
		if eq < 0 || eq+1 >= len(labelPart) || labelPart[eq+1] != '"' {
			return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
		}
		rest := labelPart[eq+2:]
		end := strings.IndexByte(rest, '"')
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
		}
		labels[labelPart[:eq]] = rest[:end]
		labelPart = strings.TrimPrefix(rest[end+1:], ",")
	}
	if len(labels) == 0 {
		labels = nil
	}
	v, err := parseFloat(valPart)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q", valPart)
	}
	return name, labels, v, nil
}

// splitLabel removes key from l, returning its value and the rest.
func splitLabel(l Labels, key string) (string, Labels) {
	if l == nil {
		return "", nil
	}
	v := l[key]
	rest := Labels{}
	for k, vv := range l {
		if k != key {
			rest[k] = vv
		}
	}
	if len(rest) == 0 {
		rest = nil
	}
	return v, rest
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func joinFloats(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = formatFloat(f)
	}
	return strings.Join(parts, "|")
}

func splitFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "|")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := parseFloat(p)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func joinUints(us []uint64) string {
	parts := make([]string, len(us))
	for i, u := range us {
		parts[i] = strconv.FormatUint(u, 10)
	}
	return strings.Join(parts, "|")
}

func splitUints(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "|")
	out := make([]uint64, len(parts))
	for i, p := range parts {
		u, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = u
	}
	return out, nil
}

// MetricsEqual reports whether two metric slices are identical up to
// ordering — the exporter round-trip check used by tests and by
// `dsrstat -validate`.
func MetricsEqual(a, b []Metric) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Metric(nil), a...)
	bs := append([]Metric(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i].key() < as[j].key() })
	sort.Slice(bs, func(i, j int) bool { return bs[i].key() < bs[j].key() })
	for i := range as {
		if !metricEqual(&as[i], &bs[i]) {
			return false
		}
	}
	return true
}

func metricEqual(a, b *Metric) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Labels.canonical() != b.Labels.canonical() {
		return false
	}
	if a.Value != b.Value || a.Sum != b.Sum || a.Count != b.Count {
		return false
	}
	if len(a.Bounds) != len(b.Bounds) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Bounds {
		if a.Bounds[i] != b.Bounds[i] {
			return false
		}
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}
