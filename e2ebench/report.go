package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's values in report order, with the sample
// count behind each percentile.
type metrics struct {
	names   []string
	vals    map[string]metric
	samples map[string]int
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]metric{}, samples: map[string]int{}}
}

func (m *metrics) set(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// setQ sets the q-quantile of xs, failing under the percentile rule.
func (m *metrics) setQ(name string, xs []float64, q float64, unit string) error {
	v, err := quantile(xs, q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m.set(name, v, unit)
	m.samples[name] = len(xs)
	return nil
}

// runRecord identifies the run: where, on what code, with which inputs.
type runRecord struct {
	Workload   string         `json:"workload"`
	Traced     bool           `json:"traced"`
	Seed       int64          `json:"seed"`
	Scale      int            `json:"scale"`
	Seconds    int            `json:"seconds"`
	Host       string         `json:"host"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Source     string         `json:"source_sha256"`
	Samples    map[string]int `json:"samples"`
	Started    string         `json:"started"`
}

func newRunRecord(workload string, traced bool, seed int64, scale, seconds int) runRecord {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return runRecord{
		Workload: workload, Traced: traced, Seed: seed, Scale: scale, Seconds: seconds,
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Source: sourceDigest("."),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// run names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just drop out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printReport writes the run record, one line per metric and per failure
// note, and the result line last.
func printReport(w io.Writer, rec runRecord, v *verdict, m *metrics) error {
	bw := bufio.NewWriter(w)
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "run %s\n", b)
	for _, n := range m.names {
		mv := m.vals[n]
		if c, ok := m.samples[n]; ok {
			fmt.Fprintf(bw, "metric %-34s %14.6g %-8s samples=%d\n", n, mv.Value, mv.Unit, c)
		} else {
			fmt.Fprintf(bw, "metric %-34s %14.6g %s\n", n, mv.Value, mv.Unit)
		}
	}
	fmt.Fprintf(bw, "check  fail_frac %.6g (%d failed of %d attempted)\n",
		ratio(float64(v.failed), float64(v.attempted), 0), v.failed, v.attempted)
	for _, n := range v.notes {
		fmt.Fprintf(bw, "check  FAIL %s\n", n)
	}
	res := result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m.vals}
	if b, err = json.Marshal(res); err != nil {
		return err
	}
	bw.Write(b)
	bw.WriteByte('\n')
	return bw.Flush()
}

// span is the benchmark's own trace record. It has the shape of the
// engine's span JSON (SearchResult.Trace), so an engine tree decodes
// into it and hangs under the HTTP span that returned it.
type span struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"` // top level: from run start; nested: from the parent's start
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*span        `json:"children,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.DurUS) * time.Microsecond }

// attr reads a numeric attribute of a span decoded from JSON.
func (s *span) attr(key string) float64 {
	v, _ := s.Attrs[key].(float64)
	return v
}

// walk visits s and its descendants.
func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, c := range s.Children {
		c.walk(fn)
	}
}

// maxHTTPSpans bounds the traced requests whose whole span tree is kept
// for the span file, split evenly over the clients; the per-layer
// aggregates always cover every request.
const maxHTTPSpans = 20000

// spanLog keeps the run's spans in memory until the run ends.
type spanLog struct {
	origin  time.Time
	spans   []*span
	dropped int // traced requests summarized but not kept whole
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) offsetUS(t time.Time) int64 { return t.Sub(l.origin).Microseconds() }

// add records a span that started at t0 and ends now.
func (l *spanLog) add(name string, t0 time.Time, attrs map[string]any) *span {
	s := &span{Name: name, StartUS: l.offsetUS(t0), DurUS: time.Since(t0).Microseconds(), Attrs: attrs}
	l.spans = append(l.spans, s)
	return s
}

func (l *spanLog) addSpan(s *span) { l.spans = append(l.spans, s) }

// write stores the spans as JSON lines after a header line holding the
// run record.
func (l *spanLog) write(path string, rec runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	header := struct {
		Run         runRecord `json:"run"`
		Spans       int       `json:"spans"`
		DroppedHTTP int       `json:"dropped_http_spans"`
	}{rec, len(l.spans), l.dropped}
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
