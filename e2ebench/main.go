// Command e2ebench is the repository's benchmark of record. It boots
// the toposerve HTTP server in-process over a seeded synthetic
// database, drives one workload against it over loopback HTTP, checks
// every answer against an embedded reference searcher, and prints each
// metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload search-hot --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics, writing its spans to
// --spans. See e2ebench/README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"toposearch"
)

const (
	// clients is the most concurrent HTTP connections a workload uses
	// (the sandbox's nproc).
	clients = 2
	// distinctClients is search-distinct's client count. Each of its
	// requests misses the cache and runs on GOMAXPROCS workers, the
	// daemon's default parallelism, so one client keeps both cores
	// busy; a second one's requests would only wait behind the first's
	// on the scheduler, which on a 2-core VM doubled the run-to-run
	// spread of p50.
	distinctClients = 1
	// setupReps is how many times a run builds the database, server
	// and warm searcher; setup_s is their median.
	setupReps = 3
	// writerInterval is the apply-mixed writer's schedule: longer than
	// the median visibility time, shorter than a hub batch's.
	writerInterval = 500 * time.Millisecond
	// probeBatches is how many batches a search workload posts, closed
	// loop, after its timed phase, for apply_visible_p50_ms: about 8 s
	// of them on a 2-core VM, where the 4 s that 60 take caught too
	// little of the shared host's wandering speed and spread twice as
	// wide.
	probeBatches = 120
	// scale is the synthetic database's size (cmd/toposerve's default).
	scale = 2
	// runBudget bounds a whole run.
	runBudget = 170 * time.Second
)

var started = time.Now()

// progress reports a finished stage on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench %6.1fs  %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	scale    int
	traced   bool
	spans    string
}

func main() {
	o := options{scale: scale}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "search-hot | search-distinct | apply-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the database, the queries and the batches")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "traced run: span file (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.traced = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		stop()
		os.Exit(1)
	}
}

func buildWorkload(o options) (*workload, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	w := &workload{seconds: time.Duration(o.seconds) * time.Second, nbatchRun: probeBatches}
	writerBatches := int(w.seconds / writerInterval)
	var err error
	switch o.workload {
	case "search-hot":
		w.plan, err = hotPlan(o.seed, o.scale, clients)
		w.warm = true
	case "search-distinct":
		w.plan, err = distinctPlan(o.seed, o.scale, distinctClients)
	case "apply-mixed":
		// One closed-loop reader beside one open-loop writer: the two
		// connections the sandbox affords.
		w.plan, err = hotPlan(o.seed, o.scale, 1)
		w.warm = true
		w.interval = writerInterval
		w.nbatchRun = writerBatches
	default:
		return nil, fmt.Errorf("unknown --workload %q (search-hot | search-distinct | apply-mixed)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	w.batches, err = genBatches(o.seed, o.scale, max(writerBatches, probeBatches))
	return w, err
}

func run(ctx context.Context, o options, stdout io.Writer) error {
	toposearch.SetMetricsEnabled(true) // as cmd/toposerve runs
	rec := newRunRecord(o.workload, o.traced, o.seed, o.scale, o.seconds)
	w, err := buildWorkload(o)
	if err != nil {
		return err
	}
	m := newMetrics()
	v := &verdict{}
	if !o.traced {
		var setups []float64
		var in *instance
		for i := 0; i < setupReps; i++ {
			inst, d, err := setup(ctx, o.scale)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d.Seconds())
			if i < setupReps-1 {
				inst.close()
				runtime.GC()
			} else {
				in = inst
			}
		}
		m.set("setup_s", medianOf(setups), "s")
		progress("set-up x%d", setupReps)
		pr, err := servePhase(ctx, in, w, false)
		if err != nil {
			return err
		}
		progress("timed phase: %d searches, %d applies", len(pr.searches()), len(pr.applies))
		if err := endToEnd(m, pr); err != nil {
			return err
		}
		if err := verify(ctx, o, w, v, pr); err != nil {
			return err
		}
		progress("verified %d operations", v.attempted)
		rec.Samples = m.samples
		return printReport(stdout, rec, v, m)
	}

	sl := newSpanLog()
	var phases [2]*phaseResult
	for i, traced := range []bool{false, true} {
		t0 := time.Now()
		in, _, err := setup(ctx, o.scale)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		sl.add("setup", t0, map[string]any{"phase": i})
		if phases[i], err = servePhase(ctx, in, w, traced); err != nil {
			return err
		}
		progress("phase %d (traced=%v): %d searches", i, traced, len(phases[i].searches()))
	}
	if err := layerMetrics(m, phases[0], phases[1], sl); err != nil {
		return err
	}
	if err := replayWritePath(ctx, o.scale, w.batches[:int(w.seconds/writerInterval)], sl, m); err != nil {
		return err
	}
	if err := replayOffline(ctx, o.scale, o.seed, sl, m); err != nil {
		return err
	}
	progress("write-path and offline replays")
	if err := verify(ctx, o, w, v, phases[:]...); err != nil {
		return err
	}
	progress("verified %d operations", v.attempted)
	rec.Samples = m.samples
	if err := sl.write(o.spans, rec); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return printReport(stdout, rec, v, m)
}

// servePhase serves one phase on in and shuts it down.
func servePhase(ctx context.Context, in *instance, w *workload, traced bool) (*phaseResult, error) {
	defer in.close()
	if err := in.listen(clients); err != nil {
		return nil, err
	}
	return runPhase(ctx, in, w, traced)
}

// endToEnd sets the user-visible metrics of an untraced phase. The
// search metrics are taken over the whole timed phase: the host's
// speed wanders over seconds, and a rate or percentile over every
// request averages more of it out than a median of short windows.
func endToEnd(m *metrics, pr *phaseResult) error {
	var lat []float64
	for _, s := range pr.searches() {
		if s.ok() {
			lat = append(lat, s.rttMs())
		}
	}
	if pr.span <= 0 {
		return fmt.Errorf("the timed phase completed no search")
	}
	m.set("search_qps", float64(len(lat))/pr.span.Seconds(), "req/s")
	if err := m.setQ("search_p50_ms", lat, 0.5, "ms"); err != nil {
		return err
	}
	if err := m.setQ("search_p99_ms", lat, 0.99, "ms"); err != nil {
		return err
	}
	vis := make([]float64, len(pr.applies))
	for i, a := range pr.applies {
		vis[i] = a.visibleMs()
	}
	if err := m.setQ("apply_visible_p50_ms", vis, 0.5, "ms"); err != nil {
		return err
	}
	m.set("live_heap_mb", float64(pr.liveHeap)/(1<<20), "MiB")
	return nil
}

// verify checks every operation of the phases against the reference.
func verify(ctx context.Context, o options, w *workload, v *verdict, phases ...*phaseResult) error {
	refDB, err := toposearch.Synthetic(o.scale, dbSeed)
	if err != nil {
		return err
	}
	rs, err := refDB.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, refSearcherConfig())
	if err != nil {
		return err
	}
	defer rs.Close()
	ref := newReference(rs)
	for _, pr := range phases {
		checkApplies(v, w.batches, pr.applies)
		if err := checkStatic(ctx, v, ref, w.plan, pr.warm); err != nil {
			return err
		}
	}
	if w.interval == 0 {
		for _, pr := range phases {
			if err := checkStatic(ctx, v, ref, w.plan, pr.searches()); err != nil {
				return err
			}
		}
		return nil
	}
	var sets []readSet
	for _, pr := range phases {
		sets = append(sets, readSet{applies: pr.applies, samples: pr.searches()})
	}
	if err := checkVersioned(ctx, v, refDB, ref, w.plan, w.batches, sets); err != nil {
		return err
	}
	// The final hot-set answers must equal both the refreshed reference
	// and a fresh rebuild on the grown database.
	fs, err := refDB.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, refSearcherConfig())
	if err != nil {
		return err
	}
	defer fs.Close()
	fresh := newReference(fs)
	for _, pr := range phases {
		for i := range pr.final {
			s := &pr.final[i]
			v.attempted++
			if !s.ok() {
				v.fail("final read %d: status %d", s.req, s.status)
				continue
			}
			want, err := fresh.answer(ctx, w.plan.reqs[s.req])
			if err != nil {
				return err
			}
			inc, err := ref.answer(ctx, w.plan.reqs[s.req])
			if err != nil {
				return err
			}
			switch {
			case s.hash != want:
				v.fail("final read %d (%s): answer differs from a fresh rebuild", s.req, resultKey(w.plan.reqs[s.req]))
			case inc != want:
				v.fail("final read %d: refreshed reference differs from a fresh rebuild", s.req)
			}
		}
	}
	return nil
}
