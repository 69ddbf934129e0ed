package main

// In-process replays for the per-layer metrics of the write path and
// the offline phase. Each public call is timed from outside and
// recorded as a span; nothing inside the program is instrumented.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"toposearch"
	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/delta"
	"toposearch/internal/graph"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
	"toposearch/internal/serve"
)

// offlineCells is how many (Protein, DNA) cells the offline replay
// times through core.PathClasses and core.TopologiesFromClasses.
const offlineCells = 256

func parseBatch(b batch) ([]toposearch.Update, error) {
	ups, err := serve.ParseBatch(bytes.NewReader(b.Body), "batch")
	if err != nil {
		return nil, fmt.Errorf("parsing %s batch: %w", b.Kind, err)
	}
	return ups, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replayWritePath replays the batch sequence in-process the way a
// ?sync=1 apply runs it — DB.ApplyBatch, Searcher.RefreshContext,
// DB.Compact — on a database built like the server's, and replays the
// same batches on a bare replica (biozon.Generate, graph.Build,
// delta.Applier.Apply) to count delta.AffectedStarts.
func replayWritePath(ctx context.Context, scale int, batches []batch, sl *spanLog, m *metrics) error {
	db, err := toposearch.Synthetic(scale, dbSeed)
	if err != nil {
		return err
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, serverSearcherConfig())
	if err != nil {
		return err
	}
	defer s.Close()
	rel := biozon.Generate(dbConfig(scale))
	sg := biozon.SchemaGraph()
	g, err := graph.Build(rel, sg)
	if err != nil {
		return err
	}
	ap := delta.NewApplier(rel, sg)
	maxLen := core.Options{MaxLen: serverSearcherConfig().MaxLen}.EffectiveMaxLen()

	var applyMs, refreshMs, compactMs, affected []float64
	tables := map[string]float64{}
	for i, b := range batches {
		ups, err := parseBatch(b)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := db.ApplyBatch(ups); err != nil {
			return fmt.Errorf("batch %d: DB.ApplyBatch: %w", i, err)
		}
		sp := sl.add("DB.ApplyBatch", t0, map[string]any{"batch": i, "kind": b.Kind})
		applyMs = append(applyMs, ms(sp.dur()))

		t0 = time.Now()
		n, err := s.RefreshContext(ctx)
		if err != nil {
			return fmt.Errorf("batch %d: Searcher.RefreshContext: %w", i, err)
		}
		sp = sl.add("Searcher.RefreshContext", t0, map[string]any{"batch": i, "edges": n})
		refreshMs = append(refreshMs, ms(sp.dur()))
		if n != b.Edges {
			return fmt.Errorf("batch %d: refresh absorbed %d edges, batch has %d", i, n, b.Edges)
		}
		if n > 0 {
			d := s.LastRefreshDiff()
			for _, td := range []core.TableDiff{d.AllTops, d.LeftTops, d.ExcpTops, d.TopInfo} {
				tables[td.Mode]++
			}
		}

		t0 = time.Now()
		if err := db.Compact(); err != nil {
			return fmt.Errorf("batch %d: DB.Compact: %w", i, err)
		}
		compactMs = append(compactMs, ms(sl.add("DB.Compact", t0, map[string]any{"batch": i}).dur()))

		t0 = time.Now()
		ng, applied, err := ap.Apply(g, delta.Batch(ups))
		if err != nil {
			return fmt.Errorf("batch %d: replica delta.Applier.Apply: %w", i, err)
		}
		sl.add("delta.Applier.Apply", t0, map[string]any{"batch": i})
		g = ng
		t0 = time.Now()
		starts := delta.AffectedStarts(g, toposearch.Protein, maxLen, applied.Edges)
		sl.add("delta.AffectedStarts", t0, map[string]any{"batch": i, "starts": len(starts)})
		affected = append(affected, float64(len(starts)))
	}
	var err2 error
	p50 := func(xs []float64) float64 {
		v, err := median(xs)
		if err != nil && err2 == nil {
			err2 = err
		}
		return v
	}
	m.set("delta.apply_ms", p50(applyMs), "ms")
	m.set("delta.affected_starts", sum(affected)/float64(len(affected)), "count")
	m.set("refresh.ms", p50(refreshMs), "ms")
	m.set("refresh.tables_rebuilt", tables["rebuilt"], "count")
	m.set("refresh.tables_spliced", tables["spliced"], "count")
	m.set("refresh.tables_reused", tables["reused"], "count")
	m.set("relstore.compact_ms", p50(compactMs), "ms")
	if err2 != nil {
		return fmt.Errorf("write-path replay: %w", err2)
	}
	return nil
}

// replayOffline times the offline phase's public steps on the
// database: graph.Build, core.Compute, the pruning and the three
// table materializations on its result, methods.BuildStoreFromGraph
// (all of these plus index warming), and a seeded sample of cells
// through core.PathClasses and core.TopologiesFromClasses (union,
// canonicalization and registry).
func replayOffline(ctx context.Context, scale int, seed int64, sl *spanLog, m *metrics) error {
	rel := biozon.Generate(dbConfig(scale))
	sg := biozon.SchemaGraph()
	var g *graph.Graph
	var builds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		if g, err = graph.Build(rel, sg); err != nil {
			return err
		}
		builds = append(builds, ms(sl.add("graph.Build", t0, nil).dur()))
	}
	cfg := serverSearcherConfig()
	// The options NewSearcherContext derives from the searcher config.
	opts := core.Options{MaxLen: cfg.MaxLen, MaxCombinations: cfg.MaxCombinations,
		MaxPathsPerClass: 64, Parallelism: cfg.Parallelism}
	pair := [2]string{toposearch.Protein, toposearch.DNA}

	t0 := time.Now()
	res, err := core.Compute(ctx, g, sg, [][2]string{pair}, opts)
	if err != nil {
		return err
	}
	compute := sl.add("core.Compute", t0, nil).dur()

	t0 = time.Now()
	pruned := res.Prune(cfg.PruneThreshold)
	if _, err := res.MaterializeAllTops(rel, pair[0], pair[1]); err != nil {
		return err
	}
	if _, _, err := pruned.Materialize(rel, pair[0], pair[1]); err != nil {
		return err
	}
	if _, err := res.MaterializeTopInfo(rel, pair[0], pair[1], ranking.Schemes()); err != nil {
		return err
	}
	materialize := sl.add("core.Prune+Materialize", t0, nil).dur()

	t0 = time.Now()
	if _, err := methods.BuildStoreFromGraph(ctx, rel, g, sg, pair[0], pair[1], methods.StoreConfig{
		Opts: opts, PruneThreshold: cfg.PruneThreshold, Scores: ranking.Schemes(),
	}); err != nil {
		return err
	}
	build := sl.add("methods.BuildStoreFromGraph", t0, nil).dur()

	// Seeded sample of related cells, timed one by one on a fresh
	// registry.
	type cell struct{ a, b graph.NodeID }
	seen := map[cell]bool{}
	var cells []cell
	for _, e := range res.Pair(pair[0], pair[1]).Entries {
		if c := (cell{e.A, e.B}); !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].a != cells[j].a {
			return cells[i].a < cells[j].a
		}
		return cells[i].b < cells[j].b
	})
	rng := subRand(seed, "offline-cells")
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	if len(cells) > offlineCells {
		cells = cells[:offlineCells]
	}
	reg := core.NewRegistry()
	var classesD, topsD time.Duration
	for _, c := range cells {
		t0 := time.Now()
		classes := core.PathClasses(g, c.a, c.b, opts.EffectiveMaxLen())
		t1 := time.Now()
		tops := core.TopologiesFromClasses(g, reg, classes, opts)
		t2 := time.Now()
		classesD += t1.Sub(t0)
		topsD += t2.Sub(t1)
		sl.addSpan(&span{Name: "cell", StartUS: sl.offsetUS(t0), DurUS: t2.Sub(t0).Microseconds(),
			Attrs: map[string]any{"a": int64(c.a), "b": int64(c.b), "classes": len(classes), "topologies": len(tops)},
			Children: []*span{
				{Name: "core.PathClasses", DurUS: t1.Sub(t0).Microseconds()},
				{Name: "core.TopologiesFromClasses", StartUS: t1.Sub(t0).Microseconds(), DurUS: t2.Sub(t1).Microseconds()},
			}})
	}

	m.set("graph.build_ms", medianOf(builds), "ms")
	m.set("core.compute_s", compute.Seconds(), "s")
	m.set("methods.build_s", build.Seconds(), "s")
	m.set("methods.materialize_s", materialize.Seconds(), "s")
	m.set("core.path_classes_ms", ms(classesD), "ms")
	m.set("core.topologies_ms", ms(topsD), "ms")
	m.set("core.topologies_share", ratio(topsD.Seconds(), (classesD+topsD).Seconds(), 0), "fraction")
	return nil
}
