package main

// Per-layer metrics of a traced run. Phase A (untraced) supplies the
// counters a span cannot: /v1/stats deltas, runtime memory statistics,
// response sizes and writer lateness. Phase B replays the same inputs
// with "trace": true and supplies span timings; its HTTP spans carry
// the engine's span tree as a child.

import (
	"fmt"
	"strings"

	"toposearch/internal/methods"
)

// workPrefix is how many requests at the head of each client stream
// methods.work sums over: a fixed prefix of a fixed stream, so the
// count repeats exactly when every request in it executes.
const workPrefix = 200

// traceSummary is what the per-layer metrics read from one engine
// span tree.
type traceSummary struct {
	rootUS, compileUS, lookupSelfUS       int64
	fillUS, optUS, joinUS, prunedUS, etUS int64
	fills                                 int
	methods                               []methodRun
}

// methodRun is one "method <m>" span.
type methodRun struct {
	name            string
	us, work, items int64
}

func summarize(root *span) traceSummary {
	t := traceSummary{rootUS: root.DurUS}
	root.walk(func(n *span) {
		switch {
		case n.Name == "compile":
			t.compileUS += n.DurUS
		case n.Name == "cache.lookup":
			t.lookupSelfUS += n.DurUS
			for _, ch := range n.Children {
				if ch.Name == "cache.fill" {
					t.lookupSelfUS -= ch.DurUS
				}
			}
		case n.Name == "cache.fill":
			t.fillUS += n.DurUS
			t.fills++
		case strings.HasPrefix(n.Name, "method "):
			t.methods = append(t.methods, methodRun{name: strings.TrimPrefix(n.Name, "method "),
				us: n.DurUS, work: int64(n.attr("work")), items: int64(n.attr("items"))})
		case n.Name == "optimize":
			t.optUS += n.DurUS
		case n.Name == "tops-join":
			t.joinUS += n.DurUS
		case n.Name == "pruned-checks" || n.Name == "pruned-merge":
			t.prunedUS += n.DurUS
		case n.Name == "et-sequential" || n.Name == "et-race":
			t.etUS += n.DurUS
		}
	})
	return t
}

// layerMetrics derives the per-layer metrics from an untraced phase a
// and a traced phase b of the same workload.
func layerMetrics(m *metrics, a, b *phaseResult, sl *spanLog) error {
	var transport, handler, compile, lookup []float64
	var fillUS, execUS, optUS, joinUS, prunedUS, etUS, rttUS float64
	var fills int
	perMethod := map[string][]float64{}
	var work, prefixWork, items, wasted float64
	var shardExecs, shardsPruned int
	requests := 0
	for c, samples := range b.clients {
		for i := range samples {
			s := &samples[i]
			if !s.ok() || s.extra == nil {
				continue
			}
			t := &s.extra.sum
			requests++
			rtt := (s.end - s.start).Microseconds()
			rttUS += float64(rtt)
			transport = append(transport, float64(rtt-s.elapsedUS))
			handler = append(handler, float64(s.elapsedUS-t.rootUS))
			compile = append(compile, float64(t.compileUS))
			lookup = append(lookup, float64(t.lookupSelfUS))
			fillUS += float64(t.fillUS)
			fills += t.fills
			optUS += float64(t.optUS)
			joinUS += float64(t.joinUS)
			prunedUS += float64(t.prunedUS)
			etUS += float64(t.etUS)
			for _, mr := range t.methods {
				execUS += float64(mr.us)
				perMethod[mr.name] = append(perMethod[mr.name], float64(mr.us)/1000)
				work += float64(mr.work)
				items += float64(mr.items)
				if i < workPrefix {
					prefixWork += float64(mr.work)
				}
			}
			if len(t.methods) > 0 {
				wasted += float64(s.extra.wasted)
				if s.extra.shards > 1 {
					shardExecs += s.extra.shards
					shardsPruned += s.extra.shardsPruned
				}
			}
			if s.extra.tree == nil {
				sl.dropped++
			} else {
				sl.addSpan(&span{Name: "POST /v1/search", StartUS: sl.offsetUS(b.origin.Add(s.start)), DurUS: rtt,
					Attrs:    map[string]any{"client": c, "seq": i, "req": s.req, "elapsed_us": s.elapsedUS, "bytes": s.size},
					Children: []*span{s.extra.tree}})
			}
		}
	}
	if requests == 0 {
		return fmt.Errorf("traced phase completed no requests")
	}
	per := func(total float64) float64 { return total / float64(requests) }

	var sizes []float64
	for _, s := range a.searches() {
		if s.ok() {
			sizes = append(sizes, float64(s.size))
		}
	}
	for _, q := range []struct {
		name string
		xs   []float64
		unit string
	}{
		{"serve.transport_us", transport, "us"},
		{"serve.handler_us", handler, "us"},
		{"serve.resp_bytes", sizes, "bytes"},
		{"searcher.compile_us", compile, "us"},
	} {
		if err := m.setQ(q.name, q.xs, 0.5, q.unit); err != nil {
			return err
		}
	}
	st0, st1 := a.before, a.end
	m.set("searcher.degraded", float64(st1.Stats.Degraded-st0.Stats.Degraded), "count")
	m.set("searcher.rejected", float64(st1.Stats.Rejected-st0.Stats.Rejected), "count")
	m.set("searcher.canceled", float64(st1.Stats.Canceled-st0.Stats.Canceled), "count")

	hits := float64(a.after.Cache.Hits - a.before.Cache.Hits)
	misses := float64(a.after.Cache.Misses - a.before.Cache.Misses)
	m.set("cache.hit_ratio", ratio(hits, hits+misses, 0), "fraction")
	if err := m.setQ("cache.lookup_us", lookup, 0.5, "us"); err != nil {
		return err
	}
	m.set("cache.fill_ms", ratio(fillUS/1000, float64(fills), 0), "ms")
	nb := float64(len(a.applies))
	m.set("cache.invalidated_per_batch", ratio(float64(st1.Cache.Invalidated-st0.Cache.Invalidated), nb, 0), "count")
	m.set("cache.carried_forward_per_batch", ratio(float64(st1.Cache.CarriedForward-st0.Cache.CarriedForward), nb, 0), "count")
	m.set("cache.skipped_stale", float64(st1.Cache.SkippedStale-st0.Cache.SkippedStale), "count")

	m.set("methods.exec_ms", per(execUS)/1000, "ms")
	m.set("methods.exec_share", ratio(execUS, rttUS, 0), "fraction")
	for _, name := range methods.AllMethods() {
		if name == methods.MethodSQL {
			continue
		}
		xs := perMethod[name]
		m.set("methods.exec_ms."+name, ratio(sum(xs), float64(len(xs)), 0), "ms")
		if len(xs) >= 2*minBeyond {
			v, _ := median(xs)
			sl.addSpan(&span{Name: "summary methods.exec_ms." + name, Attrs: map[string]any{"p50_ms": v, "samples": len(xs)}})
		}
	}
	m.set("methods.work", prefixWork, "count")
	m.set("methods.work_per_item", ratio(work, items, 0), "count")
	m.set("optimizer.optimize_us", per(optUS), "us")
	m.set("engine.tops_join_ms", per(joinUS)/1000, "ms")
	m.set("engine.pruned_ms", per(prunedUS)/1000, "ms")
	m.set("engine.et_ms", per(etUS)/1000, "ms")
	m.set("engine.spec_useful_frac", ratio(work, work+wasted, 1), "fraction")
	m.set("shard.pruned_frac", ratio(float64(shardsPruned), float64(shardExecs), 0), "fraction")

	ops := float64(len(a.searches()))
	m.set("go.alloc_kb_per_op", ratio(float64(a.memAfter.TotalAlloc-a.memBefore.TotalAlloc)/1024, ops, 0), "KiB")
	m.set("go.gc_cycles", float64(a.memAfter.NumGC-a.memBefore.NumGC), "count")
	m.set("go.gc_pause_ms", float64(a.memAfter.PauseTotalNs-a.memBefore.PauseTotalNs)/1e6, "ms")
	late := 0.0
	if a.openLoop {
		for _, ap := range a.applies {
			if l := ap.lateMs(); l > late {
				late = l
			}
		}
	}
	m.set("loadgen.writer_late_ms", late, "ms")

	pa, err := quantile(rtts(a.searches()), 0.5)
	if err != nil {
		return err
	}
	pb, err := quantile(rtts(b.searches()), 0.5)
	if err != nil {
		return err
	}
	m.set("trace.overhead_frac", pb/pa-1, "fraction")
	return nil
}

// rtts lists the round trips of the successful samples, in ms.
func rtts(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for i := range samples {
		if samples[i].ok() {
			out = append(out, samples[i].rttMs())
		}
	}
	return out
}
