package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"toposearch/internal/serve"
)

// sample is one /v1/search round trip.
type sample struct {
	req        int32 // index into plan.reqs
	status     int16 // HTTP status; -1 transport error, -2 undecodable body
	cacheHit   bool
	start, end time.Duration // offsets from the phase origin
	elapsedUS  int64         // the response's elapsed_us (server-side)
	size       int32         // response body bytes
	hash       [32]byte      // sha256 of the answer's topology list
	extra      *tracedInfo   // traced phases only
}

func (s *sample) ok() bool       { return s.status == 200 }
func (s *sample) rttMs() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// tracedInfo is what a traced response adds for the per-layer metrics.
type tracedInfo struct {
	sum          traceSummary
	tree         *span // the engine's span tree, kept for the first requests only
	wasted       int64
	shards       int
	shardsPruned int
}

// wireResponse is the part of serve.SearchResponse the benchmark reads.
type wireResponse struct {
	ElapsedUS int64 `json:"elapsed_us"`
	Result    struct {
		Topologies json.RawMessage
		WastedWork int64
		Shards     int
		ShardStats []struct{ Pruned bool }
		CacheHit   bool
		Trace      json.RawMessage
	} `json:"result"`
}

// decodeAnswer fills s from a 200 response body. A traced answer's
// engine tree is summarized, and kept whole when keepTree is set.
func decodeAnswer(s *sample, body []byte, traced, keepTree bool) {
	var w wireResponse
	if err := json.Unmarshal(body, &w); err != nil || w.Result.Topologies == nil {
		s.status = -2
		return
	}
	s.hash = sha256.Sum256(w.Result.Topologies)
	s.elapsedUS = w.ElapsedUS
	s.cacheHit = w.Result.CacheHit
	if traced {
		var root span
		if err := json.Unmarshal(w.Result.Trace, &root); err != nil {
			s.status = -2
			return
		}
		ti := &tracedInfo{sum: summarize(&root), wasted: w.Result.WastedWork, shards: w.Result.Shards}
		if keepTree {
			ti.tree = &root
		}
		for _, st := range w.Result.ShardStats {
			if st.Pruned {
				ti.shardsPruned++
			}
		}
		s.extra = ti
	}
}

// search issues one request and records it.
func search(ctx context.Context, in *instance, body []byte, req int32, origin time.Time, traced, keepTree bool, buf *bytes.Buffer) sample {
	s := sample{req: req, start: time.Since(origin)}
	code, err := in.post(ctx, "/v1/search", body, buf)
	s.end = time.Since(origin)
	s.status = int16(code)
	if err == nil && code == 200 {
		s.size = int32(buf.Len())
		decodeAnswer(&s, buf.Bytes(), traced, keepTree)
	}
	return s
}

// searchClient is one closed-loop client: it replays its stream in
// order, one request at a time, until the deadline or, for a stream
// that does not wrap, its end.
func searchClient(ctx context.Context, in *instance, p *plan, c int, traced bool, origin, deadline time.Time) ([]sample, error) {
	seq := p.seqs[c]
	bodies := p.bodies
	if traced {
		bodies = p.traced
	}
	var buf bytes.Buffer
	out := make([]sample, 0, 1024)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if i == len(seq) && !p.wrap {
			break
		}
		r := seq[i%len(seq)]
		keep := i < maxHTTPSpans/len(p.seqs)
		out = append(out, search(ctx, in, bodies[r], r, origin, traced, keep, &buf))
	}
	return out, nil
}

// applySample is one POST /v1/apply?sync=1.
type applySample struct {
	due, sent, done time.Duration // offsets from the writer's origin
	status          int
	edges           int // refreshed_edges for the pair; -1 when absent
}

func (a applySample) visibleMs() float64 { return float64(a.done-a.due) / float64(time.Millisecond) }
func (a applySample) lateMs() float64    { return float64(a.sent-a.due) / float64(time.Millisecond) }

// applyLoop posts batches with ?sync=1, which answers once every
// pooled searcher has refreshed and the store has compacted. With
// interval > 0 it is an open-loop writer: batch i is due at
// origin + i*interval and is sent then, or at once when the writer is
// behind, and its visibility time counts from the due time. With
// interval 0 it is a closed loop: each batch is due when it is sent.
func applyLoop(ctx context.Context, in *instance, batches []batch, origin time.Time, interval time.Duration) ([]applySample, error) {
	var buf bytes.Buffer
	out := make([]applySample, 0, len(batches))
	for i, b := range batches {
		due := time.Duration(i) * interval
		if wait := due - time.Since(origin); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return out, ctx.Err()
			case <-t.C:
			}
		}
		a := applySample{sent: time.Since(origin), edges: -1}
		a.due = due
		if interval == 0 {
			a.due = a.sent
		}
		code, err := in.post(ctx, "/v1/apply?sync=1", b.Body, &buf)
		a.done = time.Since(origin)
		a.status = code
		if err == nil && code == 200 {
			var ar serve.ApplyResponse
			if json.Unmarshal(buf.Bytes(), &ar) == nil && ar.Synced {
				if n, ok := ar.RefreshedEdges[pairName]; ok {
					a.edges = n
				}
			}
		}
		out = append(out, a)
	}
	return out, nil
}

// workload is one traffic mix.
type workload struct {
	plan      *plan
	warm      bool          // issue every request once before timing
	batches   []batch       // writer batches (apply-mixed) or probe batches
	interval  time.Duration // open-loop writer interval; 0 = probe after the search phase
	seconds   time.Duration
	nbatchRun int // batches the writer or probe posts
}

// phaseResult is everything one timed phase recorded.
type phaseResult struct {
	warm      []sample
	clients   [][]sample
	applies   []applySample
	openLoop  bool
	final     []sample // apply-mixed: the hot set after the writer finished
	origin    time.Time
	span      time.Duration // phase start to the search clients' last response
	before    serve.SearcherStatus
	after     serve.SearcherStatus // after the search phase
	end       serve.SearcherStatus // after the writer or probe
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
	liveHeap  uint64 // bytes, after a forced GC, net of the benchmark's own records
}

func (pr *phaseResult) searches() []sample {
	var out []sample
	for _, c := range pr.clients {
		out = append(out, c...)
	}
	return out
}

// runPhase drives one workload against a listening instance.
func runPhase(ctx context.Context, in *instance, w *workload, traced bool) (*phaseResult, error) {
	pr := &phaseResult{openLoop: w.interval > 0}
	bodies := w.plan.bodies
	if traced {
		bodies = w.plan.traced
	}
	var buf bytes.Buffer
	if w.warm {
		origin := time.Now()
		for i := range w.plan.reqs {
			pr.warm = append(pr.warm, search(ctx, in, bodies[i], int32(i), origin, traced, false, &buf))
		}
	}
	var err error
	if pr.before, err = in.stats(ctx); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&pr.memBefore)

	origin := time.Now()
	pr.origin = origin
	deadline := origin.Add(w.seconds)
	pr.clients = make([][]sample, len(w.plan.seqs))
	errs := make([]error, len(w.plan.seqs)+1)
	var wg sync.WaitGroup
	for c := range w.plan.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pr.clients[c], errs[c] = searchClient(ctx, in, w.plan, c, traced, origin, deadline)
		}(c)
	}
	if pr.openLoop {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr.applies, errs[len(errs)-1] = applyLoop(ctx, in, w.batches[:w.nbatchRun], origin, w.interval)
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	for _, c := range pr.clients {
		if n := len(c); n > 0 && c[n-1].end > pr.span {
			pr.span = c[n-1].end
		}
	}
	runtime.ReadMemStats(&pr.memAfter)
	if pr.after, err = in.stats(ctx); err != nil {
		return nil, err
	}
	pr.liveHeap = liveHeap(pr)

	if pr.openLoop {
		// The final answers to the hot set, once every batch is visible.
		fo := time.Now()
		for i := range w.plan.reqs {
			pr.final = append(pr.final, search(ctx, in, w.plan.bodies[i], int32(i), fo, false, false, &buf))
		}
	} else {
		if pr.applies, err = applyLoop(ctx, in, w.batches[:w.nbatchRun], time.Now(), 0); err != nil {
			return nil, err
		}
	}
	if pr.end, err = in.stats(ctx); err != nil {
		return nil, err
	}
	return pr, nil
}

// liveHeap forces a GC and returns the live heap, less the backing
// arrays of the benchmark's own per-request records, which grow with
// throughput.
func liveHeap(pr *phaseResult) uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	own := uint64(0)
	for _, c := range pr.clients {
		own += uint64(cap(c)) * uint64(unsafe.Sizeof(sample{}))
	}
	if own > m.HeapAlloc {
		return 0
	}
	return m.HeapAlloc - own
}
