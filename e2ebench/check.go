package main

// Answer verification. Every /v1/search answer is reduced to the
// sha256 of its topology list and compared with a reference: an
// embedded, cache-off, sequential Searcher over an identically seeded
// database, running the paper's Full-Top family (full-top for k = 0,
// full-top-k otherwise). A failure is a non-2xx status, a transport
// error, an undecodable body or a mismatch; each counts once.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"toposearch"
	"toposearch/internal/methods"
	"toposearch/internal/serve"
)

// reference answers requests on one embedded searcher, memoized by
// refKey. Reset the memo whenever the searcher's database changes.
type reference struct {
	s    *toposearch.Searcher
	memo map[string][32]byte
}

func newReference(s *toposearch.Searcher) *reference {
	return &reference{s: s, memo: make(map[string][32]byte)}
}

func (r *reference) answer(ctx context.Context, req serve.SearchRequest) ([32]byte, error) {
	key := refKey(req)
	if h, ok := r.memo[key]; ok {
		return h, nil
	}
	h, err := r.compute(ctx, req)
	if err != nil {
		return h, err
	}
	r.memo[key] = h
	return h, nil
}

// prefetch fills the memo for every request the samples name, on
// clients goroutines: the reference is sequential per query, and the
// host has that many cores.
func (r *reference) prefetch(ctx context.Context, p *plan, samples []sample) error {
	var todo []serve.SearchRequest
	named := make(map[int32]bool)
	queued := make(map[string]bool)
	for i := range samples {
		if named[samples[i].req] {
			continue
		}
		named[samples[i].req] = true
		req := p.reqs[samples[i].req]
		if k := refKey(req); !queued[k] {
			queued[k] = true
			if _, ok := r.memo[k]; !ok {
				todo = append(todo, req)
			}
		}
	}
	hashes := make([][32]byte, len(todo))
	errs := make([]error, clients)
	var next sync.Mutex
	n := 0
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := n
				n++
				next.Unlock()
				if i >= len(todo) {
					return
				}
				if hashes[i], errs[w] = r.compute(ctx, todo[i]); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, req := range todo {
		r.memo[refKey(req)] = hashes[i]
	}
	return nil
}

// compute runs one request on the reference searcher.
func (r *reference) compute(ctx context.Context, req serve.SearchRequest) ([32]byte, error) {
	key := refKey(req)
	q := toposearch.SearchQuery{K: req.K, Ranking: req.Ranking, Method: methods.MethodFullTop}
	if req.K > 0 {
		q.Method = methods.MethodFullTopK
	}
	for _, c := range req.Cons1 {
		q.Cons1 = append(q.Cons1, toposearch.Constraint{Column: c.Column, Keyword: c.Keyword, Equals: c.Equals})
	}
	for _, c := range req.Cons2 {
		q.Cons2 = append(q.Cons2, toposearch.Constraint{Column: c.Column, Keyword: c.Keyword, Equals: c.Equals})
	}
	res, err := r.s.SearchContext(ctx, q)
	if err != nil {
		return [32]byte{}, fmt.Errorf("reference %s: %w", key, err)
	}
	b, err := json.Marshal(res.Topologies)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// verdict tallies one run's operations.
type verdict struct {
	attempted, failed int
	notes             []string // first few failure descriptions
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// checkStatic verifies answers given while the database did not
// change: all answers to one request agree, and each equals the
// reference.
func checkStatic(ctx context.Context, v *verdict, ref *reference, p *plan, samples []sample) error {
	if err := ref.prefetch(ctx, p, samples); err != nil {
		return err
	}
	agreed := make(map[int32][32]byte)
	want := make(map[int32][32]byte) // the reference, by request index
	for i := range samples {
		s := &samples[i]
		v.attempted++
		if !s.ok() {
			v.fail("search %d: status %d", s.req, s.status)
			continue
		}
		if h, ok := agreed[s.req]; ok && h != s.hash {
			v.fail("search %d: answer differs from an earlier answer to the same request", s.req)
			continue
		}
		agreed[s.req] = s.hash
		w, ok := want[s.req]
		if !ok {
			var err error
			if w, err = ref.answer(ctx, p.reqs[s.req]); err != nil {
				return err
			}
			want[s.req] = w
		}
		if s.hash != w {
			v.fail("search %d (%s): answer differs from the reference", s.req, resultKey(p.reqs[s.req]))
		}
	}
	return nil
}

// checkApplies verifies each sync apply: 200, and refreshed_edges equal
// to the batch's relationship rows.
func checkApplies(v *verdict, batches []batch, applies []applySample) {
	for i, a := range applies {
		v.attempted++
		switch {
		case a.status != 200:
			v.fail("apply %d: status %d", i, a.status)
		case a.edges != batches[i].Edges:
			v.fail("apply %d (%s): refreshed_edges %d, batch has %d", i, batches[i].Kind, a.edges, batches[i].Edges)
		}
	}
}

// readSet is one phase's reads beside the writer that ran with them.
type readSet struct {
	applies []applySample
	samples []sample
}

// checkVersioned verifies the apply-mixed reader. Version v is the
// database after the first v batches. A read that began after batch
// i's response sees at least version i+1; one that ended before batch
// i was sent sees at most version i. The answer must equal the
// reference at some version in that window. The reference walks the
// same batches in order, refreshing after each, and is left at the
// last version.
func checkVersioned(ctx context.Context, v *verdict, refDB *toposearch.DB, ref *reference, p *plan,
	batches []batch, sets []readSet) error {
	type window struct{ lo, hi int }
	versions := 0
	for _, rs := range sets {
		versions = max(versions, len(rs.applies))
	}
	need := make([]map[int32]bool, versions+1)
	for i := range need {
		need[i] = make(map[int32]bool)
	}
	wins := make([][]window, len(sets))
	for k, rs := range sets {
		wins[k] = make([]window, len(rs.samples))
		for i := range rs.samples {
			s := &rs.samples[i]
			var w window
			for _, a := range rs.applies {
				if a.done <= s.start {
					w.lo++
				}
				if a.sent < s.end {
					w.hi++
				}
			}
			wins[k][i] = w
			if s.ok() {
				for ver := w.lo; ver <= w.hi; ver++ {
					need[ver][s.req] = true
				}
			}
		}
	}
	want := make([]map[int32][32]byte, len(need))
	for ver := range need {
		want[ver] = make(map[int32][32]byte)
		for r := range need[ver] {
			h, err := ref.answer(ctx, p.reqs[r])
			if err != nil {
				return err
			}
			want[ver][r] = h
		}
		if ver < versions {
			if err := advance(ctx, refDB, ref, batches[ver]); err != nil {
				return err
			}
		}
	}
	for k, rs := range sets {
		for i := range rs.samples {
			s := &rs.samples[i]
			v.attempted++
			if !s.ok() {
				v.fail("read %d: status %d", s.req, s.status)
				continue
			}
			w, match := wins[k][i], false
			for ver := w.lo; ver <= w.hi && !match; ver++ {
				match = want[ver][s.req] == s.hash
			}
			if !match {
				v.fail("read %d (%s) in versions %d..%d: answer matches no reference version", s.req, resultKey(p.reqs[s.req]), w.lo, w.hi)
			}
		}
	}
	return nil
}

// advance applies one batch to the reference database and refreshes
// the reference searcher.
func advance(ctx context.Context, db *toposearch.DB, ref *reference, b batch) error {
	ups, err := parseBatch(b)
	if err != nil {
		return err
	}
	if err := db.ApplyBatch(ups); err != nil {
		return fmt.Errorf("reference apply: %w", err)
	}
	if _, err := ref.s.RefreshContext(ctx); err != nil {
		return fmt.Errorf("reference refresh: %w", err)
	}
	ref.memo = make(map[string][32]byte)
	return nil
}
