package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"strconv"
	"testing"
	"time"

	"toposearch"
)

// streamBytes renders every input a workload derives from the seed.
func streamBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var out bytes.Buffer
	hot, err := hotPlan(seed, 2, clients)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := distinctPlan(seed, 2, distinctClients)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*plan{hot, dist} {
		for _, b := range p.bodies {
			out.Write(b)
		}
		for _, seq := range p.seqs {
			if err := json.NewEncoder(&out).Encode(seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	batches, err := genBatches(seed, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		out.Write(b.Body)
	}
	return out.Bytes()
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	a, b := streamBytes(t, 7), streamBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different query or batch streams")
	}
	if bytes.Equal(a, streamBytes(t, 8)) {
		t.Fatal("seeds 7 and 8 gave identical streams")
	}
}

func TestDistinctStreamNeverRepeats(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p, err := distinctPlan(seed, 2, distinctClients)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seen := map[string]bool{}
		for _, r := range p.reqs {
			k := resultKey(r)
			if seen[k] {
				t.Fatalf("seed %d: request %s repeats", seed, k)
			}
			seen[k] = true
		}
	}
}

// TestDistinctMixIsSeedIndependent checks the stratification: every
// seed's stream carries the same count of each method, answer kind and
// wire variant in every block.
func TestDistinctMixIsSeedIndependent(t *testing.T) {
	block := len(distinctCells())
	mix := func(seed int64) []map[string]int {
		p, err := distinctPlan(seed, 2, distinctClients)
		if err != nil {
			t.Fatal(err)
		}
		var out []map[string]int
		for b := 0; (b+1)*block <= len(p.reqs); b++ {
			m := map[string]int{}
			for _, r := range p.reqs[b*block : (b+1)*block] {
				m[fmt.Sprintf("%s k0=%v spec=%d shards=%d", r.Method, r.K == 0, r.Speculation, r.Shards)]++
			}
			out = append(out, m)
		}
		return out
	}
	a, b := mix(1), mix(2)
	for i := range a {
		if !maps.Equal(a[i], b[i]) {
			t.Fatalf("block %d: seed 1 has mix %v, seed 2 %v", i, a[i], b[i])
		}
	}
}

func TestQuantileSampleRule(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: quantile must sort
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
	} {
		got, err := quantile(xs(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("quantile(n=%d, q=%g): err = %v, want ok=%v", c.n, c.q, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("quantile(n=%d, q=%g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
}

func TestCheckerFlagsCorruptedAnswer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const scale, seed = 1, 5
	in, _, err := setup(ctx, scale)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if err := in.listen(1); err != nil {
		t.Fatal(err)
	}
	p, err := hotPlan(seed, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The first hot query whose answer has a topology to corrupt.
	var buf bytes.Buffer
	var good sample
	for i := range p.reqs {
		good = search(ctx, in, p.bodies[i], int32(i), time.Now(), false, false, &buf)
		if good.ok() && bytes.Contains(buf.Bytes(), []byte(`"Frequency"`)) {
			break
		}
	}
	if !good.ok() {
		t.Fatalf("search status %d", good.status)
	}
	// Corrupt one topology's frequency in place, leaving every other
	// byte of the response as the server wrote it.
	body := append([]byte(nil), buf.Bytes()...)
	i := bytes.Index(body, []byte(`"Frequency":`)) + len(`"Frequency":`)
	j := i + bytes.IndexByte(body[i:], '}')
	freq, err := strconv.Atoi(string(body[i:j]))
	if err != nil {
		t.Fatalf("parsing frequency %q: %v", body[i:j], err)
	}
	corrupted := append(append(append([]byte(nil), body[:i]...), strconv.Itoa(freq+1)...), body[j:]...)
	bad := sample{req: good.req, status: 200}
	decodeAnswer(&bad, corrupted, false, false)

	rdb, err := toposearch.Synthetic(scale, dbSeed)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rdb.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, refSearcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ref := newReference(rs)

	var v verdict
	if err := checkStatic(ctx, &v, ref, p, []sample{good}); err != nil {
		t.Fatal(err)
	}
	if v.failed != 0 {
		t.Fatalf("the true answer failed the check: %v", v.notes)
	}
	v = verdict{}
	if err := checkStatic(ctx, &v, ref, p, []sample{bad}); err != nil {
		t.Fatal(err)
	}
	if v.failed != 1 || v.attempted != 1 {
		t.Fatalf("corrupted answer: %d failed of %d, want 1 of 1", v.failed, v.attempted)
	}
	v = verdict{}
	if err := checkStatic(ctx, &v, ref, p, []sample{good, bad}); err != nil {
		t.Fatal(err)
	}
	if v.failed != 1 {
		t.Fatalf("disagreeing answers to one request: %d failed, want 1", v.failed)
	}
}
