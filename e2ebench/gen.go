package main

// Workload inputs. Every query, client stream and mutation batch is a
// pure function of (seed, scale): the same seed gives byte-identical
// request bodies, so two runs with one seed do the same work.
//
// The database itself is the daemon's default one in every run (see
// dbSeed): generated databases differ by up to 3x in offline and query
// cost from seed to seed, which no bound on run-to-run spread could
// absorb, so the seed varies the traffic, not the data.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"toposearch"
	"toposearch/internal/biozon"
	"toposearch/internal/graph"
	"toposearch/internal/methods"
	"toposearch/internal/serve"
)

const (
	// hotQueries is the size of the search-hot / apply-mixed query set.
	hotQueries = 32
	// hotZipfS and hotZipfV skew the hot clients' picks over the query
	// set: P(rank k) ~ (hotZipfV+k)^-hotZipfS. v > 1 flattens the head,
	// so a run's cost is not set by whichever one or two queries the
	// seed ranks first.
	hotZipfS = 1.1
	hotZipfV = 4
	// hotStreamLen is each hot client's stream length; a client that
	// outruns it wraps, which only repeats cache hits.
	hotStreamLen = 1 << 17
	// distinctStreamLen is the total search-distinct stream, dealt
	// round-robin to the clients: about twice what a 25 s run uses on a
	// 2-core host. It uses up about 70% of the distinct requests
	// fast-top without k can make from a Protein id (the default method
	// resolves to it, too); at 16384 some seeds ran out. A client that
	// reaches the end of its share stops there rather than wrapping into
	// cache hits, so a server fast enough to finish early does the same
	// fixed work in less time.
	distinctStreamLen = 12288
	// batchZipfS and batchZipfV skew which existing entities a growth
	// batch attaches to, by ascending degree; v > 1 flattens the head.
	batchZipfS = 1.1
	batchZipfV = 8
	// newIDOffset places batch-created entity IDs far above the
	// generator's ID ranges at any benchmark scale.
	newIDOffset = 900_000
)

// topKMethods are the paper's six top-k methods.
var topKMethods = []string{
	methods.MethodFullTopK, methods.MethodFastTopK,
	methods.MethodFullTopKET, methods.MethodFastTopKET,
	methods.MethodFullTopOpt, methods.MethodFastTopOpt,
}

// queryMethods are the methods a distinct query draws from: the eight
// non-SQL methods plus the server default (""). The SQL strawman takes
// seconds per query and is left out.
var queryMethods = append([]string{"", methods.MethodFullTop, methods.MethodFastTop}, topKMethods...)

// hotMethods are the top-k methods plus the default: the hot set holds
// interactive top-k requests, whose answers are at most 20 topologies.
// Full answers (k = 0, up to tens of KiB at scale 2) are left to
// search-distinct: a hot set that drew a few of them would set a run's
// cost by which ones it drew.
var hotMethods = append([]string{""}, topKMethods...)

var (
	rankings = []string{toposearch.RankDomain, toposearch.RankFreq, toposearch.RankRare}
	keywords = []string{biozon.TokenSelective, biozon.TokenMedium, biozon.TokenUnselective, "enzyme"}
	dnaTypes = []string{"mRNA", "EST", "genomic"}
)

// subRand derives an independent generator for one named stream.
func subRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// dbSeed is cmd/toposerve's default -seed: the database every run
// serves.
const dbSeed = 42

func dbConfig(scale int) biozon.GenConfig {
	cfg := biozon.DefaultConfig(scale)
	cfg.Seed = dbSeed
	return cfg
}

// Query shapes.
const (
	shapeNear    = iota // a Protein's id token: a near-side point predicate
	shapeFar            // a DNA's id token: every Protein is a start
	shapeKeyword        // a selectivity or enzyme keyword
)

// hotShapes is the shape cycle of both search workloads: 40% near,
// 20% far, 40% keyword.
var hotShapes = []int{shapeNear, shapeKeyword, shapeNear, shapeKeyword, shapeFar}

// Wire variants: of every four requests, one asks for speculation and
// one for sharding, and the other two for neither. Neither changes the
// answer.
const (
	variantSpeculation = iota
	variantShards
	numVariants = 4
)

// genQuery draws one search request of the given method, shape and
// wire variant, top-k (k in 1..20, a random ranking) when topK is set.
// Near and keyword shapes may add a DNA type. Timeouts and partial
// answers are never requested: their answers depend on timing.
func genQuery(rng *rand.Rand, cfg biozon.GenConfig, method string, topK bool, shape, variant int) serve.SearchRequest {
	req := serve.SearchRequest{Method: method}
	if topK {
		req.K = 1 + rng.Intn(20)
		req.Ranking = rankings[rng.Intn(len(rankings))]
	}
	maybeType := func() []serve.Constraint {
		if i := rng.Intn(len(dnaTypes) + 1); i < len(dnaTypes) {
			return []serve.Constraint{{Column: "type", Equals: dnaTypes[i]}}
		}
		return nil
	}
	switch shape {
	case shapeNear:
		req.Cons1 = []serve.Constraint{{Column: "desc", Keyword: strconv.Itoa(rng.Intn(cfg.Proteins))}}
		req.Cons2 = maybeType()
	case shapeFar:
		req.Cons2 = []serve.Constraint{{Column: "desc", Keyword: strconv.Itoa(rng.Intn(cfg.DNAs))}}
	default:
		req.Cons1 = []serve.Constraint{{Column: "desc", Keyword: keywords[rng.Intn(len(keywords))]}}
		req.Cons2 = maybeType()
	}
	switch variant {
	case variantSpeculation:
		req.Speculation = 2
	case variantShards:
		req.Shards = 2
	}
	return req
}

// resultKey identifies a request's answer the way the server's cache
// does: resolved method and ranking, k and constraints. Wire
// speculation and sharding never change an answer.
func resultKey(r serve.SearchRequest) string {
	m, rk := r.Method, r.Ranking
	if m == "" {
		m = methods.MethodFastTop
		if r.K > 0 {
			m = methods.MethodFastTopOpt
		}
	}
	if rk == "" && r.K > 0 {
		rk = toposearch.RankDomain
	}
	return fmt.Sprintf("%s|%s", m, refKey(serve.SearchRequest{K: r.K, Ranking: rk, Cons1: r.Cons1, Cons2: r.Cons2}))
}

// refKey identifies the reference answer: every method agrees, so only
// k, ranking and constraints matter.
func refKey(r serve.SearchRequest) string {
	return fmt.Sprintf("%d|%s|%v|%v", r.K, r.Ranking, r.Cons1, r.Cons2)
}

// distinctCell is one combination of the distinct stream's mix.
type distinctCell struct {
	method         string
	topK           bool
	shape, variant int
}

// distinctCells is one block of the distinct stream: every method of
// queryMethods with every shape of hotShapes (40% near, 20% far, 40%
// keyword) and every wire variant. The default method is top-k in half
// of its cells.
func distinctCells() []distinctCell {
	var out []distinctCell
	for _, m := range queryMethods {
		for si, shape := range hotShapes {
			for v := range numVariants {
				topK := slices.Contains(topKMethods, m) || (m == "" && (si+v)%2 == 0)
				out = append(out, distinctCell{m, topK, shape, v})
			}
		}
	}
	return out
}

// distinctQueries draws n requests with pairwise different
// resultKeys. The stream is cut into blocks of len(distinctCells()),
// each a seeded permutation of the cells, so every seed and every
// stretch of a run has the same mix of methods, shapes and wire
// variants; the seed draws the order, the predicates, k and the
// ranking. A keyword request without k has only 16 forms per method,
// so those cells run dry within the first blocks: a cell that draws no
// new request in maxDraws tries becomes a near-side one, and one that
// still draws none fails the stream.
func distinctQueries(rng *rand.Rand, cfg biozon.GenConfig, n int) ([]serve.SearchRequest, error) {
	const maxDraws = 64
	cells := distinctCells()
	seen := make(map[string]bool, n)
	out := make([]serve.SearchRequest, 0, n)
	for len(out) < n {
		if len(out)%len(cells) == 0 {
			rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		}
		c := cells[len(out)%len(cells)]
		for draw := 1; ; draw++ {
			switch {
			case draw > 2*maxDraws:
				return nil, fmt.Errorf("distinct stream: no new request after %d of %d", len(out), n)
			case draw > maxDraws:
				c.shape = shapeNear
			}
			q := genQuery(rng, cfg, c.method, c.topK, c.shape, c.variant)
			if k := resultKey(q); !seen[k] {
				seen[k] = true
				out = append(out, q)
				break
			}
		}
	}
	return out, nil
}

// hotSet draws the hot set: top-k requests whose methods, shapes and
// wire variants cycle through hotMethods, hotShapes and the variants,
// so every seed has the same mix and the seed picks the predicates, k
// and ranking.
func hotSet(rng *rand.Rand, cfg biozon.GenConfig) []serve.SearchRequest {
	return uniqueQueries(hotQueries, func(i int) serve.SearchRequest {
		return genQuery(rng, cfg, hotMethods[i%len(hotMethods)], true, hotShapes[i%len(hotShapes)], i%numVariants)
	})
}

// uniqueQueries calls gen(i) for slot i until it yields a request whose
// resultKey is new, for n slots.
func uniqueQueries(n int, gen func(i int) serve.SearchRequest) []serve.SearchRequest {
	seen := make(map[string]bool, n)
	out := make([]serve.SearchRequest, 0, n)
	for len(out) < n {
		q := gen(len(out))
		if k := resultKey(q); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// plan is one workload's search side: the distinct requests, their
// wire bodies, and each client's sequence of request indices.
type plan struct {
	reqs   []serve.SearchRequest
	bodies [][]byte // untraced wire bodies
	traced [][]byte // the same requests with "trace": true
	seqs   [][]int32
	wrap   bool // clients may wrap their sequence (hot sets only)
}

func newPlan(reqs []serve.SearchRequest, seqs [][]int32, wrap bool) (*plan, error) {
	p := &plan{reqs: reqs, seqs: seqs, wrap: wrap}
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		r.Trace = true
		t, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, b)
		p.traced = append(p.traced, t)
	}
	return p, nil
}

// hotPlan is the hot query set with nclients Zipf-skewed streams over
// it.
func hotPlan(seed int64, scale, nclients int) (*plan, error) {
	reqs := hotSet(subRand(seed, "hot-set"), dbConfig(scale))
	seqs := make([][]int32, nclients)
	for c := range seqs {
		rng := subRand(seed, fmt.Sprintf("hot-client-%d", c))
		z := rand.NewZipf(rng, hotZipfS, hotZipfV, hotQueries-1)
		seqs[c] = make([]int32, hotStreamLen)
		for i := range seqs[c] {
			seqs[c][i] = int32(z.Uint64())
		}
	}
	return newPlan(reqs, seqs, true)
}

// distinctPlan deals one never-repeating stream round-robin to
// nclients clients.
func distinctPlan(seed int64, scale, nclients int) (*plan, error) {
	reqs, err := distinctQueries(subRand(seed, "distinct"), dbConfig(scale), distinctStreamLen)
	if err != nil {
		return nil, err
	}
	seqs := make([][]int32, nclients)
	for i := range reqs {
		seqs[i%nclients] = append(seqs[i%nclients], int32(i))
	}
	return newPlan(reqs, seqs, false)
}

// batch is one /v1/apply body.
type batch struct {
	Kind  string // growth | duplicate | entity
	Body  []byte // JSONL, as POST /v1/apply takes it
	Edges int    // relationship rows, which Refresh reports back
}

type batchLine struct {
	Entity string            `json:"entity,omitempty"`
	ID     int64             `json:"id,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Rel    string            `json:"rel,omitempty"`
	A      int64             `json:"a,omitempty"`
	B      int64             `json:"b,omitempty"`
}

// batchKinds is one block of the batch stream; each block of ten
// batches is a seeded permutation of it, so every run has the same mix.
var batchKinds = []string{
	"growth", "growth", "growth", "growth", "growth", "growth",
	"entity", "entity", "entity", "duplicate",
}

// genBatches draws n mutation batches against the database:
//   - growth (60%): a new Protein, DNA and Unigene with 3–4 edges: the
//     Protein encodes the DNA, the Unigene cluster holds the Protein
//     (and, half the time, the DNA), and one edge joins a new entity to
//     a Zipf-picked existing one;
//   - duplicate (10%): a parallel copy of an encodes edge an earlier
//     growth batch created, as when a record is submitted twice (a
//     duplicate that precedes every growth batch becomes one);
//   - entity (30%): a new Protein, sometimes a new DNA, without edges.
//
// Existing entities are Zipf-picked by ascending degree: most picks are
// sparsely connected, and the occasional hub pick gives its batch a
// large refresh frontier.
func genBatches(seed int64, scale, n int) ([]batch, error) {
	g, err := graph.Build(biozon.Generate(dbConfig(scale)), biozon.SchemaGraph())
	if err != nil {
		return nil, err
	}
	byDegree := map[string][]graph.NodeID{}
	pick := map[string]*rand.Zipf{}
	rng := subRand(seed, "batches")
	for _, set := range []string{biozon.Protein, biozon.DNA, biozon.Unigene} {
		t, _ := g.NodeTypes.Lookup(set)
		ids := append([]graph.NodeID(nil), g.NodesOfType(t)...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		sort.SliceStable(ids, func(i, j int) bool { return g.Degree(ids[i]) < g.Degree(ids[j]) })
		byDegree[set] = ids
		pick[set] = rand.NewZipf(rng, batchZipfS, batchZipfV, uint64(len(ids)-1))
	}
	existing := func(set string) int64 { return int64(byDegree[set][pick[set].Uint64()]) }
	desc := func(kind string, i int) string {
		d := fmt.Sprintf("%s %d", kind, newIDOffset+i)
		for _, kw := range keywords {
			if rng.Intn(2) == 0 {
				d += " " + kw
			}
		}
		return d
	}
	var created []batchLine // encodes edges of earlier growth batches
	kinds := append([]string(nil), batchKinds...)
	out := make([]batch, 0, n)
	for i := 0; i < n; i++ {
		if i%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		kind := kinds[i%len(kinds)]
		if kind == "duplicate" && len(created) == 0 {
			kind = "growth"
		}
		var lines []batchLine
		switch kind {
		case "duplicate":
			lines = append(lines, created[rng.Intn(len(created))])
		case "entity":
			lines = append(lines, batchLine{Entity: biozon.Protein, ID: int64(biozon.BaseProtein + newIDOffset + i),
				Attrs: map[string]string{"desc": desc("protein", i)}})
			if rng.Intn(2) == 0 {
				lines = append(lines, batchLine{Entity: biozon.DNA, ID: int64(biozon.BaseDNA + newIDOffset + i),
					Attrs: map[string]string{"type": dnaTypes[rng.Intn(len(dnaTypes))], "desc": desc("dna", i)}})
			}
		default:
			p := int64(biozon.BaseProtein + newIDOffset + i)
			d := int64(biozon.BaseDNA + newIDOffset + i)
			u := int64(biozon.BaseUnigene + newIDOffset + i)
			enc := batchLine{Rel: biozon.RelEncodes, A: p, B: d}
			created = append(created, enc)
			lines = append(lines,
				batchLine{Entity: biozon.Protein, ID: p, Attrs: map[string]string{"desc": desc("protein", i)}},
				batchLine{Entity: biozon.DNA, ID: d, Attrs: map[string]string{"type": dnaTypes[rng.Intn(len(dnaTypes))], "desc": desc("dna", i)}},
				batchLine{Entity: biozon.Unigene, ID: u, Attrs: map[string]string{"desc": desc("unigene", i)}},
				enc,
				batchLine{Rel: biozon.RelUniEncodes, A: u, B: p})
			if rng.Intn(2) == 0 {
				lines = append(lines, batchLine{Rel: biozon.RelUniContains, A: u, B: d})
			}
			attach := []batchLine{
				{Rel: biozon.RelEncodes, A: p, B: existing(biozon.DNA)},
				{Rel: biozon.RelEncodes, A: existing(biozon.Protein), B: d},
				{Rel: biozon.RelUniEncodes, A: existing(biozon.Unigene), B: p},
				{Rel: biozon.RelUniEncodes, A: u, B: existing(biozon.Protein)},
				{Rel: biozon.RelUniContains, A: u, B: existing(biozon.DNA)},
				{Rel: biozon.RelUniContains, A: existing(biozon.Unigene), B: d},
			}
			lines = append(lines, attach[rng.Intn(len(attach))])
		}
		var sb strings.Builder
		edges := 0
		for _, l := range lines {
			b, err := json.Marshal(l)
			if err != nil {
				return nil, err
			}
			sb.Write(b)
			sb.WriteByte('\n')
			if l.Rel != "" {
				edges++
			}
		}
		out = append(out, batch{Kind: kind, Body: []byte(sb.String()), Edges: edges})
	}
	return out, nil
}
