package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"toposearch"
	"toposearch/internal/serve"
)

// pair is the entity-set pair every workload queries (the server's
// default pair, prewarmed at start-up).
const pairName = toposearch.Protein + "-" + toposearch.DNA

// serverSearcherConfig is cmd/toposerve's default searcher template
// (its flag defaults), so the benchmark measures the daemon as shipped.
func serverSearcherConfig() toposearch.SearcherConfig {
	return toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 4096,
		MaxInflight: 16, MaxQueue: 64, QueueTimeout: 2 * time.Second,
	}
}

// refSearcherConfig is the reference: the same tables, no result
// cache, sequential execution.
func refSearcherConfig() toposearch.SearcherConfig {
	c := toposearch.DefaultSearcherConfig()
	c.Parallelism = 1
	c.CacheBytes = -1
	return c
}

// instance is one in-process toposerve daemon on a loopback listener.
type instance struct {
	db     *toposearch.DB
	sv     *serve.Server
	http   *http.Server
	client *http.Client
	base   string
	served chan struct{} // closed when the listener's Serve returns
}

// setup is the offline phase setup_s times: database generation, the
// server, and the prewarmed Protein–DNA searcher.
func setup(ctx context.Context, scale int) (*instance, time.Duration, error) {
	t0 := time.Now()
	db, err := toposearch.Synthetic(scale, dbSeed)
	if err != nil {
		return nil, 0, err
	}
	sv, err := serve.New(serve.Config{
		DB:           db,
		Searcher:     serverSearcherConfig(),
		DefaultES1:   toposearch.Protein,
		DefaultES2:   toposearch.DNA,
		CompactEvery: 1,
		Log:          slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, 0, err
	}
	if err := sv.Warm(ctx, toposearch.Protein, toposearch.DNA); err != nil {
		shutdownServer(sv)
		return nil, 0, err
	}
	return &instance{db: db, sv: sv}, time.Since(t0), nil
}

func shutdownServer(sv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = sv.Shutdown(ctx) // best effort: the run is over either way
}

// listen starts serving on 127.0.0.1 with a client limited to
// maxConns connections.
func (in *instance) listen(maxConns int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.http = &http.Server{Handler: in.sv.Handler()}
	in.served = make(chan struct{})
	go func() {
		defer close(in.served)
		_ = in.http.Serve(ln) // returns ErrServerClosed on close
	}()
	in.base = "http://" + ln.Addr().String()
	in.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the listener and the server and waits for both.
func (in *instance) close() {
	if in.http != nil {
		in.client.CloseIdleConnections()
		_ = in.http.Close()
		<-in.served
	}
	shutdownServer(in.sv)
}

// post sends body and reads the whole response into buf. status is -1
// on a transport error.
func (in *instance) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, in.base+path, bytes.NewReader(body))
	if err != nil {
		return -1, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := in.client.Do(req)
	if err != nil {
		return -1, err
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return -1, err
	}
	return resp.StatusCode, nil
}

// stats fetches GET /v1/stats and returns the benchmark pair's entry.
func (in *instance) stats(ctx context.Context) (serve.SearcherStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, in.base+"/v1/stats", nil)
	if err != nil {
		return serve.SearcherStatus{}, err
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return serve.SearcherStatus{}, err
	}
	defer resp.Body.Close()
	var sr serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return serve.SearcherStatus{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	st, ok := sr.Searchers[pairName]
	if !ok {
		return serve.SearcherStatus{}, fmt.Errorf("/v1/stats has no %s searcher", pairName)
	}
	return st, nil
}
