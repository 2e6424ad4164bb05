package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"dismastd"
	"dismastd/internal/obs"
)

// BenchmarkServe measures the serving front end under concurrent load:
// one writer streams event micro-batches over HTTP while N reader
// clients hammer /predict and /topk against the epoch-swapped
// snapshots. Each op is one 256-event ingest batch; the extra columns
// report the ingest throughput (events_per_sec) and the query latency
// distribution (query_p50_us/p95_us/p99_us — benchjson derives the
// query_tail_p99_over_p50 amplification, and the clients=N segment
// gains a qps_vs_1client scaling column).
func BenchmarkServe(b *testing.B) {
	for _, clients := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServe(b, clients)
		})
	}
}

const benchBatch = 256

func benchServe(b *testing.B, clients int) {
	opts := dismastd.Options{Rank: 8, MaxIters: 3, Seed: 1, SweepEvery: 1 << 14}
	srv := newServeServer(dismastd.NewStream(opts), obs.NewLogger(io.Discard, slog.LevelError))
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	// Warm: enough history for a real model, then one sweep boundary so
	// queries serve from a decomposed state, and one ingest+query pass
	// so every scratch buffer is sized.
	post := func(body []byte) {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	var seed int64 = 1
	nextBatch := func() []byte {
		events := serveEvents(benchBatch, seed)
		seed++
		body, err := json.Marshal(events)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	post(nextBatch())
	if resp, err := http.Post(ts.URL+"/flush", "application/json", nil); err != nil {
		b.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post(nextBatch())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	lats := make([][]time.Duration, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			urls := []string{
				ts.URL + "/predict?at=3,2,1",
				ts.URL + "/topk?mode=1&at=3,_,1&k=5",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				resp, err := client.Get(urls[i%len(urls)])
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lats[c] = append(lats[c], time.Since(t0))
			}
		}(c)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(nextBatch())
	}
	b.StopTimer()
	close(stop)
	wg.Wait()

	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*benchBatch)/elapsed, "events_per_sec")
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 && elapsed > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(all)-1))
			return float64(all[i].Microseconds())
		}
		b.ReportMetric(q(0.50), "query_p50_us")
		b.ReportMetric(q(0.95), "query_p95_us")
		b.ReportMetric(q(0.99), "query_p99_us")
		b.ReportMetric(float64(len(all))/elapsed, "queries_per_sec")
	}
}

// BenchmarkServePublish measures one copy-on-write snapshot publish
// after a 100-event /ingest batch on a Book-sized model: the serve
// shape's 75% dims (112500×21000×96) at rank 10, a 10.7 MB model. The
// events land at uniformly random rows inside the model, the worst
// case for paging (each touches its own page in the two large modes).
// Only the publish is timed, so ns/op and B/op are its cost alone;
// pages_copied/op and pages_total/op say how much of the model it
// copied.
func BenchmarkServePublish(b *testing.B) {
	dims := []int{112_500, 21_000, 96}
	rng := rand.New(rand.NewSource(1))
	draw := func(n int) []dismastd.Event {
		events := make([]dismastd.Event, n)
		for i := range events {
			c := make([]int, len(dims))
			for m, d := range dims {
				c[m] = rng.Intn(d)
			}
			events[i] = dismastd.Event{Coords: c, Value: 1 + rng.Float64()}
		}
		return events
	}
	stream := dismastd.NewStream(dismastd.Options{Rank: 10, MaxIters: 1, Seed: 1})
	warm := draw(4000)
	warm[0].Coords = []int{dims[0] - 1, dims[1] - 1, dims[2] - 1} // pin the dims
	if _, err := stream.IngestEvents(warm); err != nil {
		b.Fatal(err)
	}
	if _, err := stream.Flush(); err != nil {
		b.Fatal(err)
	}
	srv := newServeServer(stream, obs.NewLogger(io.Discard, slog.LevelError))
	batches := make([][]dismastd.Event, b.N)
	for i := range batches {
		batches[i] = draw(100)
	}
	c0, t0 := srv.pagesCopied.Load(), srv.pagesTotal.Load()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rep, err := stream.IngestEvents(batches[i])
		if err != nil {
			b.Fatal(err)
		}
		srv.mu.Lock()
		b.StartTimer()
		srv.publishLocked(&rep)
		b.StopTimer()
		srv.mu.Unlock()
	}
	b.ReportMetric(float64(srv.pagesCopied.Load()-c0)/float64(b.N), "pages_copied/op")
	b.ReportMetric(float64(srv.pagesTotal.Load()-t0)/float64(b.N), "pages_total/op")
}
