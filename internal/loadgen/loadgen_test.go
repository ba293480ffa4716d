package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("align=0.7, batch=0.2,summarize=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Align: 0.7, Batch: 0.2, Summarize: 0.1}) {
		t.Fatalf("mix = %+v", m)
	}
	if m, err := ParseMix("align=1"); err != nil || m != (Mix{Align: 1}) {
		t.Fatalf("align-only mix = %+v, %v", m, err)
	}
	for _, bad := range []string{"align", "align=x", "foo=1", "align=-1", "", "align=0,batch=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q): expected error", bad)
		}
	}
}

func TestBuildScheduleDeterministic(t *testing.T) {
	cfg := Config{QPS: 200, Duration: 2 * time.Second, Seed: 9, BatchPages: 4}
	a := BuildSchedule(cfg, 20)
	b := BuildSchedule(cfg, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	// ~200 qps over 2s ⇒ ~400 arrivals; Poisson noise stays well inside 3x.
	if len(a) < 200 || len(a) > 800 {
		t.Errorf("schedule length = %d, want ≈400", len(a))
	}
	prev := time.Duration(-1)
	counts := map[string]int{}
	pageHits := map[int]int{}
	for _, r := range a {
		if r.At < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = r.At
		if r.At >= cfg.Duration {
			t.Fatalf("arrival %v beyond horizon %v", r.At, cfg.Duration)
		}
		counts[r.Endpoint]++
		for _, p := range r.Pages {
			if p < 0 || p >= 20 {
				t.Fatalf("page index %d out of range", p)
			}
			pageHits[p]++
		}
		if r.Endpoint == EndpointBatch {
			if len(r.Pages) != 4 {
				t.Fatalf("batch with %d pages, want 4", len(r.Pages))
			}
			seen := map[int]bool{}
			for _, p := range r.Pages {
				if seen[p] {
					t.Fatal("duplicate page in batch request")
				}
				seen[p] = true
			}
		}
	}
	for _, ep := range []string{EndpointAlign, EndpointBatch, EndpointSummarize} {
		if counts[ep] == 0 {
			t.Errorf("default mix produced no %s requests", ep)
		}
	}
	// Zipf skew: rank 0 must dominate the tail.
	if pageHits[0] <= pageHits[19] {
		t.Errorf("no popularity skew: page0=%d page19=%d", pageHits[0], pageHits[19])
	}

	if got := BuildSchedule(Config{QPS: 100, Duration: time.Second, Seed: 1}, 1); len(got) == 0 {
		t.Error("single-page corpus produced empty schedule")
	} else {
		for _, r := range got {
			for _, p := range r.Pages {
				if p != 0 {
					t.Fatal("single-page corpus scheduled nonzero page index")
				}
			}
		}
	}
}

func TestBuildScheduleBatchBlocks(t *testing.T) {
	cfg := Config{QPS: 300, Duration: 2 * time.Second, Seed: 9, BatchPages: 4,
		BatchBlocks: true, Mix: Mix{Batch: 1}}
	const npages = 22 // 5 whole blocks + 2 tail pages
	sched := BuildSchedule(cfg, npages)
	if !reflect.DeepEqual(sched, BuildSchedule(cfg, npages)) {
		t.Fatal("same config produced different schedules")
	}
	blockHits := map[int]int{}
	for _, r := range sched {
		if r.Endpoint != EndpointBatch {
			t.Fatalf("batch-only mix scheduled %s", r.Endpoint)
		}
		if len(r.Pages) != 4 {
			t.Fatalf("batch with %d pages, want 4", len(r.Pages))
		}
		// Every batch must be one aligned block: pages [4b, 4b+4), so the
		// request body is identical on every recurrence and a consistent-hash
		// gateway routes the block to one replica.
		b := r.Pages[0] / 4
		for j, p := range r.Pages {
			if p != b*4+j {
				t.Fatalf("batch pages %v are not aligned block %d", r.Pages, b)
			}
		}
		if b >= npages/4 {
			t.Fatalf("block %d reaches into the partial tail (npages=%d)", b, npages)
		}
		blockHits[b]++
	}
	if len(sched) == 0 {
		t.Fatal("empty schedule")
	}
	if len(blockHits) < 2 {
		t.Fatalf("only %d distinct blocks scheduled", len(blockHits))
	}
	// Same Zipf skew over block ranks as over page ranks.
	if blockHits[0] <= blockHits[4] {
		t.Errorf("no block popularity skew: block0=%d block4=%d", blockHits[0], blockHits[4])
	}
}

// fakeServer mimics the slice of briq-server the harness touches: the three
// POST endpoints answering a scripted status sequence, and GET /metrics with
// live serving counters — so the test controls exactly which outcomes occur
// and can check the report's accounting to the request.
type fakeServer struct {
	n        atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	shed     atomic.Int64
	delay    time.Duration
	statusAt func(n int64) int
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/metrics" {
		fmt.Fprintf(w, `{"serving":{"hits":%d,"misses":%d,"coalesced":0,"stores":%d,"shed_overloaded":%d,"shed_deadline":0}}`,
			f.hits.Load(), f.misses.Load(), f.misses.Load(), f.shed.Load())
		return
	}
	if r.URL.Path == "/v1/healthz" {
		fmt.Fprintln(w, "ok")
		return
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	status := http.StatusOK
	if f.statusAt != nil {
		status = f.statusAt(f.n.Add(1))
	}
	switch status {
	case http.StatusOK:
		// Even requests are cache hits, odds misses: a fixed 50% hit rate.
		if f.n.Load()%2 == 0 {
			f.hits.Add(1)
		} else {
			f.misses.Add(1)
		}
	case http.StatusTooManyRequests:
		f.shed.Add(1)
	}
	w.WriteHeader(status)
	fmt.Fprintln(w, `{"result":null,"error":null}`)
}

// TestRunAccounting drives the fake server with a scripted outcome pattern
// and checks every bucket of the report: client-side status counts, the
// rates derived from them, and the serving deltas scraped from /metrics.
func TestRunAccounting(t *testing.T) {
	fake := &fakeServer{statusAt: func(n int64) int {
		switch n % 5 {
		case 0:
			return http.StatusTooManyRequests
		case 1:
			return http.StatusGatewayTimeout
		case 2:
			return http.StatusUnprocessableEntity
		default:
			return http.StatusOK
		}
	}}
	ts := httptest.NewServer(fake)
	defer ts.Close()

	cfg := Config{
		BaseURL:  ts.URL,
		QPS:      400,
		Duration: 500 * time.Millisecond,
		Seed:     3,
		Mix:      Mix{Align: 1},
	}
	rep, err := Run(context.Background(), cfg, []Page{{ID: "p0", HTML: "<html/>"}, {ID: "p1", HTML: "<html/>"}})
	if err != nil {
		t.Fatal(err)
	}

	c := rep.Requests
	if c.Sent == 0 || c.Sent != c.Scheduled {
		t.Fatalf("sent %d / scheduled %d", c.Sent, c.Scheduled)
	}
	if got := c.OK + c.Unprocessable + c.Shed429 + c.Deadline504 + c.OtherHTTP + c.TransportErrs; got != c.Sent {
		t.Fatalf("outcome buckets sum to %d, sent %d", got, c.Sent)
	}
	if c.TransportErrs != 0 || c.OtherHTTP != 0 {
		t.Fatalf("unexpected errors: %+v", c)
	}
	// The script yields 1/5 of each failure class (±1 for the partial cycle).
	for name, got := range map[string]int64{"429": c.Shed429, "504": c.Deadline504, "422": c.Unprocessable} {
		want := c.Sent / 5
		if got < want-1 || got > want+1 {
			t.Errorf("%s count = %d, want ≈%d", name, got, want)
		}
	}
	if rep.Rates.Shed429 == 0 || rep.Rates.Shed429 != float64(c.Shed429)/float64(c.Sent) {
		t.Errorf("shed rate = %v, counts %d/%d", rep.Rates.Shed429, c.Shed429, c.Sent)
	}

	// Server-side cross-check: the /metrics deltas must agree with what the
	// fake actually did — sheds match the client's 429 count exactly.
	if !rep.Serving.ScrapeOK {
		t.Fatal("scrape failed")
	}
	if rep.Serving.ShedOverloaded != c.Shed429 {
		t.Errorf("server sheds %d, client 429s %d", rep.Serving.ShedOverloaded, c.Shed429)
	}
	if rep.Serving.CacheHitRate < 0.3 || rep.Serving.CacheHitRate > 0.7 {
		t.Errorf("hit rate = %v, fake serves ≈50%%", rep.Serving.CacheHitRate)
	}
	if rep.LatencyMs.Overall.Count != c.Sent {
		t.Errorf("latency count %d, sent %d", rep.LatencyMs.Overall.Count, c.Sent)
	}
	if rep.Throughput.AchievedQPS <= 0 || rep.Throughput.GoodputQPS <= 0 {
		t.Errorf("throughput not computed: %+v", rep.Throughput)
	}
}

// TestRunMeasuresFromScheduledTime pins the anti-coordinated-omission
// contract: a server that stalls every response by 40ms must show ≥40ms at
// the median even though the generator never waits for it — latency is
// charged from the scheduled arrival, not from when the client got around
// to sending.
func TestRunMeasuresFromScheduledTime(t *testing.T) {
	fake := &fakeServer{delay: 40 * time.Millisecond}
	ts := httptest.NewServer(fake)
	defer ts.Close()

	cfg := Config{
		BaseURL:  ts.URL,
		QPS:      150,
		Duration: 400 * time.Millisecond,
		Seed:     5,
		Mix:      Mix{Align: 1},
	}
	rep, err := Run(context.Background(), cfg, []Page{{ID: "p0", HTML: "<html/>"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests.OK == 0 {
		t.Fatal("no successful requests")
	}
	// The histogram bucket holding 40ms spans ~12%; allow generous slack
	// below and none of the flakiness of an upper bound.
	if rep.LatencyMs.Overall.P50Ms < 30 {
		t.Errorf("p50 = %.2fms, server floor is 40ms", rep.LatencyMs.Overall.P50Ms)
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	fake := &fakeServer{}
	ts := httptest.NewServer(fake)
	defer ts.Close()

	cfg := Config{
		BaseURL:  ts.URL,
		QPS:      200,
		Duration: 300 * time.Millisecond,
		Warmup:   300 * time.Millisecond,
		Seed:     7,
		Mix:      Mix{Align: 1},
	}
	rep, err := Run(context.Background(), cfg, []Page{{ID: "p0", HTML: "<html/>"}})
	if err != nil {
		t.Fatal(err)
	}
	sched := BuildSchedule(cfg, 1)
	var inWindow int64
	for _, r := range sched {
		if r.At >= cfg.Warmup {
			inWindow++
		}
	}
	if rep.Requests.Scheduled != inWindow {
		t.Errorf("scheduled = %d, arrivals in measured window = %d", rep.Requests.Scheduled, inWindow)
	}
	if int64(len(sched)) == inWindow {
		t.Error("warmup window scheduled nothing — test is vacuous")
	}
}

func TestLoadCorpusDir(t *testing.T) {
	dir := t.TempDir()
	manifest := `{"id":"pg0","file":"pg0.html"}` + "\n" + `{"id":"pg1","file":"pg1.html"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "manifest.ndjson"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pg0", "pg1"} {
		if err := os.WriteFile(filepath.Join(dir, name+".html"), []byte("<html>"+name+"</html>"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pages, err := LoadCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 2 || pages[0].ID != "pg0" || pages[1].ID != "pg1" {
		t.Fatalf("pages = %+v", pages)
	}

	// Fallback: bare *.html directory, sorted order.
	bare := t.TempDir()
	for _, name := range []string{"b.html", "a.html"} {
		if err := os.WriteFile(filepath.Join(bare, name), []byte("<html/>"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pages, err = LoadCorpusDir(bare)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 2 || pages[0].ID != "a" {
		t.Fatalf("fallback pages = %+v", pages)
	}

	if _, err := LoadCorpusDir(t.TempDir()); err == nil {
		t.Error("empty dir should fail")
	}
}

// TestReportJSONRoundTrip guards the report against silent field loss: every
// field written must come back.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{
		Requests: RequestCounts{Sent: 10, OK: 7, Shed429: 2, Deadline504: 1},
		Serving:  ServingReport{ScrapeOK: true, Hits: 5, Misses: 5, CacheHitRate: 0.5},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Fatalf("round trip lost data:\n%+v\n%+v", rep, &back)
	}
}
