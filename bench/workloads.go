package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"briq/client"
	"briq/internal/api"
	"briq/internal/facts"
	"briq/internal/ingest"
	"briq/internal/store"
)

// base gives a workload the no-op hooks it does not need.
type base struct{}

func (base) seedStore(string) error { return nil }
func (base) before(context.Context, *runner, *server, *roundOut) error {
	return nil
}
func (base) checkDelta(*phaseDelta, *roundOut) {}
func (base) verify(context.Context, *runner, *server, *roundOut, *pageComponents) error {
	return nil
}

func htmlBytes(pgs []page) int64 {
	var n int64
	for _, pg := range pgs {
		n += int64(len(pg.HTML))
	}
	return n
}

// traceRequest records one client request span and its round-trip time.
func traceRequest(tr *tracer, o *roundOut, workload, route, id string, parent int64, start, end time.Time, status, n int) {
	if tr == nil {
		return
	}
	tr.add(Span{Parent: parent, Trace: workload + "/" + id, Workload: workload, Name: "client." + route, Status: status, Bytes: n}, start, end)
	o.rtt(ms(end.Sub(start)))
}

// alignCold: two clients POST /v1/align each page of the set exactly once
// into a server with an empty cache and store, so every request runs
// segment → classify → filter → resolve → store append.
type alignCold struct {
	base
	pgs []page
}

func (w *alignCold) name() string     { return "align_cold" }
func (w *alignCold) pages() []page    { return w.pgs }
func (w *alignCold) routes() []string { return []string{"align"} }

func (w *alignCold) prepare(_ context.Context, r *runner) (err error) {
	w.pgs, err = selectPages(r.opts.seed, r.sz.ColdPages)
	return err
}

func (w *alignCold) measure(ctx context.Context, s *server, o *roundOut, tr *tracer) error {
	o.lat = make([]float64, len(w.pgs))
	var bodies [][]byte
	if tr != nil {
		bodies = make([][]byte, len(w.pgs))
	}
	closedLoop(len(w.pgs), maxConns, func(i int) {
		pg := w.pgs[i]
		o.op()
		t0 := time.Now()
		status, body, err := call(ctx, s.c, "POST", api.Versioned("/align"), "text/html", []byte(pg.HTML))
		t1 := time.Now()
		o.lat[i] = ms(t1.Sub(t0))
		traceRequest(tr, o, w.name(), "align", pg.ID, 0, t0, t1, status, len(body))
		if err := checkEnvelope(status, body, err); err != nil {
			o.fail("POST /v1/align %s: %v", pg.ID, err)
			return
		}
		if bodies != nil {
			bodies[i] = body
		}
	})
	o.ops = totalDocs(w.pgs)
	o.inputBytes = htmlBytes(w.pgs)
	o.tracedBodies = bodies
	return nil
}

// verify: the HTTP alignments of the component sample are byte-identical to
// the component pass's in-process AlignContext output for the same bundle.
func (w *alignCold) verify(_ context.Context, _ *runner, _ *server, o *roundOut, pc *pageComponents) error {
	for i, want := range pc.alignBodies {
		o.op()
		if !bytes.Equal(o.tracedBodies[i], want) {
			o.fail("POST /v1/align %s: response differs from in-process AlignContext", w.pgs[i].ID)
		}
	}
	return nil
}

// hotBatch is the fixed block size of align_hot's batch requests.
const hotBatch = 8

// hotRequest is one request of align_hot's seeded sequence. body identifies
// the request body for the byte-identity check.
type hotRequest struct {
	route string
	path  string
	ctype string
	body  int
	data  []byte
	docs  int
	id    string
}

// alignHot: a seeded 80/20 mix of single-page /v1/align and 8-page
// /v1/align/batch requests drawn Zipf(1.1) from a hot set that the server's
// store (and so its cache) already holds: every document is a cache hit.
type alignHot struct {
	base
	hot      []page
	bodies   []hotRequest // one per distinct body: pages, then blocks
	seq      []int        // the timed sequence, indices into bodies
	template string

	mu    sync.Mutex
	first map[int][sha256.Size]byte // first response per body, for the identity check
}

func (w *alignHot) name() string     { return "align_hot" }
func (w *alignHot) pages() []page    { return w.hot }
func (w *alignHot) routes() []string { return []string{"align", "align_batch"} }

func (w *alignHot) prepare(ctx context.Context, r *runner) error {
	var err error
	if w.hot, err = selectPages(r.opts.seed, r.sz.HotPages); err != nil {
		return err
	}
	// Singles: popularity rank q is the page at position balancedOrder[q]
	// of the hot set sorted by answer size, so the few pages Zipf(1.1) sends
	// most requests to are a cross-section of sizes on every seed rather
	// than whichever pages the seed happened to make popular.
	bySize := append([]page(nil), w.hot...)
	sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].Mentions < bySize[j].Mentions })
	for _, i := range balancedOrder(len(bySize)) {
		pg := bySize[i]
		w.bodies = append(w.bodies, hotRequest{route: "align", path: api.Versioned("/align"), ctype: "text/html",
			body: len(w.bodies), data: []byte(pg.HTML), docs: pg.Docs, id: pg.ID})
	}
	// Batches: blocks are dealt from the hot set sorted by hashing work, one
	// page per cost octile each, so every block costs about the same.
	byCells := append([]page(nil), w.hot...)
	sort.SliceStable(byCells, func(i, j int) bool { return byCells[i].Cells < byCells[j].Cells })
	blocks := len(w.hot) / hotBatch
	for b := 0; b < blocks; b++ {
		req := struct {
			Pages []client.Page `json:"pages"`
		}{}
		docs := 0
		for i := 0; i < hotBatch; i++ {
			pg := byCells[b+i*blocks]
			req.Pages = append(req.Pages, client.Page{ID: pg.ID, HTML: pg.HTML})
			docs += pg.Docs
		}
		data, err := json.Marshal(req)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, hotRequest{route: "align_batch", path: api.Versioned("/align/batch"), ctype: "application/json",
			body: len(w.bodies), data: data, docs: docs, id: fmt.Sprintf("block%d", b)})
	}
	rng := rand.New(rand.NewSource(r.opts.seed))
	zp := rand.NewZipf(rng, 1.1, 1, uint64(len(w.hot)-1))
	zb := rand.NewZipf(rng, 1.1, 1, uint64(blocks-1))
	for i := 0; i < r.sz.HotRequests; i++ {
		if rng.Float64() < 0.2 {
			w.seq = append(w.seq, len(w.hot)+int(zb.Uint64()))
		} else {
			w.seq = append(w.seq, int(zp.Uint64()))
		}
	}
	w.first = map[int][sha256.Size]byte{}
	// The warm pass: every page and every block aligned once, leaving both
	// the page-level and the document-level cache keys in the store log,
	// which each round's boot replays into the cache.
	var all [][]byte
	for _, b := range w.bodies {
		all = append(all, b.data)
	}
	w.template, err = r.template(ctx, "hot", all, func(ctx context.Context, s *server) error {
		var failed atomic.Value
		closedLoop(len(w.bodies), maxConns, func(i int) {
			b := w.bodies[i]
			status, body, err := call(ctx, s.c, "POST", b.path, b.ctype, b.data)
			if err := checkEnvelope(status, body, err); err != nil {
				failed.Store(fmt.Errorf("warm %s %s: %w", b.path, b.id, err))
			}
		})
		if err, _ := failed.Load().(error); err != nil {
			return err
		}
		return nil
	})
	return err
}

func (w *alignHot) seedStore(dir string) error { return copyDir(w.template, dir) }

func (w *alignHot) measure(ctx context.Context, s *server, o *roundOut, tr *tracer) error {
	o.lat = make([]float64, len(w.seq))
	var docs atomic.Int64
	closedLoop(len(w.seq), maxConns, func(i int) {
		b := w.bodies[w.seq[i]]
		o.op()
		t0 := time.Now()
		status, body, err := call(ctx, s.c, "POST", b.path, b.ctype, b.data)
		t1 := time.Now()
		o.lat[i] = ms(t1.Sub(t0))
		docs.Add(int64(b.docs))
		if tr != nil {
			traceRequest(tr, o, w.name(), b.route, fmt.Sprintf("%s-%d", b.id, i), 0, t0, t1, status, len(body))
		}
		if err := checkEnvelope(status, body, err); err != nil {
			o.fail("POST %s %s: %v", b.path, b.id, err)
			return
		}
		sum := sha256.Sum256(body)
		w.mu.Lock()
		first, seen := w.first[b.body]
		if !seen {
			w.first[b.body] = sum
		}
		w.mu.Unlock()
		if seen && sum != first {
			o.fail("POST %s %s: response differs from the first response to the same body", b.path, b.id)
		}
	})
	o.ops = int(docs.Load())
	for _, i := range w.seq {
		o.inputBytes += int64(len(w.bodies[i].data))
	}
	return nil
}

// checkDelta: the hot set is in the cache, so nothing may miss.
func (w *alignHot) checkDelta(d *phaseDelta, o *roundOut) {
	if d.serving["misses"] != 0 {
		o.fail("serving.misses moved by %d on an all-hit workload", d.serving["misses"])
	}
}

// streamOut is one lock-step ingest stream's client-side record.
type streamOut struct {
	lat, late         []float64 // per page: result latency, ms behind the pacing schedule
	reused, realigned int
}

// streamPages sends pgs through one POST /v1/ingest stream in lock-step:
// page i+1 is sent only when page i's result line has arrived. every > 0
// paces the sends to one page per interval. Every result line is checked
// against the page it answers.
func streamPages(ctx context.Context, c *client.Client, pgs []page, every time.Duration, o *roundOut, tr *tracer, workload, phase string) (streamOut, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // releases the feeder if the stream ends early
	type stamp struct {
		at   time.Time
		late float64
	}
	ready := make(chan struct{}, 1)
	sent := make(chan stamp, 1)
	ready <- struct{}{}
	start := time.Now()
	i := 0
	next := func() (*client.IngestPage, error) {
		select {
		case <-ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if i == len(pgs) {
			return nil, nil
		}
		late := 0.0
		if every > 0 {
			wait := time.Until(start.Add(time.Duration(i) * every))
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			} else {
				late = ms(-wait)
			}
		}
		pg := pgs[i]
		i++
		sent <- stamp{time.Now(), late}
		return &client.IngestPage{PageID: pg.ID, HTML: pg.HTML}, nil
	}

	var out streamOut
	streamID := tr.id()
	it := c.Ingest(ctx, next)
	k := 0
	for it.Next() {
		now := time.Now()
		res := it.Result()
		o.op()
		// Lock-step: a result line answers the one outstanding page, whose
		// stamp is already queued; a line with none outstanding is an error.
		var st stamp
		select {
		case st = <-sent:
		default:
			o.fail("ingest %s: result line for %q with no page outstanding", phase, res.PageID)
			continue
		}
		out.lat = append(out.lat, ms(now.Sub(st.at)))
		out.late = append(out.late, st.late)
		pg := pgs[k]
		if tr != nil {
			tr.add(Span{Parent: streamID, Trace: workload + "/" + phase + "/" + pg.ID, Workload: workload,
				Name: "client.ingest", Status: 200}, st.at, now)
		}
		switch {
		case res.Error != "":
			o.fail("ingest %s %s: %s (%s)", phase, pg.ID, res.Error, res.Code)
		case res.PageID != pg.ID:
			o.fail("ingest %s: result for %q, sent %q", phase, res.PageID, pg.ID)
		case len(res.Documents) != pg.Docs:
			o.fail("ingest %s %s: %d documents, the page has %d", phase, pg.ID, len(res.Documents), pg.Docs)
		case res.PersistErrors != 0:
			o.fail("ingest %s %s: %d persist errors", phase, pg.ID, res.PersistErrors)
		}
		out.reused += res.Reused
		out.realigned += res.Realigned
		k++
		ready <- struct{}{}
	}
	if err := it.Err(); err != nil {
		return out, fmt.Errorf("ingest %s stream: %w", phase, err)
	}
	tr.add(Span{ID: streamID, Trace: workload + "/" + phase, Workload: workload, Name: "client.ingest.stream", Status: 200}, start, time.Now())
	if k != len(pgs) {
		o.fail("ingest %s: %d result lines for %d pages", phase, k, len(pgs))
	}
	return out, nil
}

// ingestTemplate is the store both ingest_recrawl and search_mixed boot on:
// the page set cold-ingested once.
func (r *runner) ingestTemplate(ctx context.Context, pgs []page) (string, error) {
	var all [][]byte
	for _, pg := range pgs {
		all = append(all, []byte(pg.ID), []byte(pg.HTML))
	}
	return r.template(ctx, "ingest", all, func(ctx context.Context, s *server) error {
		o := &roundOut{}
		if _, err := streamPages(ctx, s.c, pgs, 0, o, nil, "template", "cold"); err != nil {
			return err
		}
		if len(o.failures) > 0 {
			return fmt.Errorf("cold ingest: %s", o.failures[0])
		}
		return nil
	})
}

// ingestRecrawl: one lock-step /v1/ingest stream re-crawls every page of
// the stored set with one sentence appended to its first paragraph (phase 1:
// only the changed documents realign), then re-sends the same bytes (phase 2:
// nothing realigns).
type ingestRecrawl struct {
	base
	pgs, final []page
	template   string
}

func (w *ingestRecrawl) name() string     { return "ingest_recrawl" }
func (w *ingestRecrawl) pages() []page    { return w.pgs }
func (w *ingestRecrawl) routes() []string { return []string{"ingest"} }

func (w *ingestRecrawl) prepare(ctx context.Context, r *runner) error {
	var err error
	if w.pgs, err = selectPages(r.opts.seed, r.sz.IngestPages); err != nil {
		return err
	}
	w.final = recrawled(w.pgs)
	w.template, err = r.ingestTemplate(ctx, w.pgs)
	return err
}

func (w *ingestRecrawl) seedStore(dir string) error { return copyDir(w.template, dir) }

func (w *ingestRecrawl) measure(ctx context.Context, s *server, o *roundOut, tr *tracer) error {
	p1, err := streamPages(ctx, s.c, w.final, 0, o, tr, w.name(), "phase1")
	if err != nil {
		return err
	}
	if p1.reused == 0 || p1.realigned == 0 {
		o.fail("phase 1 reused %d, realigned %d documents; want both > 0", p1.reused, p1.realigned)
	}
	p2, err := streamPages(ctx, s.c, w.final, 0, o, tr, w.name(), "phase2")
	if err != nil {
		return err
	}
	if p2.realigned != 0 {
		o.fail("phase 2 re-sent identical bytes but realigned %d documents", p2.realigned)
	}
	// Latency percentiles cover phase 1, the write path; phase 2 pages are
	// an order of magnitude cheaper and pooling the two would put p50 in the
	// gap between them.
	o.lat = p1.lat
	if tr != nil {
		o.rtts = append(append(o.rtts, p1.lat...), p2.lat...)
	}
	o.ops = 2 * totalDocs(w.final)
	o.inputBytes = 2 * htmlBytes(w.final)
	o.reuseRatio = ratio(float64(p1.reused), float64(p1.reused+p1.realigned))
	return nil
}

// verify: what the server answers after the re-crawl — every query's full
// result list and every entity's facts — equals an in-process from-scratch
// ingest of the final pages into a memory store.
func (w *ingestRecrawl) verify(ctx context.Context, r *runner, s *server, o *roundOut, _ *pageComponents) error {
	p, err := r.pipeline()
	if err != nil {
		return err
	}
	st, err := store.Open(store.Options{Fingerprint: p.Fingerprint()})
	if err != nil {
		return err
	}
	defer st.Close()
	ing := ingest.New(p, st, ingest.Options{})
	for _, pg := range w.final {
		if res := ing.Page(ctx, pg.ID, pg.HTML); res.Error != "" {
			return fmt.Errorf("from-scratch ingest %s: %s", pg.ID, res.Error)
		}
	}
	queries, err := buildQueries(r.opts.seed, w.pgs, r.sz.Queries)
	if err != nil {
		return err
	}
	for _, q := range queries {
		o.op()
		var got []client.SearchResult
		it := s.c.SearchAll(ctx, q.cq)
		for it.Next() {
			got = append(got, it.Item())
		}
		if err := it.Err(); err != nil {
			o.fail("search %v: %v", q.vals, err)
			continue
		}
		if err := sameJSON(got, st.Search(q.parsed)); err != nil {
			o.fail("search %v: differs from a from-scratch ingest: %v", q.vals, err)
		}
	}
	for _, e := range st.Entities() {
		o.op()
		var got []client.Fact
		it := s.c.FactsAll(ctx, e)
		for it.Next() {
			got = append(got, it.Item())
		}
		if err := it.Err(); err != nil {
			o.fail("facts %q: %v", e, err)
			continue
		}
		if err := sameJSON(got, st.FactsFor(facts.CanonicalEntity(e))); err != nil {
			o.fail("facts %q: differs from a from-scratch ingest: %v", e, err)
		}
	}
	return nil
}

// sameJSON compares a decoded client-side list with the in-process list it
// should equal, through the client's own view of the wire format.
func sameJSON[C, S any](got []C, want []S) error {
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var wantC []C
	if err := json.Unmarshal(b, &wantC); err != nil {
		return err
	}
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(wantC)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%d items vs %d expected", len(got), len(want))
	}
	return nil
}

// searchPageSize is the limit every search_mixed read asks for.
const searchPageSize = 20

// searchMixed: one reader runs a closed loop of /v1/search (every fourth
// read /v1/facts) while one writer streams a re-crawl of part of the stored
// set at a fixed page rate; the round ends when the writer finishes.
type searchMixed struct {
	base
	pgs, writes []page
	template    string
	queries     []query
	entities    []string
	paths       []string // the first-page request per query, built once
	factsPaths  []string // the first-page request per entity
	wantSearch  [][]byte // expected first page per query on the booted template
	wantFacts   [][]byte
	checked     bool // the first round has compared them with the server's
}

func (w *searchMixed) name() string     { return "search_mixed" }
func (w *searchMixed) pages() []page    { return w.pgs }
func (w *searchMixed) routes() []string { return []string{"search", "facts"} }

func (w *searchMixed) prepare(ctx context.Context, r *runner) error {
	var err error
	if w.pgs, err = selectPages(r.opts.seed, r.sz.IngestPages); err != nil {
		return err
	}
	n := r.sz.WriterPages
	if n > len(w.pgs) {
		n = len(w.pgs)
	}
	w.writes = recrawled(sample(r.opts.seed, w.pgs, n))
	if w.template, err = r.ingestTemplate(ctx, w.pgs); err != nil {
		return err
	}
	if w.queries, err = buildQueries(r.opts.seed, w.pgs, r.sz.Queries); err != nil {
		return err
	}
	// Expected answers: the template replayed in-process.
	dir := filepath.Join(r.e.runDir, "search-expected")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(w.template, dir); err != nil {
		return err
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	w.entities = sample(r.opts.seed, st.Entities(), r.sz.Entities)
	for _, q := range w.queries {
		items, next := api.Page(st.Search(q.parsed), 0, searchPageSize)
		b, err := render(api.Paginated{Items: items, NextCursor: next})
		if err != nil {
			return err
		}
		w.wantSearch = append(w.wantSearch, b)
		w.paths = append(w.paths, q.searchPath(searchPageSize))
	}
	for _, e := range w.entities {
		items, next := api.Page(st.FactsFor(facts.CanonicalEntity(e)), 0, searchPageSize)
		b, err := render(api.Paginated{Items: items, NextCursor: next})
		if err != nil {
			return err
		}
		w.wantFacts = append(w.wantFacts, b)
		w.factsPaths = append(w.factsPaths, factsPath(e, searchPageSize))
	}
	return nil
}

func (w *searchMixed) seedStore(dir string) error { return copyDir(w.template, dir) }

// before: with no writer yet, the first page of every query and every
// sampled entity's facts are byte-identical to the in-process replay of the
// same template. Every round boots on a copy of that template, so the check
// runs in the first round of the run only and leaves the others their time
// for measuring.
func (w *searchMixed) before(ctx context.Context, _ *runner, s *server, o *roundOut) error {
	if w.checked {
		return nil
	}
	w.checked = true
	for i, q := range w.queries {
		o.op()
		_, body, err := call(ctx, s.c, "GET", w.paths[i], "", nil)
		if err != nil || !bytes.Equal(body, w.wantSearch[i]) {
			o.fail("GET /v1/search %v: differs from the replayed template (err %v)", q.vals, err)
		}
	}
	for i, e := range w.entities {
		o.op()
		_, body, err := call(ctx, s.c, "GET", w.factsPaths[i], "", nil)
		if err != nil || !bytes.Equal(body, w.wantFacts[i]) {
			o.fail("GET /v1/facts %q: differs from the replayed template (err %v)", e, err)
		}
	}
	return nil
}

func (w *searchMixed) measure(ctx context.Context, s *server, o *roundOut, tr *tracer) error {
	var wout streamOut
	var werr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		wout, werr = streamPages(ctx, s.c, w.writes, time.Second/writerRate, o, tr, w.name(), "writer")
	}()
	writerDone := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	reads := 0
	for qi, fi := 0, 0; !writerDone(); reads++ {
		route, path := "search", w.paths[qi%len(w.paths)]
		if reads%4 == 3 {
			route, path = "facts", w.factsPaths[fi%len(w.factsPaths)]
			fi++
		} else {
			qi++
		}
		o.op()
		t0 := time.Now()
		status, body, err := call(ctx, s.c, "GET", path, "", nil)
		t1 := time.Now()
		o.lat = append(o.lat, ms(t1.Sub(t0)))
		if tr != nil {
			traceRequest(tr, o, w.name(), route, fmt.Sprintf("%s-%d", route, reads), 0, t0, t1, status, len(body))
		}
		if err := checkEnvelope(status, body, err); err != nil {
			o.fail("GET %s: %v", path, err)
		}
	}
	if werr != nil {
		return werr
	}
	if wout.realigned == 0 {
		o.fail("writer re-crawl realigned no document")
	}
	o.ops = reads
	o.inputBytes = htmlBytes(w.writes)
	o.writeLat = wout.lat
	o.writerLate = mean(wout.late)
	o.reuseRatio = ratio(float64(wout.reused), float64(wout.reused+wout.realigned))
	return nil
}

// writerRate is search_mixed's writer pace, pages per second: well under
// what one core re-ingests, so the writer keeps its schedule and the reader
// sees a steady stream of upserts rather than a burst.
const writerRate = 25
