package briq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"briq"
	"briq/internal/corpus"
	"briq/internal/htmlx"
)

// TestOptionValidation drives every functional option through its valid and
// out-of-range values: valid values land on the pipeline verbatim, invalid
// ones clamp to the safe default and leave a warning in ConfigWarnings
// instead of misconfiguring silently.
func TestOptionValidation(t *testing.T) {
	rec := briq.NewRecorder()
	tests := []struct {
		name         string
		opts         []briq.Option
		wantWarnings int
		check        func(t *testing.T, p *briq.Pipeline)
	}{
		{"defaults", nil, 0, func(t *testing.T, p *briq.Pipeline) {
			if p.Workers != 0 || p.Gate != nil || p.Recorder != nil {
				t.Errorf("default pipeline = workers %d, gate %v, recorder %v", p.Workers, p.Gate, p.Recorder)
			}
		}},
		{"workers valid", []briq.Option{briq.WithWorkers(8)}, 0, func(t *testing.T, p *briq.Pipeline) {
			if p.Workers != 8 {
				t.Errorf("Workers = %d, want 8", p.Workers)
			}
		}},
		{"workers zero clamps", []briq.Option{briq.WithWorkers(0)}, 1, func(t *testing.T, p *briq.Pipeline) {
			if p.Workers != 0 {
				t.Errorf("Workers = %d, want clamped 0 (GOMAXPROCS default)", p.Workers)
			}
		}},
		{"workers negative clamps", []briq.Option{briq.WithWorkers(-3)}, 1, func(t *testing.T, p *briq.Pipeline) {
			if p.Workers != 0 {
				t.Errorf("Workers = %d, want clamped 0", p.Workers)
			}
		}},
		{"recorder attaches", []briq.Option{briq.WithRecorder(rec)}, 0, func(t *testing.T, p *briq.Pipeline) {
			if p.Recorder != rec {
				t.Error("WithRecorder did not attach the recorder")
			}
		}},
		{"cache valid", []briq.Option{briq.WithCache(1 << 20)}, 0, func(t *testing.T, p *briq.Pipeline) {
			if p.Gate == nil {
				t.Fatal("WithCache did not build a serving gate")
			}
			if c := p.Gate.Counters(); c["capacity_bytes"] != 1<<20 {
				t.Errorf("capacity_bytes = %d, want %d", c["capacity_bytes"], 1<<20)
			}
		}},
		{"cache zero disables", []briq.Option{briq.WithCache(0)}, 0, func(t *testing.T, p *briq.Pipeline) {
			if p.Gate != nil {
				t.Error("WithCache(0) built a gate")
			}
		}},
		{"cache negative clamps", []briq.Option{briq.WithCache(-1)}, 1, func(t *testing.T, p *briq.Pipeline) {
			if p.Gate != nil {
				t.Error("WithCache(-1) built a gate")
			}
		}},
		{"max-inflight valid", []briq.Option{briq.WithMaxInFlight(4)}, 0, func(t *testing.T, p *briq.Pipeline) {
			if p.Gate == nil {
				t.Fatal("WithMaxInFlight did not build a serving gate")
			}
			if c := p.Gate.Counters(); c["max_in_flight"] != 4 {
				t.Errorf("max_in_flight = %d, want 4", c["max_in_flight"])
			}
		}},
		{"max-inflight zero disables", []briq.Option{briq.WithMaxInFlight(0)}, 0, func(t *testing.T, p *briq.Pipeline) {
			if p.Gate != nil {
				t.Error("WithMaxInFlight(0) built a gate")
			}
		}},
		{"max-inflight negative clamps", []briq.Option{briq.WithMaxInFlight(-2)}, 1, func(t *testing.T, p *briq.Pipeline) {
			if p.Gate != nil {
				t.Error("WithMaxInFlight(-2) built a gate")
			}
		}},
		{"warnings accumulate", []briq.Option{briq.WithWorkers(-1), briq.WithCache(-1), briq.WithMaxInFlight(-1)}, 3, nil},
		{"cache and gate combine", []briq.Option{briq.WithCache(1 << 20), briq.WithMaxInFlight(2)}, 0, func(t *testing.T, p *briq.Pipeline) {
			c := p.Gate.Counters()
			if c["capacity_bytes"] != 1<<20 || c["max_in_flight"] != 2 {
				t.Errorf("combined gate = %v", c)
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := briq.New(tt.opts...)
			if len(p.ConfigWarnings) != tt.wantWarnings {
				t.Errorf("ConfigWarnings = %q, want %d warnings", p.ConfigWarnings, tt.wantWarnings)
			}
			for _, w := range p.ConfigWarnings {
				if !strings.Contains(w, "With") {
					t.Errorf("warning %q does not name the offending option", w)
				}
			}
			if tt.check != nil {
				tt.check(t, p)
			}
		})
	}
}

// TestSingleFlightFacade is the race-enabled coalescing check: K goroutines
// aligning the identical page concurrently must trigger exactly one pipeline
// run — asserted through the stage recorder, which only the real computation
// feeds — and all K must get the same result.
func TestSingleFlightFacade(t *testing.T) {
	// Baseline: how many stage observations does one serial run record?
	baseRec := briq.NewRecorder()
	baseline := briq.New(briq.WithCache(1<<20), briq.WithRecorder(baseRec))
	want, err := briq.AlignHTMLContext(context.Background(), baseline, "p0", quickstartPage)
	if err != nil {
		t.Fatal(err)
	}
	wantAligns := baseRec.Snapshot()["align"].Count
	if wantAligns == 0 {
		t.Fatal("baseline run recorded no align observations")
	}

	const K = 16
	rec := briq.NewRecorder()
	p := briq.New(briq.WithCache(1<<20), briq.WithRecorder(rec))
	var wg sync.WaitGroup
	results := make([][]briq.Alignment, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = briq.AlignHTMLContext(context.Background(), p, "p0", quickstartPage)
		}(i)
	}
	wg.Wait()

	if got := rec.Snapshot()["align"].Count; got != wantAligns {
		t.Errorf("%d concurrent identical requests ran the pipeline %d times, want %d (one run)", K, got, wantAligns)
	}
	wantJSON, _ := json.Marshal(want)
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		gotJSON, _ := json.Marshal(results[i])
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("caller %d diverged from the baseline result", i)
		}
	}
	c := p.Gate.Counters()
	if c["misses"] != 1 {
		t.Errorf("misses = %d, want 1", c["misses"])
	}
	if c["hits"]+c["coalesced"] != K-1 {
		t.Errorf("hits+coalesced = %d, want %d", c["hits"]+c["coalesced"], K-1)
	}
}

// TestCacheEquivalencePage: a cache hit is byte-identical to the fresh run
// that populated it, and byte-identical to an uncached pipeline's output —
// caching must be invisible except in latency.
func TestCacheEquivalencePage(t *testing.T) {
	plain, err := briq.AlignHTMLContext(context.Background(), briq.New(), "p0", quickstartPage)
	if err != nil {
		t.Fatal(err)
	}

	p := briq.New(briq.WithCache(1 << 20))
	miss, err := briq.AlignHTMLContext(context.Background(), p, "p0", quickstartPage)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := briq.AlignHTMLContext(context.Background(), p, "p0", quickstartPage)
	if err != nil {
		t.Fatal(err)
	}

	plainJSON, _ := json.Marshal(plain)
	missJSON, _ := json.Marshal(miss)
	hitJSON, _ := json.Marshal(hit)
	if !bytes.Equal(missJSON, plainJSON) {
		t.Error("cached pipeline's fresh run diverged from the uncached pipeline")
	}
	if !bytes.Equal(hitJSON, missJSON) {
		t.Error("cache hit is not byte-identical to the run that populated it")
	}
	if c := p.Gate.Counters(); c["hits"] != 1 || c["stores"] != 1 {
		t.Errorf("counters = hits:%d stores:%d, want 1 and 1", c["hits"], c["stores"])
	}

	// A different page is a different key, not a false hit.
	if _, err := briq.AlignHTMLContext(context.Background(), p, "p1", quickstartPage); err != nil {
		t.Fatal(err)
	}
	if c := p.Gate.Counters(); c["hits"] != 1 {
		t.Errorf("distinct page id hit the cache: %v", c)
	}

	// Errors are never cached: an unalignable page fails identically twice.
	for range 2 {
		if _, err := briq.AlignHTMLContext(context.Background(), p, "p2", "<p>only 42 words</p>"); !errors.Is(err, briq.ErrNoTables) {
			t.Errorf("err = %v, want ErrNoTables", err)
		}
	}
}

// TestCacheEquivalenceCorpus: the per-document corpus cache returns a
// byte-identical corpus result on a warm rerun without touching the pipeline,
// and a partially warm corpus recomputes only the misses.
func TestCacheEquivalenceCorpus(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(42, 4))
	rec := briq.NewRecorder()
	p := briq.New(briq.WithWorkers(4), briq.WithRecorder(rec), briq.WithCache(8<<20))

	cold, err := briq.AlignCorpus(context.Background(), p, c.Docs)
	if err != nil {
		t.Fatal(err)
	}
	coldAligns := rec.Snapshot()["align"].Count
	if coldAligns != int64(len(c.Docs)) {
		t.Fatalf("cold run aligned %d docs, want %d", coldAligns, len(c.Docs))
	}

	warm, err := briq.AlignCorpus(context.Background(), p, c.Docs)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot()["align"].Count; got != coldAligns {
		t.Errorf("warm rerun aligned %d more docs, want 0", got-coldAligns)
	}
	coldJSON, _ := json.Marshal(cold)
	warmJSON, _ := json.Marshal(warm)
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Fatal("warm corpus result is not byte-identical to the cold run")
	}

	// The cached corpus path must also match an uncached pipeline exactly.
	plain, err := briq.AlignCorpus(context.Background(), briq.New(briq.WithWorkers(4)), c.Docs)
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, _ := json.Marshal(plain)
	if !bytes.Equal(coldJSON, plainJSON) {
		t.Fatal("cached corpus path diverged from the uncached pipeline")
	}

	// Partially warm: extend the corpus; only the new documents compute.
	more := corpus.Generate(corpus.TableLConfig(43, 2))
	mixed := append(append([]*briq.Document{}, c.Docs...), more.Docs...)
	if _, err := briq.AlignCorpus(context.Background(), p, mixed); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot()["align"].Count; got != coldAligns+int64(len(more.Docs)) {
		t.Errorf("mixed run aligned %d docs total, want %d (misses only)", got, coldAligns+int64(len(more.Docs)))
	}

	// Keys-only documents, as the batch endpoint segments them: the misses
	// get their table mentions inside the corpus path and align byte for
	// byte as eagerly segmented documents do; the hits never get any.
	keysRec := briq.NewRecorder()
	gated := briq.New(briq.WithWorkers(4), briq.WithRecorder(keysRec), briq.WithCache(8<<20))
	segment := func(keysOnly bool) []*briq.Document {
		var docs []*briq.Document
		for _, pg := range c.Pages {
			page := htmlx.ParseString(pg.HTML())
			res, err := gated.Segmenter.SegmentPageKeys(pg.ID, page)
			if !keysOnly {
				res, err = gated.Segmenter.SegmentPageInfo(pg.ID, page)
			}
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, res.Docs...)
		}
		return docs
	}
	eager, err := briq.AlignCorpus(context.Background(), briq.New(briq.WithWorkers(4)), segment(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(eager) == 0 {
		t.Fatal("the eagerly segmented pages align to nothing")
	}
	eagerJSON, _ := json.Marshal(eager)
	misses := segment(true)
	first, err := briq.AlignCorpus(context.Background(), gated, misses)
	if err != nil {
		t.Fatal(err)
	}
	if firstJSON, _ := json.Marshal(first); !bytes.Equal(firstJSON, eagerJSON) {
		t.Fatal("keys-only misses aligned differently from eagerly segmented documents")
	}
	missAligns := keysRec.Snapshot()["align"].Count
	if missAligns != int64(len(misses)) {
		t.Fatalf("keys-only cold run aligned %d docs, want %d", missAligns, len(misses))
	}
	hits := segment(true)
	second, err := briq.AlignCorpus(context.Background(), gated, hits)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysRec.Snapshot()["align"].Count; got != missAligns {
		t.Errorf("keys-only warm run aligned %d docs, want 0", got-missAligns)
	}
	if secondJSON, _ := json.Marshal(second); !bytes.Equal(secondJSON, eagerJSON) {
		t.Fatal("keys-only hits are not byte-identical to eagerly segmented documents")
	}
	for _, d := range hits {
		if d.TableMentions != nil {
			t.Fatalf("cache hit %s built %d table mentions", d.ID, len(d.TableMentions))
		}
	}
}
