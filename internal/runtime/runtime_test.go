package runtime

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/obs"
)

func benchDocs(tb testing.TB, seed int64, pages int) []*document.Document {
	tb.Helper()
	c := corpus.Generate(corpus.TableLConfig(seed, pages))
	if len(c.Docs) == 0 {
		tb.Fatalf("seed %d produced no documents", seed)
	}
	return c.Docs
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestAlignCorpusDeterministic is the ordered-batch determinism gate:
// parallel output must equal the serial AlignAll output byte for byte,
// across worker counts and repeated runs on the same pipeline.
func TestAlignCorpusDeterministic(t *testing.T) {
	docs := benchDocs(t, 42, 4)
	proto := core.NewPipeline()
	serial := mustJSON(t, proto.AlignAll(docs))

	for _, workers := range []int{1, 2, 4, 7} {
		for round := 0; round < 2; round++ {
			got, err := AlignCorpus(context.Background(), proto, docs, workers)
			if err != nil {
				t.Fatalf("workers=%d round=%d: %v", workers, round, err)
			}
			if !bytes.Equal(mustJSON(t, got), serial) {
				t.Fatalf("workers=%d round=%d: parallel output != serial output", workers, round)
			}
		}
	}
}

// TestPoolStress runs AlignCorpus from many goroutines on one pipeline under
// the race detector: every run must still be complete and correct, and the
// Recorder all their clones share must count each aligned document exactly
// once.
func TestPoolStress(t *testing.T) {
	docs := benchDocs(t, 7, 3)
	proto := core.NewPipeline()
	want := mustJSON(t, proto.AlignAll(docs))
	rec := obs.NewRecorder(core.StageNames()...)
	proto.Recorder = rec

	const runs = 8
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := AlignCorpus(context.Background(), proto, docs, 4)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(mustJSON(t, out), want) {
				errs <- errors.New("concurrent run diverged from serial output")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := rec.Snapshot()[core.StageAlign].Count, int64(runs*len(docs)); got != want {
		t.Errorf("shared recorder %s count = %d, want %d", core.StageAlign, got, want)
	}
}

// TestStreamEmitsEveryDocumentOnce checks result placement: AlignPerDoc
// returns one slot per submitted document, and slot i holds exactly what
// aligning docs[i] alone yields.
func TestStreamEmitsEveryDocumentOnce(t *testing.T) {
	docs := benchDocs(t, 13, 3)
	proto := core.NewPipeline()

	perDoc, err := AlignPerDoc(context.Background(), proto, docs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(perDoc) != len(docs) {
		t.Fatalf("returned %d documents, want %d", len(perDoc), len(docs))
	}
	for i, doc := range docs {
		for _, a := range perDoc[i] {
			if a.DocID != doc.ID {
				t.Fatalf("index %d holds an alignment of %q, want %q", i, a.DocID, doc.ID)
			}
		}
		if got, want := mustJSON(t, perDoc[i]), mustJSON(t, proto.Align(doc)); !bytes.Equal(got, want) {
			t.Errorf("index %d (%s) differs from a serial Align", i, doc.ID)
		}
	}
}

// cancelAfterFirstAlign is a context that cancels itself at the first check
// made after the recorder has counted an align, so the cancel lands at the
// same point of every run instead of whenever a polling goroutine is next
// scheduled. atCancel is the align count when it fired.
type cancelAfterFirstAlign struct {
	context.Context
	cancel   context.CancelFunc
	aligned  func() int64
	once     sync.Once
	atCancel atomic.Int64
}

func (c *cancelAfterFirstAlign) Err() error {
	if c.aligned() > 0 {
		c.once.Do(func() {
			c.atCancel.Store(c.aligned())
			c.cancel()
		})
	}
	return c.Context.Err()
}

// TestCancellationMidCorpus cancels a large run once the first document has
// aligned. The run must terminate promptly, report the cancellation, and
// drop most of the corpus on the floor instead of finishing it: once the
// cancel has fired, only the documents in flight (one per worker) may
// still finish.
func TestCancellationMidCorpus(t *testing.T) {
	// Many copies of a real corpus: big enough that finishing it all before
	// the cancel lands is impossible.
	base := benchDocs(t, 42, 4)
	var docs []*document.Document
	for len(docs) < 300 {
		docs = append(docs, base...)
	}

	const workers = 2
	proto := core.NewPipeline()
	rec := obs.NewRecorder(core.StageNames()...)
	proto.Recorder = rec
	aligned := func() int64 { return rec.Stage(core.StageAlign).Snapshot().Count }

	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAfterFirstAlign{Context: parent, cancel: cancel, aligned: aligned}
	if _, err := AlignCorpus(ctx, proto, docs, workers); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	n, atCancel := aligned(), ctx.atCancel.Load()
	if after := n - atCancel; after > workers {
		t.Errorf("%d documents finished after cancel, want ≤ %d (one in flight per worker)", after, workers)
	}
	// The first document, one in flight per worker, and 4× workers of slack.
	if maxAligned := int64(1 + 5*workers); n > maxAligned {
		t.Errorf("aligned %d documents after cancel, want ≤ %d", n, maxAligned)
	}
}

// TestCancelledBeforeRun: a dead context aligns nothing and AlignCorpus
// reports it.
func TestCancelledBeforeRun(t *testing.T) {
	docs := benchDocs(t, 42, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := AlignCorpus(ctx, core.NewPipeline(), docs, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("cancelled corpus returned alignments: %d", len(out))
	}
}

// TestAlignCorpusDeadline: context deadlines behave like cancellation.
func TestAlignCorpusDeadline(t *testing.T) {
	docs := benchDocs(t, 42, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := AlignCorpus(ctx, core.NewPipeline(), docs, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestPoolSnapshotCountsDocuments: the clones of a run record into the
// pipeline's Recorder, which must account for every aligned document.
func TestPoolSnapshotCountsDocuments(t *testing.T) {
	docs := benchDocs(t, 21, 3)
	proto := core.NewPipeline()
	rec := obs.NewRecorder(core.StageNames()...)
	proto.Recorder = rec
	if _, err := AlignCorpus(context.Background(), proto, docs, 3); err != nil {
		t.Fatal(err)
	}

	snap := rec.Snapshot()
	for _, stage := range []string{core.StageAlign, core.StageClassify, core.StageFilter, core.StageResolve} {
		if got := snap[stage].Count; got != int64(len(docs)) {
			t.Errorf("%s count = %d, want %d", stage, got, len(docs))
		}
	}
}

// TestWorkerDefaults: width resolution falls back Pipeline.Workers then
// GOMAXPROCS, and never exceeds the document count.
func TestWorkerDefaults(t *testing.T) {
	proto := core.NewPipeline()
	proto.Workers = 3
	if got := width(proto, 0, 100); got != 3 {
		t.Errorf("width = %d, want pipeline default 3", got)
	}
	if got := width(proto, 5, 100); got != 5 {
		t.Errorf("width = %d, want explicit 5", got)
	}
	if got := width(proto, 5, 2); got != 2 {
		t.Errorf("width = %d, want document count 2", got)
	}
	proto.Workers = 0
	if got, want := width(proto, 0, 100), min(gort.GOMAXPROCS(0), 100); got != want {
		t.Errorf("width = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestAlignPerDocBuildsKeysOnlyDocuments: documents segmented keys-only, as
// the batch and ingest paths segment them, get their table mentions inside
// AlignPerDoc before its fan-out, and align exactly as eagerly segmented
// documents do at every worker count. Under -race this also shows that the
// build finishes before any worker reads a document.
func TestAlignPerDocBuildsKeysOnlyDocuments(t *testing.T) {
	cfg := corpus.TableSConfig(5)
	cfg.Pages = 12
	pages := corpus.Generate(cfg).Pages
	proto := core.NewPipeline()
	segment := func(keysOnly bool) []*document.Document {
		var docs []*document.Document
		for _, pg := range pages {
			page := htmlx.ParseString(pg.HTML())
			if keysOnly {
				res, err := proto.Segmenter.SegmentPageKeys(pg.ID, page)
				if err != nil {
					t.Fatal(err)
				}
				docs = append(docs, res.Docs...)
				continue
			}
			ds, err := proto.Segmenter.SegmentPage(pg.ID, page)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, ds...)
		}
		return docs
	}
	eager := segment(false)
	want, err := AlignPerDoc(context.Background(), proto, eager, 1)
	if err != nil {
		t.Fatal(err)
	}
	aligned := 0
	for _, als := range want {
		aligned += len(als)
	}
	if aligned == 0 {
		t.Fatal("the eager documents align to nothing")
	}
	for _, workers := range []int{1, 2, 4} {
		keys := segment(true)
		got, err := AlignPerDoc(context.Background(), proto, keys, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
			t.Fatalf("workers=%d: keys-only documents align differently from eager ones", workers)
		}
		for i, d := range keys {
			if !reflect.DeepEqual(d.TableMentions, eager[i].TableMentions) {
				t.Fatalf("workers=%d: %s: built table mentions differ from the eager ones", workers, d.ID)
			}
		}
	}
}
