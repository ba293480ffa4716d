package runtime

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
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

// TestAlignCorpusDeterministic is the ordered-batch determinism gate: pooled
// output must equal the serial AlignAll output byte for byte, across worker
// counts and repeated runs over the same warm clones.
func TestAlignCorpusDeterministic(t *testing.T) {
	docs := benchDocs(t, 42, 4)
	proto := core.NewPipeline()
	serial := mustJSON(t, proto.AlignAll(docs))

	for _, workers := range []int{1, 2, 4, 7} {
		pool := NewPool(proto, Options{Workers: workers})
		for round := 0; round < 2; round++ {
			got, err := pool.AlignCorpus(context.Background(), docs)
			if err != nil {
				t.Fatalf("workers=%d round=%d: %v", workers, round, err)
			}
			if !bytes.Equal(mustJSON(t, got), serial) {
				t.Fatalf("workers=%d round=%d: pooled output != serial output", workers, round)
			}
		}
	}
}

// TestPoolStress hammers one pool from many consumer goroutines under the
// race detector: clones must stay single-owner, runs
// must serialize, and every run must still be complete and correct.
func TestPoolStress(t *testing.T) {
	docs := benchDocs(t, 7, 3)
	proto := core.NewPipeline()
	want := mustJSON(t, proto.AlignAll(docs))

	pool := NewPool(proto, Options{Workers: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := pool.AlignCorpus(context.Background(), docs)
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
}

// TestStreamEmitsEveryDocumentOnce checks the streaming iterator: every
// submission index appears exactly once and carries the right document ID.
func TestStreamEmitsEveryDocumentOnce(t *testing.T) {
	docs := benchDocs(t, 13, 3)
	pool := NewPool(core.NewPipeline(), Options{Workers: 3})

	seen := make(map[int]string)
	s := pool.Stream(context.Background(), docs)
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		if r.Err != nil {
			t.Fatalf("doc %s: %v", r.DocID, r.Err)
		}
		if prev, dup := seen[r.Index]; dup {
			t.Fatalf("index %d emitted twice (%s, %s)", r.Index, prev, r.DocID)
		}
		seen[r.Index] = r.DocID
	}
	if err := s.Err(); err != nil {
		t.Fatalf("stream err = %v", err)
	}
	if len(seen) != len(docs) {
		t.Fatalf("emitted %d documents, want %d", len(seen), len(docs))
	}
	for i, doc := range docs {
		if seen[i] != doc.ID {
			t.Errorf("index %d = %q, want %q", i, seen[i], doc.ID)
		}
	}
}

// TestCancellationMidCorpus cancels a large run after the first result. The
// stream must terminate promptly, report the cancellation, and drop most of
// the corpus on the floor instead of finishing it.
func TestCancellationMidCorpus(t *testing.T) {
	// Many copies of a real corpus: big enough that finishing it all before
	// the cancel lands is impossible within the bounded channels.
	base := benchDocs(t, 42, 4)
	var docs []*document.Document
	for len(docs) < 300 {
		docs = append(docs, base...)
	}

	pool := NewPool(core.NewPipeline(), Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	s := pool.Stream(ctx, docs)

	emitted := 0
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		if r.Err != nil {
			t.Fatalf("doc %s: %v", r.DocID, r.Err)
		}
		emitted++
		if emitted == 1 {
			cancel()
		}
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("stream err = %v, want context.Canceled", err)
	}
	// Workers can finish what was in flight (one document each) plus what
	// the bounded channels held (2× workers each), nothing more.
	w := pool.Workers()
	if maxEmitted := 1 + w + 2*(2*w); emitted > maxEmitted {
		t.Errorf("emitted %d documents after cancel, want ≤ %d", emitted, maxEmitted)
	}
	cancel()
}

// TestCancelledBeforeRun: a dead context aligns nothing and AlignCorpus
// reports it.
func TestCancelledBeforeRun(t *testing.T) {
	docs := benchDocs(t, 42, 2)
	pool := NewPool(core.NewPipeline(), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := pool.AlignCorpus(ctx, docs)
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
	pool := NewPool(core.NewPipeline(), Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := pool.AlignCorpus(ctx, docs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestPoolSnapshotCountsDocuments: the merged pool-level snapshot must
// account for every aligned document across all per-worker recorders.
func TestPoolSnapshotCountsDocuments(t *testing.T) {
	docs := benchDocs(t, 21, 3)
	pool := NewPool(core.NewPipeline(), Options{Workers: 3})
	if _, err := pool.AlignCorpus(context.Background(), docs); err != nil {
		t.Fatal(err)
	}

	snap := pool.Snapshot()
	if got := snap[core.StageAlign].Count; got != int64(len(docs)) {
		t.Errorf("pool %s count = %d, want %d", core.StageAlign, got, len(docs))
	}
	for _, stage := range []string{core.StageClassify, core.StageFilter, core.StageResolve} {
		if snap[stage].Count != int64(len(docs)) {
			t.Errorf("pool %s count = %d, want %d", stage, snap[stage].Count, len(docs))
		}
	}

	// MergeInto carries the same totals to an external recorder.
	dst := obs.NewRecorder()
	pool.MergeInto(dst)
	if got := dst.Snapshot()[core.StageAlign].Count; got != int64(len(docs)) {
		t.Errorf("merged %s count = %d, want %d", core.StageAlign, got, len(docs))
	}
}

// TestWorkerDefaults: worker resolution falls back Pipeline.Workers then
// GOMAXPROCS.
func TestWorkerDefaults(t *testing.T) {
	proto := core.NewPipeline()
	proto.Workers = 3
	if got := NewPool(proto, Options{}).Workers(); got != 3 {
		t.Errorf("workers = %d, want pipeline default 3", got)
	}
	if got := NewPool(proto, Options{Workers: 5}).Workers(); got != 5 {
		t.Errorf("workers = %d, want explicit 5", got)
	}
	proto.Workers = 0
	if got := NewPool(proto, Options{}).Workers(); got < 1 {
		t.Errorf("workers = %d, want ≥ 1 from GOMAXPROCS", got)
	}
}
