package runtime

import (
	"context"
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"

	"briq/internal/core"
	"briq/internal/document"
)

// AlignPerDoc aligns docs on up to workers goroutines and returns each
// document's alignments at that document's submitted index — the grouping
// the serving layer's per-document result cache stores. Per-document slices
// keep Align's text-mention order.
//
// Documents segmented keys-only (document.Segmenter.SegmentPageKeys) get
// their table mentions first, from p.Segmenter, before any goroutine starts:
// each table's list is built once across docs, in the order segmentation
// would have built it, so the alignments are those of eagerly segmented
// documents. This is the miss path of the batch endpoint and of ingestion,
// which key documents before anything builds their mentions.
//
// workers ≤ 0 falls back to p.Workers, then GOMAXPROCS; no more goroutines
// start than there are documents. Each goroutine owns one p.Clone() for the
// whole call and takes the next unclaimed document until none is left. The
// clones record stage latencies into p.Recorder. On cancellation it returns
// ctx.Err() with partial work discarded; documents in flight stop at their
// next pipeline phase (see core.AlignContext).
func AlignPerDoc(ctx context.Context, p *core.Pipeline, docs []*document.Document, workers int) ([][]core.Alignment, error) {
	p.Segmenter.BuildTableMentions(docs)
	perDoc := make([][]core.Alignment, len(docs))
	n := width(p, workers, len(docs))
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range n {
		clone := p.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				als, err := clone.AlignContext(ctx, docs[i])
				if err != nil {
					errs[w] = fmt.Errorf("align %s: %w", docs[i].ID, err)
					return
				}
				perDoc[i] = als
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return perDoc, nil
}

// AlignCorpus aligns the whole corpus and returns all alignments in the
// deterministic order core.Pipeline.AlignAll promises (document ID, then
// text mention): the parallel result is byte-for-byte identical to a serial
// run regardless of worker count. Workers, recording and cancellation are as
// for AlignPerDoc.
func AlignCorpus(ctx context.Context, p *core.Pipeline, docs []*document.Document, workers int) ([]core.Alignment, error) {
	perDoc, err := AlignPerDoc(ctx, p, docs, workers)
	if err != nil {
		return nil, err
	}
	var out []core.Alignment
	for _, als := range perDoc {
		out = append(out, als...)
	}
	core.SortAlignments(out)
	return out, nil
}

// width resolves the goroutine count of one call: workers, else p.Workers,
// else GOMAXPROCS, and never more than docs.
func width(p *core.Pipeline, workers, docs int) int {
	if workers <= 0 {
		workers = p.Workers
	}
	if workers <= 0 {
		workers = gort.GOMAXPROCS(0)
	}
	return min(workers, docs)
}
