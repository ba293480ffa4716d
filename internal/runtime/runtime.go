package runtime

import (
	"context"
	"fmt"
	gort "runtime"
	"sync"

	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/obs"
)

// Options configure a Pool.
type Options struct {
	// Workers is the number of worker goroutines (and pipeline clones).
	// ≤ 0 falls back to the prototype pipeline's Workers field, then to
	// GOMAXPROCS.
	Workers int
}

// Pool is a corpus-scale alignment engine: a fixed set of worker goroutines,
// each owning a private clone of one prototype pipeline, fed from a bounded
// channel. Per-worker clones keep the scratch buffers of the hot path warm
// without any cross-worker synchronization, and per-worker obs recorders
// collect stage latencies contention-free; Snapshot merges them into one
// pool-level view.
//
// A Pool is cheap to construct (clones share all models read-only) and
// reusable, but runs one corpus at a time: Stream and AlignCorpus serialize
// on an internal lock.
type Pool struct {
	workers int
	clones  []*core.Pipeline
	recs    []*obs.Recorder

	runMu sync.Mutex // held for the duration of one Stream run
}

// NewPool builds a pool of worker clones of proto. The prototype itself is
// never used to align and stays safe for concurrent use elsewhere; its
// Recorder is not shared with the workers (use Snapshot or MergeInto to
// retrieve pool-side observations).
func NewPool(proto *core.Pipeline, opts Options) *Pool {
	workers := opts.Workers
	if workers <= 0 {
		workers = proto.Workers
	}
	if workers <= 0 {
		workers = gort.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		clones:  make([]*core.Pipeline, workers),
		recs:    make([]*obs.Recorder, workers),
	}
	for i := range p.clones {
		rec := obs.NewRecorder(core.StageNames()...)
		clone := proto.Clone()
		clone.Recorder = rec
		p.clones[i] = clone
		p.recs[i] = rec
	}
	return p
}

// Workers returns the pool's fan-out width.
func (p *Pool) Workers() int { return p.workers }

// Snapshot merges the per-worker recorders into one pool-level stage
// snapshot. It can be called at any time, including mid-run; it reflects
// every document the pool has finished so far.
func (p *Pool) Snapshot() map[string]obs.HistogramSnapshot {
	merged := obs.NewRecorder()
	for _, rec := range p.recs {
		merged.Merge(rec)
	}
	return merged.Snapshot()
}

// MergeInto folds the pool's per-worker recorders into dst — the bridge to a
// process-wide recorder such as the server's /metrics registry. Because the
// worker recorders are cumulative, merge a pool into a given dst at most
// once: the server merges each per-request batch pool when it is done, and
// the long-lived ingest pool into a fresh recorder per /metrics scrape.
func (p *Pool) MergeInto(dst *obs.Recorder) {
	for _, rec := range p.recs {
		dst.Merge(rec)
	}
}

// Result is one document's outcome, emitted by Stream in completion order.
// Index is the document's position in the submitted corpus, so consumers can
// restore submission order without waiting for stragglers.
type Result struct {
	Index      int
	DocID      string
	Alignments []core.Alignment
	Err        error
}

// Stream is an iterator over a running corpus alignment. Results arrive in
// completion order as workers finish; the channel behind it is bounded, so an
// unread Stream exerts backpressure on the workers rather than accumulating
// results. The consumer must either drain the stream or cancel its context —
// abandoning both leaks the run's goroutines until process exit.
type Stream struct {
	out  <-chan Result
	err  error // set by the closer before out is closed
	done bool
}

// Next returns the next completed document. ok is false when the run is over
// — all documents done, or the context cancelled; Err distinguishes.
func (s *Stream) Next() (r Result, ok bool) {
	r, ok = <-s.out
	if !ok {
		s.done = true
	}
	return r, ok
}

// Err reports why the stream ended: nil after a full run, the context's error
// after cancellation. Only valid once Next has returned ok=false.
func (s *Stream) Err() error {
	if !s.done {
		return nil
	}
	return s.err
}

// Stream fans docs out over the worker pool and returns an iterator over the
// results. The context is observed at every blocking point — feeding,
// aligning (between pipeline phases, see core.AlignContext) and emitting —
// so cancellation stops the corpus within one pipeline phase per worker;
// documents in flight at cancellation are dropped, not emitted.
func (p *Pool) Stream(ctx context.Context, docs []*document.Document) *Stream {
	type task struct {
		idx int
		doc *document.Document
	}
	// Both channels hold 2× workers. A full input channel blocks the feeder
	// (backpressure toward the document source); a full output channel parks
	// workers until the consumer catches up, so a slow consumer cannot make
	// the pool buffer an entire corpus of results.
	depth := 2 * p.workers
	in := make(chan task, depth)
	out := make(chan Result, depth)
	s := &Stream{out: out}

	p.runMu.Lock()

	// Feeder: bounded-channel submission with cancellation.
	go func() {
		defer close(in)
		for i, doc := range docs {
			select {
			case in <- task{i, doc}:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: one goroutine per clone; the clone's scratch and recorder are
	// single-owner for the whole run.
	var wg sync.WaitGroup
	for _, clone := range p.clones {
		wg.Add(1)
		go func(clone *core.Pipeline) {
			defer wg.Done()
			for {
				var t task
				var ok bool
				select {
				case <-ctx.Done():
					return
				case t, ok = <-in:
					if !ok {
						return
					}
				}
				als, err := clone.AlignContext(ctx, t.doc)
				if err != nil {
					if ctx.Err() != nil {
						// Cancellation: the context is dead, so the result
						// has no reader.
						return
					}
					// A failure on a live context would be a per-document
					// result the consumer must see, not a silent drop.
					select {
					case out <- Result{Index: t.idx, DocID: t.doc.ID, Err: err}:
						continue
					case <-ctx.Done():
						return
					}
				}
				select {
				case out <- Result{Index: t.idx, DocID: t.doc.ID, Alignments: als}:
				case <-ctx.Done():
					return
				}
			}
		}(clone)
	}

	// Closer: release the pool and end the stream once every worker exits.
	go func() {
		wg.Wait()
		s.err = ctx.Err() // happens-before consumers via close(out)
		p.runMu.Unlock()
		close(out)
	}()
	return s
}

// AlignPerDoc aligns the corpus and returns each document's alignments at
// that document's submitted index — the grouping the serving layer's
// per-document result cache stores. Per-document slices keep Align's
// text-mention order. On cancellation it returns ctx.Err with partial work
// discarded.
func (p *Pool) AlignPerDoc(ctx context.Context, docs []*document.Document) ([][]core.Alignment, error) {
	perDoc := make([][]core.Alignment, len(docs))
	s := p.Stream(ctx, docs)
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		if r.Err != nil {
			return nil, fmt.Errorf("align %s: %w", r.DocID, r.Err)
		}
		perDoc[r.Index] = r.Alignments
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return perDoc, nil
}

// AlignCorpus aligns the whole corpus and returns all alignments in the
// deterministic order core.Pipeline.AlignAll promises (document ID, then
// text mention): the parallel result is byte-for-byte identical to a serial
// run regardless of worker count. On cancellation it returns ctx.Err with
// partial work discarded.
func (p *Pool) AlignCorpus(ctx context.Context, docs []*document.Document) ([]core.Alignment, error) {
	perDoc, err := p.AlignPerDoc(ctx, docs)
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
