package core_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/htmlx"
	"briq/internal/obs"
)

// stressPage builds a small HTML page whose numbers vary by seed, so distinct
// goroutines align distinct pages.
func stressPage(n int) string {
	a, b := 10+n, 20+n
	return fmt.Sprintf(`<html><body>
<p>A total of %d wins were recorded, with %d home wins.</p>
<table><caption>wins by venue</caption>
<tr><th>team</th><th>home</th><th>away</th><th>total</th></tr>
<tr><td>Reds</td><td>%d</td><td>%d</td><td>%d</td></tr>
<tr><td>Blues</td><td>7</td><td>3</td><td>10</td></tr>
</table></body></html>`, a+b+10, a, a, b-10, a+b-10)
}

// alignStressPage segments stress page i and aligns its documents through
// one AlignPageContext call.
func alignStressPage(p *core.Pipeline, i int) ([][]core.Alignment, error) {
	docs, err := p.Segmenter.SegmentPage(fmt.Sprintf("p%d", i), htmlx.ParseString(stressPage(i)))
	if err != nil {
		return nil, err
	}
	return p.AlignPageContext(context.Background(), docs)
}

// TestPipelineSharedAcrossGoroutines hammers one instrumented *Pipeline from
// many goroutines mixing AlignAll batches and direct AlignPageContext calls
// on the documents of distinct pages, asserting per-goroutine results match precomputed
// serial answers. Run under -race this is the audit that a shared pipeline is
// read-only after construction.
func TestPipelineSharedAcrossGoroutines(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(22, 20))
	shared := core.NewPipeline()
	shared.Recorder = obs.NewRecorder()

	wantDocs := shared.AlignAll(c.Docs)

	const pages = 8
	wantPage := make([][][]core.Alignment, pages)
	for i := 0; i < pages; i++ {
		got, err := alignStressPage(shared, i)
		if err != nil {
			t.Fatalf("serial AlignPageContext %d: %v", i, err)
		}
		if len(got) == 0 || len(got[0]) == 0 {
			t.Fatalf("page %d aligned nothing; stress page broken", i)
		}
		wantPage[i] = got
	}

	var wg sync.WaitGroup
	errs := make(chan error, pages*2)
	for i := 0; i < pages; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			got, err := alignStressPage(shared, i)
			if err != nil {
				errs <- fmt.Errorf("AlignPageContext %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(got, wantPage[i]) {
				errs <- fmt.Errorf("page %d: concurrent result differs from serial", i)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			got := shared.AlignAll(c.Docs)
			if !reflect.DeepEqual(got, wantDocs) {
				errs <- fmt.Errorf("AlignAll run %d differs from serial", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := shared.Recorder.Snapshot()
	for _, stage := range []string{core.StageClassify, core.StageFilter, core.StageResolve} {
		if snap[stage].Count == 0 {
			t.Errorf("stage %q never reported to the recorder", stage)
		}
	}
}
