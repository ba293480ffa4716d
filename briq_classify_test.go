package briq_test

// Race/clone determinism for the frozen classify engine: concurrent
// AlignCorpus with a trained classifier must be byte-identical to a serial
// run and to the pre-PR reference path (per-pair pointer-tree walk, no gate)
// at every worker width. Clones share one compiled engine but own their
// scratch (batch matrix, vote buffer, candidate slices); this test — run
// under -race by make check — is what holds that sharing honest.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"briq"
	"briq/internal/corpus"
)

var (
	classifyOnce    sync.Once
	classifyTrained *briq.Pipeline
)

// trainedClassifyPipeline shares one trained pipeline across the classify
// tests; training dominates their cost.
func trainedClassifyPipeline(t *testing.T) *briq.Pipeline {
	t.Helper()
	classifyOnce.Do(func() {
		classifyTrained = briq.New(briq.WithTrainedSeed(11), briq.WithWorkers(4))
	})
	return classifyTrained
}

func TestAlignCorpusDeterministicWithFrozenClassifier(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(23, 6))
	p := trainedClassifyPipeline(t)

	// The pre-PR reference: per-pair pointer-tree scoring, gate off, serial.
	ref := *p
	ref.ReferenceClassify = true
	ref.NoClassifyGate = true
	want, _ := json.Marshal(ref.AlignAll(c.Docs))

	serial, _ := json.Marshal(p.AlignAll(c.Docs))
	if !bytes.Equal(serial, want) {
		t.Fatal("serial frozen-engine alignment diverged from the reference path")
	}

	for _, workers := range []int{1, 2, 4, 8} {
		wp := *p
		wp.Workers = workers
		got, err := briq.AlignCorpus(context.Background(), &wp, c.Docs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, want) {
			t.Fatalf("workers=%d: concurrent frozen-engine alignment diverged from the serial reference", workers)
		}
	}
}
