package graph_test

// Golden equivalence suite: the CSR fast path (Resolve/RWR) must produce
// byte-identical output to the frozen pre-CSR implementation
// (ReferenceResolve/ReferenceRWR) on realistic, pipeline-generated
// workloads. Floats are compared with ==, not a tolerance — the CSR rework
// is a representation change, not a numerical one, and PR 1's determinism
// guarantees (sorted candidate order, fixed tie-breaks) only survive if the
// accumulation order is preserved exactly.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/filter"
	"briq/internal/graph"
)

// goldenSeeds are the corpus seeds the equivalence suite runs on; each seed
// produces a different mix of table shapes, collision patterns and candidate
// densities.
var goldenSeeds = []int64{7, 42, 1234}

type resolveInput struct {
	doc   *document.Document
	cands []filter.Candidate
}

// pipelineInputs runs the real first two stages (classifier scoring +
// adaptive filtering) of the heuristic pipeline over a generated corpus and
// returns the exact (document, candidates) pairs the resolution stage sees
// in production.
func pipelineInputs(tb testing.TB, seed int64, pages int) []resolveInput {
	tb.Helper()
	c := corpus.Generate(corpus.TableLConfig(seed, pages))
	p := core.NewPipeline()
	var out []resolveInput
	for _, doc := range c.Docs {
		cands := p.ScorePairs(doc)
		filtered := filter.Apply(p.FilterConfig, doc, p.Tagger, cands)
		if len(filtered.Kept) == 0 {
			continue
		}
		out = append(out, resolveInput{doc, filtered.Kept})
	}
	if len(out) == 0 {
		tb.Fatalf("seed %d produced no documents with candidates", seed)
	}
	return out
}

func diffAlignments(got, want []graph.Alignment) string {
	if len(got) != len(want) {
		return fmt.Sprintf("alignment count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] { // exact: Text, Table and the float Score
			return fmt.Sprintf("alignment %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// TestResolveMatchesReferenceGolden is the headline equivalence gate: on
// three corpus seeds, the CSR Resolve must equal the legacy ReferenceResolve
// byte-for-byte, with rewiring on (the published algorithm).
func TestResolveMatchesReferenceGolden(t *testing.T) {
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, in := range pipelineInputs(t, seed, 10) {
				cfg := graph.DefaultConfig()
				fast := resolve(t, graph.Build(cfg, in.doc, in.cands))
				ref := graph.Build(cfg, in.doc, in.cands).ReferenceResolve()
				if d := diffAlignments(fast, ref); d != "" {
					t.Fatalf("doc %s: CSR vs reference: %s", in.doc.ID, d)
				}
			}
		})
	}
}

// TestResolveMatchesReferenceNoRewire covers the DisableRewire ablation:
// nothing is pruned between walks, and the CSR output must still equal the
// reference. workers is the number of goroutines resolving the same inputs
// at once, each on its own graph, as the runtime pool's workers do: the
// graph package starts no goroutines of its own, so any state shared across
// graphs (a package-level scratch buffer, a write into the document or the
// candidate slice) shows up here as a mismatch or under the race detector.
func TestResolveMatchesReferenceNoRewire(t *testing.T) {
	for _, seed := range goldenSeeds {
		for _, workers := range []int{1, 4} {
			seed, workers := seed, workers
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				cfg := graph.DefaultConfig()
				cfg.DisableRewire = true
				for _, in := range pipelineInputs(t, seed, 6) {
					ref := graph.Build(cfg, in.doc, in.cands).ReferenceResolve()
					got := make([][]graph.Alignment, workers)
					var wg sync.WaitGroup
					for w := range got {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							got[w], _ = graph.Build(cfg, in.doc, in.cands).Resolve(context.Background()) // background ctx: cannot fail
						}(w)
					}
					wg.Wait()
					for w, fast := range got {
						if d := diffAlignments(fast, ref); d != "" {
							t.Fatalf("doc %s worker %d: CSR vs reference: %s", in.doc.ID, w, d)
						}
					}
				}
			})
		}
	}
}

// TestRWRMatchesReference checks the walker itself, including after a
// resolution pass has rewired the graph (pruned CSR rows vs compacted
// adjacency lists).
func TestRWRMatchesReference(t *testing.T) {
	for _, in := range pipelineInputs(t, goldenSeeds[0], 6) {
		cfg := graph.DefaultConfig()
		fast := graph.Build(cfg, in.doc, in.cands)
		ref := graph.Build(cfg, in.doc, in.cands)
		for x := 0; x < len(in.doc.TextMentions); x++ {
			got, want := fast.RWR(x), ref.ReferenceRWR(x)
			if len(got) != len(want) {
				t.Fatalf("doc %s x=%d: %d probabilities, want %d", in.doc.ID, x, len(got), len(want))
			}
			for ti, p := range want {
				if got[ti] != p {
					t.Fatalf("doc %s x=%d: π(%d) = %v, want %v", in.doc.ID, x, ti, got[ti], p)
				}
			}
		}
		// Resolve both (rewires both), then walk again on the pruned graphs.
		resolve(t, fast)
		ref.ReferenceResolve()
		for x := 0; x < len(in.doc.TextMentions); x++ {
			got, want := fast.RWR(x), ref.ReferenceRWR(x)
			for ti, p := range want {
				if got[ti] != p {
					t.Fatalf("doc %s x=%d post-rewire: π(%d) = %v, want %v", in.doc.ID, x, ti, got[ti], p)
				}
			}
		}
	}
}

// TestResolveMatchesReferenceDuplicateCandidates pins the parallel-edge
// case: duplicate (text, table) candidate pairs produce parallel text-table
// edges, which keepOnly must drop atomically on both paths.
func TestResolveMatchesReferenceDuplicateCandidates(t *testing.T) {
	for _, in := range pipelineInputs(t, goldenSeeds[1], 4) {
		dup := append(append([]filter.Candidate(nil), in.cands...), in.cands...)
		cfg := graph.DefaultConfig()
		fast := resolve(t, graph.Build(cfg, in.doc, dup))
		ref := graph.Build(cfg, in.doc, dup).ReferenceResolve()
		if d := diffAlignments(fast, ref); d != "" {
			t.Fatalf("doc %s with duplicated candidates: %s", in.doc.ID, d)
		}
	}
}

// resolve runs Resolve under a background context, which cannot cancel it.
func resolve(tb testing.TB, g *graph.Graph) []graph.Alignment {
	tb.Helper()
	out, err := g.Resolve(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return out
}
