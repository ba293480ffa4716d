package experiment

import (
	"context"
	"reflect"
	"testing"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/filter"
	"briq/internal/graph"
)

// resolveInput is one document with the candidates the pipeline's filter
// kept for it — exactly what every resolution strategy sees.
type resolveInput struct {
	doc  *document.Document
	kept []filter.Candidate
}

// resolveWorkload runs the heuristic pipeline's classify and filter stages
// over a generated corpus and returns the documents with kept candidates.
func resolveWorkload(t *testing.T, seed int64, pages int) ([]resolveInput, *core.Pipeline) {
	t.Helper()
	c := corpus.Generate(corpus.TableLConfig(seed, pages))
	p := core.NewPipeline()
	var inputs []resolveInput
	for _, doc := range c.Docs {
		kept, err := p.Candidates(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) > 0 {
			inputs = append(inputs, resolveInput{doc, kept})
		}
	}
	if len(inputs) == 0 {
		t.Fatalf("seed %d produced no documents with candidates", seed)
	}
	return inputs, p
}

// TestGreedySanity checks the greedy baseline on a controlled candidate set:
// argmax prior per mention, deterministic tie-break toward the lower table
// index, abstention below the 0.5 threshold, output in text-mention order.
func TestGreedySanity(t *testing.T) {
	inputs, p := resolveWorkload(t, 12, 4)
	doc := inputs[0].doc
	if len(doc.TextMentions) < 3 || len(doc.TableMentions) < 3 {
		t.Fatalf("workload document too small: %d text, %d table mentions",
			len(doc.TextMentions), len(doc.TableMentions))
	}
	kept := []filter.Candidate{
		{Text: 2, Table: 1, Score: 0.9}, // out of order on purpose
		{Text: 0, Table: 0, Score: 0.6},
		{Text: 0, Table: 2, Score: 0.8}, // mention 0's argmax
		{Text: 1, Table: 2, Score: 0.3}, // below threshold: abstains
		{Text: 2, Table: 0, Score: 0.9}, // tie with (2,1): lower table wins
	}
	got := (&Greedy{P: p}).resolve(doc, kept)
	want := []graph.Alignment{
		{Text: 0, Table: 2, Score: 0.8},
		{Text: 2, Table: 0, Score: 0.9},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("greedy = %+v, want %+v", got, want)
	}
}

// TestRWRILPAgreement is the cross-strategy sanity check: on small synthetic
// documents, where exact branch-and-bound is tractable, random walks and the
// ILP should agree on high-confidence alignments. The two optimize different
// objectives, so the test checks agreement where both are confident rather
// than full equality: mentions the walks aligned with a clear-margin score
// and the ILP also aligned must point at the same table mention in the
// overwhelming majority of cases.
func TestRWRILPAgreement(t *testing.T) {
	inputs, p := resolveWorkload(t, 14, 8)
	exact := &ILP{P: p, Budget: 5 * time.Second} // generous: every doc solves exactly

	checked, agreed := 0, 0
	for _, in := range inputs {
		ilpOf := map[int]int{}
		for _, a := range exact.resolve(in.doc, in.kept) {
			ilpOf[a.Text] = a.Table
		}
		for _, a := range graph.Build(p.GraphConfig, in.doc, in.kept).Resolve() {
			if a.Score < 0.6 { // only clear-cut rwr decisions
				continue
			}
			ti, ok := ilpOf[a.Text]
			if !ok {
				continue
			}
			checked++
			if ti == a.Table {
				agreed++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no high-confidence overlapping decisions to compare")
	}
	if ratio := float64(agreed) / float64(checked); ratio < 0.9 {
		t.Fatalf("rwr and ilp agree on %d/%d (%.0f%%) high-confidence alignments, want ≥90%%",
			agreed, checked, 100*ratio)
	}
}

// TestILPFallsBackToRWROnBudgetExhaustion gives the ILP baseline a budget no
// real solve can meet on a search it cannot prune: a dense, near-uniform
// candidate set (weak bounds force deep branch-and-bound, so the solver's
// amortized expiry check is guaranteed to fire). The baseline must degrade
// to the random walks' exact output instead of returning a truncated
// search's answer. Small documents that solve exactly within the budget are
// legitimately not fallbacks, hence the dense construction rather than the
// filter's output.
func TestILPFallsBackToRWROnBudgetExhaustion(t *testing.T) {
	inputs, p := resolveWorkload(t, 15, 6)
	exhausted := &ILP{P: p, Budget: time.Nanosecond}
	checked := 0
	for _, in := range inputs {
		nText, nTable := len(in.doc.TextMentions), len(in.doc.TableMentions)
		if nText < 4 || nTable < 8 {
			continue // search too small to outlast even a 1ns budget
		}
		checked++
		dense := make([]filter.Candidate, 0, nText*nTable)
		for xi := 0; xi < nText; xi++ {
			for ti := 0; ti < nTable; ti++ {
				// Near-uniform scores with a deterministic jitter: no ties,
				// but no dominant branch for the bound to prune on either.
				dense = append(dense, filter.Candidate{
					Text: xi, Table: ti,
					Score: 0.5 + 0.001*float64((xi*7+ti*13)%17),
				})
			}
		}
		want := graph.Build(p.GraphConfig, in.doc, dense).Resolve()
		if got := exhausted.resolve(in.doc, dense); !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %s: budget-exhausted ilp %+v, want rwr fallback %+v", in.doc.ID, got, want)
		}
	}
	if checked == 0 {
		t.Fatal("no documents large enough to force budget exhaustion")
	}
}
