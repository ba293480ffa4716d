package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/filter"
	"briq/internal/graph"
	"briq/internal/ilp"
	"briq/internal/table"
)

// ResolverComparison is one strategy's row of the resolver-comparison table:
// accuracy against the synthetic corpus's gold alignments plus the wall-clock
// alignment rate, measured behind identical classify/filter stages so only
// the resolution strategy varies.
type ResolverComparison struct {
	Resolver   string  `json:"resolver"`
	Precision  float64 `json:"precision"`
	Recall     float64 `json:"recall"`
	F1         float64 `json:"f1"`
	DocsPerSec float64 `json:"docs_per_sec"`
}

// defaultILPBudget is the ILP baseline's per-document solve budget when none
// is configured. Behind adaptive filtering the candidate sets are small
// enough that branch-and-bound usually proves optimality in well under a
// millisecond; the budget exists for the documents where it does not.
const defaultILPBudget = 200 * time.Millisecond

// greedyMinScore is the greedy baseline's acceptance threshold — the same
// operating point as the classifier-only baseline (RFOnly).
const greedyMinScore = 0.5

// ILP is the exact global-resolution baseline the paper considered and
// dismissed (§VI): joint assignment as a 0/1 integer program solved by
// branch-and-bound. It resolves the same filtered candidates as BriQ's random
// walks (core.Pipeline.Candidates), so only the resolution step differs.
// Exactness costs worst-case exponential time, so every document's solve
// runs under Budget; on exhaustion the document falls back to random walks
// instead of trusting a truncated search. That fallback depends on wall
// time, which is why ILP is a baseline and not a serving option.
type ILP struct {
	// P supplies the classify/filter stages and the graph configuration:
	// Epsilon is the ILP's MinScore, and the rwr fallback uses the whole
	// GraphConfig.
	P *core.Pipeline
	// Budget bounds each document's solve; ≤0 means 200 ms.
	Budget time.Duration
}

// NewILP builds the ILP baseline from trained models.
func NewILP(tr *Trained, budget time.Duration) *ILP {
	return &ILP{P: NewBriQ(tr).P, Budget: budget}
}

// Name implements System.
func (*ILP) Name() string { return "BriQ/ilp" }

// Predict implements System.
func (s *ILP) Predict(doc *document.Document) []Prediction {
	kept, _ := s.P.Candidates(context.Background(), doc) // background ctx: cannot fail
	return predictions(doc, s.resolve(doc, kept))
}

// resolve formulates the kept candidates as a joint-assignment ILP — prior
// per pair, plus a coherence bonus for co-chosen table mentions that share a
// cell or a line — and solves it exactly within the budget. Assignments score
// the classifier prior of the chosen pair.
func (s *ILP) resolve(doc *document.Document, kept []filter.Candidate) []graph.Alignment {
	// Group candidates per text mention in mention order; within a mention
	// they keep the filter's deterministic order.
	perMention := make([][]ilp.Cand, len(doc.TextMentions))
	for _, c := range kept {
		perMention[c.Text] = append(perMention[c.Text], ilp.Cand{Target: c.Table, Score: c.Score})
	}
	problem := ilp.Problem{
		MinScore: s.P.GraphConfig.Epsilon,
		Coherence: func(a, b int) float64 {
			ta, tb := doc.TableMentions[a], doc.TableMentions[b]
			if ta.Table != tb.Table {
				return 0
			}
			switch {
			case shareCell(ta.Cells, tb.Cells):
				return 0.1
			case shareLine(ta.Cells, tb.Cells):
				return 0.05
			}
			return 0
		},
	}
	var mentionOf []int
	for xi, cs := range perMention {
		if len(cs) > 0 {
			mentionOf = append(mentionOf, xi)
			problem.Candidates = append(problem.Candidates, cs)
		}
	}
	if len(problem.Candidates) == 0 {
		return nil
	}

	budget := s.Budget
	if budget <= 0 {
		budget = defaultILPBudget
	}
	sol, err := ilp.SolveContext(context.Background(), problem, budget)
	if err != nil {
		// With a background context and a non-empty problem the only error
		// is ilp.ErrBudgetExhausted: resolve with random walks instead.
		resolved, _ := graph.Build(s.P.GraphConfig, doc, kept).Resolve(context.Background()) // background ctx: cannot fail
		return resolved
	}
	var out []graph.Alignment
	for i, ci := range sol.Assignment {
		if ci < 0 {
			continue
		}
		cand := problem.Candidates[i][ci]
		out = append(out, graph.Alignment{Text: mentionOf[i], Table: cand.Target, Score: cand.Score})
	}
	return out
}

func shareCell(a, b []table.CellRef) bool {
	for _, ca := range a {
		for _, cb := range b {
			if ca == cb {
				return true
			}
		}
	}
	return false
}

func shareLine(a, b []table.CellRef) bool {
	for _, ca := range a {
		for _, cb := range b {
			if ca.Row == cb.Row || ca.Col == cb.Col {
				return true
			}
		}
	}
	return false
}

// Greedy is the cheap resolution baseline: each text mention takes its
// top-scored kept candidate (ties broken by the lower table-mention index)
// when that score clears 0.5, with no joint reasoning at all. Unlike RFOnly
// it sees only the candidates adaptive filtering kept.
type Greedy struct {
	P *core.Pipeline // classify/filter stages
}

// Name implements System.
func (*Greedy) Name() string { return "BriQ/greedy" }

// Predict implements System.
func (s *Greedy) Predict(doc *document.Document) []Prediction {
	kept, _ := s.P.Candidates(context.Background(), doc) // background ctx: cannot fail
	return predictions(doc, s.resolve(doc, kept))
}

// resolve takes the argmax prior per text mention, applies the threshold and
// emits in text-mention order.
func (s *Greedy) resolve(doc *document.Document, kept []filter.Candidate) []graph.Alignment {
	best := make([]filter.Candidate, len(doc.TextMentions))
	seen := make([]bool, len(doc.TextMentions))
	for _, c := range kept {
		b := &best[c.Text]
		if !seen[c.Text] || c.Score > b.Score || (c.Score == b.Score && c.Table < b.Table) {
			*b, seen[c.Text] = c, true
		}
	}
	var out []graph.Alignment
	for xi, c := range best {
		if seen[xi] && c.Score >= greedyMinScore {
			out = append(out, graph.Alignment{Text: xi, Table: c.Table, Score: c.Score})
		}
	}
	return out
}

// predictions converts resolved alignments of one document into System
// output.
func predictions(doc *document.Document, als []graph.Alignment) []Prediction {
	out := make([]Prediction, len(als))
	for i, a := range als {
		out[i] = Prediction{DocID: doc.ID, TextIndex: a.Text, TableKey: doc.TableMentions[a.Table].Key(), Score: a.Score}
	}
	return out
}

// ResolverSystems returns one System per resolution strategy, all sharing
// p's classify/filter stages: BriQ/rwr (Algorithm 1, what the pipeline
// runs), BriQ/ilp and BriQ/greedy.
func ResolverSystems(p *core.Pipeline) []System {
	return []System{&BriQ{P: p, name: "BriQ/rwr"}, &ILP{P: p}, &Greedy{P: p}}
}

// ResolverRow is the comparison row of one ResolverSystems entry, given its
// evaluation and measured throughput.
func ResolverRow(sys System, eval Eval, docsPerSec float64) ResolverComparison {
	return ResolverComparison{
		Resolver:   strings.TrimPrefix(sys.Name(), "BriQ/"),
		Precision:  eval.Overall.Precision,
		Recall:     eval.Overall.Recall,
		F1:         eval.Overall.F1,
		DocsPerSec: docsPerSec,
	}
}

// RunTableResolvers evaluates every resolution strategy on the test split —
// the accuracy/latency tradeoff behind keeping random walks as the only
// resolution step. The timing loop aligns the whole document set once per
// strategy; accuracy comes from the standard gold evaluation.
func RunTableResolvers(c *corpus.Corpus, tr *Trained, test []*document.Document) (*Report, []ResolverComparison) {
	var rows []ResolverComparison
	r := &Report{
		Title:  "Resolution strategies: accuracy and throughput per resolver",
		Header: []string{"resolver", "recall", "precision", "F1", "docs/sec"},
	}
	for _, sys := range ResolverSystems(NewBriQ(tr).P) {
		eval := Evaluate(sys, c, test)

		start := time.Now()
		for _, doc := range test {
			sys.Predict(doc)
		}
		elapsed := time.Since(start)
		docsPerSec := 0.0
		if elapsed > 0 {
			docsPerSec = float64(len(test)) / elapsed.Seconds()
		}

		row := ResolverRow(sys, eval, docsPerSec)
		rows = append(rows, row)
		r.AddRow(sys.Name(), f2(row.Recall), f2(row.Precision), f2(row.F1),
			fmt.Sprintf("%.0f", row.DocsPerSec))
	}
	return r, rows
}
