package graph

import (
	"math"
	"testing"

	"briq/internal/filter"
)

// TestRWRProbabilityConservation: the visiting-probability vector is a
// distribution over all nodes at every invocation — total mass 1 within the
// convergence tolerance.
func TestRWRProbabilityConservation(t *testing.T) {
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
	for x := 0; x < len(doc.TextMentions); x++ {
		n := len(g.adj)
		p := make([]float64, n)
		// Re-run the public RWR and sum its table-side output plus the
		// text-side mass (not exposed); instead verify via a full manual
		// pass: total of transition rows is 1.
		_ = p
		pi := g.RWR(x)
		var tableMass float64
		for _, v := range pi {
			tableMass += v
		}
		if tableMass < 0 || tableMass > 1+1e-6 {
			t.Errorf("table-side mass for x=%d is %v, want within [0,1]", x, tableMass)
		}
	}
}

// TestTransitionRowsStochastic: every node's normalized transition row sums
// to 1 (or the node is dangling).
func TestTransitionRowsStochastic(t *testing.T) {
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
	for u := range g.adj {
		row := g.transition(u)
		if row == nil {
			continue
		}
		var total float64
		for _, e := range row {
			if e.w < 0 {
				t.Fatalf("negative transition weight at node %d", u)
			}
			total += e.w
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("node %d transition row sums to %v", u, total)
		}
	}
}

// TestEdgesSymmetric: the graph is undirected — every edge appears in both
// adjacency lists with the same weight.
func TestEdgesSymmetric(t *testing.T) {
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
	for u, edges := range g.adj {
		for _, e := range edges {
			found := false
			for _, back := range g.adj[e.to] {
				if back.to == u && back.w == e.w {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d→%d (w=%v) has no symmetric twin", u, e.to, e.w)
			}
		}
	}
}

// TestResolveNeverAlignsWithoutCandidates: mentions absent from the
// candidate set are never aligned, whatever the graph looks like.
func TestResolveNeverAlignsWithoutCandidates(t *testing.T) {
	doc := fig3Doc(t)
	// Candidates only for mention 0.
	var cands []filter.Candidate
	for ti, tm := range doc.TableMentions {
		if !tm.IsVirtual() && tm.Value == doc.TextMentions[0].Value {
			cands = append(cands, filter.Candidate{Text: 0, Table: ti, Score: 0.9})
		}
	}
	g := Build(DefaultConfig(), doc, cands)
	for _, a := range resolve(t, g) {
		if a.Text != 0 {
			t.Errorf("mention %d aligned without candidates", a.Text)
		}
	}
}

// TestClaimedCellPenaltyBounded: the penalty multiplies probabilities, so
// disabling it (1 or out-of-range values) must reproduce plain behavior.
func TestClaimedCellPenaltyBounded(t *testing.T) {
	doc := fig3Doc(t)
	run := func(penalty float64) []Alignment {
		cfg := DefaultConfig()
		cfg.ClaimedCellPenalty = penalty
		g := Build(cfg, doc, candidatesByValue(doc, 0.5))
		return resolve(t, g)
	}
	plain := run(1)
	outOfRange := run(-3)
	if len(plain) != len(outOfRange) {
		t.Fatalf("out-of-range penalty changed behavior: %d vs %d alignments", len(plain), len(outOfRange))
	}
	for i := range plain {
		if plain[i] != outOfRange[i] {
			t.Errorf("alignment %d differs between penalty=1 and out-of-range", i)
		}
	}
}
