package ilp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestSolveEmpty(t *testing.T) {
	if _, err := SolveContext(context.Background(), Problem{}, time.Second); err != ErrNoCandidates {
		t.Errorf("want ErrNoCandidates, got %v", err)
	}
}

func TestSolvePicksBestPriors(t *testing.T) {
	p := Problem{
		Candidates: [][]Cand{
			{{Target: 0, Score: 0.3}, {Target: 1, Score: 0.9}},
			{{Target: 2, Score: 0.7}, {Target: 3, Score: 0.2}},
		},
	}
	sol, err := SolveContext(context.Background(), p, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Optimal {
		t.Error("trivial problem should solve optimally")
	}
	if sol.Assignment[0] != 1 || sol.Assignment[1] != 0 {
		t.Errorf("assignment = %v, want [1 0]", sol.Assignment)
	}
	if sol.Objective != 1.6 {
		t.Errorf("objective = %v, want 1.6", sol.Objective)
	}
}

func TestSolveMinScoreAbstains(t *testing.T) {
	p := Problem{
		Candidates: [][]Cand{{{Target: 0, Score: 0.1}}},
		MinScore:   0.5,
	}
	sol, err := SolveContext(context.Background(), p, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assignment[0] != -1 {
		t.Errorf("low-score candidate should be skipped, got %v", sol.Assignment)
	}
}

func TestSolveCoherenceFlipsDecision(t *testing.T) {
	// Mention 0 prefers target 1 locally (0.6 > 0.5), but target 0 is
	// coherent with mention 1's clear choice (target 2) — the joint optimum
	// assigns target 0. This is the Fig. 3 coupling in miniature.
	coherent := map[[2]int]float64{{0, 2}: 0.4, {2, 0}: 0.4}
	p := Problem{
		Candidates: [][]Cand{
			{{Target: 0, Score: 0.5}, {Target: 1, Score: 0.6}},
			{{Target: 2, Score: 0.9}},
		},
		Coherence: func(a, b int) float64 { return coherent[[2]int{a, b}] },
	}
	sol, err := SolveContext(context.Background(), p, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assignment[0] != 0 {
		t.Errorf("coherence should flip mention 0 to target 0, got %v", sol.Assignment)
	}
	if want := 0.5 + 0.9 + 0.4; sol.Objective != want {
		t.Errorf("objective = %v, want %v", sol.Objective, want)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		nMentions := 2 + rng.Intn(3)
		nTargets := 4 + rng.Intn(3)
		coh := make(map[[2]int]float64)
		for a := 0; a < nTargets; a++ {
			for b := a + 1; b < nTargets; b++ {
				if rng.Float64() < 0.3 {
					w := rng.Float64() * 0.3
					coh[[2]int{a, b}] = w
					coh[[2]int{b, a}] = w
				}
			}
		}
		p := Problem{
			Coherence: func(a, b int) float64 { return coh[[2]int{a, b}] },
			MinScore:  0.05,
		}
		for m := 0; m < nMentions; m++ {
			var cands []Cand
			for c := 0; c < 1+rng.Intn(3); c++ {
				cands = append(cands, Cand{Target: rng.Intn(nTargets), Score: rng.Float64()})
			}
			p.Candidates = append(p.Candidates, cands)
		}

		sol, err := SolveContext(context.Background(), p, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(p)
		if diff := sol.Objective - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: solver %v != brute force %v", trial, sol.Objective, want)
		}
	}
}

// bruteForce enumerates every assignment.
func bruteForce(p Problem) float64 {
	best := 0.0
	var rec func(level int, chosen []int)
	rec = func(level int, chosen []int) {
		if level == len(p.Candidates) {
			obj := 0.0
			for i, ci := range chosen {
				if ci < 0 {
					continue
				}
				gain := p.Candidates[i][ci].Score
				for j := 0; j < i; j++ {
					if chosen[j] >= 0 {
						gain += p.Coherence(p.Candidates[i][ci].Target, p.Candidates[j][chosen[j]].Target)
					}
				}
				// Enforce MinScore the way the solver does: gain vs already
				// assigned mentions at assignment time. For brute force we
				// approximate by the final marginal gain, which matches the
				// solver because coherence is symmetric and order-insensitive
				// in the total.
				obj += gain
			}
			// Reject assignments the solver would never build: any mention
			// whose marginal gain (score + coherence to others) < MinScore.
			for i, ci := range chosen {
				if ci < 0 {
					continue
				}
				gain := p.Candidates[i][ci].Score
				for j := range chosen {
					if j != i && chosen[j] >= 0 {
						gain += p.Coherence(p.Candidates[i][ci].Target, p.Candidates[j][chosen[j]].Target)
					}
				}
				if gain < p.MinScore {
					return
				}
			}
			if obj > best {
				best = obj
			}
			return
		}
		rec(level+1, append(chosen, -1))
		for ci := range p.Candidates[level] {
			rec(level+1, append(chosen, ci))
		}
	}
	rec(0, nil)
	return best
}

func TestSolveDeadline(t *testing.T) {
	// A big coupled problem: the solver must respect the deadline and
	// report budget exhaustion rather than hang — the "did not scale"
	// behavior.
	rng := rand.New(rand.NewSource(9))
	p := Problem{
		Coherence: func(a, b int) float64 {
			if (a+b)%3 == 0 {
				return 0.2
			}
			return 0
		},
	}
	for m := 0; m < 18; m++ {
		var cands []Cand
		for c := 0; c < 12; c++ {
			cands = append(cands, Cand{Target: rng.Intn(100), Score: 0.4 + rng.Float64()*0.2})
		}
		p.Candidates = append(p.Candidates, cands)
	}
	start := time.Now()
	sol, err := SolveContext(context.Background(), p, 50*time.Millisecond)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline ignored: ran %v", elapsed)
	}
	if sol.Nodes == 0 {
		t.Error("no nodes expanded")
	}
}

// hardProblem builds a dense, weakly-coupled instance whose near-uniform
// scores defeat the bound, guaranteeing the search outlasts any small budget.
func hardProblem() Problem {
	rng := rand.New(rand.NewSource(21))
	p := Problem{
		Coherence: func(a, b int) float64 {
			if (a+b)%3 == 0 {
				return 0.2
			}
			return 0
		},
	}
	for m := 0; m < 18; m++ {
		var cands []Cand
		for c := 0; c < 12; c++ {
			cands = append(cands, Cand{Target: rng.Intn(100), Score: 0.4 + rng.Float64()*0.2})
		}
		p.Candidates = append(p.Candidates, cands)
	}
	return p
}

func TestSolveContextBudgetExhausted(t *testing.T) {
	sol, err := SolveContext(context.Background(), hardProblem(), time.Millisecond)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if sol.Optimal {
		t.Error("exhausted solve reported Optimal")
	}
	if len(sol.Assignment) == 0 {
		t.Error("exhausted solve should still carry the best incumbent")
	}
	if sol.Nodes == 0 {
		t.Error("no nodes expanded")
	}
}

func TestSolveContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveContext(ctx, hardProblem(), time.Minute)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sol.Assignment) != 0 {
		t.Errorf("cancelled solve must discard the partial answer, got %v", sol.Assignment)
	}
}

func TestSolveContextDeadlineActsAsBudget(t *testing.T) {
	// A context deadline mid-search is the caller's budget: same typed error
	// as the solver's own budget, incumbent preserved.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	sol, err := SolveContext(ctx, hardProblem(), time.Minute)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if len(sol.Assignment) == 0 {
		t.Error("deadline-exhausted solve should still carry the best incumbent")
	}
}
