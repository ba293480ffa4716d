// Package ilp implements the alternative global-resolution algorithm the
// paper considered and dismissed: exact constraint reasoning formulated as a
// 0/1 integer program ("we also considered an alternative algorithm based on
// constraint reasoning with Integer Linear Programming and experimented with
// it, but that approach did not scale sufficiently well", §VI).
//
// The formulation: a binary variable y_{x,c} per candidate pair, at most one
// chosen pair per text mention, objective = Σ prior(x,c)·y_{x,c} +
// Σ coherence(c₁,c₂)·y₁·y₂ over pairs of chosen assignments. The quadratic
// coherence term is handled exactly by branch-and-bound over joint
// assignments with an admissible upper bound. The solver is exact — and
// exponential in the worst case, which is precisely the scaling failure the
// ablation bench reproduces.
package ilp

import (
	"context"
	"errors"
	"sort"
	"time"
)

// Cand is one candidate assignment for a mention: an arbitrary target id
// with a prior score.
type Cand struct {
	Target int
	Score  float64
}

// Problem is a joint assignment problem.
type Problem struct {
	// Candidates lists, per mention, its candidate targets.
	Candidates [][]Cand
	// Coherence returns the pairwise bonus for choosing both targets
	// (symmetric, ≥ 0). A nil function means no coherence term.
	Coherence func(a, b int) float64
	// MinScore is the minimum total gain for an assignment to be preferred
	// over leaving the mention unassigned (the ε analogue).
	MinScore float64
}

// Solution is the solver output.
type Solution struct {
	// Assignment[i] is the chosen candidate index for mention i, or -1.
	Assignment []int
	Objective  float64
	Optimal    bool          // false when the deadline interrupted the search
	Nodes      int           // branch-and-bound nodes expanded
	Elapsed    time.Duration // wall time spent
}

// ErrNoCandidates reports an empty problem.
var ErrNoCandidates = errors.New("ilp: problem has no mentions")

// ErrBudgetExhausted reports a search interrupted by its time budget (or the
// context's deadline) before reaching proven optimality. The accompanying
// Solution still carries the best incumbent found — callers decide whether a
// partial answer is acceptable or whether to fall back to another strategy —
// but the condition is a typed error (errors.Is-testable) instead of a silent
// Optimal=false flag.
var ErrBudgetExhausted = errors.New("ilp: time budget exhausted before optimality")

// SolveContext runs exact branch-and-bound under two cooperative limits,
// checked inside the search loop: the budget bounds wall time for this solve,
// and ctx carries caller cancellation and deadlines. When the budget (or the
// context's deadline) expires mid-search, the best incumbent found so far is
// returned together with ErrBudgetExhausted; when ctx is cancelled outright,
// ctx.Err() is returned and the partial solution is discarded.
func SolveContext(ctx context.Context, p Problem, budget time.Duration) (Solution, error) {
	if len(p.Candidates) == 0 {
		return Solution{}, ErrNoCandidates
	}
	deadline := budget
	if deadline <= 0 {
		deadline = time.Second
	}
	coh := p.Coherence
	if coh == nil {
		coh = func(_, _ int) float64 { return 0 }
	}

	s := &solver{
		p:        p,
		coh:      coh,
		ctx:      ctx,
		start:    time.Now(),
		deadline: deadline,
		best:     make([]int, len(p.Candidates)),
		current:  make([]int, len(p.Candidates)),
		optimal:  true,
	}
	for i := range s.best {
		s.best[i] = -1
		s.current[i] = -1
	}

	// Order mentions by decreasing top score so good bounds appear early.
	s.order = make([]int, len(p.Candidates))
	for i := range s.order {
		s.order[i] = i
	}
	sort.Slice(s.order, func(a, b int) bool {
		return topScore(p.Candidates[s.order[a]]) > topScore(p.Candidates[s.order[b]])
	})

	// maxGain[i] = an upper bound on the contribution of mention order[i:]:
	// each mention can add at most its best score plus the largest possible
	// coherence with every other mention.
	s.maxGain = make([]float64, len(s.order)+1)
	maxCoh := s.maxCoherence()
	for i := len(s.order) - 1; i >= 0; i-- {
		gain := topScore(p.Candidates[s.order[i]])
		if gain < 0 {
			gain = 0
		}
		s.maxGain[i] = s.maxGain[i+1] + gain + maxCoh*float64(len(s.order)-1)
	}

	s.branch(0, 0)
	sol := Solution{
		Assignment: s.best,
		Objective:  s.bestObj,
		Optimal:    s.optimal,
		Nodes:      s.nodes,
		Elapsed:    time.Since(s.start),
	}
	if s.cancelled != nil {
		return Solution{}, s.cancelled
	}
	if !s.optimal {
		return sol, ErrBudgetExhausted
	}
	return sol, nil
}

type solver struct {
	p        Problem
	coh      func(a, b int) float64
	ctx      context.Context
	order    []int
	maxGain  []float64
	start    time.Time
	deadline time.Duration

	current   []int
	best      []int
	bestObj   float64
	nodes     int
	optimal   bool
	cancelled error // ctx.Err() on outright cancellation (not deadline)
}

func topScore(cands []Cand) float64 {
	best := 0.0
	for _, c := range cands {
		if c.Score > best {
			best = c.Score
		}
	}
	return best
}

// maxCoherence scans candidate target pairs for the largest coherence bonus
// (sampled cap for very large problems — the bound stays admissible because
// sampling can only underestimate the true maximum, so we take the max of
// the sample and a conservative default of the largest observed value).
func (s *solver) maxCoherence() float64 {
	var targets []int
	for _, cands := range s.p.Candidates {
		for _, c := range cands {
			targets = append(targets, c.Target)
		}
	}
	maxC := 0.0
	// Full scan up to a size budget, then stride-sample.
	stride := 1
	if len(targets) > 200 {
		stride = len(targets) / 200
	}
	for i := 0; i < len(targets); i += stride {
		for j := i + stride; j < len(targets); j += stride {
			if c := s.coh(targets[i], targets[j]); c > maxC {
				maxC = c
			}
		}
	}
	return maxC
}

// expired is the cooperative limit check, amortized to every 256th node: the
// solve's own time budget, the context's deadline (both reported as budget
// exhaustion) and outright cancellation (recorded separately so the caller
// gets ctx.Err(), not a partial answer).
func (s *solver) expired() bool {
	if s.nodes%256 != 0 {
		return false
	}
	if time.Since(s.start) > s.deadline {
		return true
	}
	switch err := s.ctx.Err(); {
	case err == nil:
		return false
	case errors.Is(err, context.Canceled):
		s.cancelled = err
		return true
	default: // context.DeadlineExceeded: the caller's budget, same semantics
		return true
	}
}

// branch explores assignments for order[level:].
func (s *solver) branch(level int, obj float64) {
	s.nodes++
	if s.expired() {
		s.optimal = false
		return
	}
	if level == len(s.order) {
		if obj > s.bestObj {
			s.bestObj = obj
			copy(s.best, s.current)
		}
		return
	}
	if obj+s.maxGain[level] <= s.bestObj {
		return // bound: cannot beat the incumbent
	}

	mi := s.order[level]

	// Candidate branches, best prior first.
	cands := s.p.Candidates[mi]
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return cands[idx[a]].Score > cands[idx[b]].Score })

	for _, ci := range idx {
		gain := cands[ci].Score
		for j := 0; j < len(s.current); j++ {
			if s.current[j] < 0 || j == mi {
				continue
			}
			gain += s.coh(cands[ci].Target, s.p.Candidates[j][s.current[j]].Target)
		}
		if gain < s.p.MinScore {
			continue
		}
		s.current[mi] = ci
		s.branch(level+1, obj+gain)
		s.current[mi] = -1
		if !s.optimal {
			return
		}
	}

	// Unassigned branch.
	s.branch(level+1, obj)
}
