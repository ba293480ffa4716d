package forest

// Frozen flat-array inference engine. Training builds pointer-ish trees (one
// node slice per tree, 40-byte nodes); prediction over the mention×candidate
// pair space of a document walks every tree for every pair, so inference —
// not training — is the hot path. Frozen() compiles a trained Forest into a
// flat layout: all trees' nodes concatenated into one contiguous array of
// 24-byte packed nodes (split feature, threshold, absolute child offsets,
// leaf class), walked without per-tree indirection and with one cache line
// touched per node visit. The compilation is exact: a Frozen engine
// reproduces Forest.PredictProba bit for bit — same vote accumulation order,
// same division — and the equivalence suite in frozen_test.go holds the two
// implementations together.

// frozenNode is one compiled node, packed to 24 bytes so that a node visit
// touches a single cache line (the training-time node is 40 bytes across a
// pointer-ish tree). feat < 0 marks a leaf; left/right are absolute offsets
// into the shared node array, valid only on split nodes.
type frozenNode struct {
	thresh float64
	left   int32
	right  int32
	feat   int32
	class  int32 // majority class, read at leaves
}

// Frozen is an immutable flat-array compilation of a trained Forest. It is
// safe for concurrent use: prediction only reads the arrays, and all scratch
// is caller-provided or per-call.
type Frozen struct {
	classes   int
	nFeatures int
	nTrees    int
	roots     []int32 // absolute root node index per tree
	nodes     []frozenNode
}

// Frozen compiles the forest into its flat-array inference form. The result
// shares nothing with the Forest: mutating or retraining the source later
// does not affect a compiled engine.
//
// Compilation folds every subtree whose leaves all predict the same class
// into a single leaf. A tree's vote is the class of the leaf x lands in, so
// a subtree with a uniform leaf class votes that class for every x that
// reaches it — replacing it with one leaf changes no prediction, it only
// shortens the walk. Nodes are re-emitted in depth-first order per tree, so
// hot paths stay contiguous.
func (f *Forest) Frozen() *Frozen {
	total := 0
	for _, t := range f.trees {
		total += len(t.nodes)
	}
	z := &Frozen{
		classes:   f.classes,
		nFeatures: f.nFeatures,
		nTrees:    len(f.trees),
		roots:     make([]int32, len(f.trees)),
		nodes:     make([]frozenNode, 0, total),
	}
	for ti, t := range f.trees {
		// foldClass[i] is the uniform leaf class of node i's subtree, or -1
		// when its leaves disagree.
		foldClass := make([]int32, len(t.nodes))
		var fc func(i int) int32
		fc = func(i int) int32 {
			n := &t.nodes[i]
			if n.feature < 0 {
				foldClass[i] = int32(n.class)
				return foldClass[i]
			}
			l, r := fc(n.left), fc(n.right)
			if l >= 0 && l == r {
				foldClass[i] = l
			} else {
				foldClass[i] = -1
			}
			return foldClass[i]
		}
		fc(0)
		var emit func(i int) int32
		emit = func(i int) int32 {
			idx := int32(len(z.nodes))
			if c := foldClass[i]; c >= 0 {
				z.nodes = append(z.nodes, frozenNode{feat: -1, class: c})
				return idx
			}
			n := &t.nodes[i]
			z.nodes = append(z.nodes, frozenNode{
				thresh: n.threshold,
				feat:   int32(n.feature),
				class:  int32(n.class),
			})
			l := emit(n.left)
			r := emit(n.right)
			z.nodes[idx].left = l
			z.nodes[idx].right = r
			return idx
		}
		z.roots[ti] = emit(0)
	}
	return z
}

// Classes returns the number of classes the source forest was trained on.
func (z *Frozen) Classes() int { return z.classes }

// NumFeatures returns the expected feature-vector length.
func (z *Frozen) NumFeatures() int { return z.nFeatures }

// Trees returns the number of compiled trees.
func (z *Frozen) Trees() int { return z.nTrees }

// vote walks every tree for x and increments the winning class's slot in
// votes — the same accumulation order as Forest.PredictProba, which the
// bit-identity contract depends on.
func (z *Frozen) vote(x []float64, votes []float64) {
	nodes := z.nodes
	for _, root := range z.roots {
		i := root
		for {
			n := &nodes[i]
			if n.feat < 0 {
				votes[n.class]++
				break
			}
			if x[n.feat] <= n.thresh {
				i = n.left
			} else {
				i = n.right
			}
		}
	}
}

// PredictProba returns the per-class probability estimates for x, writing
// into out when it has sufficient capacity (allocating otherwise) and
// returning the slice used. The result is bit-identical to
// Forest.PredictProba on the source forest.
func (z *Frozen) PredictProba(x []float64, out []float64) []float64 {
	if cap(out) < z.classes {
		out = make([]float64, z.classes)
	} else {
		out = out[:z.classes]
		for i := range out {
			out[i] = 0
		}
	}
	z.vote(x, out)
	n := float64(z.nTrees)
	for i := range out {
		out[i] /= n
	}
	return out
}

// PositiveProba is shorthand for binary classifiers: the probability of
// class 1, bit-identical to Forest.PositiveProba.
func (z *Frozen) PositiveProba(x []float64) float64 {
	votes := make([]float64, z.classes)
	z.vote(x, votes)
	return votes[1%z.classes] / float64(z.nTrees)
}

// VotesFor returns the fewest positive votes k whose score
// float64(k)/Trees() reaches score, or 0 when no vote count up to Trees()
// does (a floor of 0 walks every tree). It is the vote floor that
// PositiveProbaBatch stops against for a caller that only tests a row's
// score against score.
func (z *Frozen) VotesFor(score float64) int32 {
	div := float64(z.nTrees)
	for k := 0; k <= z.nTrees; k++ {
		if float64(k)/div >= score {
			return int32(k)
		}
	}
	return 0
}

// PositiveProbaBatch evaluates n feature vectors laid out row-major in xs
// (len ≥ n*NumFeatures) and writes the PositiveProba of each into out
// (len ≥ n), reusing out's backing array when capacity allows. It returns
// the out slice used.
//
// floors holds one vote floor per row; nil means 0 for every row. A row
// whose floor is 0 or below walks every tree, and its score is bit-identical
// to Forest.PositiveProba on that vector. On a binary forest, a row with
// floor f > 0 stops walking once its positive votes plus its remaining
// trees fall below f: its full score would be below f/Trees(), and so is
// the partial count over Trees() written in its place. A row that reaches f
// walks every tree and keeps its exact score. A forest with another class
// count walks every tree of every row.
func (z *Frozen) PositiveProbaBatch(xs []float64, n int, floors []int32, out []float64) []float64 {
	if cap(out) < n {
		out = make([]float64, n)
	} else {
		out = out[:n]
	}
	nf := z.nFeatures
	if z.classes != 2 {
		for r := range out {
			out[r] = z.PositiveProba(xs[r*nf : (r+1)*nf])
		}
		return out
	}
	// Leaf classes are 0 or 1, so one integer counter per row holds the
	// class-1 votes; float64(count)/trees is bit-identical to the reference's
	// votes[1]/trees, which divides the same integer-valued numerator.
	div := float64(z.nTrees)
	nodes := z.nodes
	for r := 0; r < n; r++ {
		x := xs[r*nf : (r+1)*nf]
		// maxMiss is the most negative votes a row can take and still
		// reach its floor; walked-cnt counts the negative votes so far.
		maxMiss := int32(z.nTrees)
		if floors != nil && floors[r] > 0 {
			maxMiss -= floors[r]
		}
		cnt, walked := int32(0), int32(0)
		for _, root := range z.roots {
			if walked-cnt > maxMiss {
				break
			}
			i := root
			for {
				nd := &nodes[i]
				if nd.feat < 0 {
					cnt += nd.class
					break
				}
				if x[nd.feat] <= nd.thresh {
					i = nd.left
				} else {
					i = nd.right
				}
			}
			walked++
		}
		out[r] = float64(cnt) / div
	}
	return out
}
