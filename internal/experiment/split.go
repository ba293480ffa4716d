// Package experiment reproduces the paper's evaluation (§VII–§VIII): the
// 80/10/10 split with hardest-negative sampling (Table I), the quality
// comparison of RF / RWR / BriQ under original, truncated and rounded
// mentions (Table II), the per-type breakdowns (Tables III–V), filtering
// selectivity (Table VI), the feature-group ablation (Table VII), and the
// corpus-scale throughput and table statistics (Tables VIII–IX).
package experiment

import (
	"math/rand"

	"briq/internal/corpus"
	"briq/internal/document"
)

// Split is the 80/10/10 train/validation/test partition of a corpus,
// performed at document granularity (§VII-B).
type Split struct {
	Train, Val, Test []*document.Document
}

// SplitCorpus partitions the corpus documents 80/10/10 with a seeded
// shuffle.
func SplitCorpus(c *corpus.Corpus, seed int64) Split {
	docs := make([]*document.Document, len(c.Docs))
	copy(docs, c.Docs)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })

	n := len(docs)
	nTrain := n * 8 / 10
	nVal := n / 10
	return Split{
		Train: docs[:nTrain],
		Val:   docs[nTrain : nTrain+nVal],
		Test:  docs[nTrain+nVal:],
	}
}
