package tagger_test

import (
	"testing"

	"briq/internal/corpus"
	"briq/internal/experiment"
	"briq/internal/tagger"
)

// TestPreparedMatchesOracleOnCorpus: on every text mention of the
// classify equivalence corpus (tableS seed 17, 60 pages), the per-document
// preparation gives the oracle's feature vectors bit for bit, and TagAll
// gives the oracle's tags, under the rule tagger and under the learned
// tagger trained on that corpus's split the way experiment.Train does.
func TestPreparedMatchesOracleOnCorpus(t *testing.T) {
	cfg := corpus.TableSConfig(17)
	cfg.Pages = 60
	c := corpus.Generate(cfg)
	split := experiment.SplitCorpus(c, 7)
	learned, err := tagger.Train(experiment.BuildTaggerExamples(c, split.Train), experiment.DefaultTrainOptions(3).TaggerForest)
	if err != nil {
		t.Fatal(err)
	}
	mentions := 0
	for _, doc := range c.Docs {
		tagger.CheckPreparedAgainstOracle(t, tagger.Rule{}, doc)
		tagger.CheckPreparedAgainstOracle(t, learned, doc)
		mentions += len(doc.TextMentions)
	}
	if mentions == 0 {
		t.Fatal("corpus has no text mentions; the check is vacuous")
	}
	t.Logf("checked %d text mentions across %d documents", mentions, len(c.Docs))
}
