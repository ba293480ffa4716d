package core

import (
	"context"

	"briq/internal/document"
	"briq/internal/filter"
)

// GatedScores runs the align path's classify stage on doc and returns the
// candidates it built, scored as that path scores them: value-far rows may
// carry the partial score of a walk that stopped early.
func (p *Pipeline) GatedScores(doc *document.Document) []filter.Candidate {
	out, _, _ := p.scorePairs(context.Background(), doc, true) // background ctx: cannot fail
	return out
}
