package experiment

import (
	"briq/internal/document"
	"briq/internal/qkb"
)

// QKBSystem adapts the quantity-knowledge-base baseline (§VII-D) to the
// evaluation harness.
type QKBSystem struct {
	B qkb.Baseline
}

// Name implements System.
func (*QKBSystem) Name() string { return "QKB" }

// Predict implements System.
func (q *QKBSystem) Predict(doc *document.Document) []Prediction {
	var out []Prediction
	for _, a := range q.B.Predict(doc) {
		out = append(out, Prediction{
			DocID: doc.ID, TextIndex: a.TextIndex,
			TableKey: doc.TableMentions[a.TableIndex].Key(), Score: 1,
		})
	}
	return out
}
