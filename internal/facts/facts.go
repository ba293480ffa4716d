// Package facts turns quantity alignments into knowledge-base facts — the
// augmentation use case of §I: "quantity alignment links the text to data
// from the tables, and vice versa. Hence, it can be combined with entity
// linking techniques to augment knowledge bases."
//
// A fact is (entity, measure, value, unit) with provenance: the entity comes
// from the row header (lightly canonicalized), the measure from the column
// header and caption, and the value from the aligned cell. Text-confirmed
// facts — cells that the surrounding prose actually discusses — carry the
// alignment's confidence; they are exactly the cells a knowledge base wants
// first.
package facts

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/quantity"
)

// Fact is one extracted quantity fact.
type Fact struct {
	Entity  string  `json:"entity"`  // canonicalized row header
	Measure string  `json:"measure"` // column header (+ caption hint)
	Value   float64 `json:"value"`
	Unit    string  `json:"unit,omitempty"`
	Agg     string  `json:"agg"` // single-cell or the aggregation that produced it

	// Provenance.
	DocID       string  `json:"doc_id"`
	TableKey    string  `json:"table_key"`
	TextSurface string  `json:"text_surface"` // the confirming text mention
	Confidence  float64 `json:"confidence"`   // the alignment's overall score
}

// Extract derives facts from a document's alignments. Single-cell alignments
// yield one fact each; aggregate alignments yield one fact per input cell
// region is out of scope — they instead yield a fact for the aggregate
// itself with the shared row/column header as entity/measure.
func Extract(doc *document.Document, alignments []core.Alignment) []Fact {
	var out []Fact
	for _, a := range alignments {
		tm := doc.TableMentions[a.TableIndex]
		tbl := tm.Table

		fact := Fact{
			Value:       tm.Value,
			Unit:        tm.Unit,
			Agg:         tm.Agg.String(),
			DocID:       doc.ID,
			TableKey:    a.TableKey,
			TextSurface: a.TextSurface,
			Confidence:  a.Score,
		}

		if tm.Agg == quantity.SingleCell {
			ref := tm.Cells[0]
			fact.Entity = CanonicalEntity(header(tbl.RowHeaders, ref.Row))
			fact.Measure = measureName(header(tbl.ColHeaders, ref.Col), tbl.Caption)
		} else {
			// Aggregates: the constant line's header names the scope.
			rows := map[int]bool{}
			cols := map[int]bool{}
			for _, ref := range tm.Cells {
				rows[ref.Row] = true
				cols[ref.Col] = true
			}
			switch {
			case len(rows) == 1:
				fact.Entity = CanonicalEntity(header(tbl.RowHeaders, tm.Cells[0].Row))
				fact.Measure = measureName(tm.Agg.String(), tbl.Caption)
			case len(cols) == 1:
				fact.Entity = CanonicalEntity(tbl.Caption)
				fact.Measure = measureName(tm.Agg.String()+" of "+header(tbl.ColHeaders, tm.Cells[0].Col), "")
			default:
				continue // no single naming line: skip
			}
		}
		if fact.Entity == "" || fact.Measure == "" {
			continue
		}
		out = append(out, fact)
	}
	return Dedupe(out)
}

func header(headers []string, idx int) string {
	if idx < len(headers) {
		return strings.TrimSpace(headers[idx])
	}
	return ""
}

func measureName(column, caption string) string {
	column = strings.TrimSpace(strings.ToLower(column))
	if column != "" {
		return column
	}
	return strings.TrimSpace(strings.ToLower(caption))
}

// entitySuffixes are organization/qualifier suffixes stripped during
// canonicalization, the light-weight stand-in for entity linking against a
// knowledge base.
var entitySuffixes = []string{
	"inc", "inc.", "corp", "corp.", "ltd", "ltd.", "llc", "plc",
	"group", "co", "co.", "company", "party", "district", "region",
}

// CanonicalEntity normalizes an entity surface form: lowercase, collapsed
// whitespace, organization suffixes stripped.
func CanonicalEntity(s string) string {
	words := strings.Fields(strings.ToLower(s))
	for len(words) > 0 {
		last := words[len(words)-1]
		stripped := false
		for _, suf := range entitySuffixes {
			if last == suf {
				words = words[:len(words)-1]
				stripped = true
				break
			}
		}
		if !stripped {
			break
		}
	}
	return strings.Join(words, " ")
}

// better reports whether a should win the (entity, measure, value, unit)
// slot over b: confidence descending, then provenance fields ascending. It
// is a total order over every non-key Fact field, so the winner never
// depends on the order facts were offered or retracted — the property that
// makes incremental re-ingestion byte-identical to a from-scratch build.
// Two facts that tie on every field are the same struct.
func better(a, b Fact) bool {
	if a.Confidence != b.Confidence {
		return a.Confidence > b.Confidence
	}
	if a.DocID != b.DocID {
		return a.DocID < b.DocID
	}
	if a.TableKey != b.TableKey {
		return a.TableKey < b.TableKey
	}
	if a.TextSurface != b.TextSurface {
		return a.TextSurface < b.TextSurface
	}
	return a.Agg < b.Agg
}

// Dedupe keeps the best fact per (entity, measure, value, unit) — highest
// confidence, provenance as the tie-break (see better) — and returns facts
// sorted by confidence descending (ties by entity).
func Dedupe(facts []Fact) []Fact {
	best := map[viewKey]Fact{}
	for _, f := range facts {
		k := viewKey{f.Entity, f.Measure, f.Unit, f.Value}
		if cur, ok := best[k]; !ok || better(f, cur) {
			best[k] = f
		}
	}
	out := make([]Fact, 0, len(best))
	for _, f := range best {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].Measure < out[j].Measure
	})
	return out
}

// View is an incrementally-maintained per-entity index of facts. It holds
// the full multiset of offered facts per (entity, measure, value, unit) key
// and computes the winner on read via better, so the view state after any
// Add/Remove sequence equals Dedupe over the surviving facts — retracting a
// page's stale facts during re-ingestion restores exactly the state a
// from-scratch build of the final corpus would reach.
//
// Keys are grouped by entity, so a per-entity read touches only that
// entity's keys; an entity leaves the view with its last key.
type View struct {
	byEntity map[string]map[slotKey][]Fact
	size     int // distinct (entity, measure, value, unit) keys held
	count    int // facts held: offered via Add, minus removed
}

type viewKey struct {
	entity, measure, unit string
	value                 float64
}

// slotKey is one entity's part of a viewKey.
type slotKey struct {
	measure, unit string
	value         float64
}

// NewView returns an empty per-entity facts view.
func NewView() *View {
	return &View{byEntity: make(map[string]map[slotKey][]Fact)}
}

// bestOf returns the winning fact of one key's multiset; facts must be
// non-empty.
func bestOf(facts []Fact) Fact {
	best := facts[0]
	for _, f := range facts[1:] {
		if better(f, best) {
			best = f
		}
	}
	return best
}

// Add merges a batch of facts into the view and returns how many distinct
// (entity, measure, value, unit) keys it created or improved.
func (v *View) Add(facts []Fact) int {
	changed := 0
	for _, f := range facts {
		v.count++
		slots := v.byEntity[f.Entity]
		if slots == nil {
			slots = make(map[slotKey][]Fact)
			v.byEntity[f.Entity] = slots
		}
		k := slotKey{f.Measure, f.Unit, f.Value}
		cur, ok := slots[k]
		if !ok {
			v.size++
		}
		if !ok || better(f, bestOf(cur)) {
			changed++
		}
		slots[k] = append(cur, f)
	}
	return changed
}

// Remove retracts previously added facts. Each fact is matched exactly
// (Fact is a comparable struct) and one matching copy is dropped from its
// key's multiset; keys left empty disappear, and so do entities left without
// keys. It returns how many facts were actually removed — fewer than
// len(facts) only if a fact was never added, which callers treat as a
// consistency bug.
func (v *View) Remove(facts []Fact) int {
	removed := 0
	for _, f := range facts {
		slots := v.byEntity[f.Entity]
		k := slotKey{f.Measure, f.Unit, f.Value}
		list, ok := slots[k]
		if !ok {
			continue
		}
		for i := range list {
			if list[i] == f {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				removed++
				v.count--
				break
			}
		}
		switch {
		case len(list) > 0:
			slots[k] = list
		case len(slots) > 1:
			delete(slots, k)
			v.size--
		default:
			delete(v.byEntity, f.Entity)
			v.size--
		}
	}
	return removed
}

// Entity returns the facts known for a canonical entity name, sorted by
// confidence descending (ties by measure, then unit, then value) — a
// deterministic per-entity slice of the Dedupe ordering.
func (v *View) Entity(name string) []Fact {
	slots := v.byEntity[name]
	if len(slots) == 0 {
		return nil
	}
	out := make([]Fact, 0, len(slots))
	for _, list := range slots {
		out = append(out, bestOf(list))
	}
	slices.SortFunc(out, func(a, b Fact) int {
		if a.Confidence != b.Confidence {
			if a.Confidence > b.Confidence {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.Measure, b.Measure); c != 0 {
			return c
		}
		if c := strings.Compare(a.Unit, b.Unit); c != 0 {
			return c
		}
		return cmp.Compare(a.Value, b.Value)
	})
	return out
}

// Entities returns the sorted list of entity names with at least one fact.
func (v *View) Entities() []string {
	out := make([]string, 0, len(v.byEntity))
	for e := range v.byEntity {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// EntityCount returns the number of entity names with at least one fact.
func (v *View) EntityCount() int { return len(v.byEntity) }

// Size returns the number of deduplicated facts held by the view.
func (v *View) Size() int { return v.size }

// Offered returns the number of facts fed to Add and not since removed.
func (v *View) Offered() int { return v.count }

// All returns every deduplicated fact in the Dedupe ordering.
func (v *View) All() []Fact {
	out := make([]Fact, 0, v.size)
	for _, slots := range v.byEntity {
		for _, list := range slots {
			out = append(out, bestOf(list))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].Measure < out[j].Measure
	})
	return out
}
