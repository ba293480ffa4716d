package facts

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randomFacts(rng *rand.Rand, n int) []Fact {
	entities := []string{"acme", "widget net", "search co", "bed bath"}
	measures := []string{"income", "revenue", "q3 2012"}
	units := []string{"", "USD"}
	out := make([]Fact, n)
	for i := range out {
		out[i] = Fact{
			Entity:     entities[rng.Intn(len(entities))],
			Measure:    measures[rng.Intn(len(measures))],
			Value:      float64(rng.Intn(5)) * 10,
			Unit:       units[rng.Intn(len(units))],
			Agg:        "single-cell",
			DocID:      "d0",
			Confidence: float64(rng.Intn(10)) / 10,
		}
	}
	return out
}

// TestViewEqualsDedupe: merging batches incrementally must equal Dedupe over
// the concatenation, for every prefix of batches.
func TestViewEqualsDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewView()
	var all []Fact
	for batch := 0; batch < 20; batch++ {
		fs := randomFacts(rng, 1+rng.Intn(8))
		v.Add(fs)
		all = append(all, fs...)

		want := Dedupe(all)
		got := v.All()
		if len(got) != len(want) {
			t.Fatalf("batch %d: view has %d facts, Dedupe %d", batch, len(got), len(want))
		}
		// Compare as sets keyed by identity; ordering ties beyond
		// (confidence, entity, measure) are unspecified in both.
		key := func(f Fact) Fact { return f }
		sortFacts := func(fs []Fact) {
			sort.Slice(fs, func(i, j int) bool {
				a, b := fs[i], fs[j]
				if a.Entity != b.Entity {
					return a.Entity < b.Entity
				}
				if a.Measure != b.Measure {
					return a.Measure < b.Measure
				}
				if a.Unit != b.Unit {
					return a.Unit < b.Unit
				}
				return a.Value < b.Value
			})
		}
		gs, ws := append([]Fact(nil), got...), append([]Fact(nil), want...)
		sortFacts(gs)
		sortFacts(ws)
		for i := range gs {
			if key(gs[i]) != key(ws[i]) {
				t.Fatalf("batch %d, fact %d: view %+v != dedupe %+v", batch, i, gs[i], ws[i])
			}
		}
	}
	if v.Offered() != len(all) {
		t.Errorf("Offered() = %d, want %d", v.Offered(), len(all))
	}
}

func TestViewEntityOrdering(t *testing.T) {
	v := NewView()
	v.Add([]Fact{
		{Entity: "acme", Measure: "revenue", Value: 20, Confidence: 0.5},
		{Entity: "acme", Measure: "income", Value: 7, Confidence: 0.9},
		{Entity: "acme", Measure: "income", Value: 7, Confidence: 0.4}, // loses
		{Entity: "other", Measure: "income", Value: 3, Confidence: 0.8},
	})
	got := v.Entity("acme")
	if len(got) != 2 {
		t.Fatalf("Entity(acme) = %d facts, want 2", len(got))
	}
	if got[0].Measure != "income" || got[0].Confidence != 0.9 {
		t.Errorf("top fact = %+v, want income@0.9", got[0])
	}
	if got[1].Measure != "revenue" {
		t.Errorf("second fact = %+v, want revenue", got[1])
	}
	if ents := v.Entities(); !reflect.DeepEqual(ents, []string{"acme", "other"}) {
		t.Errorf("Entities() = %v", ents)
	}
	if v.Size() != 3 {
		t.Errorf("Size() = %d, want 3", v.Size())
	}
	if got := v.Entity("missing"); len(got) != 0 {
		t.Errorf("Entity(missing) = %v, want empty", got)
	}
}

func TestViewTieKeepsFirst(t *testing.T) {
	v := NewView()
	first := Fact{Entity: "acme", Measure: "income", Value: 7, Confidence: 0.5, DocID: "d-first"}
	second := first
	second.DocID = "d-second"
	v.Add([]Fact{first})
	v.Add([]Fact{second})
	got := v.Entity("acme")
	if len(got) != 1 || got[0].DocID != "d-first" {
		t.Errorf("tie should keep the first fact, got %+v", got)
	}
}

func TestViewFromExtract(t *testing.T) {
	doc, als := alignedDoc(t)
	fs := Extract(doc, als)
	v := NewView()
	v.Add(fs)
	if v.Size() != len(fs) {
		t.Fatalf("view size %d != %d extracted (Extract already dedupes)", v.Size(), len(fs))
	}
	if got := v.Entity("bed bath"); len(got) == 0 {
		t.Error("no facts for 'bed bath'")
	}
}

// referenceEntity is the full-scan Entity of the flat (entity, measure,
// value, unit) → facts map the view used to keep: the oracle for
// View.Entity.
func referenceEntity(all map[viewKey][]Fact, name string) []Fact {
	var out []Fact
	for k, list := range all {
		if k.entity == name {
			out = append(out, bestOf(list))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Measure != out[j].Measure {
			return out[i].Measure < out[j].Measure
		}
		if out[i].Unit != out[j].Unit {
			return out[i].Unit < out[j].Unit
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// TestViewEntityMatchesFullScan drives a view through a seeded sequence of
// Add and Remove calls, some of which empty an entity, and after each call
// requires Entity to match the full-scan oracle for every entity ever seen,
// and Entities, Size and Offered to match a fresh view of the surviving
// facts.
func TestViewEntityMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := NewView()
	var live []Fact
	names := map[string]bool{}
	emptied := 0
	for step := 0; step < 400; step++ {
		var removed []Fact
		switch op := rng.Intn(4); {
		case op == 0 && len(live) > 0:
			// Retract every fact of one entity.
			ent := live[rng.Intn(len(live))].Entity
			kept := live[:0]
			for _, f := range live {
				if f.Entity == ent {
					removed = append(removed, f)
				} else {
					kept = append(kept, f)
				}
			}
			live = kept
			emptied++
		case op == 1 && len(live) > 0:
			for n := 1 + rng.Intn(6); n > 0 && len(live) > 0; n-- {
				i := rng.Intn(len(live))
				removed = append(removed, live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		default:
			fs := randomFacts(rng, 1+rng.Intn(8))
			for _, f := range fs {
				names[f.Entity] = true
			}
			v.Add(fs)
			live = append(live, fs...)
		}
		if got := v.Remove(removed); got != len(removed) {
			t.Fatalf("step %d: Remove dropped %d of %d facts", step, got, len(removed))
		}

		all := map[viewKey][]Fact{}
		for _, f := range live {
			k := viewKey{f.Entity, f.Measure, f.Unit, f.Value}
			all[k] = append(all[k], f)
		}
		fresh := NewView()
		fresh.Add(live)
		if got, want := v.Entities(), fresh.Entities(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Entities() = %v, fresh view has %v", step, got, want)
		}
		if v.EntityCount() != len(fresh.Entities()) {
			t.Fatalf("step %d: EntityCount() = %d, want %d", step, v.EntityCount(), len(fresh.Entities()))
		}
		if v.Size() != fresh.Size() || v.Size() != len(all) {
			t.Fatalf("step %d: Size() = %d, fresh view %d, distinct keys %d", step, v.Size(), fresh.Size(), len(all))
		}
		if v.Offered() != len(live) {
			t.Fatalf("step %d: Offered() = %d, want %d", step, v.Offered(), len(live))
		}
		for name := range names {
			if got, want := v.Entity(name), referenceEntity(all, name); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Entity(%q) = %+v, full scan %+v", step, name, got, want)
			}
		}
	}
	if emptied == 0 {
		t.Fatal("the sequence never emptied an entity")
	}
}
