package feature

import (
	"encoding/binary"
	"slices"

	"briq/internal/nlp"
	"briq/internal/table"
)

// Tables is the table side of feature extraction, prepared once for every
// extractor that shares it. A page's documents share their *table.Table and
// *table.Mention values, and a table mention's features depend on its table
// and the lines its cells lie in, never on the document. So the extractors
// of one page share one Tables, and each table, line, line set and mention
// is prepared once for the page.
//
// A Tables is not safe for concurrent use: the extractors that share it
// must run one after another.
type Tables struct {
	// The interners of every extractor sharing the Tables. Text and table
	// sides must intern through the same ones to be comparable.
	words    *nlp.Interner       // context words (f2)
	phrases  *nlp.PhraseInterner // noun phrases (f4)
	surfaces *nlp.Interner       // normalized surfaces (f1 memo keys)

	tables   map[*table.Table]*tableContext
	mentions map[*table.Mention]*tableMentionData

	// Scratch for line-set lookups.
	rows, cols []int
	key        []byte
	bags       []nlp.IndexedBag
	lists      []nlp.IndexedPhrases
}

// NewTables returns an empty Tables.
func NewTables() *Tables {
	return &Tables{
		words:    nlp.NewInterner(),
		phrases:  nlp.NewPhraseInterner(),
		surfaces: nlp.NewInterner(),
		tables:   map[*table.Table]*tableContext{},
		mentions: map[*table.Mention]*tableMentionData{},
	}
}

// tableContext is what a Tables prepares per table: the bag of words and
// noun phrases of its whole content (the table side of f3/f5), the context
// of each row and column, and the local context of each line set.
type tableContext struct {
	bag        nlp.WeightedBag
	nps        []string
	rows, cols []*localContext          // by line index, nil until first use
	sets       map[string]*localContext // by lineSetKey
}

// localContext is the interned bag of words and noun phrases of a set of
// table lines: one row or column, or every row and column a mention's cells
// lie in (§IV-B, f2 and f4).
type localContext struct {
	bag     nlp.IndexedBag
	phrases nlp.IndexedPhrases
}

// tableMentionData is a table mention's prepared features.
type tableMentionData struct {
	normSurface string // normalizeSurface(tm.Surface())
	normID      int32  // surface id of normSurface
	local       *localContext
	rawValue    float64
	scale       int // tm.Scale()
	precision   int // tm.Precision()
}

// onLineSet, when set, is called each time a Tables prepares the local
// context of a line set. Tests count preparations with it.
var onLineSet func()

// table returns t's context, preparing its content bag and noun phrases on
// first use.
func (ts *Tables) table(t *table.Table) *tableContext {
	if tc, ok := ts.tables[t]; ok {
		return tc
	}
	content := t.Content()
	tc := &tableContext{
		bag:  nlp.NewWeightedBag(nlp.Words(content)),
		nps:  nlp.NounPhrases(content),
		rows: make([]*localContext, t.Rows()),
		cols: make([]*localContext, t.Cols()),
		sets: map[string]*localContext{},
	}
	ts.tables[t] = tc
	return tc
}

// mention returns tm's prepared features, preparing them on first use.
// Preparation order does not change any feature value: the interners assign
// ids in first-use order, but every float sum over interned bags goes
// through the order-independent sumSorted and f4 is count arithmetic.
func (ts *Tables) mention(tm *table.Mention) *tableMentionData {
	if td, ok := ts.mentions[tm]; ok {
		return td
	}
	td := &tableMentionData{
		normSurface: normalizeSurface(tm.Surface()),
		local:       ts.local(tm),
		rawValue:    tm.Value,
		scale:       tm.Scale(),
		precision:   tm.Precision(),
	}
	td.normID = ts.surfaces.ID(td.normSurface)
	if !tm.IsVirtual() {
		if q := tm.Table.Cell(tm.Cells[0].Row, tm.Cells[0].Col).Quantity; q != nil {
			td.rawValue = q.RawValue
		}
	}
	ts.mentions[tm] = td
	return td
}

// local returns the local context of tm: the max-weight union of the bags
// of the rows and columns its cells lie in, and the sum of their noun-phrase
// multisets. Both are order-independent, so the context is a function of
// the table and that set of lines, and mentions on the same set share it.
func (ts *Tables) local(tm *table.Mention) *localContext {
	tc := ts.table(tm.Table)
	rows, cols := ts.rows[:0], ts.cols[:0]
	for _, ref := range tm.Cells {
		rows = append(rows, ref.Row)
		cols = append(cols, ref.Col)
	}
	slices.Sort(rows)
	slices.Sort(cols)
	rows, cols = slices.Compact(rows), slices.Compact(cols)
	ts.rows, ts.cols = rows, cols
	ts.key = lineSetKey(ts.key[:0], rows, cols)
	if lc, ok := tc.sets[string(ts.key)]; ok {
		return lc
	}

	bags, lists := ts.bags[:0], ts.lists[:0]
	for _, r := range rows {
		line := ts.line(tc.rows, r, tm.Table.RowContext)
		bags, lists = append(bags, line.bag), append(lists, line.phrases)
	}
	for _, c := range cols {
		line := ts.line(tc.cols, c, tm.Table.ColContext)
		bags, lists = append(bags, line.bag), append(lists, line.phrases)
	}
	ts.bags, ts.lists = bags, lists
	lc := &localContext{bag: nlp.MergeIndexed(bags...), phrases: nlp.MergePhrases(lists...)}
	tc.sets[string(ts.key)] = lc
	if onLineSet != nil {
		onLineSet()
	}
	return lc
}

// line returns the context of line idx, building it from text(idx) on first
// use; lines holds one table's rows or its columns.
func (ts *Tables) line(lines []*localContext, idx int, text func(int) string) *localContext {
	if lc := lines[idx]; lc != nil {
		return lc
	}
	s := text(idx)
	lc := &localContext{
		bag:     nlp.IndexBag(nlp.NewWeightedBag(nlp.Words(s)), ts.words),
		phrases: ts.phrases.IndexPhrases(nlp.NounPhrases(s)),
	}
	lines[idx] = lc
	return lc
}

// lineSetKey appends the key of the line set (sorted distinct row and
// column indexes) to b: the number of rows, then the rows, then the columns,
// each as a uvarint.
func lineSetKey(b []byte, rows, cols []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = binary.AppendUvarint(b, uint64(r))
	}
	for _, c := range cols {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}
