package forest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"briq/internal/jsonread"
)

// serialized is the stable on-disk representation of a Forest.
type serialized struct {
	Version   int              `json:"version"`
	Classes   int              `json:"classes"`
	NFeatures int              `json:"n_features"`
	Trees     [][]serifiedNode `json:"trees"`
}

type serifiedNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l,omitempty"`
	Right     int     `json:"r,omitempty"`
	Class     int     `json:"c"`
}

const serializeVersion = 1

// Save writes the forest as JSON. Models are small (tens of KB for the
// configurations used here) and loading them skips the training cost.
func (f *Forest) Save(w io.Writer) error {
	out := serialized{
		Version:   serializeVersion,
		Classes:   f.classes,
		NFeatures: f.nFeatures,
		Trees:     make([][]serifiedNode, len(f.trees)),
	}
	for ti, t := range f.trees {
		nodes := make([]serifiedNode, len(t.nodes))
		for ni, n := range t.nodes {
			nodes[ni] = serifiedNode{
				Feature: n.feature, Threshold: n.threshold,
				Left: n.left, Right: n.right, Class: n.class,
			}
		}
		out.Trees[ti] = nodes
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("forest: save: %w", err)
	}
	return nil
}

// Load reads a forest saved with Save and validates its structure. Like
// json.Decoder, it reads the first JSON value and ignores what follows.
//
// Save's own form is read in one pass (Parse); every other input, each
// malformed one included, and every read that fails are decoded by
// json.Decoder from the same bytes, so the forest and the error are always
// what decoding with json.Decoder gives.
func Load(r io.Reader) (*Forest, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err == nil {
		if f, ok := Parse(jsonread.New(buf.Bytes())); ok {
			return f, nil
		}
	}
	return decode(io.MultiReader(&buf, r))
}

// decode is Load through json.Decoder.
func decode(r io.Reader) (*Forest, error) {
	var in serialized
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("forest: load: %w", err)
	}
	f := &Forest{classes: in.Classes, nFeatures: in.NFeatures, trees: make([]*tree, len(in.Trees))}
	for ti, nodes := range in.Trees {
		t := &tree{nodes: make([]node, len(nodes))}
		for ni, n := range nodes {
			t.nodes[ni] = node{
				feature: n.Feature, threshold: n.Threshold,
				left: n.Left, right: n.Right, class: n.Class,
			}
		}
		f.trees[ti] = t
	}
	if err := f.validate(in.Version); err != nil {
		return nil, err
	}
	return f, nil
}

// Parse reads, at c, a forest in the form Save writes — its keys in Save's
// order, with Save's value types — and reports whether it found one that
// Load accepts; it then leaves c after the forest's closing brace. It gives
// the forest Load gives for the same bytes, and declines everything else.
func Parse(c *jsonread.Cursor) (*Forest, bool) {
	var version int
	f := &Forest{}
	ok := c.Next('{') && c.Key("version") && c.Int(&version) &&
		c.Field("classes") && c.Int(&f.classes) &&
		c.Field("n_features") && c.Int(&f.nFeatures) &&
		c.Field("trees") && jsonread.List(c, &f.trees, parseTree) &&
		c.Next('}')
	if !ok || f.validate(version) != nil {
		return nil, false
	}
	return f, true
}

func parseTree(c *jsonread.Cursor, t **tree) bool {
	*t = &tree{}
	return jsonread.List(c, &(*t).nodes, parseNode)
}

// parseNode reads {"f":F,"t":T,"l":L,"r":R,"c":C}, where Save omits "t",
// "l" and "r" when they are zero.
func parseNode(c *jsonread.Cursor, n *node) bool {
	ok := c.Next('{') && c.Key("f") && c.Int(&n.feature) && c.Next(',')
	if ok && c.Key("t") {
		ok = c.Float(&n.threshold) && c.Next(',')
	}
	if ok && c.Key("l") {
		ok = c.Int(&n.left) && c.Next(',')
	}
	if ok && c.Key("r") {
		ok = c.Int(&n.right) && c.Next(',')
	}
	return ok && c.Key("c") && c.Int(&n.class) && c.Next('}')
}

// validate checks a forest read from a file of the given format version.
func (f *Forest) validate(version int) error {
	if version != serializeVersion {
		return fmt.Errorf("forest: load: unsupported version %d", version)
	}
	if f.classes < 2 || f.nFeatures < 1 || len(f.trees) == 0 {
		return fmt.Errorf("forest: load: malformed model (classes=%d features=%d trees=%d)",
			f.classes, f.nFeatures, len(f.trees))
	}
	// Plausibility caps: class and feature counts size prediction scratch
	// (vote slices, probe vectors), so an implausibly huge header is rejected
	// as malformed instead of driving giant allocations downstream.
	const maxDimension = 1 << 20
	if f.classes > maxDimension || f.nFeatures > maxDimension {
		return fmt.Errorf("forest: load: implausible model (classes=%d features=%d)",
			f.classes, f.nFeatures)
	}
	for ti, t := range f.trees {
		if len(t.nodes) == 0 {
			return fmt.Errorf("forest: load: tree %d is empty", ti)
		}
		for ni, n := range t.nodes {
			if n.feature >= f.nFeatures {
				return fmt.Errorf("forest: load: tree %d node %d references feature %d of %d",
					ti, ni, n.feature, f.nFeatures)
			}
			if n.class < 0 || n.class >= f.classes {
				return fmt.Errorf("forest: load: tree %d node %d class %d out of range", ti, ni, n.class)
			}
			if n.feature >= 0 {
				// Children must point strictly forward — the builder appends a
				// node before growing its subtrees, so every valid save obeys
				// this. It also guarantees the prediction walk terminates: a
				// backward edge could encode a cycle that would hang predict.
				if n.left <= ni || n.left >= len(t.nodes) || n.right <= ni || n.right >= len(t.nodes) {
					return fmt.Errorf("forest: load: tree %d node %d has invalid children", ti, ni)
				}
			}
		}
	}
	return nil
}
