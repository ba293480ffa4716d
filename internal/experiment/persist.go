package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"briq/internal/core"
	"briq/internal/feature"
	"briq/internal/forest"
	"briq/internal/jsonread"
	"briq/internal/tagger"
)

// modelBundle is the on-disk representation of a trained BriQ model set:
// the mention-pair classifier, the text-mention tagger, and the feature
// configuration they were trained under.
type modelBundle struct {
	Version    int             `json:"version"`
	Features   feature.Config  `json:"features"`
	Mask       []bool          `json:"mask"`
	Classifier json.RawMessage `json:"classifier"`
	Tagger     json.RawMessage `json:"tagger"`
}

const bundleVersion = 1

// SaveModels writes the trained classifier and tagger with their feature
// configuration, so a pipeline can be reconstructed without retraining.
// Persisting a model set that was never trained fails with core.ErrUntrained.
func SaveModels(w io.Writer, tr *Trained) error {
	if tr == nil || tr.Classifier == nil || tr.Tagger == nil {
		return fmt.Errorf("save models: %w", core.ErrUntrained)
	}
	clsJSON, err := forestJSON(tr.Classifier)
	if err != nil {
		return fmt.Errorf("save models: classifier: %w", err)
	}
	tagJSON, err := forestJSON(tr.Tagger.Forest())
	if err != nil {
		return fmt.Errorf("save models: tagger: %w", err)
	}
	bundle := modelBundle{
		Version:    bundleVersion,
		Features:   tr.Opts.FeatureConfig,
		Mask:       tr.Opts.Mask[:],
		Classifier: clsJSON,
		Tagger:     tagJSON,
	}
	if err := json.NewEncoder(w).Encode(bundle); err != nil {
		return fmt.Errorf("save models: %w", err)
	}
	return nil
}

// LoadModels reads a bundle written by SaveModels and reconstructs a
// Trained suitable for NewBriQ / NewRFOnly.
//
// SaveModels' own form is read in one pass, both forests parsed in place
// (parseBundle); every other input, each malformed one included, and every
// read that fails are decoded by json.Decoder from the same bytes
// (decodeModels), so the models and the error are always json.Decoder's.
func LoadModels(r io.Reader) (*Trained, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err == nil {
		if tr, ok := parseBundle(buf.Bytes()); ok {
			return tr, nil
		}
	}
	return decodeModels(io.MultiReader(&buf, r))
}

// decodeModels is LoadModels through json.Decoder.
func decodeModels(r io.Reader) (*Trained, error) {
	var bundle modelBundle
	if err := json.NewDecoder(r).Decode(&bundle); err != nil {
		return nil, fmt.Errorf("load models: %w", err)
	}
	if bundle.Version != bundleVersion {
		return nil, fmt.Errorf("load models: unsupported version %d", bundle.Version)
	}
	if len(bundle.Mask) != feature.NumFeatures {
		return nil, fmt.Errorf("load models: mask has %d features, want %d",
			len(bundle.Mask), feature.NumFeatures)
	}
	if len(bundle.Classifier) == 0 || len(bundle.Tagger) == 0 {
		// A structurally valid bundle with no model payload: the writer's
		// pipeline was never trained.
		return nil, fmt.Errorf("load models: bundle has no trained models: %w", core.ErrUntrained)
	}
	cls, err := forestFromJSON(bundle.Classifier)
	if err != nil {
		return nil, fmt.Errorf("load models: classifier: %w", err)
	}
	tagForest, err := forestFromJSON(bundle.Tagger)
	if err != nil {
		return nil, fmt.Errorf("load models: tagger: %w", err)
	}
	lt, err := tagger.FromForest(tagForest)
	if err != nil {
		return nil, fmt.Errorf("load models: tagger: %w", err)
	}
	return newTrained(bundle.Features, bundle.Mask, cls, lt), nil
}

// parseBundle reads data in the form SaveModels writes — modelBundle's keys
// in order, feature.Config's too, each forest in forest.Save's form — and
// reports whether it found a bundle decodeModels accepts. It gives the
// models decodeModels gives, and declines everything else.
func parseBundle(data []byte) (*Trained, bool) {
	var (
		version int
		fc      feature.Config
		mask    []bool
		cls     *forest.Forest
		tag     *forest.Forest
	)
	c := jsonread.New(data)
	ok := c.Next('{') && c.Key("version") && c.Int(&version) && version == bundleVersion &&
		c.Field("features") && c.Next('{') &&
		c.Key("Window") && c.Int(&fc.Window) &&
		c.Field("StepSize") && c.Int(&fc.StepSize) &&
		c.Field("StepWeight") && c.Float(&fc.StepWeight) &&
		c.Field("AggCueWindow") && c.Int(&fc.AggCueWindow) && c.Next('}') &&
		c.Field("mask") && jsonread.List(c, &mask, (*jsonread.Cursor).Bool) &&
		len(mask) == feature.NumFeatures &&
		c.Field("classifier")
	if ok {
		cls, ok = forest.Parse(c)
	}
	if ok = ok && c.Field("tagger"); ok {
		tag, ok = forest.Parse(c)
	}
	if !ok || !c.Next('}') {
		return nil, false
	}
	lt, err := tagger.FromForest(tag)
	if err != nil {
		return nil, false
	}
	return newTrained(fc, mask, cls, lt), true
}

// newTrained assembles a loaded bundle's models.
func newTrained(fc feature.Config, mask []bool, cls *forest.Forest, lt *tagger.Learned) *Trained {
	opts := DefaultTrainOptions(0)
	opts.FeatureConfig = fc
	copy(opts.Mask[:], mask)
	return &Trained{Classifier: cls, Tagger: lt, Opts: opts}
}

func forestJSON(f *forest.Forest) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

func forestFromJSON(raw json.RawMessage) (*forest.Forest, error) {
	return forest.Load(bytes.NewReader(raw))
}
