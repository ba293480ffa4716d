package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"briq/internal/core"
)

func TestSaveLoadModels(t *testing.T) {
	c, split, tr := fixture(t)

	var buf bytes.Buffer
	if err := SaveModels(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// The bundle's bytes and the pipeline fingerprint hashing both forests'
	// Save encoding scope every trained store's meta.json and document key:
	// a change to either re-keys every store.
	const (
		bundleLen   = 1228553
		bundleSHA   = "5f7db4bbf43b2e35f73a560026c368167205c4ecd640e24b88f0a5536997f624"
		fingerprint = "58c067775c7e64655ce90cf9238f2206e18a0467e0e93d7400853f91ac4f6b2c"
	)
	if n, sum := buf.Len(), fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); n != bundleLen || sum != bundleSHA {
		t.Errorf("SaveModels wrote %d bytes, sha256 %s; want %d bytes, sha256 %s", n, sum, bundleLen, bundleSHA)
	}
	if got := NewBriQ(tr).P.Fingerprint(); got != fingerprint {
		t.Errorf("trained fingerprint = %s, want %s", got, fingerprint)
	}
	if _, ok := parseBundle(buf.Bytes()); !ok {
		t.Error("parseBundle declined what SaveModels wrote")
	}

	// Every variant loads to the models SaveModels wrote, through LoadModels
	// and through json.Decoder alone.
	var indented bytes.Buffer
	if err := json.Indent(&indented, buf.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &fields); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(fields) // keys sorted: classifier first
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		data []byte
	}{
		{"as saved", buf.Bytes()},
		{"extra whitespace", indented.Bytes()},
		{"reordered keys", reordered},
		{"unknown key", append([]byte(`{"trained_on":"tableS",`), buf.Bytes()[1:]...)},
	}
	for _, v := range variants {
		for _, load := range []struct {
			name string
			fn   func(io.Reader) (*Trained, error)
		}{{"LoadModels", LoadModels}, {"decodeModels", decodeModels}} {
			got, err := load.fn(bytes.NewReader(v.data))
			if err != nil {
				t.Errorf("%s: %s: %v", v.name, load.name, err)
				continue
			}
			var again bytes.Buffer
			if err := SaveModels(&again, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Errorf("%s: %s: the loaded models save to other bytes", v.name, load.name)
			}
			if fp := NewBriQ(got).P.Fingerprint(); fp != fingerprint {
				t.Errorf("%s: %s: fingerprint %s, want %s", v.name, load.name, fp, fingerprint)
			}
		}
	}

	loaded, err := LoadModels(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// The reconstructed system must predict identically to the original.
	origSys := NewBriQ(tr)
	loadedSys := NewBriQ(loaded)
	docs := split.Test
	if len(docs) > 10 {
		docs = docs[:10]
	}
	for _, doc := range docs {
		orig := origSys.Predict(doc)
		got := loadedSys.Predict(doc)
		if len(orig) != len(got) {
			t.Fatalf("doc %s: %d vs %d predictions after reload", doc.ID, len(orig), len(got))
		}
		for i := range orig {
			if orig[i] != got[i] {
				t.Fatalf("doc %s prediction %d: %+v vs %+v", doc.ID, i, orig[i], got[i])
			}
		}
	}
	_ = c
}

func TestLoadModelsRejectsMalformed(t *testing.T) {
	cases := []string{
		"not json",
		`{"version":99}`,
		`{"version":1,"mask":[true],"classifier":{},"tagger":{}}`,
	}
	for _, src := range cases {
		if _, err := LoadModels(strings.NewReader(src)); err == nil {
			t.Errorf("LoadModels(%.30q) should fail", src)
		}
	}
}

// TestPersistUntrained pins the typed ErrUntrained taxonomy on both sides of
// persistence: saving a never-trained model set and loading a bundle with no
// model payload both report core.ErrUntrained through errors.Is.
func TestPersistUntrained(t *testing.T) {
	if err := SaveModels(io.Discard, nil); !errors.Is(err, core.ErrUntrained) {
		t.Errorf("SaveModels(nil) err = %v, want core.ErrUntrained", err)
	}
	if err := SaveModels(io.Discard, &Trained{}); !errors.Is(err, core.ErrUntrained) {
		t.Errorf("SaveModels(empty) err = %v, want core.ErrUntrained", err)
	}

	mask := strings.Repeat(`true,`, 11) + `true`
	empty := `{"version":1,"mask":[` + mask + `]}`
	if _, err := LoadModels(strings.NewReader(empty)); !errors.Is(err, core.ErrUntrained) {
		t.Errorf("LoadModels(no models) err = %v, want core.ErrUntrained", err)
	}
}

// BenchmarkLoadModels loads the fixture's bundle, as a replica boots from a
// briq-train file.
func BenchmarkLoadModels(b *testing.B) {
	_, _, tr := fixture(b)
	var buf bytes.Buffer
	if err := SaveModels(&buf, tr); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadModels(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
