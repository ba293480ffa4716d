package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
)

// Key is a content address: the SHA-256 of the model fingerprint plus the
// request content. Two requests share a key iff the same models would see
// byte-identical input.
type Key [sha256.Size]byte

// String returns the key in hex, for logs and tests.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes the hex form produced by String — the persistent store
// round-trips keys through its on-disk log this way.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("serve: bad key %q: %w", s, err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("serve: bad key %q: %d bytes, want %d", s, len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// KeyOf derives a content address without an Engine: fill writes the
// request's identity into the hash, scoped by the model fingerprint. An
// Engine with the same fingerprint derives the same key via Engine.KeyFrom —
// offline indexers and the persistent store rely on that identity.
func KeyOf(fingerprint string, fill func(io.Writer)) Key {
	w := newKeyWriter(fingerprint)
	fill(w.h)
	return w.sum()
}

// PageKeyOf is the Engine-less form of Engine.PageKey. Its domain tag is
// the one store version 3 filed /v1/align/batch page entries under, which
// held document keys as every page entry does now, so those entries keep
// answering. The v3 entries of /v1/align, which held alignments under the
// tag "page", are never reached.
func PageKeyOf(fingerprint, pageID, html string) Key {
	w := newKeyWriter(fingerprint)
	w.str("batch-page")
	w.str(pageID)
	w.str(html)
	return w.sum()
}

// keyWriter incrementally builds a Key. Every field is length-prefixed so
// ("ab","c") and ("a","bc") cannot collide.
type keyWriter struct {
	h hash.Hash
}

func newKeyWriter(fingerprint string) *keyWriter {
	w := &keyWriter{h: sha256.New()}
	w.str(fingerprint)
	return w
}

func (w *keyWriter) str(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	w.h.Write(n[:])
	io.WriteString(w.h, s)
}

func (w *keyWriter) sum() Key {
	var k Key
	w.h.Sum(k[:0])
	return k
}
