package serve

import (
	"io"
	"testing"
)

func TestKeyOfMatchesEngine(t *testing.T) {
	e := NewEngine(Config{Fingerprint: "fp-x", CacheBytes: 1 << 10})
	fill := func(w io.Writer) { io.WriteString(w, "doc-identity") }
	if got, want := KeyOf("fp-x", fill), e.KeyFrom(fill); got != want {
		t.Errorf("KeyOf = %s, Engine.KeyFrom = %s", got, want)
	}
	if got, want := PageKeyOf("fp-x", "p0", "<html>"), e.PageKey("p0", "<html>"); got != want {
		t.Errorf("PageKeyOf = %s, Engine.PageKey = %s", got, want)
	}
	if KeyOf("fp-x", fill) == KeyOf("fp-y", fill) {
		t.Error("different fingerprints must not collide")
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	k := PageKeyOf("fp", "p", "html")
	got, err := ParseKey(k.String())
	if err != nil || got != k {
		t.Fatalf("ParseKey(%s) = %v, %v", k, got, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Error("want error for bad hex")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Error("want error for short key")
	}
}
