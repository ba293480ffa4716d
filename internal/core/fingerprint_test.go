package core

import "testing"

func TestFingerprintStableAndSensitive(t *testing.T) {
	p1 := NewPipeline()
	p2 := NewPipeline()
	fp := p1.Fingerprint()
	if fp == "" || len(fp) != 64 {
		t.Fatalf("fingerprint %q, want 64 hex chars", fp)
	}
	if fp != p1.Fingerprint() {
		t.Error("fingerprint not stable across calls")
	}
	if fp != p2.Fingerprint() {
		t.Error("identically configured pipelines have different fingerprints")
	}

	// Any output-affecting configuration change must change the fingerprint.
	p2.GraphConfig.Restart += 0.01
	if p2.Fingerprint() == fp {
		t.Error("graph config change did not change the fingerprint")
	}
	p3 := NewPipeline()
	p3.Mask[0] = !p3.Mask[0]
	if p3.Fingerprint() == fp {
		t.Error("mask change did not change the fingerprint")
	}
	p4 := NewPipeline()
	p4.FilterConfig.KExact++
	if p4.Fingerprint() == fp {
		t.Error("filter config change did not change the fingerprint")
	}
}

func TestFingerprintIgnoresServingConfig(t *testing.T) {
	// Workers and Recorder do not affect alignment output; the fingerprint
	// must not fragment the cache over them.
	p1 := NewPipeline()
	p2 := NewPipeline()
	p2.Workers = 8
	p2.Recorder = nil
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("fingerprint depends on non-output configuration")
	}
	if p1.Fingerprint() != p1.Clone().Fingerprint() {
		t.Error("clone fingerprint differs from prototype")
	}
}

// TestFingerprintPinned pins fingerprint bytes. Every store records the
// fingerprint in its meta.json and refuses to open under a different one, so
// any change to what Fingerprint hashes — or how — strands every existing
// store directory. Change these values only together with a store migration
// (they last changed with store format v3). The non-default case checks that
// graph config values other than the defaults are hashed.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		configure func(p *Pipeline)
		want      string
	}{
		{"default", func(*Pipeline) {}, "338fac9baf67649a70fde8eae58e4948a62d39872cf16f5883f48e11d79ddba0"},
		{"graph_ablations", func(p *Pipeline) {
			p.GraphConfig.Restart = 0.2
			p.GraphConfig.DisableRewire = true
			p.GraphConfig.DisableEntropyOrder = true
		}, "d71018736d79d4019f833075f42be6d2edb6997f2a10668a019c63b239f6c07a"},
	} {
		p := NewPipeline()
		tc.configure(p)
		if got := p.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %s, want %s", tc.name, got, tc.want)
		}
	}
}
