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

// TestFingerprintPinned pins the default pipeline's fingerprint bytes. Every
// store records the fingerprint in its meta.json and refuses to open under a
// different one, so any change to what Fingerprint hashes — or how — strands
// every existing store directory. Change this value only together with a
// store migration.
func TestFingerprintPinned(t *testing.T) {
	const want = "fc13fb16781dce89fa2e67094fa62ddb921c6302a8975ec48e67473500b11425"
	if got := NewPipeline().Fingerprint(); got != want {
		t.Errorf("Fingerprint() = %s, want %s", got, want)
	}
}
