package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestCommittedReportMatchesHarness pins the committed BENCH_pipeline.json to
// the report this harness writes: the file decodes into report with no
// unknown field, and re-encoding what was decoded gives back every field of
// the file. A section the harness no longer writes, or one it writes that the
// committed file lacks, fails until the report is regenerated.
func TestCommittedReportMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("BENCH_pipeline.json does not decode into report: %v", err)
	}
	again, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	var got, want map[string]any
	if err := json.Unmarshal(again, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if !reflect.DeepEqual(got[k], v) {
			t.Errorf("section %q: the report re-encodes to %v, the committed file holds %v", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("section %q: the report writes it, the committed file lacks it", k)
		}
	}
}
